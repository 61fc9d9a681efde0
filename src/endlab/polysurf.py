"""Geometric polyhedral surfaces over a cell surface.

A PolySurface attaches to each vertex of a CellSurface one of three kinds
of geometric data: a point of H^3 (compact), a decorated horosphere vector
(ideal, future null; the scale is the decoration), or a point of dS^3
(hyperideal).  Faces must be planar, the surface locally convex; face
plane normals are oriented away from the convex side (negative pairing
with an interior reference point), so exterior dihedral angles are
acos(<n1,n2>).

Edge lengths by endpoint kind: compact pairs use acosh(-<p,q>); ideal
pairs use the decorated length log(-<u,w>/2), a representative of the
per-vertex-shift quotient; hyperideal pairs use the truncated length
acosh(-<v0,v1>) when the edge crosses H^3, and the spacelike de Sitter
distance acos(<v0,v1>) on dual surfaces (whose edges stay in dS^3).
Surfaces mixing vertex kinds are rejected.

Non-triangular faces are fan-triangulated from their lowest-index vertex;
the added diagonals are flagged, carry exterior angle 0, and participate
in the length data.  Only finite polyhedral configurations are modelled;
properness of a surface in an end has no finite analogue here and is
recorded as unverified in the build diagnostics.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import mink
from .cellsurf import (CellSurface, SurfaceFormatError, _check_ids, _ints,
                       dual_cell_surface, parse_surf, serialize_surf, twin)
from .decor import BACKWARD, FORWARD, Decoration
from .mink import GeometryError, mdot

TAU_PLANE = 1e-8
#: a triangle whose unit vertex rows span at most this volume has linearly
#: dependent vertex vectors
TAU_DEGENERATE = 1e-12

COMPACT, IDEAL, HYPER = "compact", "ideal", "hyper"


class PolyBuildError(ValueError):
    pass


class UnsupportedGeometry(PolyBuildError):
    pass


@dataclass(frozen=True)
class VertexGeom:
    """Tagged vertex data: compact H^3 point, ideal horosphere, dS^3 point."""

    kind: str
    vec: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=float)
        if self.kind == COMPACT:
            v = mink.normalize_timelike(v)
        elif self.kind == IDEAL:
            if not mink.is_future_null(v):
                raise PolyBuildError("ideal vertex needs a future null vector")
        elif self.kind == HYPER:
            v = mink.normalize_spacelike(v)
        else:
            raise PolyBuildError("unknown vertex kind %r" % self.kind)
        object.__setattr__(self, "vec", v)


def compact_point(v):
    return VertexGeom(COMPACT, v)


def ideal_point(u):
    return VertexGeom(IDEAL, u)


def hyper_point(v):
    return VertexGeom(HYPER, v)


# ---------------------------------------------------------------------------
# fan triangulation of polygon faces


def _triangulate(base):
    """Triangulated copy of ``base``: (surface, diagonal edge ids).

    Polygon faces are fanned from their lowest-index vertex; original edge
    ids are preserved, diagonals appended after them.
    """
    if base.is_quasi_simplicial():
        return base, set()
    edges = list(base.edges)
    cycles = []
    diagonals = set()
    for cyc in base.face_cycles:
        m = len(cyc)
        if m == 3:
            cycles.append(list(cyc))
            continue
        if m < 3:
            raise PolyBuildError("face with fewer than 3 sides")
        verts = [base.tail(d) for d in cyc]
        p = verts.index(min(verts))
        rot = cyc[p:] + cyc[:p]
        vrot = verts[p:] + verts[:p]
        # fan: triangles (v0, v_i, v_{i+1}); diagonal i runs v0 -> v_i
        diag_dart = {}
        for i in range(2, m - 1):
            e_id = len(edges)
            edges.append((vrot[0], vrot[i]))
            diagonals.add(e_id)
            diag_dart[i] = 2 * e_id
        for i in range(1, m - 1):
            first = rot[0] if i == 1 else diag_dart[i]
            last = twin(diag_dart[i + 1]) if i + 1 <= m - 2 else rot[m - 1]
            cycles.append([first, rot[i], last])
    tri = CellSurface(base.n_vertices, edges, cycles, None)
    return tri, diagonals


# ---------------------------------------------------------------------------
# triangle support planes


def _triangle_planes(rows):
    """Unnormalised support-plane normals of triangles, and the volumes
    that their vertex rows span, both as arrays over the triangles.

    ``rows`` (4, 3, F) holds each triangle's vertex vectors times the
    metric, as (coordinate, vertex, triangle).  Each row is scaled to unit
    Euclidean length, which moves no normal, and the normal is the
    generalised cross product of a, b - a and c - a, the same as that of
    a, b and c but with smaller minors: the cofactors of the first row of
    det(x; a; b - a; c - a), elementwise from the six 2 x 2 minors of its
    last two rows.  Its Euclidean pairings with a, b and c vanish, and its
    length is the volume the unit rows span, 0 when they are linearly
    dependent.
    """
    x = rows / np.sqrt(rows[0] * rows[0] + rows[1] * rows[1]
                       + rows[2] * rows[2] + rows[3] * rows[3])
    a, b, c = x[:, 0], x[:, 1] - x[:, 0], x[:, 2] - x[:, 0]
    p = {(k, m): b[k] * c[m] - b[m] * c[k]
         for k in range(4) for m in range(k + 1, 4)}
    n = np.array([a[1] * p[2, 3] - a[2] * p[1, 3] + a[3] * p[1, 2],
                  -(a[0] * p[2, 3] - a[2] * p[0, 3] + a[3] * p[0, 2]),
                  a[0] * p[1, 3] - a[1] * p[0, 3] + a[3] * p[0, 1],
                  -(a[0] * p[1, 2] - a[1] * p[0, 2] + a[2] * p[0, 1])])
    return n, np.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2] + n[3] * n[3])


# ---------------------------------------------------------------------------
# frames and links


def _complement_frames(vecs):
    """Minkowski-orthonormal frames of the complements of non-null vectors.

    For vecs (V, 4) returns (rows (V, 3, 4), signs (V, 3)) with
    <rows[v, i], rows[v, j]> = signs[v, i] d_ij: Gram-Schmidt over the
    seeds e_0..e_3 in turn, each seed projected off vecs[v] and the rows
    already kept, skipped where |<w, w>| < 1e-10, until three rows are
    kept.  Every vertex runs through the same float operations in the same
    order as it would alone; only the vertices still short of three rows
    take each seed.
    """
    n = len(vecs)
    basis = np.zeros((n, 4, 4))  # vecs[v], then the rows kept so far
    norms = np.ones((n, 4))
    basis[:, 0] = vecs
    norms[:, 0] = mdot(vecs, vecs)
    count = np.zeros(n, dtype=int)
    for s in range(4):
        act = np.flatnonzero(count < 3)
        w = np.zeros((len(act), 4))
        w[:, s] = 1.0
        for j in range(1 + s):
            b = basis[act, j]
            w = np.where((count[act] >= j)[:, None],
                         w - (mdot(w, b) / norms[act, j])[:, None] * b, w)
        q = mdot(w, w)
        ok = np.abs(q) >= 1e-10
        act, w, q = act[ok], w[ok], q[ok]
        basis[act, 1 + count[act]] = w / np.sqrt(np.abs(q))[:, None]
        norms[act, 1 + count[act]] = np.copysign(1.0, q)
        count[act] += 1
    if np.any(count < 3):
        raise PolyBuildError("degenerate tangent frame")
    return basis[:, 1:], norms[:, 1:].astype(int)


def _horosphere_charts(vectors):
    """The :func:`horosphere_chart` rows (ea, eb, m) of every ideal vector
    in ``vectors`` (V, 4), as an array (V, 3, 4).

    The seed axes e_0..e_2 are taken least-aligned first (a stable sort of
    |u_i|, whose projections off u cancel least), each projected off the
    spatial part of u and the axes already kept, and skipped where the norm
    of what is left is under 1e-10 or undefined, until two axes are kept.
    A finite u fails only when its spatial part squares to zero; any other
    leaves norms of at least 1/sqrt(2) on the first two seeds.  Every
    vertex runs through the same float operations in the same order as it
    would alone (``vecdot`` for each dot product, the 1-D ``@`` kernel, and
    sqrt(<w, w>) for the norm); only the vertices still short of two axes
    take each seed.
    """
    n = len(vectors)
    spatial = vectors[:, :3]
    out = np.zeros((n, 3, 4))
    out[:, 2, :3] = -spatial
    out[:, 2, 3] = vectors[:, 3]
    out[:, 2] /= (vectors[:, 3] * vectors[:, 3])[:, None]
    seeds = np.eye(3)[np.argsort(np.abs(spatial), axis=1, kind="stable")]
    count = np.zeros(n, dtype=int)
    for s in range(3):
        act = np.flatnonzero(count < 2)
        sp, seed = spatial[act], seeds[act, s]
        w = seed - (np.vecdot(seed, sp) / np.vecdot(sp, sp))[:, None] * sp
        a = out[act, 0, :3]  # the one axis kept so far, if any
        w = np.where((count[act] > 0)[:, None],
                     w - np.vecdot(w, a)[:, None] * a, w)
        nrm = np.sqrt(np.vecdot(w, w))
        ok = nrm >= 1e-10  # false for nan: a vector with no spatial part
        act, w, nrm = act[ok], w[ok], nrm[ok]
        out[act, count[act], :3] = w / nrm[:, None]
        count[act] += 1
    if np.any(count < 2):
        raise PolyBuildError("degenerate horosphere chart")
    return out


def horosphere_chart(u):
    """Flat chart data of the horosphere with vector u.

    Returns (ea, eb, m): unit spacelike chart axes orthogonal to u and m,
    and the opposite null vector m with <u, m> = -2.  The horosphere
    {<p, u> = -1} is the image of the plane under
    p(xi) = ((1 + |xi|^2)/2) u + m/2 + xi_1 ea + xi_2 eb, and a point p on
    it has chart coordinates xi = (<p, ea>, <p, eb>).  The axes are those
    of :func:`_horosphere_charts`.
    """
    ea, eb, m = _horosphere_charts(np.asarray(u, dtype=float)[None])[0]
    return ea, eb, m


def ideal_link_point(u_v, u_w):
    """Intersection of the geodesic (u_v, u_w) with the horosphere of u_v.

    Broadcasts over leading axes.
    """
    mu = -mdot(u_v, u_w)
    if np.any(mu <= 0):
        raise GeometryError("same ideal point")
    return 0.5 * u_v + u_w / mu[..., None]


@dataclass
class LinkBundle:
    """Vertex frames and dart link coordinates, as arrays.

    ``frames`` (V, 3, 4) holds the rows of each vertex frame: the
    Gram-Schmidt frame of the complement of a compact or hyperideal vertex,
    or the horosphere chart (ea, eb, m) of an ideal one.  ``signs`` (V, k)
    are the metric signs of the k frame coordinates (k = 3, or 2 for the
    ideal chart).  For a dart d with tail v, ``raw[d]`` is the unit tangent
    at v along the edge (compact/hyper) or the intersection point of the
    edge with the decorated horosphere (ideal), and ``coords[d]`` its frame
    coordinates, coords[d, i] = signs[v, i] <raw[d], frames[v, i]>.
    """

    frames: np.ndarray
    signs: np.ndarray
    raw: np.ndarray
    coords: np.ndarray


# ---------------------------------------------------------------------------
# the surface


class _VertexArray(Sequence):
    """Vertex data held as arrays, the vertex ``kinds`` and the (V x 4)
    ``vectors`` that VertexGeom would keep for them, read as a sequence of
    VertexGeom, each made when it is read."""

    def __init__(self, kinds, vectors):
        self.kinds, self.vectors = kinds, vectors

    def __len__(self):
        return len(self.vectors)

    def __getitem__(self, v):
        return _geom(str(self.kinds[v]), self.vectors[v].copy())


class PolySurface:
    def __init__(self, base, geoms, *, is_dual=False, reference=None,
                 strict=True, tau_plane=TAU_PLANE):
        if base.n_vertices != len(geoms):
            raise PolyBuildError("one vertex datum per vertex required")
        self.base = base
        if isinstance(geoms, _VertexArray):
            kinds, self.vectors = set(geoms.kinds.tolist()), geoms.vectors
        else:
            geoms = list(geoms)
            kinds = {g.kind for g in geoms}
            self.vectors = np.array([g.vec for g in geoms])
        self.geoms = geoms
        self.is_dual = bool(is_dual)
        self.strict = bool(strict)
        self.tau_plane = float(tau_plane)
        if len(kinds) > 1:
            raise UnsupportedGeometry("mixed vertex kinds are unsupported: %s"
                                      % sorted(kinds))
        self.kind = next(iter(kinds))
        self.tri, self.diagonal_edges = _triangulate(base)
        if reference is None:
            reference = self._default_reference()
        self.reference = np.asarray(reference, dtype=float)
        self.diagnostics = {
            "properness": "global properness unverified (finite model)",
        }
        self.base_face_normals = self._face_normals()
        # triangulated faces inherit their polygon's plane
        self.face_normals = np.repeat(
            self.base_face_normals, np.maximum(base.face_sizes - 2, 1), axis=0)
        self._check_planarity()
        self._check_convexity()
        self._links = None

    # -- construction helpers ---------------------------------------------

    def _default_reference(self):
        """A timelike point inside the surface that moves with it: the
        normalised vertex sum, or for hyperideal surfaces the normalised sum
        of the midpoints of the edges that cross H^3."""
        if self.kind == HYPER:
            a, b = self.base.dart_tail.reshape(-1, 2).T
            crossing = mdot(self.vectors[a], self.vectors[b]) < -1.0
            if not crossing.any():
                raise PolyBuildError("no edge crosses H^3; "
                                     "pass an explicit reference")
            mid = self.vectors[a[crossing]] + self.vectors[b[crossing]]
            mid /= np.sqrt(-mdot(mid, mid))[:, None]
            mid[mid[:, 3] < 0] *= -1
            return mink.normalize_timelike(mid.sum(axis=0))
        c = self.vectors.sum(axis=0)
        if mdot(c, c) >= 0:
            raise PolyBuildError("vertex data has no timelike centroid; "
                                 "pass an explicit reference")
        return mink.normalize_timelike(c)

    def _face_normals(self):
        """Support-plane normals of the base faces, normalised and oriented
        away from ``reference``.  A triangle's normal is the cross product
        of its vertex rows times the metric (:func:`_triangle_planes`); a
        triangle whose unit rows span a volume of at most TAU_DEGENERATE
        has linearly dependent vertex vectors and is rejected.  A face of
        k >= 4 vertices takes the right singular vector of the smallest
        singular value of those rows, one stacked SVD per size, and its
        planarity margin is sigma_4 / sigma_1 (0 on triangles)."""
        base = self.base
        sizes = base.face_sizes
        out = np.empty((base.n_faces, 4))
        self._planarity_margin = np.zeros(base.n_faces)
        for k in np.unique(sizes):
            faces = np.flatnonzero(sizes == k)
            vids = base.dart_tail[base.cycle_darts[
                base.cycle_start[faces, None] + np.arange(k)]]
            if k == 3:
                n, volume = _triangle_planes(self.vectors.T[:, vids.T]
                                             * mink.METRIC_DIAG[:, None, None])
                bad = np.flatnonzero(volume <= TAU_DEGENERATE)
                if bad.size:
                    raise PolyBuildError("face %d is degenerate: its vertex "
                                         "vectors are linearly dependent"
                                         % faces[bad[0]])
                out[faces] = n.T
            else:
                _, sing, vt = np.linalg.svd(
                    self.vectors[vids] @ np.diag(mink.METRIC_DIAG))
                self._planarity_margin[faces] = sing[:, 3] / sing[:, 0]
                out[faces] = vt[:, 3]
        nn = mdot(out, out)
        # mink.classify's rule: null within TAU_NULL of the Euclidean norm
        null = np.flatnonzero(np.abs(nn) <= mink.TAU_NULL
                              * np.sum(out * out, axis=1))
        if null.size:
            raise PolyBuildError("face %d has a null support plane" % null[0])
        out /= np.sqrt(np.abs(nn))[:, None]
        # timelike normals on the upper sheet, as mink.normalize_timelike
        out[(nn < 0) & (out[:, 3] < 0)] *= -1
        out[mdot(out, self.reference) > 0] *= -1
        return out

    def _check_planarity(self):
        bad = np.flatnonzero(self._planarity_margin > self.tau_plane).tolist()
        self.diagnostics["planarity_margins"] = self._planarity_margin
        if bad:
            raise PolyBuildError("non-planar declared face: %s" % bad)

    def _check_convexity(self):
        """Opposite apex of each edge must not rise above the face plane."""
        tri = self.tri
        apex = self.vectors[tri.dart_tail[tri.fprev[1::2]]]
        val = mdot(apex, self.face_normals[tri.dart_face[0::2]])
        scale = np.maximum(1.0, np.max(np.abs(apex), axis=1))
        structural = np.ones(tri.n_edges, dtype=bool)
        structural[list(self.diagonal_edges)] = False
        concave = np.flatnonzero(structural & (val > 1e-7 * scale))
        if concave.size and self.strict:
            raise PolyBuildError("locally concave structural edge %d"
                                 % concave[0])
        self.diagnostics["convexity_margins"] = val / scale
        self.diagnostics["flat_edges"] = np.flatnonzero(
            structural & (val > -1e-9 * scale)).tolist()
        if self.kind == HYPER and not self.is_dual:
            ends = self.vectors[tri.dart_tail]
            missing = np.flatnonzero(
                mdot(ends[0::2], ends[1::2]) > -1.0).tolist()
            if missing and self.strict:
                raise PolyBuildError("hyperideal edge missing H^3: %s" % missing)
            self.diagnostics["edges_missing_h3"] = missing

    # -- geometric data -----------------------------------------------------

    def edge_lengths(self):
        """Per-edge lengths; for ideal surfaces a representative of the
        quotient by per-vertex decoration shifts.
        """
        out = np.empty(self.tri.n_edges)
        for e, (a, b) in enumerate(self.tri.edges):
            va, vb = self.vectors[a], self.vectors[b]
            if self.kind == COMPACT:
                out[e] = mink.hyp_distance(va, vb)
            elif self.kind == IDEAL:
                out[e] = mink.decorated_length(va, vb)
            else:
                c = float(mdot(va, vb))
                if c <= -1.0:
                    out[e] = math.acosh(-c)
                elif abs(c) < 1.0:
                    if not self.is_dual:
                        raise PolyBuildError(
                            "hyperideal edge missing H^3: %d" % e)
                    out[e] = math.acos(c)
                else:
                    raise PolyBuildError("degenerate hyperideal edge %d" % e)
        return out

    def dihedral_angles(self):
        """Exterior dihedral angles acos(<n1,n2>); 0 on diagonals."""
        out = np.empty(self.tri.n_edges)
        for e in range(self.tri.n_edges):
            f1 = int(self.tri.dart_face[2 * e])
            f2 = int(self.tri.dart_face[2 * e + 1])
            n1, n2 = self.face_normals[f1], self.face_normals[f2]
            if mdot(n1, n1) < 0 or mdot(n2, n2) < 0:
                raise PolyBuildError("dihedral angle needs spacelike normals")
            c = float(mdot(n1, n2))
            if abs(c) > 1.0 + 1e-9:
                raise mink.UltraparallelError(math.acosh(abs(c)))
            out[e] = math.acos(min(1.0, max(-1.0, c)))
            if e in self.diagonal_edges and out[e] > 1e-7:
                raise PolyBuildError("diagonal edge %d is not flat" % e)
        return out

    def links(self):
        if self._links is not None:
            return self._links
        if self.kind == IDEAL:
            frames = _horosphere_charts(self.vectors)
            signs = np.ones((self.tri.n_vertices, 2), dtype=int)
        else:
            frames, signs = _complement_frames(self.vectors)
        tail = self.tri.dart_tail
        head = tail[twin(np.arange(self.tri.n_darts))]
        qv, qw = self.vectors[tail], self.vectors[head]
        if self.kind == IDEAL:
            raw = ideal_link_point(qv, qw)
        else:
            t = qw - (mdot(qw, qv) / mdot(qv, qv))[:, None] * qv
            tt = mdot(t, t)
            bad = np.flatnonzero(np.abs(tt) < 1e-14)
            if bad.size:
                raise PolyBuildError("degenerate edge direction at dart %d"
                                     % bad[0])
            raw = t / np.sqrt(np.abs(tt))[:, None]
        k = signs.shape[1]
        coords = mdot(raw[:, None, :], frames[tail, :k]) * signs[tail]
        self._links = LinkBundle(frames, signs, raw, coords)
        return self._links

    # -- derived constructions ----------------------------------------------

    def gauss_circles(self):
        """Ideal-boundary circles of the face planes in the fixed CP^1 chart.

        Chart: stereographic projection from the null direction (0,0,-1,1).
        Returns one record per base face: ("circle", center, radius) or
        ("line", a, b, c) for a*x + b*y + c = 0 with (a,b) unit.
        """
        if self.kind != IDEAL:
            raise UnsupportedGeometry("gauss_circles needs an ideal surface")
        out = []
        for n in self.base_face_normals:
            denom = n[2] + n[3]
            if abs(denom) > 1e-9:
                center = complex(n[0] / denom, n[1] / denom)
                out.append(("circle", center, 1.0 / abs(denom)))
            else:
                # boundary condition in the chart: 2 n1 x + 2 n2 y = n4 - n3
                a, b, c = 2 * n[0], 2 * n[1], n[2] - n[3]
                nrm = math.hypot(a, b)
                a, b, c = a / nrm, b / nrm, c / nrm
                if a < 0 or (a == 0 and b < 0):
                    a, b, c = -a, -b, -c
                out.append(("line", a, b, c))
        return out

    def dual_surface(self):
        """Dual surface: vertices are the de Sitter duals of the face planes.

        Requires a convex compact surface.  Edge lengths of the dual equal
        the exterior dihedral angles of this surface, edge by edge (the
        dual complex reuses primal edge ids).
        """
        if self.kind != COMPACT:
            raise UnsupportedGeometry("dual_surface needs a compact surface")
        if self.base.n_faces != self.tri.n_faces:
            raise UnsupportedGeometry("dual_surface needs a triangulated base")
        dual_base = dual_cell_surface(self.base)
        geoms = [hyper_point(self.face_normals[f])
                 for f in range(self.base.n_faces)]
        return PolySurface(dual_base, geoms, is_dual=True,
                           reference=self.reference, strict=False)

    def with_vertex_vectors(self, vecs, reference=None):
        """Same combinatorics and kinds over replaced vertex vectors."""
        geoms = [VertexGeom(g.kind, v) for g, v in zip(self.geoms, vecs)]
        if reference is None and self.kind == HYPER:
            reference = self.reference
        return PolySurface(self.base, geoms, is_dual=self.is_dual,
                           reference=reference, strict=False,
                           tau_plane=math.inf)

    def deformation_states(self, z, certified=False):
        """Edge states of k first-order deformations at once, a (k x E)
        array whose row i is the decoration of deformation i.

        For compact/hyperideal surfaces ``z`` (k, V, 4) holds one tangent
        4-vector per vertex; an edge is oriented away from the endpoint
        where the pairing with the link tangent is positive.  For ideal
        surfaces ``z`` is a pair (w, c) of (k, V, 2) chart vectors and
        (k, V) constants, one affine function per vertex, and the pairing
        is w . xi + c at the link point.  An edge stays unoriented in row i
        when its value is at most 1e-9 times the largest of row i in
        magnitude.  With ``certified`` set, the two endpoint values of
        every edge must cancel (a length-preserving deformation), else a
        PolyBuildError names the first offending edge of the first row
        with one.
        """
        links = self.links()
        tail = self.tri.dart_tail
        if self.kind == IDEAL:
            w, c = z
            vals = np.vecdot(w[:, tail], links.coords) + c[:, tail]
        else:
            vals = mdot(z[:, tail], links.raw)
        scale = np.max(np.abs(vals), axis=1, initial=0.0)[:, None]
        tau_orient = 1e-9 * np.maximum(scale, 1e-30)
        if certified:
            resid = np.abs(vals[:, 0::2] + vals[:, 1::2])
            bad = np.argwhere(resid > 1e3 * tau_orient
                              + 1e-8 * np.maximum(scale, 1.0))
            if bad.size:
                raise PolyBuildError(
                    "not length-preserving: edge %d residual %.3g"
                    % (bad[0, 1], resid[tuple(bad[0])]))
        first = vals[:, 0::2]
        return np.where(first > tau_orient, FORWARD,
                        np.where(first < -tau_orient, BACKWARD, 0))

    def decoration_from_deformation(self, z, certified=False):
        """The decoration of one first-order deformation: the one-row case
        of :meth:`deformation_states`, with ``z`` one tangent 4-vector per
        vertex, or for ideal surfaces one pair (w, c) per vertex."""
        if self.kind == IDEAL:
            w, c = zip(*z)
            z = np.array(w, dtype=float)[None], np.array(c, dtype=float)[None]
        else:
            z = np.asarray(z, dtype=float)[None]
        return Decoration(self.tri, self.deformation_states(z, certified)[0])


# ---------------------------------------------------------------------------
# poly v1 text format


def serialize_poly(ps):
    text = serialize_surf(ps.base)
    lines = []
    for v, g in enumerate(ps.geoms):
        lines.append("geom %d %s %.17g %.17g %.17g %.17g"
                     % (v, g.kind, *g.vec))
    return text + "\n".join(lines) + "\n"


def _normalized(kinds, vecs):
    """The vectors VertexGeom keeps for the rows of ``vecs`` (n x 4) of
    kinds ``kinds``, all at once and bit for bit: <v, v> is mink.mdot's sum
    in its order, each row is divided by the correctly rounded square root
    as one vector is, and the null test of an ideal row takes its Euclidean
    norm from ``np.vecdot``, which runs the same dot per row as the
    ``np.dot`` of mink.classify.  Raises ValueError if VertexGeom would
    reject a row."""
    q = mdot(vecs, vecs)
    timelike, null, spacelike = (kinds == k for k in (COMPACT, IDEAL, HYPER))
    e2 = np.vecdot(vecs[null], vecs[null])
    if (not np.all(timelike | null | spacelike)
            or np.any(q[timelike] >= 0) or np.any(q[spacelike] <= 0)
            or not np.all((np.abs(q[null]) <= mink.TAU_NULL * e2)
                          & (vecs[null, 3] > 0) & (e2 != 0))):
        raise ValueError("unknown vertex kind, or a vector of the wrong "
                         "causal type")
    out = vecs.copy()
    out[timelike] /= np.sqrt(-q[timelike])[:, None]
    out[timelike & (out[:, 3] < 0)] *= -1
    out[spacelike] /= np.sqrt(q[spacelike])[:, None]
    return out


def _geom(kind, vec):
    """A VertexGeom of a vector that its kind's normalisation gave."""
    geom = object.__new__(VertexGeom)
    object.__setattr__(geom, "kind", kind)
    object.__setattr__(geom, "vec", vec)
    return geom


def _python_geoms(text, lines):
    """(ids, kinds, vectors) of the geom records of ``text`` on the
    ``lines``, as :func:`parse_poly` takes them from numpy's reader and
    :func:`_normalized`, read record by record in line order with
    ``str.split``, ``int`` and ``float``, each vector normalised by
    VertexGeom (the ids are an object array when one does not fit int64).
    Raises SurfaceFormatError with the first fault of a single record and
    its line: another number of fields or an unknown vertex kind, a
    coordinate that is not a finite number, a repeated id, a vector of the
    wrong causal type."""
    raw = text.splitlines()
    ids, kinds, vecs = {}, [], []
    for ln in lines:
        parts = raw[ln - 1].split("#", 1)[0].split()
        if len(parts) != 7 or parts[2] not in (COMPACT, IDEAL, HYPER):
            raise SurfaceFormatError("bad geom record", line=ln)
        try:
            vec = np.array([float(x) for x in parts[3:7]])
            if not np.all(np.isfinite(vec)):
                raise ValueError("non-finite geom coordinate")
            key = int(parts[1])
            if key in ids:
                raise ValueError("duplicate geom %d" % key)
            ids[key] = None
            kinds.append(parts[2])
            vecs.append(VertexGeom(parts[2], vec).vec)
        except (ValueError, PolyBuildError) as exc:
            raise SurfaceFormatError(str(exc), line=ln) from exc
    return (_ints(list(ids)), np.array(kinds, dtype=str),
            np.array(vecs).reshape(-1, 4))


def parse_poly(text):
    """Parse "poly v1": the surface as :func:`parse_surf` reads it, with the
    fields of its geom records as numpy's C reader reads them, their
    vectors checked and normalised in one pass over all vertices.  Where
    that reader or the check fails, :func:`_python_geoms` reads the geom
    records again, record by record in line order, and names the first
    fault of a single record and its line.  The surface keeps the (V x 4)
    array of vectors; its ``geoms`` are made on reading."""
    geom = []
    surface = parse_surf(text, geom)
    lines, fields = geom
    try:
        if fields is None:
            raise ValueError("geom records that numpy's reader rejects")
        ids, kinds, vecs = fields
        if not np.all(np.isfinite(vecs)):
            raise ValueError("non-finite geom coordinate")
        vecs = _normalized(kinds, vecs)
    except ValueError:
        ids, kinds, vecs = _python_geoms(text, lines)
    _check_ids(ids, lines, surface.n_vertices,
               "geom records must cover all vertices")
    order = np.argsort(ids)
    return PolySurface(surface, _VertexArray(kinds[order], vecs[order]))
