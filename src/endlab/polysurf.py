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
from dataclasses import dataclass

import numpy as np

from . import mink
from .cellsurf import (CellSurface, SurfaceFormatError, _check_ids, _columns,
                       _ids, _in_id_order, _pieces, _record,
                       dual_cell_surface, parse_surf, serialize_surf, twin)
from .decor import BACKWARD, FORWARD, Decoration
from .mink import GeometryError, mdot

TAU_PLANE = 1e-8

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


def horosphere_chart(u):
    """Flat chart data of the horosphere with vector u.

    Returns (ea, eb, m): unit spacelike chart axes orthogonal to u and m,
    and the opposite null vector m with <u, m> = -2.  The horosphere
    {<p, u> = -1} is the image of the plane under
    p(xi) = ((1 + |xi|^2)/2) u + m/2 + xi_1 ea + xi_2 eb, and a point p on
    it has chart coordinates xi = (<p, ea>, <p, eb>).
    """
    u = np.asarray(u, dtype=float)
    m_raw = np.array([-u[0], -u[1], -u[2], u[3]])
    m = m_raw / (u[3] * u[3])
    spatial = u[:3]
    axes = []
    # least-aligned seed axes first: their projections off u cancel least
    for seed in np.eye(3)[np.argsort(np.abs(spatial), kind="stable")]:
        w = seed - (seed @ spatial) / (spatial @ spatial) * spatial
        for a in axes:
            w = w - (w @ a[:3]) * a[:3]
        nrm = np.linalg.norm(w)
        if nrm < 1e-10:
            continue
        axes.append(np.array([w[0], w[1], w[2], 0.0]) / nrm)
        if len(axes) == 2:
            break
    if len(axes) != 2:
        raise PolyBuildError("degenerate horosphere chart")
    return axes[0], axes[1], m


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


class PolySurface:
    def __init__(self, base, geoms, *, is_dual=False, reference=None,
                 strict=True, tau_plane=TAU_PLANE):
        if base.n_vertices != len(geoms):
            raise PolyBuildError("one vertex datum per vertex required")
        self.base = base
        self.geoms = list(geoms)
        self.is_dual = bool(is_dual)
        self.strict = bool(strict)
        self.tau_plane = float(tau_plane)
        kinds = {g.kind for g in self.geoms}
        if len(kinds) > 1:
            raise UnsupportedGeometry("mixed vertex kinds are unsupported: %s"
                                      % sorted(kinds))
        self.kind = next(iter(kinds))
        self.tri, self.diagonal_edges = _triangulate(base)
        self.vectors = np.array([g.vec for g in self.geoms])
        if reference is None:
            reference = self._default_reference()
        self.reference = np.asarray(reference, dtype=float)
        self.diagnostics = {
            "properness": "global properness unverified (finite model)",
        }
        self.base_face_normals = self._face_normals()
        # triangulated faces inherit their polygon's plane
        self.face_normals = np.repeat(
            self.base_face_normals,
            [max(1, len(cyc) - 2) for cyc in base.face_cycles], axis=0)
        self._check_planarity()
        self._check_convexity()
        self._links = None

    # -- construction helpers ---------------------------------------------

    def _default_reference(self):
        """A timelike point inside the surface that moves with it: the
        normalised vertex sum, or for hyperideal surfaces the normalised sum
        of the midpoints of the edges that cross H^3."""
        if self.kind == HYPER:
            a, b = np.array(self.base.edges).T
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
        """Support-plane normals of the base faces, one stacked SVD per face
        size: the right singular vector of the smallest singular value of
        the face's vertex rows (times the metric), normalised and oriented
        away from ``reference``.  The planarity margin is sigma_4 /
        sigma_1 (0 on triangles)."""
        g = np.diag(mink.METRIC_DIAG)
        cycles = self.base.face_cycles
        sizes = np.array([len(cyc) for cyc in cycles])
        out = np.empty((len(cycles), 4))
        self._planarity_margin = np.zeros(len(cycles))
        for k in np.unique(sizes):
            faces = np.flatnonzero(sizes == k)
            vids = self.base.dart_tail[[cycles[f] for f in faces]]
            _, sing, vt = np.linalg.svd(self.vectors[vids] @ g)
            if k >= 4:
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
            frames = np.array([horosphere_chart(u) for u in self.vectors])
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

    def decoration_from_deformation(self, z, certified=False):
        """Edge decoration induced by a first-order deformation.

        For compact/hyperideal surfaces ``z`` is one tangent 4-vector per
        vertex; an edge is oriented away from the endpoint where the
        pairing with the link tangent is positive.  For ideal surfaces
        ``z`` is one affine function per vertex, given as (w, c) with a
        2-vector w in the horosphere chart; the pairing is w . xi + c at
        the link point.  An edge stays unoriented when its value is at most
        1e-9 times the largest one in magnitude.  With ``certified`` set, the
        two endpoint values of every edge must cancel (a length-preserving
        deformation), else a PolyBuildError is raised.
        """
        links = self.links()
        tail = self.tri.dart_tail
        if self.kind == IDEAL:
            w, c = zip(*z)
            vals = (np.vecdot(np.array(w, dtype=float)[tail], links.coords)
                    + np.array(c, dtype=float)[tail])
        else:
            vals = mdot(np.asarray(z, dtype=float)[tail], links.raw)
        scale = float(np.max(np.abs(vals), initial=0.0))
        tau_orient = 1e-9 * max(scale, 1e-30)
        if certified:
            resid = np.abs(vals[0::2] + vals[1::2])
            bad = np.flatnonzero(resid > 1e3 * tau_orient
                                 + 1e-8 * max(scale, 1.0))
            if bad.size:
                raise PolyBuildError(
                    "not length-preserving: edge %d residual %.3g"
                    % (bad[0], resid[bad[0]]))
        first = vals[0::2]
        states = np.where(first > tau_orient, FORWARD,
                          np.where(first < -tau_orient, BACKWARD, 0))
        return Decoration(self.tri, states)


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
    if (np.any(q[timelike] >= 0) or np.any(q[spacelike] <= 0)
            or not np.all((np.abs(q[null]) <= mink.TAU_NULL * e2)
                          & (vecs[null, 3] > 0) & (e2 != 0))):
        raise ValueError("vertex vector of the wrong causal type")
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


def _first_geom_fault(lines, records):
    """Raises the first fault of a single geom record, in line order, with
    its line: the checks of each record, one record at a time, for when the
    columns of :func:`parse_poly` fail."""
    seen = set()
    for ln, parts in zip(lines, records):
        if len(parts) != 7 or parts[2] not in (COMPACT, IDEAL, HYPER):
            raise SurfaceFormatError("bad geom record", line=ln)
        try:
            vec = np.array([float(x) for x in parts[3:7]])
            if not np.all(np.isfinite(vec)):
                raise ValueError("non-finite geom coordinate")
            _record(seen, parts[1], "geom")
            VertexGeom(parts[2], vec)
        except (ValueError, PolyBuildError) as exc:
            raise SurfaceFormatError(str(exc), line=ln) from exc
    raise ValueError("geom columns rejected records that pass one by one")


def parse_poly(text):
    """Parse "poly v1": the surface as :func:`parse_surf` reads it, then the
    geom records, converted and normalised in one pass over all vertices
    (one by one only to report the first fault, in line order)."""
    group = []
    surface = parse_surf(text, group)
    lines, counts, fields = group
    try:
        _, ids, kinds, *coords = _columns(group, 7)
        if not set(kinds) <= {COMPACT, IDEAL, HYPER}:
            raise ValueError("unknown vertex kind")
        vecs = np.array([list(map(float, c)) for c in coords]).T.copy()
        if not np.all(np.isfinite(vecs)):
            raise ValueError("non-finite geom coordinate")
        ids = _ids(ids, "geom")
        vecs = _normalized(np.array(kinds, dtype=str), vecs)
    except ValueError:
        _first_geom_fault(lines, _pieces(fields, counts))
    _check_ids(ids, lines, surface.n_vertices,
               "geom records must cover all vertices")
    return PolySurface(surface, list(map(
        _geom, _in_id_order(ids, kinds), _in_id_order(ids, vecs))))
