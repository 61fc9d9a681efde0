"""Combinatorics of closed oriented surfaces as rotation systems.

A surface is stored as a half-edge (dart) structure: edge e owns darts
2e and 2e+1, twin(d) = d XOR 1, and ``fnext`` walks counterclockwise
around each face.  Loops and parallel edges are permitted; faces are
arbitrary cycles, with the quasi-simplicial flag meaning all faces are
triangles.  The vertex rotation is derived: the dart after d in the
(clockwise) rotation at its tail is fnext(twin(d)).  The constructor stores
the face predecessor ``fprev`` and walks every vertex star once, so
``vertex_star`` is a lookup; input that is not a closed connected surface
(an edge endpoint out of range, a vertex with no darts or with more than
one rotation cycle, more than one component) is rejected there.

The module also carries the weighted-graph validators: face sums of an
edge weight function theta must equal 2*pi, and short contractible cycles
that do not bound a face must have theta-sum strictly above 2*pi (primal
condition), with the analogous conditions on the dual graph for the
hyperideal case.  Cycle searches are bounded by ``l_max`` and verdicts are
always "pass up to l_max".  The searches are exact yet skip every branch
that cannot close: they leave a vertex unentered when its breadth-first
distance back to the start leaves no room for a closed walk of at most
``l_max`` edges (:func:`simple_cycles_upto` says why nothing is lost).
They keep no table: each meets a cycle (trail, return path) from its
least vertex s once per traversal, and a rule on the edges at s keeps one.
Over adjacency lists in edge-id order (:meth:`CellSurface.adjacency`) a
depth-first search meets traversals in lexicographic order of their edge
sequences, so it keeps the first met and reports in first-met order; any
order still yields each cycle once.  A theta budget is tested on the
partial sums of the traversal followed.
Contractibility is decided per genus: trivially on spheres, by homology on
tori, and through the surface-group machinery of :mod:`endlab.surfgroup`
when the surface carries edge labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TAU_ANG = 1e-9
DEFAULT_L_MAX = 12


class SurfaceFormatError(ValueError):
    """Malformed combinatorial data or text input, with its line if known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class MissingLabelError(ValueError):
    """Raised when a contractibility decision needs absent edge labels."""


def twin(d):
    return d ^ 1


class CellSurface:
    """Closed, connected, oriented surface with an explicit rotation system.

    Parameters
    ----------
    n_vertices : int
    edges : list of (tail, head) pairs; edge e's dart 2e runs tail->head.
    face_cycles : list of dart cycles (each a list of dart ids), one per
        face, each dart appearing in exactly one cycle, consecutive darts
        head-to-tail.
    theta : optional per-edge weights.
    """

    def __init__(self, n_vertices, edges, face_cycles, theta=None):
        self.n_vertices = int(n_vertices)
        self.edges = [(int(u), int(v)) for u, v in edges]
        self.n_edges = len(self.edges)
        self.n_darts = 2 * self.n_edges
        self.face_cycles = [list(map(int, c)) for c in face_cycles]
        self.theta = None if theta is None else np.asarray(theta, dtype=float)

        self.dart_tail = np.empty(self.n_darts, dtype=int)
        for e, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise SurfaceFormatError(
                    "edge %d endpoint out of range 0..%d"
                    % (e, self.n_vertices - 1))
            self.dart_tail[2 * e] = u
            self.dart_tail[2 * e + 1] = v

        self.fnext = np.full(self.n_darts, -1, dtype=int)
        self.dart_face = np.full(self.n_darts, -1, dtype=int)
        for f, cyc in enumerate(self.face_cycles):
            if not cyc:
                raise SurfaceFormatError("empty face cycle")
            for d in cyc:
                if not 0 <= d < self.n_darts:
                    raise SurfaceFormatError("dart id %d out of range" % d)
            for d, dn in zip(cyc, cyc[1:] + cyc[:1]):
                if self.fnext[d] != -1:
                    raise SurfaceFormatError("dart %d used twice" % d)
                if self.head(d) != self.dart_tail[dn]:
                    raise SurfaceFormatError(
                        "face cycle not head-to-tail at dart %d" % d)
                self.fnext[d] = dn
                self.dart_face[d] = f
        if np.any(self.fnext < 0):
            missing = int(np.flatnonzero(self.fnext < 0)[0])
            raise SurfaceFormatError("dart %d missing from faces" % missing)
        self.fprev = np.empty(self.n_darts, dtype=int)
        self.fprev[self.fnext] = np.arange(self.n_darts)
        self._stars = self._walk_stars()
        self._check_connected()
        if self.theta is not None and len(self.theta) != self.n_edges:
            raise SurfaceFormatError("theta length != edge count")

    def _walk_stars(self):
        """Each vertex's darts in rotation order, starting at its lowest dart;
        rejects a vertex whose darts are not one rotation cycle.  The walk
        closes: vnext = fnext o twin keeps the tail (faces are head-to-tail)
        and is a permutation (each dart lies in one face cycle)."""
        degree = np.bincount(self.dart_tail, minlength=self.n_vertices).tolist()
        first = {}
        for d, v in enumerate(self.dart_tail.tolist()):
            first.setdefault(v, d)
        stars = []
        for v in range(self.n_vertices):
            if v not in first:
                raise SurfaceFormatError("vertex %d has no darts" % v)
            star = [first[v]]
            nxt = self.vnext(star[0])
            while nxt != star[0]:
                star.append(nxt)
                nxt = self.vnext(nxt)
            if len(star) != degree[v]:
                raise SurfaceFormatError("vertex %d has a disconnected star" % v)
            stars.append(star)
        return stars

    def _check_connected(self):
        """Rejects a complex that is empty or has more than one component."""
        if not self.n_vertices:
            raise SurfaceFormatError("no vertices")
        head = self.dart_tail[np.arange(self.n_darts) ^ 1].tolist()
        seen = [True] + [False] * (self.n_vertices - 1)
        todo = [0]
        for v in todo:
            for d in self._stars[v]:
                if not seen[head[d]]:
                    seen[head[d]] = True
                    todo.append(head[d])
        if not all(seen):
            raise SurfaceFormatError(
                "surface is not connected (vertex %d unreached from vertex 0)"
                % seen.index(False))

    # -- basic queries ----------------------------------------------------

    def head(self, d):
        return int(self.dart_tail[twin(d)])

    def tail(self, d):
        return int(self.dart_tail[d])

    def edge_of(self, d):
        return d // 2

    @property
    def n_faces(self):
        return len(self.face_cycles)

    def euler_characteristic(self):
        return self.n_vertices - self.n_edges + self.n_faces

    def genus(self):
        """From chi = 2 - 2g: every CellSurface is a closed, connected,
        oriented surface (one rotation cycle per vertex), so chi is even."""
        return (2 - self.euler_characteristic()) // 2

    def is_quasi_simplicial(self):
        return all(len(c) == 3 for c in self.face_cycles)

    def vnext(self, d):
        """Next dart in the rotation around tail(d)."""
        return int(self.fnext[twin(d)])

    def vertex_star(self, v):
        """Darts with tail v, in rotation order (one full cycle per star)."""
        return list(self._stars[v])

    def vertex_degree(self, v):
        return len(self._stars[v])

    def face_edge_multiset(self, f):
        return tuple(sorted(self.edge_of(d) for d in self.face_cycles[f]))

    def adjacency(self):
        """Per-vertex list of (neighbor, edge id), in edge-id order."""
        adj = [[] for _ in range(self.n_vertices)]
        for e, (u, v) in enumerate(self.edges):
            adj[u].append((v, e))
            if u != v:
                adj[v].append((u, e))
        return adj

    def with_theta(self, theta):
        return CellSurface(self.n_vertices, self.edges, self.face_cycles, theta)

    def relabeled(self, vperm, eperm=None):
        """Surface with vertices (and optionally edges) renamed by permutations."""
        if eperm is None:
            eperm = list(range(self.n_edges))
        inv = [0] * self.n_edges
        for e, img in enumerate(eperm):
            inv[img] = e
        edges = [None] * self.n_edges
        for e, (u, v) in enumerate(self.edges):
            edges[eperm[e]] = (vperm[u], vperm[v])
        darts = lambda d: 2 * eperm[d // 2] + (d & 1)
        faces = [[darts(d) for d in cyc] for cyc in self.face_cycles]
        theta = None
        if self.theta is not None:
            theta = np.empty_like(self.theta)
            for e in range(self.n_edges):
                theta[eperm[e]] = self.theta[e]
        return CellSurface(self.n_vertices, edges, faces, theta)

    # -- dual graph --------------------------------------------------------

    def dual_edges(self):
        """Dual edge per primal edge: (face of dart 2e, face of dart 2e+1)."""
        return [(int(self.dart_face[2 * e]), int(self.dart_face[2 * e + 1]))
                for e in range(self.n_edges)]

    def dual_face_boundary(self, v):
        """Signed dual edges around the dual face of primal vertex v.

        Returns (edge id, sign) pairs; sign +1 when the dual edge is crossed
        in its canonical direction (left face of dart 2e to left face of
        dart 2e+1).
        """
        star = self.vertex_star(v)
        return [(self.edge_of(d), 1 if d % 2 == 0 else -1) for d in star]


def from_face_vertex_lists(faces, n_vertices=None):
    """Build a surface from faces given as counterclockwise vertex cycles.

    Edges are inferred by pairing opposite traversals of each vertex pair,
    so the complex must have no parallel edges or loops; use the explicit
    CellSurface constructor for multigraph cell structures.
    """
    if n_vertices is None:
        n_vertices = 1 + max(max(f) for f in faces)
    sides = []
    for fi, f in enumerate(faces):
        for a, b in zip(f, f[1:] + f[:1]):
            if a == b:
                raise SurfaceFormatError("loop edge needs explicit darts")
            sides.append((a, b, fi))
    by_pair = {}
    for a, b, fi in sides:
        by_pair.setdefault((a, b), []).append(fi)
    edges = []
    edge_ix = {}
    for (a, b), fs in sorted(by_pair.items()):
        if a < b:
            rev = by_pair.get((b, a), [])
            if len(fs) != 1 or len(rev) != 1:
                raise SurfaceFormatError(
                    "vertex pair (%d,%d) is not matched once per direction; "
                    "parallel edges need explicit darts" % (a, b))
            edge_ix[(a, b)] = 2 * len(edges)
            edge_ix[(b, a)] = 2 * len(edges) + 1
            edges.append((a, b))
    cycles = []
    for f in faces:
        cycles.append([edge_ix[(a, b)] for a, b in zip(f, f[1:] + f[:1])])
    return CellSurface(n_vertices, edges, cycles)


# ---------------------------------------------------------------------------
# surf v1 text format


def serialize_surf(surface):
    """Byte-stable "surf v1" serialization."""
    lines = ["# surf v1"]
    for v in range(surface.n_vertices):
        lines.append("v %d" % v)
    for e, (u, v) in enumerate(surface.edges):
        lines.append("e %d %d %d" % (e, u, v))
    for f, cyc in enumerate(surface.face_cycles):
        toks = " ".join("%d%s" % (d // 2, "+" if d % 2 == 0 else "-")
                        for d in cyc)
        lines.append("f %d %s" % (f, toks))
    if surface.theta is not None:
        for e in range(surface.n_edges):
            lines.append("theta %d %.17g" % (e, surface.theta[e]))
    return "\n".join(lines) + "\n"


def _record(lines, token, what, ln):
    """Record id ``token`` read on line ``ln``; rejects a repeated id."""
    key = int(token)
    if key in lines:
        raise ValueError("duplicate %s %d" % (what, key))
    lines[key] = ln
    return key


def _check_ids(lines, count, message):
    """Record ids must be exactly 0..count-1; an error names the line of the
    first record whose id lies outside that range, when there is one."""
    if sorted(lines) != list(range(count)):
        outside = [ln for key, ln in lines.items() if not 0 <= key < count]
        raise SurfaceFormatError(message, line=min(outside, default=None))


def parse_surf(text):
    """Parse "surf v1"; raises SurfaceFormatError with a line number."""
    vertex_lines = {}
    edges, edge_lines = {}, {}
    faces, face_lines = {}, {}
    thetas, theta_lines = {}, {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "v" and len(parts) == 2:
                _record(vertex_lines, parts[1], "vertex", ln)
            elif parts[0] == "e" and len(parts) == 4:
                e = _record(edge_lines, parts[1], "edge", ln)
                edges[e] = (int(parts[2]), int(parts[3]))
            elif parts[0] == "f":
                cyc = []
                for tok in parts[2:]:
                    if tok[-1] not in "+-":
                        raise ValueError("dart token %r" % tok)
                    cyc.append(2 * int(tok[:-1]) + (0 if tok[-1] == "+" else 1))
                if not cyc:
                    raise ValueError("empty face")
                faces[_record(face_lines, parts[1], "face", ln)] = cyc
            elif parts[0] == "theta" and len(parts) == 3:
                value = float(parts[2])
                if not math.isfinite(value):
                    raise ValueError("non-finite theta %r" % parts[2])
                thetas[_record(theta_lines, parts[1], "theta", ln)] = value
            elif parts[0] == "geom":
                continue  # poly v1 extension, handled by polysurf
            else:
                raise ValueError("unrecognized record %r" % parts[0])
        except ValueError as exc:
            raise SurfaceFormatError(str(exc), line=ln) from exc
    n_vertices = len(vertex_lines)
    if not n_vertices:
        raise SurfaceFormatError("no vertices")
    _check_ids(vertex_lines, n_vertices, "vertex ids must be 0..n-1")
    for e, ends in edges.items():
        if not all(0 <= u < n_vertices for u in ends):
            raise SurfaceFormatError("edge %d endpoint out of range 0..%d"
                                     % (e, n_vertices - 1),
                                     line=edge_lines[e])
    _check_ids(edge_lines, len(edges), "edge ids must be 0..m-1")
    _check_ids(face_lines, len(faces), "face ids must be 0..k-1")
    theta = None
    if thetas:
        _check_ids(theta_lines, len(edges), "theta must cover all edges")
        theta = [thetas[e] for e in range(len(edges))]
    return CellSurface(n_vertices, [edges[e] for e in range(len(edges))],
                       [faces[f] for f in range(len(faces))], theta)


# ---------------------------------------------------------------------------
# Thurston packing-to-pattern construction


def thurston_pattern(surface):
    """Right-angled pattern graph of a triangulated packing nerve.

    Output vertices are the input's vertices followed by its faces; there
    is one edge per corner (dart), and one quadrilateral face per input
    edge.  All weights are pi/2, so every face sum is exactly 2*pi.
    """
    if not surface.is_quasi_simplicial():
        raise SurfaceFormatError("nerve must be a triangulation")
    nv = surface.n_vertices
    edges = [(surface.tail(d), nv + int(surface.dart_face[d]))
             for d in range(surface.n_darts)]
    cycles = []
    for e in range(surface.n_edges):
        d = 2 * e
        t = twin(d)
        cycles.append([2 * d,
                       2 * int(surface.fnext[d]) + 1,
                       2 * t,
                       2 * int(surface.fnext[t]) + 1])
    theta = np.full(len(edges), math.pi / 2.0)
    return CellSurface(nv + surface.n_faces, edges, cycles, theta)


# ---------------------------------------------------------------------------
# cycle enumeration


def _canon(vseq, eseq):
    """Least (vertex tuple, edge tuple) over rotations and reflections of a
    closed walk given as aligned vertex and edge lists that begin at its
    least vertex: over the rotations that begin there, just two when the
    walk passes that vertex once (as every simple cycle does)."""
    vs, es = tuple(vseq), tuple(eseq)
    back = vs[:1] + vs[:0:-1], es[::-1]
    if vs.count(vs[0]) == 1:
        return min((vs, es), back)
    return min((v[r:] + v[:r], e[r:] + e[:r])
               for v, e in ((vs, es), back)
               for r, u in enumerate(v) if u == vs[0])


def _starts(n_vertices, adjacency, l_max, need):
    """Yield each start s with ``need[w]`` set: 1 at s, the distance to s
    through vertices >= s within l_max // 2, else l_max + 1 (unreachable)."""
    for start in range(n_vertices):
        need[start] = 1
        ball, frontier = [start], [start]
        for r in range(1, l_max // 2 + 1):
            frontier = {w for v in frontier for w, _ in adjacency[v]
                        if w > start and need[w] > r}
            for w in frontier:
                need[w] = r
            ball += frontier
        yield start
        for w in ball:
            need[w] = l_max + 1


def simple_cycles_upto(n_vertices, adjacency, l_max):
    """Undirected simple cycles with at most l_max edges.

    ``adjacency`` maps a vertex to (neighbor, edge id) pairs.  A cycle is a
    closed walk with distinct vertices and distinct edges; parallel edges
    yield length-2 cycles.  Each cycle is reported once, as an edge-id
    tuple aligned with a vertex tuple, canonicalized by :func:`_canon`.  Of
    the two directions from the least vertex s, the search keeps the one
    leaving s through the smaller edge: it closes a path only through an
    edge larger than the path's first edge, the only path edge at s.  The
    search from s enters w at depth k only if k + dist(w, s) <= l_max,
    with distances through vertices >= s.  This is exact: the rest of a
    closing walk is at least dist(w, s) long, and dist(w, s) <= min(k,
    l_max - k), so a ball of radius l_max // 2 holds every distance needed.
    """
    out = []
    need = [l_max + 1] * n_vertices
    on_path = [False] * n_vertices
    epath = []

    def dfs(v, room):
        for w, e in adjacency[v]:
            if w == start:
                # closing the cycle (a loop edge when epath is empty)
                if room > 0 and (not epath or e > epath[0]):
                    out.append(_canon(vpath, epath + [e]))
            elif need[w] < room and not on_path[w]:
                on_path[w] = True
                vpath.append(w)
                epath.append(e)
                dfs(w, room - 1)
                on_path[w] = False
                vpath.pop()
                epath.pop()

    for start in _starts(n_vertices, adjacency, l_max, need):
        vpath = [start]
        dfs(start, l_max)
    return out


# ---------------------------------------------------------------------------
# contractibility dispatch


def _homology_contractible(darts, boundary_matrix):
    """Null-homology test over Q of a closed dart path (decides
    contractibility when pi_1 is abelian)."""
    z = np.zeros(boundary_matrix.shape[0])
    np.add.at(z, [d // 2 for d in darts], [1.0 - 2.0 * (d & 1) for d in darts])
    sol, *_ = np.linalg.lstsq(boundary_matrix, z, rcond=None)
    return bool(np.linalg.norm(boundary_matrix @ sol - z) < 1e-8)


def face_boundary_matrix(surface):
    """E x F matrix of signed face boundaries (dart 2e positive)."""
    mat = np.zeros((surface.n_edges, surface.n_faces))
    for f, cyc in enumerate(surface.face_cycles):
        for d in cyc:
            mat[d // 2, f] += 1.0 if d % 2 == 0 else -1.0
    return mat


def cycle_to_darts(surface, vseq, eseq):
    darts = []
    for v, e in zip(vseq, eseq):
        u, w = surface.edges[e]
        if u == v:
            darts.append(2 * e)
        elif w == v:
            darts.append(2 * e + 1)
        else:
            raise ValueError("cycle edge %d does not start at vertex %d" % (e, v))
    return darts


class ContractibilityOracle:
    """Decides contractibility of cycles for a fixed surface.

    genus 0: every cycle is contractible.  genus 1: null-homology over Q.
    genus >= 2: requires a presentation with dart labels (see surfgroup);
    raises MissingLabelError otherwise.
    """

    def __init__(self, surface, presentation=None):
        self.surface = surface
        self.genus = surface.genus()
        self.presentation = presentation
        self._boundary = None
        if self.genus == 1:
            self._boundary = face_boundary_matrix(surface)

    def cycle_is_contractible(self, vseq, eseq):
        if self.genus == 0:
            return True
        darts = cycle_to_darts(self.surface, vseq, eseq)
        if self.genus == 1:
            return _homology_contractible(darts, self._boundary)
        if self.presentation is None:
            raise MissingLabelError("missing edge label")
        return self.presentation.cycle_is_contractible(darts)


# ---------------------------------------------------------------------------
# validators


@dataclass
class Witness:
    kind: str
    location: tuple
    value: float
    bound: float

    def describe(self):
        loc = " ".join(str(x) for x in self.location)
        return "%s [%s] sum %.12g vs %.12g" % (self.kind, loc, self.value, self.bound)


@dataclass
class ValidationReport:
    passed: bool
    face_sums: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    checked_cycles: int = 0
    note: str = ""


def _check_theta(surface):
    if surface.theta is None:
        raise SurfaceFormatError("theta required on all edges")
    th = surface.theta
    if np.any(~np.isfinite(th)) or np.any(th <= 0) or np.any(th >= math.pi):
        raise SurfaceFormatError("weight out of (0,pi)")


def validate_admissible(surface, l_max=DEFAULT_L_MAX, simple_cycles_only=True,
                        presentation=None):
    """Admissibility of (surface, theta): face sums 2*pi, short contractible
    non-facial cycles strictly above 2*pi.
    """
    _check_theta(surface)
    report = ValidationReport(True)
    th = surface.theta.tolist()  # Python floats: the searches add one per step

    for f in range(surface.n_faces):
        s = float(sum(th[d // 2] for d in surface.face_cycles[f]))
        report.face_sums.append(s)
        if abs(s - 2.0 * math.pi) > TAU_ANG:
            report.passed = False
            report.violations.append(
                Witness("face-sum", ("face", f), s, 2.0 * math.pi))

    oracle = ContractibilityOracle(surface, presentation)
    face_keys = {surface.face_edge_multiset(f) for f in range(surface.n_faces)}
    if simple_cycles_only:
        cycles = simple_cycles_upto(surface.n_vertices, surface.adjacency(),
                                    l_max)
    else:
        report.note = ("trail search pruned to theta-sum <= 2*pi; "
                       "cycles above the bound cannot be witnesses")
        cycles = closed_trails_upto(surface.n_vertices, surface.adjacency(),
                                    l_max, th, 2.0 * math.pi + TAU_ANG)
    _check_cycles(report, cycles, oracle, th, "contractible-cycle", face_keys)
    return report


def _check_cycles(report, cycles, oracle, theta, kind, skip=frozenset()):
    """Count the contractible cycles whose edge multiset is not in ``skip``,
    and record each with theta-sum at most 2*pi as a ``kind`` witness."""
    for vseq, eseq in cycles:
        if tuple(sorted(eseq)) in skip:
            continue
        if not oracle.cycle_is_contractible(list(vseq), list(eseq)):
            continue
        report.checked_cycles += 1
        s = float(sum(theta[e] for e in eseq))
        if s <= 2.0 * math.pi + TAU_ANG:
            report.passed = False
            report.violations.append(
                Witness(kind, ("edges",) + tuple(eseq), s, 2.0 * math.pi))


def closed_trails_upto(n_vertices, adjacency, l_max, theta, budget):
    """Closed walks with distinct edges, repeated vertices allowed.

    Each trail is reported once, canonicalized by :func:`_canon`.  From its
    least vertex s the search meets it once per passage through s and
    direction, and keeps the traversal that begins with the least edge m
    the trail has at s: it never leaves or re-enters s through an edge
    smaller than the first.  A non-loop m begins one traversal; a loop m is
    followed by the rest R of the trail either way, and the search keeps
    R <= reversed R (edge tuples).  Only trails whose theta-sum stays
    within ``budget`` are produced (the validators only ever report cycles
    at or below the bound, so with positive weights pruning by partial sum
    loses nothing), with the distance prune of :func:`simple_cycles_upto`.
    """
    out = []
    need = [l_max + 1] * n_vertices
    used = [False] * len(theta)
    epath = []

    def dfs(v, room, total):
        first = epath[0] if epath else -1
        for w, e in adjacency[v]:
            if used[e] or (e < first and (v == start or w == start)):
                continue
            t = total + theta[e]
            if t > budget or room < 1:
                continue
            # after a loop first, keep the rest R only where R <= reversed R
            if w == start and (vpath[1:2] != [start]
                               or epath[1:] + [e] <= [e] + epath[:0:-1]):
                out.append(_canon(vpath, epath + [e]))
            if need[w] < room:
                used[e] = True
                vpath.append(w)
                epath.append(e)
                dfs(w, room - 1, t)
                used[e] = False
                vpath.pop()
                epath.pop()

    for start in _starts(n_vertices, adjacency, l_max, need):
        vpath = [start]
        dfs(start, l_max, 0.0)
    return out


def validate_hyperideal(surface, l_max=DEFAULT_L_MAX, presentation=None):
    """Hyperideal angle conditions on the dual graph.

    (1) every closed contractible dual cycle has theta-sum > 2*pi;
    (2) every dual path that starts and ends on the boundary of a dual face
        (the star of a primal vertex), leaves that boundary, and is
        homotopic into the face, has theta-sum > pi.
    """
    _check_theta(surface)
    report = ValidationReport(True)
    th = surface.theta.tolist()  # Python floats: the searches add one per step
    dual_surface = dual_cell_surface(surface)
    dual_adj = dual_surface.adjacency()
    oracle = ContractibilityOracle(
        dual_surface,
        None if presentation is None else presentation.dual_presentation())

    # condition (1): contractible dual cycles
    _check_cycles(report, simple_cycles_upto(surface.n_faces, dual_adj, l_max),
                  oracle, th, "dual-cycle")

    # condition (2): face-homotopic return paths
    for v in range(surface.n_vertices):
        boundary = surface.dual_face_boundary(v)
        b_edges = [e for e, _ in boundary]
        b_faces = [int(surface.dart_face[d]) for d in surface.vertex_star(v)]
        # a path above pi is no witness, whatever its homotopy class, so
        # the search stops there and the Dehn test runs only on paths that
        # could be one
        for path_vseq, path_eseq in _simple_paths_between(
                dual_adj, set(b_faces), l_max, th, math.pi + TAU_ANG):
            if all(e in b_edges for e in path_eseq):
                continue
            s = float(sum(th[e] for e in path_eseq))
            if _returns_through_face(surface, dual_surface, oracle, v,
                                     boundary, b_faces, path_vseq, path_eseq):
                report.passed = False
                report.violations.append(
                    Witness("return-path", ("vertex", v, "edges") + tuple(path_eseq),
                            s, math.pi))
    return report


def _simple_paths_between(adjacency, endpoints, l_max, theta=None,
                          budget=math.inf):
    """Simple paths with >= 2 edges between endpoint vertices, as (vseq, eseq).

    Interior vertices are distinct; the final vertex may close onto the
    start.  Each path is reported once up to reversal: the search from each
    endpoint s, in increasing order, keeps a path that ends at an endpoint
    above s, or back at s through an edge larger than its first edge.  With
    positive per-edge weights ``theta``, only paths whose weight sum is at
    most ``budget`` are reported, and the search never extends a path past
    the budget (no extension can come back under it).
    """
    out = []
    on_path = [False] * len(adjacency)
    vpath, epath = [], []

    def dfs(v, total):
        for w, e in adjacency[v]:
            t = total if theta is None else total + theta[e]
            if t > budget:
                continue
            if epath and (e > epath[0] if w == start else
                          w > start and w in endpoints and not on_path[w]):
                out.append((vpath + [w], epath + [e]))
            if not on_path[w] and len(epath) + 1 < l_max:
                on_path[w] = True
                vpath.append(w)
                epath.append(e)
                dfs(w, t)
                on_path[w] = False
                vpath.pop()
                epath.pop()

    for start in sorted(endpoints):
        on_path[start] = True
        vpath.append(start)
        dfs(start, 0.0)
        on_path[start] = False
        vpath.pop()
    return out


def _returns_through_face(surface, dual_surface, oracle, v, boundary, b_faces,
                          path_vseq, path_eseq):
    """Is the dual path homotopic (rel endpoints) into the dual face of v?

    Closes the path along the dual face boundary from its end back to its
    start in star order and tests the loop for contractibility; the route
    against star order differs by the (contractible) face boundary.
    """
    start, end = path_vseq[0], path_vseq[-1]
    i0 = b_faces.index(start)
    i1 = b_faces.index(end)
    k = len(b_faces)
    # boundary walk from end back to start, following the star order
    ret_edges = []
    ret_vseq = [end]
    i = i1
    steps = (i0 - i1) % k
    if steps == 0:
        loop_v = path_vseq[:-1]
        loop_e = path_eseq
    else:
        for _ in range(steps):
            ret_edges.append(boundary[i][0])
            i = (i + 1) % k
            ret_vseq.append(b_faces[i])
        loop_v = path_vseq[:-1] + ret_vseq[:-1]
        loop_e = path_eseq + ret_edges
    return oracle.cycle_is_contractible(loop_v, loop_e)


def dual_cell_surface(surface):
    """The dual cell complex as a CellSurface.

    Dual vertex f per primal face, dual edge e per primal edge (dart 2e
    from face(2e) to face(2e+1)), dual face per primal vertex with boundary
    along the vertex star.
    """
    duals = surface.dual_edges()
    # The dual dart with the same id as a primal dart d runs from face(d)
    # to face(twin d); the star order around a primal vertex is already
    # head-to-tail for these darts.
    cycles = [list(surface.vertex_star(v)) for v in range(surface.n_vertices)]
    return CellSurface(surface.n_faces, duals, cycles, surface.theta)
