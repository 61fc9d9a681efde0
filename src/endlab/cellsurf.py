"""Combinatorics of closed oriented surfaces as rotation systems.

A surface is stored as a half-edge (dart) structure: edge e owns darts
2e and 2e+1, twin(d) = d XOR 1, and ``fnext`` walks counterclockwise
around each face.  Loops and parallel edges are permitted; faces are
arbitrary cycles, with the quasi-simplicial flag meaning all faces are
triangles.  The vertex rotation is derived: the dart after d in the
(clockwise) rotation at its tail is fnext(twin(d)).  The constructor stores
the face predecessor ``fprev`` and the vertex stars as one pair of arrays:
``star`` holds each vertex's darts in rotation order from its lowest dart,
vertex after vertex, and ``star_start`` the offsets.  ``vertex_star`` slices
them, and the batched code of decor, crossratio and rigidity reads them
instead of grouping darts by tail again.  Three more read-only arrays
serve that code: ``rotation_next`` (each dart's rotation successor, which
the star walk reads) and, built on first use, ``degrees`` and a
triangulation's (F x 3) ``face_darts``, whose presence is the
quasi-simplicial flag.  Input that is not a closed
connected surface (an edge endpoint out of range, a vertex with no darts or
with more than one rotation cycle, more than one component) is rejected
there, the first fault in face and vertex order.  The face cycles are
checked as arrays over their darts laid end to end, and the stars are
ordered by pointer jumping along the rotation, each fault found being the
one a walk face by face, then vertex by vertex, would meet first.

``parse_surf`` reads "surf v1" by columns: it splits each line once, groups
the records by kind, converts each kind's fields in one pass with Python's
``int`` and ``float``, and checks ids, ranges and finiteness over whole
columns.  Only when a record fails its own checks does it walk the records
one by one, to report the first fault in line order.

The module also carries the weighted-graph validators: face sums of an
edge weight function theta must equal 2*pi, and short contractible cycles
that do not bound a face must have theta-sum strictly above 2*pi (primal
condition), with the analogous conditions on the dual graph for the
hyperideal case.  Cycle searches are bounded by ``l_max`` and verdicts are
always "pass up to l_max".  The searches are exact yet skip every branch
that cannot close: they leave a vertex unentered when its breadth-first
distance back to the start leaves no room for a closed walk of at most
``l_max`` edges (:func:`simple_cycles_upto` says why nothing is lost).
They keep no table of what they have found: each meets a cycle (trail,
return path) from its least vertex s once per traversal, and a rule on the
edges at s keeps one.  The closed-trail and return-path searches are
depth-first; a theta budget is tested on the partial sums of the traversal
followed.  The simple-cycle search is a level-synchronous array search
over blocks of starts: it extends every path of k edges at once through
the slots of its last vertex's adjacency list, and then restores the order
in which the depth-first search would meet the cycles, which is the
lexicographic order of their sequences of adjacency slots.  Its result is
a :class:`CycleTable` of padded arrays, each row turned into the direction
:func:`_canon` picks by reversing it where its last vertex is below its
second.  The validators skip facial cycles by comparing sorted edge rows,
and add each theta-sum column by column, left to right in the reported
edge order; return-path sums are added left to right as well.  The
builtin ``sum`` is not used for them: from Python 3.12 on it compensates
float rounding, so a witness would carry other bits on other versions.
Contractibility is decided per genus: trivially on spheres, by homology on
tori, and from genus 2 on by Dehn's algorithm on the presentation that
:mod:`endlab.surfgroup` reads off the surface's own cells (the dual
surface's, for the hyperideal conditions).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from operator import itemgetter

import numpy as np

from .surfgroup import TreeCotreePresentation

TAU_ANG = 1e-9
DEFAULT_L_MAX = 12
#: start vertices per block of the cycle search's frontier
START_BLOCK = 64


class SurfaceFormatError(ValueError):
    """Malformed combinatorial data or text input, with its line if known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class _DartOutOfRange(SurfaceFormatError):
    """A face cycle names a dart past the last edge; :func:`parse_surf`
    reports it with the line of face ``face``."""

    def __init__(self, dart, face):
        super().__init__("dart id %d out of range" % dart)
        self.face = face


def twin(d):
    return d ^ 1


def _frozen(a):
    """``a``, made read-only: a cached array stays the surface's."""
    a.flags.writeable = False
    return a


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
        self._build(n_vertices, [(int(u), int(v)) for u, v in edges],
                    [list(map(int, c)) for c in face_cycles], theta)

    @classmethod
    def _of_ints(cls, n_vertices, edges, face_cycles, theta=None):
        """The surface of a list of (tail, head) tuples and a list of face
        cycles, all Python ints, kept as given (:func:`parse_surf`'s)."""
        surface = cls.__new__(cls)
        surface._build(n_vertices, edges, face_cycles, theta)
        return surface

    def _build(self, n_vertices, edges, face_cycles, theta):
        self.n_vertices = int(n_vertices)
        self.edges = edges
        self.n_edges = len(self.edges)
        self.n_darts = 2 * self.n_edges
        self.face_cycles = face_cycles
        self.theta = None if theta is None else np.asarray(theta, dtype=float)

        self.dart_tail = np.fromiter(chain.from_iterable(self.edges),
                                     dtype=int, count=self.n_darts)
        outside = (self.dart_tail < 0) | (self.dart_tail >= self.n_vertices)
        if outside.any():
            raise SurfaceFormatError(
                "edge %d endpoint out of range 0..%d"
                % (np.argmax(outside) // 2, self.n_vertices - 1))
        darts, succ, face = self._check_faces()
        self.fnext = np.full(self.n_darts, -1)
        self.fnext[darts] = darts[succ]
        missing = np.flatnonzero(self.fnext < 0)
        if missing.size:
            raise SurfaceFormatError(
                "dart %d missing from faces" % missing[0])
        self.dart_face = np.empty(self.n_darts, dtype=int)
        self.dart_face[darts] = face
        self.fprev = np.empty(self.n_darts, dtype=int)
        self.fprev[self.fnext] = np.arange(self.n_darts)
        #: the vertex stars: vertex v's darts, in rotation order from its
        #: lowest dart, are star[star_start[v]:star_start[v + 1]]
        self.star, self.star_start = self._walk_stars()
        self._check_connected()
        if self.theta is not None and len(self.theta) != self.n_edges:
            raise SurfaceFormatError("theta length != edge count")

    def _check_faces(self):
        """(darts, succ, face) of the face cycles laid end to end: the
        darts, the position of each one's successor in its cycle, and its
        face.  Raises the fault a walk over the cycles, face by face, would
        meet first: an empty face; a dart out of range anywhere in the face;
        then dart by dart, a dart met before, and a successor whose tail is
        not the dart's head."""
        n_faces = len(self.face_cycles)
        sizes = np.fromiter(map(len, self.face_cycles), dtype=int,
                            count=n_faces)
        flat = list(chain.from_iterable(self.face_cycles))
        if flat and (min(flat) < 0 or max(flat) >= self.n_darts):
            # out of range, however large, becomes -1
            flat_in = [d if 0 <= d < self.n_darts else -1 for d in flat]
        else:
            flat_in = flat
        darts = np.array(flat_in, dtype=int)
        face = np.repeat(np.arange(n_faces), sizes)
        ends = np.cumsum(sizes)[sizes > 0]
        succ = np.arange(1, len(darts) + 1)
        succ[ends - 1] = ends - sizes[sizes > 0]
        faults = []  # (face, step, position, error); the least is met first
        empty = np.flatnonzero(sizes == 0)
        if empty.size:
            faults.append((empty[0], 0, 0,
                           SurfaceFormatError("empty face cycle")))
        outside = np.flatnonzero(darts < 0)
        if outside.size:
            p = outside[0]
            faults.append((face[p], 1, 0,
                           _DartOutOfRange(flat[p], int(face[p]))))
        inside = np.flatnonzero(darts >= 0)
        if np.bincount(darts[inside], minlength=self.n_darts).max(
                initial=0) > 1:
            order = inside[np.argsort(darts[inside], kind="stable")]
            p = order[1:][darts[order[1:]] == darts[order[:-1]]].min()
            faults.append((face[p], 2, 2 * p, SurfaceFormatError(
                "dart %d used twice" % flat[p])))
        inside = inside[darts[succ[inside]] >= 0]
        turn = inside[self.dart_tail[darts[inside] ^ 1]
                      != self.dart_tail[darts[succ[inside]]]]
        if turn.size:
            p = turn[0]
            faults.append((face[p], 2, 2 * p + 1, SurfaceFormatError(
                "face cycle not head-to-tail at dart %d" % flat[p])))
        if faults:
            raise min(faults, key=lambda fault: fault[:3])[3]
        return darts, succ, face

    def _walk_stars(self):
        """(star, star_start): each vertex's rotation from its lowest dart,
        by pointer jumping; rejects the first vertex, in vertex order, that
        has no darts or whose darts are not one rotation cycle.  vnext =
        fnext o twin keeps the tail (faces are head-to-tail) and is a
        permutation (each dart lies in one face cycle), so the rotation from
        a vertex's lowest dart d0 closes, at the dart whose successor is d0.
        Pointer jumping halves, per step, the distance of every dart of that
        cycle to this last dart; the darts of any other cycle at the vertex
        never reach it."""
        tail = self.dart_tail
        degree = np.bincount(tail, minlength=self.n_vertices)
        first = np.full(self.n_vertices, self.n_darts)
        np.minimum.at(first, tail, np.arange(self.n_darts))
        last = self.rotation_next == first[tail]
        nxt = np.where(last, np.arange(self.n_darts), self.rotation_next)
        to_last = (~last).astype(int)
        reach = 1
        while reach < degree.max(initial=0) - 1:
            to_last += to_last[nxt]
            nxt = nxt[nxt]
            reach *= 2
        faults = np.concatenate([np.flatnonzero(degree == 0),
                                 tail[~last[nxt]]])
        if faults.size:
            v = faults.min()
            raise SurfaceFormatError(
                "vertex %d has no darts" % v if degree[v] == 0
                else "vertex %d has a disconnected star" % v)
        start = np.concatenate([[0], np.cumsum(degree)])
        star = np.empty(self.n_darts, dtype=int)
        star[start[tail + 1] - 1 - to_last] = np.arange(self.n_darts)
        return star, start

    def _check_connected(self):
        """Rejects a complex that is empty or has more than one component."""
        if not self.n_vertices:
            raise SurfaceFormatError("no vertices")
        # the far end of each star dart, star by star
        head = self.dart_tail[self.star ^ 1].tolist()
        start = self.star_start.tolist()
        seen = [True] + [False] * (self.n_vertices - 1)
        todo = [0]
        for v in todo:
            for w in head[start[v]:start[v + 1]]:
                if not seen[w]:
                    seen[w] = True
                    todo.append(w)
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
        return self.face_darts is not None

    @cached_property
    def face_darts(self):
        """The (F x 3) darts of each face in cycle order, or None unless
        every face is a triangle."""
        if any(len(c) != 3 for c in self.face_cycles):
            return None
        return _frozen(np.fromiter(chain.from_iterable(self.face_cycles),
                                   dtype=int, count=self.n_darts)
                       .reshape(-1, 3))

    @cached_property
    def rotation_next(self):
        """:meth:`vnext` of every dart, as one array."""
        return _frozen(self.fnext[np.arange(self.n_darts) ^ 1])

    @cached_property
    def degrees(self):
        """Number of darts at each vertex."""
        return _frozen(np.diff(self.star_start))

    def vnext(self, d):
        """Next dart in the rotation around tail(d)."""
        return int(self.fnext[twin(d)])

    def vertex_star(self, v):
        """Darts with tail v, in rotation order (one full cycle per star)."""
        return self.star[self.star_start[v]:self.star_start[v + 1]].tolist()

    def vertex_degree(self, v):
        return int(self.star_start[v + 1] - self.star_start[v])

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
        theta = None if self.theta is None else self.theta[inv]
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


#: the record kinds of surf v1, with the geom records of poly v1
_KINDS = ("v", "e", "f", "theta", "geom")
#: a comment: from "#" to the end of its line, as str.splitlines ends lines
_COMMENT = re.compile("#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*")
_DART_SIGN = {"+": 0, "-": 1}


def _group_records(text):
    """{kind: (line numbers, field counts, fields end to end)} of the
    records of ``text``, each kind in line order.  A comment becomes a
    blank, so the lines stay where ``str.splitlines`` puts them.  Each
    line's field list is dropped once read: the parse leaves no object per
    line for the garbage collector to scan.  Raises KeyError on a record of
    no known kind."""
    groups = {kind: ([], [], []) for kind in _KINDS}
    rows = map(str.split, _COMMENT.sub(" ", text).splitlines())
    for ln, parts in enumerate(rows, start=1):
        if parts:
            lines, counts, fields = groups[parts[0]]
            lines.append(ln)
            counts.append(len(parts))
            fields += parts
    return groups


def _columns(group, n_fields):
    """The fields of a group of records that must have ``n_fields`` each,
    column by column."""
    _, counts, fields = group
    if set(counts) - {n_fields}:
        raise ValueError("wrong field count")
    return [fields[i::n_fields] for i in range(n_fields)]


def _pieces(items, sizes, skip=0):
    """``items`` cut into consecutive lists of the given sizes, each but its
    first ``skip`` items, lazily."""
    ends = list(accumulate(sizes))
    starts = [end - size + skip for end, size in zip(ends, sizes)]
    return map(items.__getitem__, map(slice, starts, ends))


def _ids(tokens, what):
    """The ids of one kind's records, which must differ."""
    ids = list(map(int, tokens))
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate %s" % what)
    return ids


def _surf_columns(groups):
    """The fields of every surf v1 record kind, converted one kind at a
    time: (vertex ids, edge ids, edge tails, edge heads, face ids, face
    cycles, theta ids, theta values), each in line order, the face cycles
    as a one-pass iterator.  Raises ValueError (or KeyError) if some record
    fails its own checks."""
    _, vertex_ids = _columns(groups["v"], 2)
    _, edge_ids, tails, heads = _columns(groups["e"], 4)
    _, counts, fields = groups["f"]
    if min(counts, default=3) < 3:
        raise ValueError("empty face")
    darts = [2 * int(tok[:-1]) + _DART_SIGN[tok[-1]]
             for tok in chain.from_iterable(_pieces(fields, counts, 2))]
    _, theta_ids, theta = _columns(groups["theta"], 3)
    theta = list(map(float, theta))
    if not all(map(math.isfinite, theta)):
        raise ValueError("non-finite theta")
    return (_ids(vertex_ids, "vertex"), _ids(edge_ids, "edge"),
            list(map(int, tails)), list(map(int, heads)),
            _ids(map(itemgetter(0), _pieces(fields, counts, 1)), "face"),
            _pieces(darts, [n - 2 for n in counts]),
            _ids(theta_ids, "theta"), theta)


def _record(seen, token, what):
    """Record id ``token``; rejects an id in the set ``seen`` of its kind."""
    key = int(token)
    if key in seen:
        raise ValueError("duplicate %s %d" % (what, key))
    seen.add(key)


def _first_record_fault(text):
    """Raises the first fault of a single surf v1 record of ``text``, in
    line order, with its line: the checks of each record, one record at a
    time, for when the columns of :func:`parse_surf` fail."""
    seen = {"vertex": set(), "edge": set(), "face": set(), "theta": set()}
    for ln, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        try:
            if parts[0] == "v" and len(parts) == 2:
                _record(seen["vertex"], parts[1], "vertex")
            elif parts[0] == "e" and len(parts) == 4:
                _record(seen["edge"], parts[1], "edge")
                int(parts[2]), int(parts[3])
            elif parts[0] == "f":
                for tok in parts[2:]:
                    if tok[-1] not in "+-":
                        raise ValueError("dart token %r" % tok)
                    int(tok[:-1])
                if len(parts) < 3:
                    raise ValueError("empty face")
                _record(seen["face"], parts[1], "face")
            elif parts[0] == "theta" and len(parts) == 3:
                if not math.isfinite(float(parts[2])):
                    raise ValueError("non-finite theta %r" % parts[2])
                _record(seen["theta"], parts[1], "theta")
            elif parts[0] != "geom":
                raise ValueError("unrecognized record %r" % parts[0])
        except ValueError as exc:
            raise SurfaceFormatError(str(exc), line=ln) from exc
    raise ValueError("surf v1 columns rejected records that pass one by one")


def _check_ids(ids, lines, count, message):
    """The distinct record ``ids`` must be exactly 0..count-1; an error
    names the line of the first record whose id lies outside that range,
    when there is one."""
    if len(ids) != count or (ids and (min(ids) < 0 or max(ids) >= count)):
        outside = [ln for key, ln in zip(ids, lines) if not 0 <= key < count]
        raise SurfaceFormatError(message, line=min(outside, default=None))


def _in_id_order(ids, values):
    """The list of ``values`` sorted by their record ids."""
    if ids == list(range(len(ids))):
        return list(values)
    return [value for _, value in sorted(zip(ids, values), key=itemgetter(0))]


def parse_surf(text, geom_records=None):
    """Parse "surf v1"; raises SurfaceFormatError with a line number.

    The lines are split once and grouped by record kind, and each kind's
    fields are converted in one pass with Python's ``int`` and ``float``.
    If some record fails, :func:`_first_record_fault` walks the records
    one by one to report the first fault in line order.  The checks across
    records follow: ids, edge ends, theta cover, then the surface's own.
    The ``geom`` records of the poly v1 extension are skipped, or, when a
    list ``geom_records`` is given, their line numbers, field counts and
    fields end to end are appended to it for
    :func:`endlab.polysurf.parse_poly` to check.
    """
    try:
        groups = _group_records(text)
        (vertex_ids, edge_ids, tails, heads, face_ids, cycles, theta_ids,
         theta) = _surf_columns(groups)
    except (ValueError, KeyError):
        _first_record_fault(text)
    if geom_records is not None:
        geom_records.extend(groups["geom"])
    # only line numbers are read from here on; dropping the fields before
    # the surface is built keeps the parse's peak memory that of a
    # line-by-line reader
    lines = {kind: group[0] for kind, group in groups.items()}
    del groups
    n_vertices = len(vertex_ids)
    if not n_vertices:
        raise SurfaceFormatError("no vertices")
    _check_ids(vertex_ids, lines["v"], n_vertices,
               "vertex ids must be 0..n-1")
    ends = tails + heads
    if ends and (min(ends) < 0 or max(ends) >= n_vertices):
        i = next(i for i, uv in enumerate(zip(tails, heads))
                 if not all(0 <= u < n_vertices for u in uv))
        raise SurfaceFormatError("edge %d endpoint out of range 0..%d"
                                 % (edge_ids[i], n_vertices - 1),
                                 line=lines["e"][i])
    n_edges = len(edge_ids)
    _check_ids(edge_ids, lines["e"], n_edges, "edge ids must be 0..m-1")
    _check_ids(face_ids, lines["f"], len(face_ids), "face ids must be 0..k-1")
    if theta_ids:
        _check_ids(theta_ids, lines["theta"], n_edges,
                   "theta must cover all edges")
        theta = _in_id_order(theta_ids, theta)
    else:
        theta = None
    try:
        return CellSurface._of_ints(
            n_vertices, _in_id_order(edge_ids, zip(tails, heads)),
            _in_id_order(face_ids, cycles), theta)
    except _DartOutOfRange as exc:
        line = lines["f"][face_ids.index(exc.face)]
        raise SurfaceFormatError(str(exc), line=line) from None


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


@dataclass(eq=False)
class CycleTable:
    """Closed walks as padded rows: row i runs through the vertices
    ``verts[i, :length[i]]`` along the edges ``edges[i, :length[i]]``
    (edge j leaves vertex j; the last edge returns to vertex 0), and holds
    -1 past its length.  ``len`` counts the rows; iteration yields each row
    as a (vertex tuple, edge tuple) pair of Python ints."""

    verts: np.ndarray
    edges: np.ndarray
    length: np.ndarray

    @classmethod
    def from_pairs(cls, pairs):
        """The table of (vertex sequence, edge sequence) pairs, in order."""
        verts, length = _padded([v for v, _ in pairs])
        return cls(verts, _padded([e for _, e in pairs])[0], length)

    def __len__(self):
        return len(self.length)

    def __iter__(self):
        return self.rows(slice(None))

    def rows(self, index):
        """The (vertex tuple, edge tuple) of the rows ``index`` selects."""
        for v, e, n in zip(self.verts[index].tolist(),
                           self.edges[index].tolist(),
                           self.length[index].tolist()):
            yield tuple(v[:n]), tuple(e[:n])


def _padded(rows):
    """The integer rows as one array padded with -1, and their lengths."""
    length = np.array([len(r) for r in rows], dtype=np.intp)
    out = np.full((len(rows), length.max(initial=0)), -1, dtype=np.intp)
    inside = np.arange(out.shape[1]) < length[:, None]
    out[inside] = [x for r in rows for x in r]
    return out, length


def _stacked(blocks):
    """The 2-D integer blocks stacked as int32, each padded with -1 to the
    widest."""
    out = np.full((sum(len(b) for b in blocks),
                   max((b.shape[1] for b in blocks), default=0)), -1,
                  dtype=np.int32)
    at = 0
    for b in blocks:
        out[at:at + len(b), :b.shape[1]] = b
        at += len(b)
    return out


def _csr(adjacency):
    """(off, nbr, eid): the pairs of ``adjacency[v]`` in their given order
    are (nbr[i], eid[i]) for i in range(off[v], off[v + 1])."""
    off = np.zeros(len(adjacency) + 1, dtype=np.intp)
    np.cumsum([len(row) for row in adjacency], out=off[1:])
    pairs = np.array([x for row in adjacency for pair in row for x in pair],
                     dtype=np.intp).reshape(-1, 2)
    return off, pairs[:, 0], pairs[:, 1]


def _expand(off, vertices):
    """(rep, idx): the adjacency slots of each of ``vertices`` in turn, slot
    i belonging to vertices[rep[i]] and having CSR index idx[i]."""
    deg = off[vertices + 1] - off[vertices]
    rep = np.repeat(np.arange(len(vertices)), deg)
    shift = np.repeat(off[vertices] - np.cumsum(deg) + deg, deg)
    return rep, np.arange(len(rep)) + shift


def _need(off, nbr, starts, n_vertices, l_max):
    """(len(starts) x n_vertices) table whose row b holds, at each vertex,
    its distance to the start ``starts[b]`` through vertices above the
    start within l_max // 2, else l_max + 1 (also at the start itself)."""
    dtype = np.int16 if l_max < np.iinfo(np.int16).max else np.int64
    need = np.full((len(starts), n_vertices), l_max + 1, dtype=dtype)
    rows, verts = np.arange(len(starts)), starts
    for r in range(1, l_max // 2 + 1):
        rep, idx = _expand(off, verts)
        rows, verts = rows[rep], nbr[idx]
        new = (verts > starts[rows]) & (need[rows, verts] > r)
        key = np.sort(rows[new] * n_vertices + verts[new])
        key = key[np.diff(key, prepend=-1) != 0]
        rows, verts = key // n_vertices, key % n_vertices
        need[rows, verts] = r
    return need


def _block_cycles(off, nbr, eid, starts, n_vertices, l_max):
    """The cycles of :func:`simple_cycles_upto` whose least vertex is in
    ``starts`` (ascending) as rows of the CSR indices of their steps, -1
    past each row's length, in the depth-first search's order."""
    need = _need(off, nbr, starts, n_vertices, l_max)
    # a slot into w is of use at room r only if need[b, w] < r for some
    # start, or if w is a start (closing the cycle)
    reach = need.min(axis=0)
    reach[starts] = 0
    reach = reach[nbr]
    need = need.ravel()
    # the frontier: paths from the starts[b] that take the CSR indices
    # steps[j] to the vertices path[j], one int32 array per depth, ending
    # at last
    b, last = np.arange(len(starts)), starts
    path, steps = [], []
    found = []
    for k in range(l_max):
        # the slots of use at this depth, as a CSR of their own
        kept = np.flatnonzero(reach < l_max - k)
        rep, slot = _expand(np.searchsorted(kept, off), last)
        rb, w = b[rep], nbr[kept][slot]
        home = np.flatnonzero(w == starts[rb])
        if k:
            home = home[eid[kept[slot[home]]] > first[rep[home]]]
        if len(home):
            found.append(np.column_stack([st[rep[home]] for st in steps]
                                         + [kept[slot[home]]]))
        go = np.flatnonzero(need[rb * n_vertices + w] < l_max - k)
        if k:
            up, wg = rep[go], w[go]
            on_path = path[0][up] == wg
            for p in path[1:]:
                on_path |= p[up] == wg
            go = go[~on_path]
        if not len(go):
            break
        up = rep[go]
        b, last = rb[go], w[go]
        path = [p[up] for p in path] + [last.astype(np.int32)]
        steps = [st[up] for st in steps] + [kept[slot[go]].astype(np.int32)]
        first = eid[steps[0]]
    rows = _stacked(found)
    # the search's order is the lexicographic order of the CSR index rows:
    # paths with a shared prefix next leave one vertex, whose slots are
    # consecutive, and a start's slots precede those of larger starts
    return rows[np.lexsort(rows.T[::-1])] if rows.size else rows


def simple_cycles_upto(n_vertices, adjacency, l_max):
    """Undirected simple cycles with at most l_max edges, as a
    :class:`CycleTable`.

    ``adjacency`` maps a vertex to (neighbor, edge id) pairs.  A cycle is a
    closed walk with distinct vertices and distinct edges; parallel edges
    yield length-2 cycles.  Each cycle is reported once, as an edge-id
    tuple aligned with a vertex tuple, canonicalized as by :func:`_canon`.
    Of the two directions from the least vertex s, the search keeps the one
    leaving s through the smaller edge: it closes a path only through an
    edge larger than the path's first edge, the only path edge at s.  The
    search from s enters w at depth k only if k + dist(w, s) <= l_max,
    with distances through vertices >= s.  This is exact: the rest of a
    closing walk is at least dist(w, s) long, and dist(w, s) <= min(k,
    l_max - k), so a ball of radius l_max // 2 holds every distance needed.

    The search is level-synchronous over blocks of ``START_BLOCK``
    starts, the vertices with a loop or with two slots to larger vertices
    (no cycle has another least vertex): all paths of k edges are extended
    at once through the slots of their last vertex's adjacency list.  The
    rows come out in the order in which a depth-first search over the
    lists as given meets them, the order of their sequences of adjacency
    slots.  Of the two directions from s, :func:`_canon` keeps the lesser
    vertex tuple; with three or more vertices it reverses a cycle exactly
    when the last vertex is below the second (a loop or a pair of parallel
    edges is least as found, its closing edge being the larger).
    """
    off, nbr, eid = _csr(adjacency)
    owner = np.repeat(np.arange(n_vertices, dtype=np.int32), np.diff(off))
    up = np.bincount(owner[nbr > owner], minlength=n_vertices)
    starts = np.flatnonzero((up >= 2) | (np.bincount(
        owner[nbr == owner], minlength=n_vertices) > 0))
    # step j leaves vertex j along edge j; the index -1 past a row's end
    # picks the -1 appended to owner and eid
    owner, eid = np.append(owner, -1), np.append(eid, -1).astype(np.int32)
    verts, edges = [], []
    for i in range(0, len(starts), START_BLOCK):
        steps = _block_cycles(off, nbr, eid, starts[i:i + START_BLOCK],
                              n_vertices, l_max)
        verts.append(owner[steps])
        edges.append(eid[steps])
        _canonical(verts[-1], edges[-1], np.count_nonzero(steps >= 0, axis=1))
    verts, edges = _stacked(verts), _stacked(edges)
    return CycleTable(verts, edges, np.count_nonzero(verts >= 0, axis=1))


def _canonical(verts, edges, length):
    """Turns the vertex and edge rows of cycles that begin at their least
    vertex, in place, into :func:`_canon`'s direction: a row of three or
    more vertices is reversed where its last vertex is below its second."""
    if verts.shape[1] < 3:
        return
    last = verts[np.arange(len(verts)), length - 1]
    flip = np.flatnonzero((length >= 3) & (last < verts[:, 1]))
    n, cols = length[flip, None], np.arange(verts.shape[1])
    inside = cols < n
    # vertex j comes from n - j (vertex 0 stays), edge j from n - 1 - j
    verts[flip] = np.take_along_axis(
        verts[flip], np.where(inside, (n - cols) * (cols > 0), cols), axis=1)
    edges[flip] = np.take_along_axis(
        edges[flip], np.where(inside, n - 1 - cols, cols), axis=1)


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
    genus >= 2: Dehn's algorithm on the surface's tree-cotree presentation
    (:class:`~endlab.surfgroup.TreeCotreePresentation`).
    """

    def __init__(self, surface):
        self.surface = surface
        self.genus = surface.genus()
        if self.genus == 1:
            self._boundary = face_boundary_matrix(surface)
        elif self.genus >= 2:
            self._presentation = TreeCotreePresentation(surface)

    def cycle_is_contractible(self, vseq, eseq):
        if self.genus == 0:
            return True
        darts = cycle_to_darts(self.surface, vseq, eseq)
        if self.genus == 1:
            return _homology_contractible(darts, self._boundary)
        return self._presentation.cycle_is_contractible(darts)


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


def _check_l_max(l_max):
    if l_max < 1:
        raise ValueError("l_max must be at least 1 (got %d)" % l_max)


def validate_admissible(surface, l_max=DEFAULT_L_MAX, simple_cycles_only=True):
    """Admissibility of (surface, theta): face sums 2*pi, short contractible
    non-facial cycles strictly above 2*pi.
    """
    _check_theta(surface)
    _check_l_max(l_max)
    report = ValidationReport(True)
    faces = _padded([[d // 2 for d in cyc] for cyc in surface.face_cycles])
    sums = _row_sums(surface.theta, *faces)
    report.face_sums = sums.tolist()
    for f in np.flatnonzero(np.abs(sums - 2.0 * math.pi) > TAU_ANG).tolist():
        report.passed = False
        report.violations.append(Witness(
            "face-sum", ("face", f), report.face_sums[f], 2.0 * math.pi))

    oracle = ContractibilityOracle(surface)
    if simple_cycles_only:
        cycles = simple_cycles_upto(surface.n_vertices, surface.adjacency(),
                                    l_max)
    else:
        report.note = ("trail search pruned to theta-sum <= 2*pi; "
                       "cycles above the bound cannot be witnesses")
        # Python floats: the search adds one per step
        cycles = closed_trails_upto(surface.n_vertices, surface.adjacency(),
                                    l_max, surface.theta.tolist(),
                                    2.0 * math.pi + TAU_ANG)
    _check_cycles(report, cycles, oracle, surface.theta, "contractible-cycle",
                  faces)
    return report


def _row_sums(theta, rows, length):
    """theta summed over each row's first ``length`` entries of ``rows``,
    column by column: each sum adds its terms left to right, on every
    Python version (adding 0.0 past a row's end changes no bit of a
    positive sum)."""
    total = np.zeros(len(rows))
    for j in range(rows.shape[1]):
        total += np.where(j < length, theta[rows[:, j]], 0.0)
    return total


def _row_keys(rows):
    """One void scalar per row of sorted entries: equal keys, equal
    multisets (among rows of one width)."""
    rows = np.ascontiguousarray(np.sort(rows, axis=1), dtype=np.intp)
    key = np.dtype((np.void, rows.itemsize * rows.shape[1]))
    return rows.view(key).ravel()


def _check_cycles(report, cycles, oracle, theta, kind, faces=None):
    """Count the contractible cycles whose edge multiset is not that of a
    face, and record each with theta-sum at most 2*pi as a ``kind``
    witness, in the order of ``cycles`` (a :class:`CycleTable` or a list
    of (vseq, eseq) pairs).  ``faces`` is the padded table of face edges
    and its lengths, as :func:`_padded` gives it, or None to skip none."""
    if not isinstance(cycles, CycleTable):
        cycles = CycleTable.from_pairs(cycles)
    keep = np.ones(len(cycles), dtype=bool)
    if faces is not None:
        for n in np.intersect1d(cycles.length, faces[1]).tolist():
            rows = np.flatnonzero(cycles.length == n)
            keep[rows] = ~np.isin(_row_keys(cycles.edges[rows, :n]),
                                  _row_keys(faces[0][faces[1] == n, :n]))
    if oracle.genus:
        rows = np.flatnonzero(keep)
        keep[rows] = [oracle.cycle_is_contractible(list(v), list(e))
                      for v, e in cycles.rows(rows)]
    sums = _row_sums(theta, cycles.edges, cycles.length)
    report.checked_cycles += int(np.count_nonzero(keep))
    bad = np.flatnonzero(keep & (sums <= 2.0 * math.pi + TAU_ANG))
    for i, (_, eseq) in zip(bad.tolist(), cycles.rows(bad)):
        report.passed = False
        report.violations.append(
            Witness(kind, ("edges",) + eseq, float(sums[i]), 2.0 * math.pi))


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
    off, nbr, _ = _csr(adjacency)
    out = []
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

    for i in range(0, n_vertices, START_BLOCK):
        starts = np.arange(i, min(i + START_BLOCK, n_vertices))
        for start, need in zip(starts.tolist(), _need(
                off, nbr, starts, n_vertices, l_max).tolist()):
            need[start] = 1  # a trail may pass through its start again
            vpath = [start]
            dfs(start, l_max, 0.0)
    return out


def validate_hyperideal(surface, l_max=DEFAULT_L_MAX):
    """Hyperideal angle conditions on the dual graph.

    (1) every closed contractible dual cycle has theta-sum > 2*pi;
    (2) every dual path that starts and ends on the boundary of a dual face
        (the star of a primal vertex), leaves that boundary, and is
        homotopic into the face, has theta-sum > pi.
    """
    _check_theta(surface)
    _check_l_max(l_max)
    report = ValidationReport(True)
    th = surface.theta.tolist()  # Python floats: the searches add one per step
    dual_surface = dual_cell_surface(surface)
    dual_adj = dual_surface.adjacency()
    oracle = ContractibilityOracle(dual_surface)

    # condition (1): contractible dual cycles
    _check_cycles(report, simple_cycles_upto(surface.n_faces, dual_adj, l_max),
                  oracle, surface.theta, "dual-cycle")

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
            s = 0.0
            for e in path_eseq:  # left to right on every Python version
                s += th[e]
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
    star, start = surface.star.tolist(), surface.star_start.tolist()
    cycles = [star[a:b] for a, b in zip(start, start[1:])]
    return CellSurface(surface.n_faces, duals, cycles, surface.theta)
