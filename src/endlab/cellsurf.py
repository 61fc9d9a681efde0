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
one a walk face by face, then vertex by vertex, would meet first.  The
face cycles stay laid end to end (``cycle_darts``, ``cycle_start``); the
lists ``face_cycles`` and ``edges`` are made from the arrays on first use.

``parse_surf`` reads "surf v1" in one grouping pass over the lines and one
call of numpy's C reader (``np.loadtxt``) per record kind: the fields of
v, e and theta records as columns, and the f records as one row of
numbers, each kind word made -1 and each dart sign the last digit of its
dart.  What the C reader rejects is read with Python's ``int`` and
``float`` as a line-by-line reader would, so the accepted language and
the bits of every value are Python's; only when a record fails there too
does the parse walk the records one by one, to report the first fault in
line order.  Ids, ranges and finiteness are checked over whole columns,
and the surface is built from the arrays read.

The module also carries the weighted-graph validators: face sums of an
edge weight function theta must equal 2*pi, and short contractible cycles
that do not bound a face must have theta-sum strictly above 2*pi (primal
condition), with the analogous conditions on the dual graph for the
hyperideal case.  Cycle searches are bounded by ``l_max`` and verdicts are
always "pass up to l_max".  Simple cycles, closed trails and the
hyperideal return paths are found by one level-synchronous array search
over blocks of starts, :func:`_block_cycles`: it extends every walk of k
edges at once through the slots of its last vertex's adjacency list, and
then restores the order in which a depth-first search would meet the
walks, the lexicographic order of their sequences of adjacency slots.  It
keeps no table of what it has found: it meets a walk from its start once
per traversal, and a rule on the edges at the start keeps one.  It skips
every closed walk's branch that cannot close, by the breadth-first
distance back to the start (:func:`simple_cycles_upto` says why nothing is
lost); trails and return paths carry their partial theta-sums, and end
where one passes the budget.  The validators skip facial cycles by
comparing sorted edge rows, and add each theta-sum column by column, left
to right in the reported edge order.  The builtin ``sum`` is not used for
them: from Python 3.12 on it compensates float rounding, so a witness
would carry other bits on other versions.  Contractibility is decided on
every genus by the dart words of the presentation that
:mod:`endlab.surfgroup` reads off the surface's own cells (the dual
surface's, for the hyperideal conditions).
"""

from __future__ import annotations

import math
import re
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, groupby
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
        edges = [(int(u), int(v)) for u, v in edges]
        face_cycles = [list(map(int, c)) for c in face_cycles]
        self._build(n_vertices, np.array(edges, dtype=np.int64).reshape(-1, 2),
                    _ints(list(chain.from_iterable(face_cycles))),
                    np.fromiter(map(len, face_cycles), dtype=int,
                                count=len(face_cycles)), theta)
        self.edges, self.face_cycles = edges, face_cycles

    @classmethod
    def _of_arrays(cls, n_vertices, ends, darts, sizes, theta=None):
        """The surface of an (E x 2) array of edge ends and the face cycles
        as one array of darts laid end to end with the number of darts of
        each face (:func:`parse_surf`'s); a dart may be any int, in an
        object array."""
        surface = cls.__new__(cls)
        surface._build(n_vertices, ends, darts, sizes, theta)
        return surface

    def _build(self, n_vertices, ends, darts, sizes, theta):
        self.n_vertices = int(n_vertices)
        self.n_edges = len(ends)
        self.n_darts = 2 * self.n_edges
        self.theta = None if theta is None else np.asarray(theta, dtype=float)

        self.dart_tail = np.array(ends, dtype=int).reshape(self.n_darts)
        outside = (self.dart_tail < 0) | (self.dart_tail >= self.n_vertices)
        if outside.any():
            raise SurfaceFormatError(
                "edge %d endpoint out of range 0..%d"
                % (np.argmax(outside) // 2, self.n_vertices - 1))
        darts, succ, face = self._check_faces(darts, sizes)
        #: the face cycles laid end to end: face f's darts in cycle order
        #: are cycle_darts[cycle_start[f]:cycle_start[f + 1]]
        self.cycle_darts = darts
        self.cycle_start = np.concatenate([[0], np.cumsum(sizes, dtype=int)])
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

    def _check_faces(self, flat, sizes):
        """(darts, succ, face) of the face cycles, given as the darts
        ``flat`` laid end to end and the ``sizes`` of the faces: the darts,
        the position of each one's successor in its cycle, and its face.
        Raises the fault a walk over the cycles, face by face, would meet
        first: an empty face; a dart out of range anywhere in the face;
        then dart by dart, a dart met before, and a successor whose tail is
        not the dart's head."""
        n_faces = len(sizes)
        # out of range, however large, becomes -1
        darts = np.where((flat < 0) | (flat >= self.n_darts), -1,
                         flat).astype(int)
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
        """Rejects a complex that is empty or has more than one component.
        Every vertex is labelled by the least vertex of its component: each
        round hooks the larger label of each edge's ends under the smaller,
        then jumps pointers until every label is a fixed point.  A label
        with a smaller one across an edge merges that round, any other
        within the next, so the labels at least halve every two rounds."""
        if not self.n_vertices:
            raise SurfaceFormatError("no vertices")
        ends = self.dart_tail.reshape(-1, 2)
        label = np.arange(self.n_vertices)
        while True:
            a, b = label[ends].T
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            moved = lo != hi
            if not moved.any():
                break
            np.minimum.at(label, hi[moved], lo[moved])
            jumped = label[label]
            while not np.array_equal(jumped, label):
                label, jumped = jumped, jumped[jumped]
        unreached = np.flatnonzero(label)
        if unreached.size:
            raise SurfaceFormatError(
                "surface is not connected (vertex %d unreached from vertex 0)"
                % unreached[0])

    # -- basic queries ----------------------------------------------------

    def head(self, d):
        return int(self.dart_tail[twin(d)])

    def tail(self, d):
        return int(self.dart_tail[d])

    def edge_of(self, d):
        return d // 2

    @property
    def n_faces(self):
        return len(self.cycle_start) - 1

    @cached_property
    def edges(self):
        """(tail, head) of each edge, as a list of int pairs."""
        return list(zip(self.dart_tail[0::2].tolist(),
                        self.dart_tail[1::2].tolist()))

    @cached_property
    def face_cycles(self):
        """Each face's darts in cycle order, as a list of int lists."""
        darts, start = self.cycle_darts.tolist(), self.cycle_start.tolist()
        return list(map(darts.__getitem__, map(slice, start, start[1:])))

    @cached_property
    def face_sizes(self):
        """Number of darts of each face."""
        return _frozen(np.diff(self.cycle_start))

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
        if np.any(self.face_sizes != 3):
            return None
        return _frozen(self.cycle_darts.reshape(-1, 3))

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
        return CellSurface._of_arrays(self.n_vertices,
                                      self.dart_tail.reshape(-1, 2),
                                      self.cycle_darts, self.face_sizes, theta)

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
#: the kind of a run of lines that begin with this letter; its reader
#: checks the kind words
_BY_INITIAL = {kind[0]: kind for kind in _KINDS}
#: the fields of the records of each kind but f as numpy reads them, the
#: kind word first; a word field holds one letter more than any word it may
#: be, so that a longer word reads as none of them
_FIELDS = {
    "v": np.dtype([("kind", "U2"), ("id", np.int64)]),
    "e": np.dtype([("kind", "U2"), ("id", np.int64), ("ends", np.int64, 2)]),
    "theta": np.dtype([("kind", "U6"), ("id", np.int64),
                       ("value", np.float64)]),
    "geom": np.dtype([("kind", "U5"), ("id", np.int64), ("type", "U8"),
                      ("vec", np.float64, 4)]),
}
#: a comment: from "#" to the end of its line, as str.splitlines ends lines
_COMMENT = re.compile("#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*")
_DART_SIGN = {"+": 0, "-": 1}
#: f records that numpy's C reader reads at once, with their signs made
#: digits
_FACE_RECORDS = re.compile(r"(?:\s*f\s+[0-9]+(?:\s+[0-9]+[+-])+)*\s*")
_PYTHON = {"i": int, "f": float, "U": str}


def _ints(values):
    """The list of ints ``values`` as an int64 array, or as an object array
    if one of them does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _width(dtype):
    """The number of text fields of a record of ``dtype``."""
    return sum(math.prod(dtype[name].shape) for name in dtype.names)


def _group_records(text):
    """{kind: (line numbers, lines)} of the records of ``text``, comments
    blanked, each kind in line order.  A run of lines that begin with a
    letter of ``_BY_INITIAL`` joins its kind whole; any other line is split
    once to find its kind.  Raises KeyError on a record of no known kind."""
    groups = {kind: ([], []) for kind in _KINDS}
    at = 1
    for initial, run in groupby(text.splitlines(), itemgetter(slice(1))):
        run = list(run)
        if initial in _BY_INITIAL:
            numbers, lines = groups[_BY_INITIAL[initial]]
            numbers += range(at, at + len(run))
            lines += run
        else:
            for ln, line in enumerate(run, start=at):
                kind = line.split(None, 1)[:1]
                if kind:
                    numbers, lines = groups[kind[0]]
                    numbers.append(ln)
                    lines.append(line)
        at += len(run)
    return groups


def _table(lines, dtype, c_reader):
    """The records ``lines`` as one array per field of ``dtype``.  With
    ``c_reader`` set, numpy's C reader reads them at once; where it rejects
    a field, or without it, Python's ``str.split``, ``int`` and ``float``
    read them as the per-line parser did, an int field as an object array.
    Raises ValueError if a record has another number of fields or a field
    that Python cannot read either."""
    if c_reader:
        try:
            table = (np.loadtxt(lines, dtype=dtype, ndmin=1, comments=None)
                     if lines else np.zeros(0, dtype))
            return [np.ascontiguousarray(table[name]) for name in dtype.names]
        except ValueError:
            pass
    parts = list(map(str.split, lines))
    if any(len(fields) != _width(dtype) for fields in parts):
        raise ValueError("wrong field count")
    cells = np.array(parts, dtype=object).reshape(len(parts), _width(dtype))
    out, at = [], 0
    for name in dtype.names:
        field = dtype[name]
        block = cells[:, at:at + math.prod(field.shape)]
        at += block.shape[1]
        values = np.frompyfunc(_PYTHON[field.base.kind], 1, 1)(block)
        if field.base.kind == "f":
            values = values.astype(float)
        out.append(values.reshape((len(parts),) + field.shape))
    return out


def _distinct(ids, kind):
    ids = np.sort(ids)
    if np.any(ids[1:] == ids[:-1]):
        raise ValueError("duplicate %s id" % kind)


def _fields(kind, lines, c_reader):
    """The fields after the kind word of the ``kind`` records ``lines``,
    one array per field, the ids first (:func:`_table`).  Raises ValueError
    if a record is of another kind or repeats an id."""
    words, *fields = _table(lines, _FIELDS[kind], c_reader)
    if np.any(words != kind):
        raise ValueError("unrecognized record")
    _distinct(fields[0], kind)
    return fields


def _faces(lines, c_reader):
    """(ids, darts, sizes) of the f records ``lines``: the face ids, the
    darts of every face laid end to end, and the number of each face's
    darts.  With ``c_reader`` set, and every id and edge id in ASCII digits,
    each edge id with its sign after it, numpy's C reader reads all the
    records at once, each kind word made -1 and each sign the last digit of
    its dart (0 for +, 1 for -); else Python's ``int`` reads the ids and
    darts, into object arrays.  Raises ValueError (or KeyError) if some
    record fails its own checks."""
    text, x = " ".join(lines), None
    if c_reader and lines and _FACE_RECORDS.fullmatch(text):
        with suppress(ValueError):  # a number of 19 digits or more
            x = np.loadtxt([text.replace("+", "0").replace("-", "1")
                            .replace("f", "-1")], dtype=np.int64, ndmin=1,
                           comments=None)
    if x is not None:
        start = np.flatnonzero(x < 0)
        dart = np.ones(len(x), dtype=bool)
        dart[start] = dart[start + 1] = False
        ids, darts = x[start + 1], x[dart]
        darts = 2 * (darts // 10) + darts % 10
        sizes = np.diff(start, append=len(x)) - 2
    else:
        parts = list(map(str.split, lines))
        if set(map(itemgetter(0), parts)) - {"f"}:
            raise ValueError("unrecognized record")
        sizes = np.fromiter(map(len, parts), dtype=int, count=len(parts)) - 2
        if np.any(sizes < 1):
            raise ValueError("empty face")
        ids = np.array([int(fields[1]) for fields in parts], dtype=object)
        darts = np.array([2 * int(tok[:-1]) + _DART_SIGN[tok[-1]]
                          for fields in parts for tok in fields[2:]],
                         dtype=object)
    _distinct(ids, "f")
    return ids, darts, sizes


def _record(seen, token, what):
    """Record id ``token``; rejects an id in the set ``seen`` of its kind."""
    key = int(token)
    if key in seen:
        raise ValueError("duplicate %s %d" % (what, key))
    seen.add(key)


#: the number of fields of the records of a fixed number of them
_FIELD_COUNT = {kind: _width(_FIELDS[kind]) for kind in ("v", "e", "theta")}


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
            if len(parts) != _FIELD_COUNT.get(parts[0], len(parts)):
                raise ValueError("%s record needs %d fields, got %d" % (
                    parts[0], _FIELD_COUNT[parts[0]], len(parts)))
            if parts[0] == "v":
                _record(seen["vertex"], parts[1], "vertex")
            elif parts[0] == "e":
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
            elif parts[0] == "theta":
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
    outside = (ids < 0) | (ids >= count)
    if len(ids) != count or outside.any():
        raise SurfaceFormatError(message, line=lines[np.argmax(outside)]
                                 if outside.any() else None)


def parse_surf(text, geom_records=None):
    """Parse "surf v1"; raises SurfaceFormatError with a line number.

    The lines are grouped by record kind in one pass, and numpy's C reader
    reads each kind's records at once (:func:`_fields`, :func:`_faces`).
    What it rejects, Python's ``int`` and ``float`` read as the per-line
    parser did; the C reader is not used on text with a non-ASCII character
    or a NUL outside comments, as it takes some non-ASCII letters for
    digits and its word fields drop NULs.  If a record still fails,
    :func:`_first_record_fault` walks the records one by one to report the
    first fault in line order.  The checks across records follow: ids,
    edge ends, theta cover, then the surface's own.  The ``geom`` records
    of the poly v1 extension are skipped, or, when a list ``geom_records``
    is given, read too: their line numbers and their fields (ids, vertex
    kinds, (n x 4) vectors), or None if some record fails to read, are
    appended to it for :func:`endlab.polysurf.parse_poly` to check.
    """
    blanked = _COMMENT.sub(" ", text)
    c_reader = blanked.isascii() and "\0" not in blanked
    try:
        groups = _group_records(blanked)
        (vertex_ids,) = _fields("v", groups["v"][1], c_reader)
        edge_ids, ends = _fields("e", groups["e"][1], c_reader)
        face_ids, darts, sizes = _faces(groups["f"][1], c_reader)
        theta_ids, theta = _fields("theta", groups["theta"][1], c_reader)
        if not np.all(np.isfinite(theta)):
            raise ValueError("non-finite theta")
        geom = None
        if geom_records is not None:
            with suppress(ValueError):
                geom = _fields("geom", groups["geom"][1], c_reader)
        # a geom record is checked here for its kind word alone
        if geom is None and any(line.split(None, 1)[0] != "geom"
                                for line in groups["geom"][1]):
            raise ValueError("unrecognized record")
    except (ValueError, KeyError):
        _first_record_fault(text)
    lines = {kind: group[0] for kind, group in groups.items()}
    if geom_records is not None:
        geom_records += [lines["geom"], geom]
    del groups
    n_vertices = len(vertex_ids)
    if not n_vertices:
        raise SurfaceFormatError("no vertices")
    _check_ids(vertex_ids, lines["v"], n_vertices,
               "vertex ids must be 0..n-1")
    outside = np.any((ends < 0) | (ends >= n_vertices), axis=1)
    if outside.any():
        i = np.argmax(outside)
        raise SurfaceFormatError("edge %d endpoint out of range 0..%d"
                                 % (edge_ids[i], n_vertices - 1),
                                 line=lines["e"][i])
    n_edges = len(edge_ids)
    _check_ids(edge_ids, lines["e"], n_edges, "edge ids must be 0..m-1")
    _check_ids(face_ids, lines["f"], len(face_ids), "face ids must be 0..k-1")
    if len(theta_ids):
        _check_ids(theta_ids, lines["theta"], n_edges,
                   "theta must cover all edges")
        theta = theta[np.argsort(theta_ids)]
    else:
        theta = None
    # the faces in id order, and their darts with them
    faces = np.argsort(face_ids)
    starts = (np.cumsum(sizes) - sizes)[faces]
    sizes = sizes[faces]
    darts = darts[np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
                  + np.arange(len(darts))]
    try:
        return CellSurface._of_arrays(n_vertices, ends[np.argsort(edge_ids)],
                                      darts, sizes, theta)
    except _DartOutOfRange as exc:
        raise SurfaceFormatError(str(exc),
                                 line=lines["f"][faces[exc.face]]) from None


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


def _on_path(path, up, key):
    """Whether key[i] is one of the entries p[up[i]] of the arrays p of
    ``path``."""
    on = path[0][up] == key
    for p in path[1:]:
        on |= p[up] == key
    return on


def _block_cycles(off, nbr, eid, starts, n_vertices, l_max, theta=None,
                  budget=math.inf, trails=False, ends=None):
    """The walks from one block of ``starts`` (ascending) as rows of the CSR
    indices of their steps, -1 past each row's length, in the depth-first
    search's order: by default the cycles of :func:`simple_cycles_upto`
    whose least vertex is a start.

    With ``theta``, each row carries its partial theta-sum, and a step that
    takes it past ``budget``, or back onto the row, neither closes nor
    extends it.  With ``trails`` (and ``theta``) the rows are the closed
    trails of :func:`closed_trails_upto`.  With ``ends`` (and ``theta``), a
    (len(starts) x n_vertices) boolean table, they are the return paths of
    :func:`_return_paths` that end at a w with ends[b, w] or back at
    starts[b], each row led by its b.
    """
    rows = np.arange(len(starts))
    if ends is None:
        need = _need(off, nbr, starts, n_vertices, l_max)
        reach = need.min(axis=0)
    else:  # a return path may end at every step
        need = np.ones((len(starts), n_vertices), dtype=np.intp)
        reach = 1 - ends.any(axis=0)
    # a trail may pass through its start again; no other walk does
    need[rows, starts] = 1 if trails else l_max + 1
    # a slot into w is of use at room r only if need[b, w] < r for some
    # start, or if a walk can end at w
    reach[starts] = 0
    reach = reach[nbr]
    need = need.ravel()
    # the frontier: walks from the starts[b] that take the CSR indices
    # steps[j] to the vertices (edges, for trails) path[j], one int32 array
    # per depth, ending at last, with theta-sums total
    b, last, total = rows, starts, np.zeros(len(starts))
    path, steps = [], []
    found = []
    for k in range(l_max):
        # the slots of use at this depth, as a CSR of their own
        kept = np.flatnonzero(reach < l_max - k)
        rep, slot = _expand(np.searchsorted(kept, off), last)
        rb, w = b[rep], nbr[kept][slot]
        if theta is not None:
            e = eid[kept[slot]]
            t = total[rep] + theta[e]
            live = t <= budget
            if k:
                live &= ~_on_path(path, rep, e if trails else w)
            if k and trails:
                # never leave or re-enter the start below the first edge
                live &= (e > first[rep]) | ((last[rep] != starts[rb])
                                            & (w != starts[rb]))
            live = np.flatnonzero(live)
            rep, slot, rb, w, t = (rep[live], slot[live], rb[live], w[live],
                                   t[live])
        home = np.flatnonzero(w == starts[rb])
        if k:
            home = home[eid[kept[slot[home]]] > first[rep[home]]]
            if trails:
                # after a loop first, keep the rest R where R <= reversed R
                loop = nbr[steps[0][rep[home]]] == starts[rb[home]]
                rest = np.column_stack([p[rep[home]] for p in path[1:]]
                                       + [eid[kept[slot[home]]]])
                i = np.arange(len(home))
                j = (rest != rest[:, ::-1]).argmax(axis=1)
                home = home[~loop | (rest[i, j] <= rest[i, -1 - j])]
            if ends is not None:
                home = np.append(home, np.flatnonzero(ends[rb, w]))
        elif ends is not None:
            home = home[:0]  # a return path has two or more edges
        if len(home):
            lead = [] if ends is None else [rb[home]]
            found.append(np.column_stack(
                lead + [st[rep[home]] for st in steps] + [kept[slot[home]]]))
        go = np.flatnonzero(need[rb * n_vertices + w] < l_max - k)
        if k and theta is None:
            go = go[~_on_path(path, rep[go], w[go])]
        if not len(go):
            break
        up = rep[go]
        b, last = rb[go], w[go]
        step = kept[slot[go]]
        path = ([p[up] for p in path]
                + [(eid[step] if trails else last).astype(np.int32)])
        steps = [st[up] for st in steps] + [step.astype(np.int32)]
        first = eid[steps[0]]
        if theta is not None:
            total = t[go]
    rows = _stacked(found)
    # the search's order is the lexicographic order of the CSR index rows:
    # paths with a shared prefix next leave one vertex, whose slots are
    # consecutive, and a start's slots precede those of larger starts
    return rows[np.lexsort(rows.T[::-1])] if rows.size else rows


def _cycle_table(n_vertices, adjacency, l_max, canonical, **rules):
    """The :class:`CycleTable` of the closed walks that
    :func:`_block_cycles` finds under ``rules``, from the vertices with a
    loop or with two slots to larger vertices (no closed walk has another
    least vertex), in blocks of ``START_BLOCK``; ``canonical`` puts each
    block's rows in their reported direction, in place."""
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
                              n_vertices, l_max, **rules)
        verts.append(owner[steps])
        edges.append(eid[steps])
        canonical(verts[-1], edges[-1], np.count_nonzero(steps >= 0, axis=1))
    verts, edges = _stacked(verts), _stacked(edges)
    return CycleTable(verts, edges, np.count_nonzero(verts >= 0, axis=1))


def simple_cycles_upto(n_vertices, adjacency, l_max):
    """Undirected simple cycles with at most l_max edges, as a
    :class:`CycleTable`.

    ``adjacency`` maps a vertex to (neighbor, edge id) pairs.  A cycle is a
    closed walk with distinct vertices and distinct edges; parallel edges
    yield length-2 cycles.  Each cycle is reported once, from its least
    vertex s, in the lesser of its two directions (vertex tuples, then edge
    tuples, compared).  Of the two traversals from s, the search keeps the
    one leaving s through the smaller edge: it closes a path only through
    an edge larger than the path's first edge, the only path edge at s.
    The search from s enters w at depth k only if k + dist(w, s) <= l_max,
    with distances through vertices >= s.  This is exact: the rest of a
    closing walk is at least dist(w, s) long, and dist(w, s) <= min(k,
    l_max - k), so a ball of radius l_max // 2 holds every distance needed.

    The search is :func:`_block_cycles` with no rules.  The rows come out
    in the order in which a depth-first search over the lists as given
    meets them.  With three or more vertices a cycle is reversed exactly
    when its last vertex is below its second (a loop or a pair of parallel
    edges is least as found, its closing edge being the larger).
    """
    return _cycle_table(n_vertices, adjacency, l_max, _canonical)


def _canonical(verts, edges, length):
    """Turns the vertex and edge rows of cycles that begin at their least
    vertex, in place, into their lesser direction: a row of three or more
    vertices is reversed where its last vertex is below its second."""
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


def closed_trails_upto(n_vertices, adjacency, l_max, theta, budget):
    """Closed walks with distinct edges, repeated vertices allowed, with at
    most l_max edges and theta-sum at most ``budget``, as a
    :class:`CycleTable`.

    Each trail is reported once, as the least (vertex tuple, edge tuple)
    over its rotations that begin at its least vertex s and its two
    directions.  From s the search meets a trail once per passage through
    s and direction, and keeps the traversal that begins with the least
    edge m the trail has at s: it never leaves or re-enters s through an
    edge smaller than the first.  A non-loop m begins one traversal; a loop
    m is followed by the rest R of the trail either way, and the search
    keeps R <= reversed R (edge tuples).  A partial theta-sum above the
    budget ends a walk (the validators only ever report cycles at or below
    the bound, so with positive weights this loses nothing).  The search is
    :func:`_block_cycles` with the trail rule, in the same order as
    :func:`simple_cycles_upto`.
    """
    return _cycle_table(n_vertices, adjacency, l_max, _canonical_trails,
                        theta=np.asarray(theta, dtype=float), budget=budget,
                        trails=True)


def _canonical_trails(verts, edges, length):
    """Turns the vertex and edge rows of closed trails that begin at their
    least vertex, in place, into their reported form: the least (vertex
    row, edge row) over the rotations that begin at that vertex, in both
    directions."""
    row, p = np.nonzero(verts == verts[:, :1])
    width = verts.shape[1]
    cols = np.arange(width)
    p, row = np.tile(p[:, None], (2, 1)), np.tile(row, 2)
    n = length[row, None]
    # from passage p, forward: vertex p + j leaves along edge p + j;
    # backward: vertex p - j leaves along edge p - 1 - j
    sign = np.repeat([1, -1], len(row) // 2)[:, None]
    vcol, ecol = (p + sign * cols) % n, (p + sign * cols - (sign < 0)) % n
    inside = cols < n
    key = np.hstack([np.where(inside, verts[row[:, None], vcol], -1),
                     np.where(inside, edges[row[:, None], ecol], -1)])
    order = np.lexsort(np.vstack([key.T[::-1], row]))
    best = order[np.diff(row[order], prepend=-1) != 0]
    verts[row[best]], edges[row[best]] = key[best, :width], key[best, width:]


def _return_paths(n_vertices, adjacency, set_off, members, l_max, theta,
                  budget):
    """The return paths of the vertex sets ``members[set_off[v]:set_off[v +
    1]]``: from each vertex f of each set v (v ascending, then f), the
    paths of two to l_max edges through distinct vertices with theta-sum at
    most ``budget`` that end at a vertex of set v above f, or back at f
    through an edge above their first.  Each path is found once up to
    reversal, in the depth-first search's order, by :func:`_block_cycles`
    with the return-path rule and a theta column.  Yields one (owner,
    verts, edges, length) per block of ``START_BLOCK`` starts, so that only
    one block's paths are held at a time: row i is a path of set
    ``owner[i]`` along the edges ``edges[i, :length[i]]`` through the
    vertices ``verts[i, :length[i] + 1]``, -1 past them.
    """
    off, nbr, eid = _csr(adjacency)
    around = np.sort(np.repeat(np.arange(len(set_off) - 1), np.diff(set_off))
                     * n_vertices + members)
    around = around[np.diff(around, prepend=-1) != 0]
    owner, starts = around // n_vertices, around % n_vertices
    nbr_end, eid_end = np.append(nbr, -1), np.append(eid, -1)
    for i in range(0, len(starts), START_BLOCK):
        block = starts[i:i + START_BLOCK]
        rep, idx = _expand(set_off, owner[i:i + START_BLOCK])
        ends = np.zeros((len(block), n_vertices), dtype=bool)
        ends[rep, members[idx]] = members[idx] > block[rep]
        rows = _block_cycles(off, nbr, eid, block, n_vertices, l_max, theta,
                             budget, ends=ends)
        if not rows.size:
            continue
        b, steps = rows[:, 0] + i, rows[:, 1:]
        yield (owner[b], np.column_stack([starts[b], nbr_end[steps]]),
               eid_end[steps], np.count_nonzero(steps >= 0, axis=1))


# ---------------------------------------------------------------------------
# contractibility dispatch


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
    """Decides contractibility of cycles for a fixed surface by the dart
    words of its tree-cotree presentation
    (:class:`~endlab.surfgroup.TreeCotreePresentation`), built on first
    use: empty on a sphere, trivial on a torus exactly when every
    generator's exponent sum is 0, and decided by Dehn's algorithm from
    genus 2 on.
    """

    def __init__(self, surface):
        self.surface = surface
        self.genus = surface.genus()

    @cached_property
    def _presentation(self):
        return TreeCotreePresentation(self.surface)

    def cycle_is_contractible(self, vseq, eseq):
        return self._presentation.cycle_is_contractible(
            cycle_to_darts(self.surface, vseq, eseq))


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
    bad = np.flatnonzero(~((th > 0) & (th < math.pi)))
    if bad.size:
        raise SurfaceFormatError("weight out of (0,pi): edge %d has %.12g"
                                 % (bad[0], th[bad[0]]))


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
        cycles = closed_trails_upto(surface.n_vertices, surface.adjacency(),
                                    l_max, surface.theta,
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
    """Count the contractible cycles of the :class:`CycleTable` ``cycles``
    whose edge multiset is not that of a face, and record each with
    theta-sum at most 2*pi as a ``kind`` witness, in table order.
    ``faces`` is the padded table of face edges and its lengths, as
    :func:`_padded` gives it, or None to skip none."""
    keep = np.ones(len(cycles), dtype=bool)
    if faces is not None:
        for n in np.intersect1d(cycles.length, faces[1]).tolist():
            rows = np.flatnonzero(cycles.length == n)
            keep[rows] = ~np.isin(_row_keys(cycles.edges[rows, :n]),
                                  _row_keys(faces[0][faces[1] == n, :n]))
    if oracle.genus:  # on a sphere every cycle is contractible
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
    dual_surface = dual_cell_surface(surface)
    dual_adj = dual_surface.adjacency()
    oracle = ContractibilityOracle(dual_surface)

    # condition (1): contractible dual cycles
    _check_cycles(report, simple_cycles_upto(surface.n_faces, dual_adj, l_max),
                  oracle, surface.theta, "dual-cycle")

    # condition (2): face-homotopic return paths.  A path above pi is no
    # witness, whatever its homotopy class, so the search stops there and
    # the Dehn test runs only on paths that could be one; a path along the
    # boundary of its own dual face does not leave it.
    around = (np.repeat(np.arange(surface.n_vertices), surface.degrees)
              * surface.n_edges + surface.star // 2)
    # one int object per id for every witness to share: tolist makes a new
    # one for each entry above 256
    ids = list(range(max(surface.n_vertices, surface.n_edges)))
    for vertex, verts, edges, length in _return_paths(
            surface.n_faces, dual_adj, surface.star_start,
            surface.dart_face[surface.star], l_max, surface.theta,
            math.pi + TAU_ANG):
        leaves = (edges >= 0) & ~np.isin(
            vertex[:, None] * surface.n_edges + edges, around)
        rows = np.flatnonzero(leaves.any(axis=1))
        sums = _row_sums(surface.theta, edges, length)
        paths = zip(vertex[rows].tolist(), sums[rows].tolist(),
                    verts[rows].tolist(), edges[rows].tolist(),
                    length[rows].tolist())
        for v, group in groupby(paths, key=itemgetter(0)):
            star = surface.star[surface.star_start[v]:
                                surface.star_start[v + 1]]
            b_faces = surface.dart_face[star].tolist()
            b_edges = (star // 2).tolist()
            for _, s, vseq, eseq, n in group:
                if _returns_through_face(oracle, b_faces, b_edges,
                                         vseq[:n + 1], eseq[:n]):
                    report.passed = False
                    report.violations.append(Witness(
                        "return-path", ("vertex", ids[v], "edges",
                                        *[ids[e] for e in eseq[:n]]),
                        s, math.pi))
    return report


def _returns_through_face(oracle, b_faces, b_edges, path_vseq, path_eseq):
    """Is the dual path homotopic (rel endpoints) into the dual face of v?

    ``b_faces`` and ``b_edges`` are the faces and edges of v's star in
    rotation order, the boundary of v's dual face.  Closes the path along
    that boundary from its end back to its start in star order and tests
    the loop for contractibility; the route against star order differs by
    the (contractible) face boundary.
    """
    k = len(b_faces)
    i0, i1 = b_faces.index(path_vseq[0]), b_faces.index(path_vseq[-1])
    back = [(i1 + j) % k for j in range((i0 - i1) % k)]
    return oracle.cycle_is_contractible(
        path_vseq[:-1] + [b_faces[i] for i in back],
        path_eseq + [b_edges[i] for i in back])


def dual_cell_surface(surface):
    """The dual cell complex as a CellSurface.

    Dual vertex f per primal face, dual edge e per primal edge (dart 2e
    from face(2e) to face(2e+1)), dual face per primal vertex with boundary
    along the vertex star.
    """
    # The dual dart with the same id as a primal dart d runs from face(d)
    # to face(twin d); the star order around a primal vertex is already
    # head-to-tail for these darts.
    return CellSurface._of_arrays(surface.n_faces,
                                  surface.dart_face.reshape(-1, 2),
                                  surface.star, surface.degrees,
                                  surface.theta)
