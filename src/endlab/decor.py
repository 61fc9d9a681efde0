"""Partial edge orientations on quasi-simplicial surfaces.

A decoration orients some edges of a triangulated surface.  At each corner
(a face together with one of its vertices) the two incident edge states
contribute a change count: 0 when both are unoriented or both point the
same way relative to the vertex, 1/2 when exactly one is oriented, 1 when
one points toward and the other away.  The paper calls a decoration tight
when every vertex sees at most 2 changes, and at most 1 at a vertex with
three or more unoriented darts or two rotation-consecutive ones.  The code
checks only the second clause, since the first never decides: a corner
pairs two rotation-consecutive darts, so k unoriented darts no two of
which are consecutive lie in 2k distinct corners worth 1/2 each, and at
k >= 3 the vertex sees more than 2 changes, over either limit.

Corner values are computed once per decoration, on first use, and shared
by the tightness check, the per-vertex totals and the component report;
the face predecessor and the vertex stars they read are stored on the
:class:`~endlab.cellsurf.CellSurface`.

The component report deletes faces with no oriented edge and analyzes each
glued component of the remainder as an abstract surface with boundary
(vertices pinched by deleted sectors are split), producing the exact
integer counts 3F = 2E - e_b and 2V - e_b = F + (4 - 4g - 2b) together
with the two corner-change bounds c >= F and c <= 2V - e_b.  Components of
negative Euler characteristic close the counting contradiction; disk-like
components are flagged as outside that argument's coverage, so tightness
itself is never asserted as an invariant here.

:func:`batch_report` answers the same questions (tight, components
outside coverage, identities held) for many decorations at once, as array
operations over an (n x E) state array whose per-vertex totals are
reductions over the surface's stored vertex stars.  The component counts
depend on a decoration only through its kept faces, so they are taken once
per distinct kept-face pattern of the surface, not once per row: a table
per surface keeps each pattern's results across calls.
:func:`is_tight` and :func:`pak_report` stay the per-decoration path and
its test oracle.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .cellsurf import CellSurface, twin

UNORIENTED = 0
FORWARD = 1
BACKWARD = -1


class DecorationError(ValueError):
    pass


def _states_array(surface, states, ndim):
    """Integer copy of per-edge states (last axis) with ``ndim`` axes; any
    value other than exactly -1, 0 or +1 (0.5, NaN) is rejected, not
    rounded."""
    st = np.asarray(states)
    if st.ndim != ndim or st.shape[-1] != surface.n_edges:
        raise DecorationError("one state per edge required")
    if st.dtype.kind not in "biuf" or not np.all((st == 0) | (abs(st) == 1)):
        raise DecorationError("states must be in {-1, 0, +1}")
    return st.astype(int)


@dataclass(frozen=True)
class Decoration:
    """Per-edge orientation state, relative to each edge's dart 2e.

    The states are a read-only copy, so the corner values cached on first
    use stay those of the decoration.
    """

    surface: CellSurface
    states: np.ndarray

    def __post_init__(self):
        st = _states_array(self.surface, self.states, 1)
        st.flags.writeable = False
        object.__setattr__(self, "states", st)

    @classmethod
    def trivial(cls, surface):
        return cls(surface, np.zeros(surface.n_edges, dtype=int))

    @classmethod
    def from_pairs(cls, surface, pairs):
        st = np.zeros(surface.n_edges, dtype=int)
        for e, s in pairs:
            st[e] = s
        return cls(surface, st)

    def n_oriented(self):
        return int(np.sum(self.states != 0))

    def reversed(self):
        return Decoration(self.surface, -self.states)

    def away_from_tail(self, d):
        """+1 if edge(d) points away from tail(d), -1 toward, 0 unoriented."""
        s = int(self.states[d // 2])
        return s if d % 2 == 0 else -s

    @cached_property
    def _corners(self):
        return MappingProxyType({d: corner_value(self, d)
                                 for d in range(self.surface.n_darts)})


def serialize_decoration(dec):
    lines = ["# decor v1"]
    for e in range(dec.surface.n_edges):
        if dec.states[e] == FORWARD:
            lines.append("o %d +" % e)
        elif dec.states[e] == BACKWARD:
            lines.append("o %d -" % e)
    return "\n".join(lines) + "\n"


def parse_decoration(surface, text):
    pairs = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] != "o" or parts[2] not in ("+", "-"):
            raise DecorationError("line %d: bad decoration record" % ln)
        try:
            e = int(parts[1])
        except ValueError:
            raise DecorationError(
                "line %d: bad edge id %r" % (ln, parts[1])) from None
        if not 0 <= e < surface.n_edges:
            raise DecorationError("line %d: edge %d out of range 0..%d"
                                  % (ln, e, surface.n_edges - 1))
        if e in pairs:
            raise DecorationError("line %d: duplicate edge %d" % (ln, e))
        pairs[e] = FORWARD if parts[2] == "+" else BACKWARD
    return Decoration.from_pairs(surface, pairs.items())


# ---------------------------------------------------------------------------
# corner machinery


def corner_value(dec, d):
    """Change count at the corner of face(d) at tail(d)."""
    a = dec.away_from_tail(d)
    b = dec.away_from_tail(twin(int(dec.surface.fprev[d])))
    if a == 0 and b == 0:
        return 0.0
    if a == 0 or b == 0:
        return 0.5
    return 0.0 if a == b else 1.0


def corner_changes(dec):
    """Per-corner change values, keyed by the corner's outgoing dart.

    The corner of dart d is the (face(d), tail(d)) incidence; its edges are
    edge(d) and the preceding face edge.  The values are computed once per
    decoration and returned as a read-only mapping.
    """
    return dec._corners


def vertex_changes(dec):
    """Total change count at each vertex (sum over its corners)."""
    s = dec.surface
    return np.bincount(s.dart_tail, weights=list(corner_changes(dec).values()),
                       minlength=s.n_vertices)


@dataclass
class TightnessReport:
    tight: bool
    offenders: list


def is_tight(dec):
    """Tightness per the corner-change rules, with the offending vertices.

    The limit at a vertex is 2, or 1 when its star holds two
    rotation-consecutive unoriented darts.  The paper's limit 1 at three or
    more unoriented darts never decides a verdict (the module docstring
    says why), so neither this nor :func:`batch_report` checks it.
    """
    s = dec.surface
    totals = vertex_changes(dec)
    limits = np.full(s.n_vertices, 2.0)
    for v in range(s.n_vertices):
        star = s.vertex_star(v)
        unor = [dec.away_from_tail(d) == 0 for d in star]
        if len(unor) > 1 and any(unor[i] and unor[i - 1]
                                 for i in range(len(unor))):
            limits[v] = 1.0
    offenders = [v for v in range(s.n_vertices)
                 if totals[v] > limits[v] + 1e-9]
    return TightnessReport(not offenders, offenders)


# ---------------------------------------------------------------------------
# component counting (the counting argument's two bounds)


@dataclass
class ComponentReport:
    n_vertices: int
    n_edges: int
    n_faces: int
    e_boundary: int
    boundary_cycles: int
    genus: int
    corner_change_total: float
    bound_2v_minus_eb: int
    chain_closes: bool          # Euler characteristic < 0
    proof_coverage: str         # "covered" or "outside proof coverage"

    def identities_hold(self):
        lhs = 3 * self.n_faces
        rhs = 2 * self.n_edges - self.e_boundary
        chi = self.n_vertices - self.n_edges + self.n_faces
        ident2 = (2 * self.n_vertices - self.e_boundary
                  == self.n_faces + (4 - 4 * self.genus - 2 * self.boundary_cycles))
        return lhs == rhs and chi == 2 - 2 * self.genus - self.boundary_cycles \
            and ident2


@dataclass
class PakReport:
    components: list = field(default_factory=list)

    def all_identities_hold(self):
        return all(c.identities_hold() for c in self.components)


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def pak_report(dec):
    """Component decomposition after deleting all-unoriented faces.

    Each component is analyzed as an abstract surface with boundary: its
    vertex count splits corners that are pinched through deleted faces, so
    the Euler data is that of the cut surface the counting argument uses.
    """
    s = dec.surface
    if not s.is_quasi_simplicial():
        raise DecorationError("component counting needs a triangulation")
    kept = [f for f in range(s.n_faces)
            if any(dec.states[d // 2] != 0 for d in s.face_cycles[f])]
    if not kept:
        return PakReport([])
    kept_set = set(kept)
    darts = [d for f in kept for d in s.face_cycles[f]]
    dart_set = set(darts)

    uf = _UnionFind(kept)
    for d in darts:
        if twin(d) in dart_set:
            uf.union(int(s.dart_face[d]), int(s.dart_face[twin(d)]))
    groups = {}
    for f in kept:
        groups.setdefault(uf.find(f), []).append(f)

    corners = corner_changes(dec)
    report = PakReport()
    for faces in sorted(groups.values()):
        fset = set(faces)
        cdarts = [d for f in faces for d in s.face_cycles[f]]
        cset = set(cdarts)
        interior = {d // 2 for d in cdarts if twin(d) in cset}
        boundary_darts = [d for d in cdarts if twin(d) not in cset]
        e_b = len(boundary_darts)
        n_edges = len(interior) + e_b

        # abstract vertices: corner orbits under rotation through interior edges
        cuf = _UnionFind(cdarts)
        for d in cdarts:
            if twin(d) in cset:
                nxt = s.vnext(d)   # next corner at tail(d)
                if nxt in cset:
                    cuf.union(d, nxt)
        n_vertices = len({cuf.find(d) for d in cdarts})

        # boundary cycles: walk fnext, skipping through interior fans
        b_cycles = 0
        unvisited = set(boundary_darts)
        while unvisited:
            d0 = min(unvisited)
            d = d0
            while True:
                unvisited.discard(d)
                t = int(s.fnext[d])
                while twin(t) in cset:
                    t = s.vnext(t)
                d = t
                if d == d0:
                    break
            b_cycles += 1

        chi = n_vertices - n_edges + len(faces)
        g2 = 2 - b_cycles - chi
        if g2 % 2:
            raise ValueError("component has inconsistent Euler data")
        genus = g2 // 2
        c_total = float(sum(corners[d] for d in cdarts))
        comp = ComponentReport(
            n_vertices=n_vertices,
            n_edges=n_edges,
            n_faces=len(faces),
            e_boundary=e_b,
            boundary_cycles=b_cycles,
            genus=genus,
            corner_change_total=c_total,
            bound_2v_minus_eb=2 * n_vertices - e_b,
            chain_closes=chi < 0,
            proof_coverage="covered" if chi < 0 else "outside proof coverage",
        )
        report.components.append(comp)
    return report


# ---------------------------------------------------------------------------
# batched tightness and component counts, one array program over samples


@dataclass
class BatchReport:
    """Per-sample results of :func:`batch_report`, one entry per state row."""

    tight: np.ndarray           # bool, as ``is_tight(dec).tight``
    outside: np.ndarray         # int, components with Euler characteristic >= 0
    identities: np.ndarray      # bool, as ``pak_report(dec).all_identities_hold()``


def _star_reduce(ufunc, per_dart, surface):
    """``ufunc`` reduced over each vertex star, for each row of the
    (n x D) per-dart array: an (n x V) array."""
    return ufunc.reduceat(per_dart[:, surface.star], surface.star_start[:-1],
                          axis=1)


def _batch_tight(surface, st):
    """Tight flag per state row, by the rules of :func:`is_tight`.

    With a the away-from-tail state at d and b the one at twin(fprev d),
    the doubled corner value is |a - b|; vertex totals and consecutive
    unoriented pairs are reductions over the vertex stars.
    """
    away = np.stack([st, -st], axis=2).reshape(len(st), -1)
    twice = np.abs(away - away[:, surface.fprev ^ 1])
    totals2 = _star_reduce(np.add, twice, surface)
    unor = away == 0
    consec = _star_reduce(np.logical_or, unor & unor[:, surface.rotation_next],
                          surface)
    consec &= surface.degrees > 1
    limits2 = np.where(consec, 2, 4)
    return ~np.any(totals2 > limits2, axis=1)


def _row_gather(a, idx):
    """``a[r, idx[r, j]]`` at (r, j): ``np.take_along_axis(a, idx, axis=1)``
    as one gather from the flattened array."""
    return a.ravel()[idx + a.shape[1] * np.arange(len(a))[:, None]]


def _min_labels(labels, succ):
    """Least label on each orbit of the per-row maps ``succ``, by doubling."""
    while True:
        nxt = np.minimum(labels, _row_gather(labels, succ))
        succ = _row_gather(succ, succ)
        if np.array_equal(nxt, labels):
            return labels
        labels = nxt


def _kept_faces(surface, st):
    """(n x F) mask of the faces with an oriented edge, per state row."""
    return np.any(st[:, surface.face_darts // 2] != 0, axis=2)


def _distinct_rows(a):
    """(first, inverse) for the rows of a 2-d array: the least index of each
    distinct row, and for each row the position of its value in ``first``;
    one stable lexsort over the columns."""
    order = np.lexsort(a.T)
    ordered = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(len(a), dtype=int)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _component_counts(surface, st):
    """Per-component counts of :func:`pak_report`, for every state row.

    Returns the five (n, F) arrays V, E, F, e_b and b, indexed by the row
    and the component's least face id, and zero where no component has
    that least face.  Each count is taken independently, never derived
    from an identity.  The states are read only through their kept-face
    mask (:func:`_kept_faces`), so rows with one mask get equal counts.
    """
    s = surface
    n, nf, nd = len(st), s.n_faces, s.n_darts
    darts = np.arange(nd)
    kept = _kept_faces(s, st)

    # face components: min-label propagation with pointer jumping
    nbr = s.dart_face[s.face_darts ^ 1]
    sentinel = np.full((n, 1), nf)
    labels = np.where(kept, np.arange(nf), nf)
    while True:
        nxt = np.minimum(labels, labels[:, nbr].min(axis=2))
        nxt = np.where(kept, nxt, nf)
        nxt = _row_gather(np.hstack([nxt, sentinel]), nxt)
        if np.array_equal(nxt, labels):
            break
        labels = nxt

    face_comp = labels + nf * np.arange(n)[:, None]
    comp = face_comp[:, s.dart_face]
    kd = kept[:, s.dart_face]
    kt = kd[:, darts ^ 1]
    boundary = kd & ~kt

    # abstract vertices: a corner orbit starts at a kept dart whose
    # rotation predecessor twin(fprev d) is deleted; a star with every
    # dart kept is one closed orbit
    starts = kd & ~kd[:, s.fprev ^ 1]
    closed = _star_reduce(np.logical_and, kd, s)
    first = s.star[s.star_start[:-1]]

    # boundary successor: fnext, then rotate through interior edges
    skip = np.where(kt & kd, s.rotation_next, darts)
    for _ in range(int(s.degrees.max()).bit_length()):
        skip = _row_gather(skip, skip)
    succ = np.where(boundary, skip[:, s.fnext], darts)
    labels_b = _min_labels(np.broadcast_to(darts, (n, nd)), succ)
    cycle_starts = boundary & (labels_b == darts)

    size = n * nf

    def per_component(mask, where):
        return np.bincount(where[mask], minlength=size).reshape(n, nf)

    return (
        per_component(starts, comp) + per_component(closed, comp[:, first]),
        per_component(kd & kt & (darts % 2 == 0), comp)
        + per_component(boundary, comp),
        per_component(kept, face_comp),
        per_component(boundary, comp),
        per_component(cycle_starts, comp),
    )


#: per surface, packed kept-face pattern -> (outside, identities); a surface
#: hashes by identity and its combinatorial arrays are frozen, so an entry
#: never goes stale, and the table dies with its surface
_PATTERNS = weakref.WeakKeyDictionary()


def _pattern_results(surface, st):
    """(outside, identities) per state row, from its component counts."""
    nv, ne, nf, eb, nb = _component_counts(surface, st)
    exists = nf > 0
    chi = nv - ne + nf
    g2 = 2 - nb - chi
    if np.any(exists & (g2 % 2 != 0)):
        raise ValueError("component has inconsistent Euler data")
    genus = g2 // 2
    holds = ((3 * nf == 2 * ne - eb) & (chi == 2 - 2 * genus - nb)
             & (2 * nv - eb == nf + (4 - 4 * genus - 2 * nb)))
    return (np.sum(exists & (chi >= 0), axis=1),
            np.all(holds | ~exists, axis=1))


def batch_report(surface, states):
    """Tightness and counting identities for each row of an (n x E) state
    array, the array counterpart of :func:`is_tight` and :func:`pak_report`
    (which stay the per-decoration path and the test oracle).

    Tightness reads the full states and is taken per row.  The component
    counts depend on the kept-face mask alone, so they are taken once per
    distinct kept-face pattern of the surface: the surface's pattern table
    keeps each pattern's results, the patterns of the array it does not
    hold yet are counted on their first row, and the per-row results are
    read back through the pattern of each row.
    """
    s = surface
    if not s.is_quasi_simplicial():
        raise DecorationError("component counting needs a triangulation")
    st = _states_array(s, states, 2)
    packed = np.packbits(_kept_faces(s, st), axis=1)
    first, inverse = _distinct_rows(packed)
    table = _PATTERNS.setdefault(s, {})
    keys = [row.tobytes() for row in packed[first]]
    new = [i for i, key in enumerate(keys) if key not in table]
    if new:
        outside, identities = _pattern_results(s, st[first[new]])
        table.update(zip([keys[i] for i in new],
                         zip(outside.tolist(), identities.tolist())))
    results = np.array([table[key] for key in keys], dtype=int).reshape(-1, 2)
    return BatchReport(tight=_batch_tight(s, st),
                       outside=results[inverse, 0],
                       identities=results[inverse, 1] == 1)


def orient_by_vertex_order(surface):
    """Decoration orienting every edge from its lower to higher vertex id.

    Loops stay unoriented (a loop has no lower endpoint).
    """
    st = np.zeros(surface.n_edges, dtype=int)
    for e, (u, v) in enumerate(surface.edges):
        if u < v:
            st[e] = FORWARD
        elif v < u:
            st[e] = BACKWARD
    return Decoration(surface, st)


def _states_from_uniform(r):
    """Forward below 1/3, backward below 2/3, unoriented above."""
    return np.where(r < 1.0 / 3.0, FORWARD,
                    np.where(r < 2.0 / 3.0, BACKWARD, UNORIENTED))


def random_decoration(surface, rng):
    """Seeded random decoration; each edge forward, backward or unoriented
    with probability 1/3 each."""
    return Decoration(surface, _states_from_uniform(rng.random(surface.n_edges)))


def random_states(surface, rng, n):
    """(n x E) states of n random decorations; the same draws, in the same
    order, as n calls of :func:`random_decoration`."""
    return _states_from_uniform(rng.random((n, surface.n_edges)))
