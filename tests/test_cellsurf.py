import functools
import itertools
import math
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endlab import cellsurf
from endlab.cellsurf import (CellSurface, SurfaceFormatError, MissingLabelError,
                             from_face_vertex_lists, parse_surf, serialize_surf,
                             simple_cycles_upto, thurston_pattern,
                             validate_admissible, validate_hyperideal)
from endlab.fixtures import (genus2_complex, genus2_surface_file,
                             genus2_theta_bad_link, genus2_theta_uniform,
                             octahedron_surface, random_convex_compact,
                             tetrahedron_surface)
from scripts_path import INPUTS, spiral_module  # see conftest


def test_tetrahedron_counts():
    s = tetrahedron_surface()
    assert (s.n_vertices, s.n_edges, s.n_faces) == (4, 6, 4)
    assert s.genus() == 0
    assert s.is_quasi_simplicial()


def test_octahedron_counts():
    s = octahedron_surface()
    assert (s.n_vertices, s.n_edges, s.n_faces) == (6, 12, 8)
    assert s.genus() == 0
    assert all(s.vertex_degree(v) == 4 for v in range(6))


def test_vertex_star_closes():
    s = octahedron_surface()
    for v in range(s.n_vertices):
        star = s.vertex_star(v)
        assert len(star) == 4
        assert all(s.tail(d) == v for d in star)


def test_vertex_star_is_a_lookup(monkeypatch):
    s = genus2_complex().surface
    assert np.array_equal(s.fnext[s.fprev], np.arange(s.n_darts))
    walked = []
    for v in range(s.n_vertices):
        star = [min(d for d in range(s.n_darts) if s.tail(d) == v)]
        while s.vnext(star[-1]) != star[0]:
            star.append(s.vnext(star[-1]))
        walked.append(star)
    steps = []
    monkeypatch.setattr(CellSurface, "vnext", lambda self, d: steps.append(d))
    stars = [s.vertex_star(v) for v in range(s.n_vertices)]
    assert stars == walked and steps == []
    stars[0].append(-1)
    assert s.vertex_star(0) == walked[0]


def parent_walk_stars(self):
    """The star walk the constructor made before it stored the ``star`` and
    ``star_start`` arrays, kept as their oracle.  Verbatim (a method of
    CellSurface there)."""
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


STAR_SURFACES = {
    "tetrahedron": tetrahedron_surface,
    "octahedron": octahedron_surface,
    "theta-sphere": lambda: CellSurface(
        2, [(0, 1), (0, 1), (0, 1)], [[0, 3], [2, 5], [4, 1]]),
    "loop-torus": lambda: CellSurface(1, [(0, 0), (0, 0)], [[0, 2, 1, 3]]),
    "genus2-complex": lambda: genus2_complex().surface,
    "genus2-data": lambda: parse_surf(genus2_surface_file().read_text()),
    "pattern-tetrahedron": lambda: thurston_pattern(tetrahedron_surface()),
    "pattern-genus2": lambda: thurston_pattern(genus2_complex().surface),
    "dual-genus2": lambda: cellsurf.dual_cell_surface(
        genus2_complex().surface),
    "hull-8": lambda: random_convex_compact(0, 8).base,
    "hull-60": lambda: random_convex_compact(3, 60).base,
    "pattern-hull-40": lambda: thurston_pattern(
        random_convex_compact(5, 40).base),
}


@pytest.mark.parametrize("relabel", [False, True],
                         ids=["as-built", "relabeled"])
@pytest.mark.parametrize("name", STAR_SURFACES)
def test_star_arrays_match_parent_walk(name, relabel):
    s = STAR_SURFACES[name]()
    if relabel:
        rng = np.random.default_rng(7)
        s = s.relabeled(rng.permutation(s.n_vertices).tolist(),
                        rng.permutation(s.n_edges).tolist())
    walked = parent_walk_stars(s)
    sizes = [len(star) for star in walked]
    assert s.star.tolist() == [d for star in walked for d in star]
    assert s.star_start.tolist() == np.cumsum([0] + sizes).tolist()
    assert [s.vertex_star(v) for v in range(s.n_vertices)] == walked
    assert [s.vertex_degree(v) for v in range(s.n_vertices)] == sizes
    assert cellsurf.dual_cell_surface(s).face_cycles == walked


@pytest.mark.parametrize("name", STAR_SURFACES)
def test_cached_dart_arrays_are_the_surface_data(name):
    # one read-only array each, the face darts only for a triangulation
    s = STAR_SURFACES[name]()
    triangulated = all(len(c) == 3 for c in s.face_cycles)
    assert s.is_quasi_simplicial() == triangulated
    if triangulated:
        assert s.face_darts.tolist() == s.face_cycles
    else:
        assert s.face_darts is None
    assert s.rotation_next.tolist() == [s.vnext(d) for d in range(s.n_darts)]
    assert s.degrees.tolist() == [s.vertex_degree(v)
                                  for v in range(s.n_vertices)]
    for attr in ("face_darts", "rotation_next", "degrees"):
        a = getattr(s, attr)
        assert a is getattr(s, attr)
        if a is not None:
            with pytest.raises(ValueError):
                a[0] = 0


def test_parse_builds_no_face_darts_or_degrees():
    # a quad pattern's parse pays only for the arrays the constructor reads
    s = parse_surf(serialize_surf(thurston_pattern(tetrahedron_surface())))
    assert not {"face_darts", "degrees"} & set(vars(s))
    assert not s.is_quasi_simplicial()


def test_vertex_without_darts_rejected():
    sphere = ("v 0\nv 1\nv 2\ne 0 0 1\ne 1 1 2\ne 2 2 0\n"
              "f 0 0+ 1+ 2+\nf 1 2- 1- 0-\n")
    assert parse_surf(sphere).genus() == 0
    with pytest.raises(SurfaceFormatError, match="vertex 3 has no darts"):
        parse_surf(sphere + "v 3\nv 4\n")


def test_face_cycle_consistency_rejected():
    # [0, 4, 2] is not head-to-tail (dart 0 ends at vertex 1, dart 4 starts at 2)
    with pytest.raises(SurfaceFormatError):
        CellSurface(3, [(0, 1), (1, 2), (2, 0)], [[0, 4, 2], [1, 5, 3]])
    # consistent orientation works
    CellSurface(3, [(0, 1), (1, 2), (2, 0)], [[0, 2, 4], [5, 3, 1]])


# ---------------------------------------------------------------------------
# surf v1 round trip


def test_surf_roundtrip_bytes():
    s = octahedron_surface().with_theta(np.full(12, math.pi / 2))
    text = serialize_surf(s)
    s2 = parse_surf(text)
    assert serialize_surf(s2) == text
    assert s2.genus() == 0


def test_surf_parse_error_line():
    with pytest.raises(SurfaceFormatError) as err:
        parse_surf("v 0\nv 1\ne 0 0 zzz\n")
    assert "line 3" in str(err.value)


def test_surf_truncated_missing_face():
    with pytest.raises(SurfaceFormatError):
        parse_surf("v 0\nv 1\ne 0 0 1\n")


@pytest.mark.parametrize("record,what", [("v", "vertex"), ("e", "edge"),
                                         ("f", "face"), ("theta", "theta")])
def test_surf_duplicate_record_rejected(record, what):
    text = serialize_surf(thurston_pattern(tetrahedron_surface()))
    lines = text.splitlines()
    first = next(ln for ln in lines if ln.split()[0] == record)
    lines.append(first)
    with pytest.raises(SurfaceFormatError,
                       match="line %d: duplicate %s %s"
                       % (len(lines), what, first.split()[1])):
        parse_surf("\n".join(lines) + "\n")


SPHERE = ("v 0\nv 1\nv 2\ne 0 0 1\ne 1 1 2\ne 2 2 0\n"
          "f 0 0+ 1+ 2+\nf 1 2- 1- 0-\n")


def two_spheres(second, first=(0, 1, 2)):
    """Two triangle spheres, on the triples ``first`` and ``second``, with
    theta 2*pi/3 on every edge (each face sums to 2*pi)."""
    ends = [pair for tri in (first, second)
            for pair in zip(tri, tri[1:] + tri[:1])]
    lines = ["v %d" % v for v in range(1 + max(first + second))]
    lines += ["e %d %d %d" % (e, u, v) for e, (u, v) in enumerate(ends)]
    lines += ["f 0 0+ 1+ 2+", "f 1 2- 1- 0-", "f 2 3+ 4+ 5+", "f 3 5- 4- 3-"]
    lines += ["theta %d %.17g" % (e, 2 * math.pi / 3) for e in range(6)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text,message", [
    (SPHERE + "x 1\n", "line 9: unrecognized record 'x'"),
    (SPHERE.replace("f 0 0+ 1+ 2+", "f 0 0+ 1 2+"), "line 7: dart token '1'"),
    (SPHERE.replace("f 0 0+ 1+ 2+", "f 0"), "line 7: empty face"),
    (SPHERE.replace("f 1 2- 1- 0-", "f 1 0+ 1+ 2+"), "dart 0 used twice"),
    (two_spheres((0, 3, 4)), "vertex 0 has a disconnected star"),
    (two_spheres((3, 4, 5)),
     "surface is not connected (vertex 3 unreached from vertex 0)"),
    # two faults each: the first in face order, then in vertex order, wins
    (SPHERE.replace("f 0 0+ 1+ 2+", "f 0 0+ 1+ 2+ 0+")
     .replace("f 1 2- 1- 0-", "f 1 2- 1- 5-"), "dart 0 used twice"),
    (two_spheres((3, 4, 5), first=(1, 2, 3)), "vertex 0 has no darts"),
    (two_spheres((1, 4, 5)) + "v 6\n", "vertex 1 has a disconnected star"),
], ids=["unrecognized-record", "dart-token", "empty-face", "dart-used-twice",
        "disconnected-star", "two-components", "used-twice-then-out-of-range",
        "no-darts-then-disconnected-star",
        "disconnected-star-then-no-darts"])
def test_malformed_surf_rejected(text, message):
    with pytest.raises(SurfaceFormatError) as err:
        parse_surf(text)
    assert str(err.value) == message


def test_empty_complex_rejected():
    with pytest.raises(SurfaceFormatError, match="no vertices"):
        CellSurface(0, [], [])


# ---------------------------------------------------------------------------
# Thurston pattern


def test_thurston_pattern_tetrahedron():
    pat = thurston_pattern(tetrahedron_surface())
    assert pat.n_vertices == 4 + 4
    assert pat.n_edges == 12
    assert pat.n_faces == 6
    assert pat.genus() == 0
    assert all(len(c) == 4 for c in pat.face_cycles)
    # bipartite between original vertices and faces
    for u, v in pat.edges:
        assert (u < 4) != (v < 4)
    # exact face sums
    for cyc in pat.face_cycles:
        s = sum(pat.theta[d // 2] for d in cyc)
        assert s == 2.0 * math.pi


def test_thurston_pattern_genus2():
    g = genus2_complex()
    pat = thurston_pattern(g.surface)
    assert pat.n_vertices == 34
    assert pat.n_edges == 72
    assert pat.n_faces == 36
    assert pat.genus() == 2
    assert all(len(c) == 4 for c in pat.face_cycles)


def test_thurston_pattern_rejects_quads():
    pat = thurston_pattern(tetrahedron_surface())
    with pytest.raises(SurfaceFormatError, match="triangulation"):
        thurston_pattern(pat)


# ---------------------------------------------------------------------------
# cycle enumeration


def brute_force_cycles(n_vertices, adjacency, l_max):
    """Oracle: enumerate closed walks by BFS and filter simple cycles."""
    found = set()

    def walk(vseq, eseq):
        v = vseq[-1]
        for w, e in adjacency[v]:
            if e in eseq:
                continue
            if w == vseq[0] and eseq:
                cyc_v, cyc_e = vseq, eseq + [e]
                if len(set(cyc_v)) == len(cyc_v) and len(cyc_e) <= l_max:
                    key = canonical(cyc_v, cyc_e)
                    found.add(key)
            if w not in vseq and len(eseq) + 1 < l_max:
                walk(vseq + [w], eseq + [e])

    def canonical(vs, es):
        k = len(es)
        best = None
        for rev in (False, True):
            v2 = vs[::-1] if rev else list(vs)
            e2 = es[::-1] if rev else list(es)
            if rev:
                v2 = v2[-1:] + v2[:-1]
            for r in range(k):
                cand = (tuple(v2[r:] + v2[:r]), tuple(e2[r:] + e2[:r]))
                if best is None or cand < best:
                    best = cand
        return best

    for s in range(n_vertices):
        walk([s], [])
    return found


def test_cycle_enumeration_matches_bruteforce():
    for surface, l_max in ((octahedron_surface(), 5),
                           (thurston_pattern(octahedron_surface()), 6)):
        adj = surface.adjacency()
        ours = simple_cycles_upto(surface.n_vertices, adj, l_max)
        assert len(set(ours)) == len(ours)
        assert set(ours) == brute_force_cycles(surface.n_vertices, adj, l_max)


def test_cycle_enumeration_multiedge():
    # two vertices joined by three parallel edges (theta sphere)
    s = CellSurface(2, [(0, 1), (0, 1), (0, 1)],
                    [[0, 3], [2, 5], [4, 1]])
    assert s.genus() == 0
    cycles = simple_cycles_upto(s.n_vertices, s.adjacency(), 4)
    assert len(cycles) == 3  # pairs of parallel edges


# The unpruned depth-first searches the pruned ones replaced, kept as the
# ordered-output oracle: the pruned searches must return the same list, in
# the same order.


def reference_canon(vseq, eseq):
    best = None
    for rev in (False, True):
        vs = vseq[::-1] if rev else vseq
        es = eseq[::-1] if rev else eseq
        if rev:
            vs = vs[-1:] + vs[:-1]
        for r in range(len(eseq)):
            cand = (tuple(vs[r:] + vs[:r]), tuple(es[r:] + es[:r]))
            if best is None or cand < best:
                best = cand
    return best


def reference_simple_cycles_upto(n_vertices, adjacency, l_max):
    seen = set()
    out = []

    def dfs(start, v, vpath, epath):
        for w, e in adjacency[v]:
            if w == start:
                # closing the cycle (covers loop edges when epath is empty)
                if e in epath or len(epath) + 1 > l_max:
                    continue
                key = reference_canon(vpath, epath + [e])
                if key not in seen:
                    seen.add(key)
                    out.append(key)
                continue
            if w in vpath or w < start or len(epath) + 1 >= l_max:
                continue
            dfs(start, w, vpath + [w], epath + [e])

    for start in range(n_vertices):
        dfs(start, start, [start], [])
    return out


def reference_closed_trails_upto(n_vertices, adjacency, l_max, theta, budget):
    seen = set()
    out = []

    def dfs(start, v, vpath, epath, used, total):
        for w, e in adjacency[v]:
            if e in used:
                continue
            t = total + theta[e]
            if t > budget or len(epath) + 1 > l_max:
                continue
            if w == start:
                key = reference_canon(vpath, epath + [e])
                if key not in seen:
                    seen.add(key)
                    out.append(key)
            if w >= start and len(epath) + 1 < l_max:
                used.add(e)
                dfs(start, w, vpath + [w], epath + [e], used, t)
                used.remove(e)

    for start in range(n_vertices):
        dfs(start, start, [start], [], set(), 0.0)
    return out


def parent_starts(n_vertices, adjacency, l_max, need):
    """The distance-ball table the recursive searches used before they read
    :func:`cellsurf._need`, kept for the oracle below.  Verbatim: yield each
    start s with ``need[w]`` set: 1 at s, the distance to s through
    vertices >= s within l_max // 2, else l_max + 1 (unreachable)."""
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


def pruned_simple_cycles_upto(n_vertices, adjacency, l_max):
    """The recursive depth-first search the level-synchronous array search
    replaced, kept as the ordered-output oracle: its list, in its order, is
    what simple_cycles_upto must iterate.  Verbatim."""
    out = []
    need = [l_max + 1] * n_vertices
    on_path = [False] * n_vertices
    epath = []

    def dfs(v, room):
        for w, e in adjacency[v]:
            if w == start:
                # closing the cycle (a loop edge when epath is empty)
                if room > 0 and (not epath or e > epath[0]):
                    out.append(cellsurf._canon(vpath, epath + [e]))
            elif need[w] < room and not on_path[w]:
                on_path[w] = True
                vpath.append(w)
                epath.append(e)
                dfs(w, room - 1)
                on_path[w] = False
                vpath.pop()
                epath.pop()

    for start in parent_starts(n_vertices, adjacency, l_max, need):
        vpath = [start]
        dfs(start, l_max)
    return out


def hyperideal_dual_graph(surface, presentation=None):
    """(n, adjacency, theta) of the dual graph validate_hyperideal searches."""
    seen = []

    def capture(n_vertices, adjacency, l_max):
        seen.append((n_vertices, adjacency, surface.theta))
        return []

    with pytest.MonkeyPatch.context() as m:
        m.setattr(cellsurf, "simple_cycles_upto", capture)
        theta = np.full(surface.n_edges, 0.5 * math.pi)
        validate_hyperideal(surface.with_theta(theta), l_max=1,
                            presentation=presentation)
    (graph,) = seen
    return graph


def surface_graph(surface):
    return surface.n_vertices, surface.adjacency(), surface.theta


def input_graph(name):
    return surface_graph(parse_surf((INPUTS / name).read_text()))


def multigraph(n_vertices, edges):
    """(n, adjacency, None) of a graph given by its edges alone, with the
    adjacency lists in edge-id order, as CellSurface.adjacency builds them."""
    adj = [[] for _ in range(n_vertices)]
    for e, (u, v) in enumerate(edges):
        adj[u].append((v, e))
        if u != v:
            adj[v].append((u, e))
    return n_vertices, adj, None


def random_multigraph(seed, n_vertices=5, n_edges=10):
    rng = np.random.default_rng(seed)
    return multigraph(n_vertices, rng.integers(0, n_vertices,
                                               size=(n_edges, 2)).tolist())


ORACLE_GRAPHS = {
    "octahedron": lambda: surface_graph(octahedron_surface()),
    "theta-sphere": lambda: surface_graph(CellSurface(
        2, [(0, 1), (0, 1), (0, 1)], [[0, 3], [2, 5], [4, 1]])),
    "loop-torus": lambda: surface_graph(CellSurface(
        1, [(0, 0), (0, 0)], [[0, 2, 1, 3]])),
    "pattern": lambda: input_graph("pattern.surf"),
    "pattern-bad": lambda: input_graph("pattern_bad.surf"),
    "genus2-uniform": lambda: input_graph("genus2_uniform.surf"),
    "data-genus2": lambda: surface_graph(
        parse_surf(genus2_surface_file().read_text())),
    "dual-tetrahedron": lambda: hyperideal_dual_graph(tetrahedron_surface()),
    "dual-octahedron": lambda: hyperideal_dual_graph(octahedron_surface()),
    "dual-genus2": lambda: hyperideal_dual_graph(
        genus2_complex().surface, genus2_complex().presentation),
    # loops at the start vertex, whose trails are met in both directions
    "two-loops-two-parallel": lambda: multigraph(
        2, [(0, 0), (0, 1), (0, 0), (1, 0)]),
    "loops-both-ends": lambda: multigraph(
        3, [(1, 2), (0, 0), (0, 1), (1, 1), (0, 1), (0, 0), (2, 0)]),
    "random-multigraph": lambda: random_multigraph(3),
}
for _seed in (0, 1, 2):
    ORACLE_GRAPHS["random-pattern-%d" % _seed] = (
        lambda seed=_seed: surface_graph(
            thurston_pattern(random_convex_compact(seed, 8).base)))


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_need_rows_are_the_parent_distance_balls(name):
    # closed_trails_upto reads these rows, with its start set to 1
    n, adj, _ = ORACLE_GRAPHS[name]()
    off, nbr, _ = cellsurf._csr(adj)
    for l_max in (1, 4, 8, 9):
        rows = cellsurf._need(off, nbr, np.arange(n), n, l_max).tolist()
        need = [l_max + 1] * n
        for start in parent_starts(n, adj, l_max, need):
            rows[start][start] = 1
            assert rows[start] == need


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_pruned_searches_match_unpruned_order(name):
    """Same lists in the same order for every l_max up to 8, or 12 on graphs
    of at most 8 vertices; trails weigh pi/2 per edge where the graph
    carries no theta."""
    n, adj, theta = ORACLE_GRAPHS[name]()
    if theta is None:
        theta = np.full(1 + max(e for row in adj for _, e in row), 0.5 * math.pi)
    budget = 2 * math.pi + cellsurf.TAU_ANG
    for l_max in range(1, (12 if n <= 8 else 8) + 1):
        assert (list(simple_cycles_upto(n, adj, l_max))
                == reference_simple_cycles_upto(n, adj, l_max)), l_max
        assert (cellsurf.closed_trails_upto(n, adj, l_max, theta, budget)
                == reference_closed_trails_upto(n, adj, l_max, theta,
                                                budget)), l_max


@pytest.mark.parametrize("name", ["theta-sphere", "loop-torus", "pattern",
                                  "dual-octahedron", "two-loops-two-parallel",
                                  "loops-both-ends", "random-multigraph"])
def test_searches_meet_each_cycle_once_in_any_adjacency_order(name):
    # the start-edge rules keep one traversal whatever the order of the
    # adjacency lists; only the order of the output depends on it
    n, adj, theta = ORACLE_GRAPHS[name]()
    if theta is None:
        theta = np.full(1 + max(e for row in adj for _, e in row), 0.5 * math.pi)
    budget = 2 * math.pi + cellsurf.TAU_ANG
    rng = np.random.default_rng(11)
    undirected = lambda p: min((tuple(p[0]), tuple(p[1])),
                               (tuple(p[0][::-1]), tuple(p[1][::-1])))
    for trial in range(3):
        shuffled = [[row[i] for i in rng.permutation(len(row))] for row in adj]
        for l_max in range(1, 7):
            for ours, want in (
                    (simple_cycles_upto(n, shuffled, l_max),
                     reference_simple_cycles_upto(n, adj, l_max)),
                    (cellsurf.closed_trails_upto(n, shuffled, l_max, theta,
                                                 budget),
                     reference_closed_trails_upto(n, adj, l_max, theta,
                                                  budget))):
                assert len(set(ours)) == len(ours)
                assert set(ours) == set(want), (trial, l_max)
            endpoints = set(range(0, n, 2))
            ours = [undirected(p) for p in cellsurf._simple_paths_between(
                shuffled, endpoints, l_max)]
            want = _parent_simple_paths_between(adj, endpoints, l_max)
            assert len(set(ours)) == len(ours)
            assert set(ours) == {undirected(p) for p in want}, (trial, l_max)


def blocked_simple_cycles_upto(n_vertices, adjacency, l_max, block):
    """simple_cycles_upto with ``block`` starts per block of its search."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cellsurf, "START_BLOCK", block)
        return simple_cycles_upto(n_vertices, adjacency, l_max)


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_array_search_keeps_depth_first_order_in_any_adjacency_order(name):
    # the order follows the adjacency lists as given; blocks of one and of
    # three starts put block boundaries everywhere
    n, adj, _ = ORACLE_GRAPHS[name]()
    rng = np.random.default_rng(5)
    lists = [adj] + [[[row[i] for i in rng.permutation(len(row))]
                      for row in adj] for _ in range(2)]
    for trial, rows in enumerate(lists):
        for l_max in range(1, 9):
            want = pruned_simple_cycles_upto(n, rows, l_max)
            for block in (1, 3, cellsurf.START_BLOCK):
                got = blocked_simple_cycles_upto(n, rows, l_max, block)
                assert list(got) == want, (trial, l_max, block)


@given(st.integers(0, 100_000), st.integers(1, 6), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_array_search_keeps_depth_first_order_on_random_multigraphs(
        seed, l_max, block):
    # loops, parallel edges and isolated vertices, lists in random order
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    _, adj, _ = multigraph(n, rng.integers(
        0, n, size=(int(rng.integers(0, 14)), 2)).tolist())
    adj = [[row[i] for i in rng.permutation(len(row))] for row in adj]
    got = blocked_simple_cycles_upto(n, adj, l_max, block)
    assert list(got) == pruned_simple_cycles_upto(n, adj, l_max)


def benchmark_pattern(n, seed):
    """The benchmark's pattern-n surface, as bench/cases.py builds it."""
    index = 9 if n == 128 else 10  # its place among the benchmark inputs
    return spiral_module().build("pattern", n,
                                 np.random.default_rng([seed, index]))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_array_search_matches_depth_first_search_at_benchmark_scale(seed):
    for n, checked in ((128, 4410), (512, 18138)):
        s = benchmark_pattern(n, seed)
        adj = s.adjacency()
        assert (list(simple_cycles_upto(s.n_vertices, adj, 8))
                == pruned_simple_cycles_upto(s.n_vertices, adj, 8)), n
        rep = validate_admissible(s, l_max=8)
        assert (rep.passed, rep.checked_cycles) == (True, checked), n


def test_cycle_search_memory_bound():
    # the blocks of starts bound the frontier: one block of all 512 starts
    # peaks at 15 MB, blocks of 64 at 4.0 MB (the recursive search, 5.9 MB)
    s = benchmark_pattern(512, 1)
    tracemalloc.start()
    try:
        validate_admissible(s, l_max=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, peak / 2**20


def test_validators_reject_l_max_below_one():
    s = thurston_pattern(octahedron_surface())
    for l_max in (0, -3):
        with pytest.raises(ValueError, match="l_max"):
            validate_admissible(s, l_max=l_max)
        with pytest.raises(ValueError, match="l_max"):
            validate_hyperideal(octahedron_surface().with_theta(
                np.full(12, 0.5 * math.pi)), l_max=l_max)


# ---------------------------------------------------------------------------
# genus-1 contractibility against winding numbers


def grid_torus():
    """3x3 grid on the torus, each square split by its diagonal; vertex
    (i, j) of the grid has id 3i + j."""
    vid = lambda i, j: 3 * (i % 3) + j % 3
    faces = []
    for i in range(3):
        for j in range(3):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            faces += [[a, b, c], [a, c, d]]
    return from_face_vertex_lists(faces)


def winding(surface, darts):
    """Sum of the lifted grid displacements of a closed dart path."""
    total = [0, 0]
    for d in darts:
        u, w = surface.tail(d), surface.head(d)
        total[0] += (w // 3 - u // 3 + 1) % 3 - 1
        total[1] += (w % 3 - u % 3 + 1) % 3 - 1
    return tuple(total)


def test_torus_contractibility_matches_winding_numbers():
    s = grid_torus()
    assert (s.n_vertices, s.n_edges, s.n_faces, s.genus()) == (9, 27, 18, 1)
    oracle = cellsurf.ContractibilityOracle(s)
    adj = s.adjacency()
    for cycles, count, contractible in (
            (simple_cycles_upto(9, adj, 6), 1233, 234),
            (cellsurf.closed_trails_upto(9, adj, 6, [1.0] * s.n_edges,
                                         math.inf), 1557, 396)):
        flags = [oracle.cycle_is_contractible(list(vs), list(es))
                 for vs, es in cycles]
        assert flags == [winding(s, cellsurf.cycle_to_darts(s, vs, es))
                         == (0, 0) for vs, es in cycles]
        assert (len(cycles), sum(flags)) == (count, contractible)
    rep = validate_admissible(s.with_theta([2 * math.pi / 3] * s.n_edges),
                              l_max=6)
    assert rep.passed and rep.checked_cycles == 216


# ---------------------------------------------------------------------------
# admissibility


def test_admissible_thurston_pattern_passes():
    pat = thurston_pattern(tetrahedron_surface())
    rep = validate_admissible(pat)
    assert rep.passed
    assert all(abs(s - 2 * math.pi) < 1e-12 for s in rep.face_sums)


def test_admissible_perturbed_face_fails():
    pat = thurston_pattern(tetrahedron_surface())
    theta = pat.theta.copy()
    # raising one weight perturbs that edge's two face sums by +0.1
    theta[0] += 0.1
    rep = validate_admissible(pat.with_theta(theta))
    assert not rep.passed
    kinds = {w.kind for w in rep.violations}
    assert "face-sum" in kinds
    locs = [w.location for w in rep.violations if w.kind == "face-sum"]
    assert len(locs) == 2


def test_admissible_theta_range_checked():
    pat = thurston_pattern(tetrahedron_surface())
    theta = pat.theta.copy()
    theta[3] = math.pi
    with pytest.raises(SurfaceFormatError, match="weight out of"):
        validate_admissible(pat.with_theta(theta))


def test_admissible_genus2_uniform_passes():
    g = genus2_complex()
    s = g.surface.with_theta(genus2_theta_uniform())
    rep = validate_admissible(s, presentation=g.presentation)
    assert rep.passed
    assert rep.checked_cycles > 0


def test_admissible_genus2_bad_link_fails_with_witness():
    # the failing witness is a vertex link, which revisits the cone apex:
    # only the trail mode (simple_cycles_only=False) can see it
    g = genus2_complex()
    theta, link_edges = genus2_theta_bad_link()
    rep = validate_admissible(g.surface.with_theta(theta),
                              simple_cycles_only=False,
                              presentation=g.presentation)
    assert not rep.passed
    hits = [w for w in rep.violations if w.kind == "contractible-cycle"]
    assert hits
    assert any(sorted(w.location[1:]) == link_edges for w in hits)


def test_admissible_genus2_bad_link_invisible_to_simple_mode():
    g = genus2_complex()
    theta, _ = genus2_theta_bad_link()
    rep = validate_admissible(g.surface.with_theta(theta),
                              simple_cycles_only=True,
                              presentation=g.presentation)
    assert rep.passed


def test_admissible_genus2_needs_labels():
    g = genus2_complex()
    s = g.surface.with_theta(genus2_theta_uniform())
    with pytest.raises(MissingLabelError):
        validate_admissible(s, presentation=None)


def _violation_edges(surface, report, eperm=None):
    """Sorted (kind, edge multiset) of each violation, edges mapped through
    ``eperm``; a face-sum witness stands for its face's edges."""
    out = []
    for w in report.violations:
        if w.kind == "face-sum":
            edges = [d // 2 for d in surface.face_cycles[w.location[1]]]
        else:
            edges = w.location[1:]
        if eperm is not None:
            edges = [eperm[e] for e in edges]
        out.append((w.kind, tuple(sorted(edges))))
    return sorted(out)


def test_admissible_relabel_invariant():
    for nerve, seed in itertools.product(
            (tetrahedron_surface, octahedron_surface), range(3)):
        pat = thurston_pattern(nerve())
        rng = np.random.default_rng(seed)
        theta = pat.theta.copy()
        theta[rng.integers(pat.n_edges)] += rng.uniform(-0.3, 0.3)
        bad = pat.with_theta(theta)
        vperm = list(rng.permutation(bad.n_vertices))
        eperm = list(rng.permutation(bad.n_edges))
        rel = bad.relabeled(vperm, eperm)
        rep, rep_rel = (validate_admissible(s, l_max=8) for s in (bad, rel))
        assert not rep.passed and not rep_rel.passed
        assert rep.checked_cycles == rep_rel.checked_cycles > 0
        assert (_violation_edges(bad, rep, eperm)
                == _violation_edges(rel, rep_rel))


# ---------------------------------------------------------------------------
# hyperideal conditions


def test_hyperideal_near_pi_passes():
    s = tetrahedron_surface().with_theta(np.full(6, math.pi - 0.05))
    rep = validate_hyperideal(s)
    assert rep.passed


def test_hyperideal_octahedron_right_angles_fails_cycle():
    s = octahedron_surface().with_theta(np.full(12, math.pi / 2))
    rep = validate_hyperideal(s)
    assert not rep.passed
    assert any(w.kind == "dual-cycle" and abs(w.value - 2 * math.pi) < 1e-12
               for w in rep.violations)


def test_hyperideal_random_matches_bruteforce_verdict():
    rng = np.random.default_rng(31)
    s = tetrahedron_surface()
    for _ in range(12):
        theta = rng.uniform(0.3, math.pi - 0.01, size=6)
        surf = s.with_theta(theta)
        rep = validate_hyperideal(surf, l_max=6)
        oracle = hyperideal_bruteforce(surf, l_max=6)
        assert rep.passed == oracle


def _left_sum(values):
    """The values added left to right, as the validators add theta on
    every Python version (the builtin sum compensates from 3.12 on)."""
    return functools.reduce(operator.add, values, 0.0)


def hyperideal_bruteforce(surface, l_max):
    """Oracle: exhaustive dual walks on a genus-0 surface.

    condition (1) over all simple dual cycles; condition (2) over all
    simple dual paths between faces sharing a vertex that leave the star.
    """
    th = surface.theta
    duals = surface.dual_edges()
    adj = [[] for _ in range(surface.n_faces)]
    for e, (f1, f2) in enumerate(duals):
        adj[f1].append((f2, e))
        adj[f2].append((f1, e))
    for vs, es in brute_force_cycles(surface.n_faces, adj, l_max):
        if _left_sum(th[e] for e in es) <= 2 * math.pi + 1e-9:
            return False
    for v in range(surface.n_vertices):
        star = surface.vertex_star(v)
        faces = {int(surface.dart_face[d]) for d in star}
        star_edges = {d // 2 for d in star}
        paths = []

        def dfs(vseq, eseq):
            cur = vseq[-1]
            for w, e in adj[cur]:
                if e in eseq or len(eseq) >= l_max:
                    continue
                if w in faces and len(eseq) + 1 >= 2 and w not in vseq[1:]:
                    paths.append(eseq + [e])
                if w not in vseq:
                    dfs(vseq + [w], eseq + [e])

        for f in faces:
            dfs([f], [])
        for es in paths:
            if all(e in star_edges for e in es):
                continue
            if _left_sum(th[e] for e in es) <= math.pi + 1e-9:
                return False
    return True


def test_hyperideal_genus2_with_labels():
    g = genus2_complex()
    ok = g.surface.with_theta(np.full(36, 0.52 * math.pi))
    rep = validate_hyperideal(ok, l_max=6, presentation=g.presentation)
    assert rep.passed
    assert rep.checked_cycles > 0

    bad = g.surface.with_theta(np.full(36, 0.45 * math.pi))
    rep2 = validate_hyperideal(bad, l_max=6, presentation=g.presentation)
    assert not rep2.passed
    assert any(w.kind == "dual-cycle" for w in rep2.violations)


def test_hyperideal_genus2_needs_labels():
    g = genus2_complex()
    s = g.surface.with_theta(np.full(36, 0.52 * math.pi))
    with pytest.raises(MissingLabelError):
        validate_hyperideal(s, l_max=6, presentation=None)


def test_hyperideal_genus2_return_paths_need_labels():
    # at l_max=3 the dual graph has no short cycles, so only the return-path
    # condition needs contractibility; without labels it must not pass
    g = genus2_complex()
    s = g.surface.with_theta(np.full(36, 0.3 * math.pi))
    rep = validate_hyperideal(s, l_max=3, presentation=g.presentation)
    assert not rep.passed
    assert len(rep.violations) == 32
    with pytest.raises(MissingLabelError):
        validate_hyperideal(s, l_max=3, presentation=None)


def _hyperideal_checking_every_return_path(surface, l_max, presentation):
    """validate_hyperideal as it was before return paths were compared with
    pi first: the Dehn test runs on every return path.  Verbatim loops."""
    report = cellsurf.ValidationReport(True)
    th = surface.theta
    duals = surface.dual_edges()

    dual_adj = [[] for _ in range(surface.n_faces)]
    for e, (f1, f2) in enumerate(duals):
        dual_adj[f1].append((f2, e))
        if f1 != f2:
            dual_adj[f2].append((f1, e))

    dual_surface = cellsurf.dual_cell_surface(surface)
    oracle = cellsurf.ContractibilityOracle(
        dual_surface,
        None if presentation is None else presentation.dual_presentation())

    # condition (1): contractible dual cycles
    for vseq, eseq in simple_cycles_upto(surface.n_faces, dual_adj, l_max):
        if not oracle.cycle_is_contractible(list(vseq), list(eseq)):
            continue
        report.checked_cycles += 1
        s = float(_left_sum(th[e] for e in eseq))
        if s <= 2.0 * math.pi + cellsurf.TAU_ANG:
            report.passed = False
            report.violations.append(cellsurf.Witness(
                "dual-cycle", ("edges",) + tuple(eseq), s, 2.0 * math.pi))

    # condition (2): face-homotopic return paths
    for v in range(surface.n_vertices):
        boundary = surface.dual_face_boundary(v)
        b_edges = [e for e, _ in boundary]
        b_faces = [int(surface.dart_face[d]) for d in surface.vertex_star(v)]
        for path_vseq, path_eseq in cellsurf._simple_paths_between(
                dual_adj, set(b_faces), l_max):
            if all(e in b_edges for e in path_eseq):
                continue
            if not cellsurf._returns_through_face(
                    surface, dual_surface, oracle, v, boundary, b_faces,
                    path_vseq, path_eseq):
                continue
            s = float(_left_sum(th[e] for e in path_eseq))
            if s <= math.pi + cellsurf.TAU_ANG:
                report.passed = False
                report.violations.append(cellsurf.Witness(
                    "return-path", ("vertex", v, "edges") + tuple(path_eseq),
                    s, math.pi))
    return report


@pytest.mark.parametrize("theta", ["0.3pi", "0.45pi", "0.52pi", "bad-link",
                                   "random-0", "random-1"])
def test_hyperideal_return_paths_same_violations_as_dehn_first(theta):
    # comparing with pi before the Dehn test only skips paths that are no
    # witness: the violations, in order, are those of testing every path;
    # the random weights put return paths on both sides of pi
    g = genus2_complex()
    n = g.surface.n_edges
    if theta == "bad-link":
        values = genus2_theta_bad_link()[0]
    elif theta.startswith("random"):
        rng = np.random.default_rng(int(theta[-1]))
        values = rng.uniform(0.2 * math.pi, 0.6 * math.pi, size=n)
    else:
        values = np.full(n, float(theta[:-2]) * math.pi)
    s = g.surface.with_theta(values)
    rep = validate_hyperideal(s, l_max=6, presentation=g.presentation)
    old = _hyperideal_checking_every_return_path(s, 6, g.presentation)
    assert rep.violations == old.violations
    assert (rep.passed, rep.checked_cycles) == (old.passed, old.checked_cycles)
    assert any(w.kind == "return-path" for w in old.violations) \
        == (theta in ("0.3pi", "random-0", "random-1"))


def test_hyperideal_return_paths_same_violations_at_l_max_8():
    # the budget prune at pi only drops paths that are no witness; random
    # weights put return paths of up to 5 edges on both sides of pi
    g = genus2_complex()
    rng = np.random.default_rng(0)
    s = g.surface.with_theta(
        rng.uniform(0.2 * math.pi, 0.6 * math.pi, size=g.surface.n_edges))
    rep = validate_hyperideal(s, l_max=8, presentation=g.presentation)
    old = _hyperideal_checking_every_return_path(s, 8, g.presentation)
    assert rep.violations == old.violations
    assert (rep.passed, rep.checked_cycles) == (old.passed, old.checked_cycles)
    assert any(w.kind == "return-path" for w in rep.violations)


@pytest.mark.parametrize("l_max", [6, 8])
def test_witnesses_do_not_depend_on_the_builtin_sum(request, l_max):
    # Python 3.12 and later add floats in the builtin sum with Neumaier
    # compensation; every witness must keep its bits under that sum
    g = genus2_complex()
    rng = np.random.default_rng(0)
    s = g.surface.with_theta(
        rng.uniform(0.2 * math.pi, 0.6 * math.pi, size=g.surface.n_edges))
    hyper = validate_hyperideal(s, l_max=l_max, presentation=g.presentation)
    primal = validate_admissible(s, l_max=l_max, presentation=g.presentation)
    assert any(w.kind == "return-path" for w in hyper.violations)
    request.getfixturevalue("compensated_builtin_sum")  # from here on
    assert validate_hyperideal(s, l_max=l_max, presentation=g.presentation
                               ).violations == hyper.violations
    assert validate_admissible(s, l_max=l_max, presentation=g.presentation
                               ).violations == primal.violations
    old = _hyperideal_checking_every_return_path(s, l_max, g.presentation)
    assert old.violations == hyper.violations


def _parent_simple_paths_between(adjacency, endpoints, l_max):
    """_simple_paths_between before the budget prune and the in-place path
    stacks.  Verbatim."""
    out = []
    seen = set()

    def record(vseq, eseq):
        key = (tuple(vseq), tuple(eseq))
        rkey = (key[0][::-1], key[1][::-1])
        if key not in seen and rkey not in seen:
            seen.add(key)
            out.append((list(vseq), list(eseq)))

    def dfs(v, vpath, epath):
        for w, e in adjacency[v]:
            if len(epath) + 1 > l_max or e in epath:
                continue
            if w in endpoints and len(epath) + 1 >= 2 and w not in vpath[1:]:
                record(vpath + [w], epath + [e])
            if w not in vpath and len(epath) + 1 < l_max:
                dfs(w, vpath + [w], epath + [e])

    for s in sorted(endpoints):
        dfs(s, [s], [])
    return out


@pytest.mark.parametrize("name", ["dual-tetrahedron", "dual-octahedron",
                                  "dual-genus2", "theta-sphere", "loop-torus"])
def test_simple_paths_between_match_parent_search(name):
    # unweighted: the same list in the same order; weighted: the parent's
    # list filtered by the budget, still in order
    n, adj, _ = ORACLE_GRAPHS[name]()
    n_edges = 1 + max(e for nbrs in adj for _, e in nbrs)
    rng = np.random.default_rng(7)
    for l_max in (2, 3, 5, 7):
        for size in (1, 2, 3):
            endpoints = set(rng.choice(n, size=min(size, n), replace=False)
                            .tolist())
            old = _parent_simple_paths_between(adj, endpoints, l_max)
            assert cellsurf._simple_paths_between(adj, endpoints, l_max) == old
            theta = rng.uniform(0.2 * math.pi, 0.6 * math.pi, size=n_edges)
            for budget in (math.pi, 1.7 * math.pi):
                kept = [p for p in old
                        if _left_sum(theta[e] for e in p[1]) <= budget]
                assert cellsurf._simple_paths_between(
                    adj, endpoints, l_max, theta, budget) == kept
