import itertools
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endlab import cli, decor, rigidity
from endlab.decor import (BACKWARD, FORWARD, UNORIENTED, Decoration,
                          DecorationError, corner_changes, is_tight, orient_by_vertex_order,
                          pak_report, parse_decoration, random_decoration,
                          serialize_decoration, vertex_changes)
from endlab.cellsurf import from_face_vertex_lists, parse_surf
from endlab.fixtures import (genus2_surface, genus2_surface_file,
                             octahedron_surface, random_convex_compact,
                             tetrahedron_surface)
from scripts_path import INPUTS, spiral_module  # see conftest


@pytest.fixture(scope="module")
def g2surf():
    return genus2_surface()


def test_trivial_all_corners_zero(g2surf):
    dec = Decoration.trivial(g2surf)
    assert all(v == 0.0 for v in corner_changes(dec).values())
    assert is_tight(dec).tight


def test_single_edge_corner_halves(g2surf):
    # orient boundary edge 24 = (corner, trisection): four corners get 1/2
    dec = Decoration.from_pairs(g2surf, [(24, FORWARD)])
    vals = corner_changes(dec)
    halves = [d for d, v in vals.items() if v == 0.5]
    assert len(halves) == 4
    assert all(v in (0.0, 0.5) for v in vals.values())
    u, w = g2surf.edges[24]
    at = sorted({g2surf.tail(d) for d in halves})
    assert at == sorted((u, w))
    # two of the half-corners sit at each endpoint
    assert sum(1 for d in halves if g2surf.tail(d) == u) == 2


def test_cyclic_triangle_each_corner_one():
    s = tetrahedron_surface()
    # orient the three edges of face 0 cyclically
    cyc = s.face_cycles[0]
    pairs = []
    for d in cyc:
        e = d // 2
        pairs.append((e, FORWARD if d % 2 == 0 else BACKWARD))
    dec = Decoration.from_pairs(s, pairs)
    vals = corner_changes(dec)
    assert all(vals[d] == 1.0 for d in cyc)


def test_27_case_triangle_table():
    """Every triangle with an oriented edge has total corner change >= 1."""
    s = tetrahedron_surface()
    cyc = s.face_cycles[0]
    edges = [d // 2 for d in cyc]
    for states in itertools.product((UNORIENTED, FORWARD, BACKWARD), repeat=3):
        dec = Decoration.from_pairs(s, list(zip(edges, states)))
        total = sum(corner_changes(dec)[d] for d in cyc)
        if all(x == UNORIENTED for x in states):
            assert total == 0.0
        else:
            assert total >= 1.0


def test_tightness_examples(g2surf):
    dec = Decoration.from_pairs(g2surf, [(24, FORWARD)])
    rep = is_tight(dec)
    assert rep.tight  # tight by definition (1/2+1/2 at each endpoint)

    # three alternating edges at the corner vertex force > limit changes
    star = g2surf.vertex_star(9)
    picks = [star[0], star[2], star[4]]
    pairs = []
    for i, d in enumerate(picks):
        e = d // 2
        away = FORWARD if d % 2 == 0 else BACKWARD
        toward = -away
        pairs.append((e, away if i % 2 == 0 else toward))
    dec2 = Decoration.from_pairs(g2surf, pairs)
    rep2 = is_tight(dec2)
    assert not rep2.tight
    assert 9 in rep2.offenders


def test_pak_trivial_empty(g2surf):
    rep = pak_report(Decoration.trivial(g2surf))
    assert rep.components == []


def test_pak_single_edge_disk(g2surf):
    dec = Decoration.from_pairs(g2surf, [(24, FORWARD)])
    rep = pak_report(dec)
    assert len(rep.components) == 1
    comp = rep.components[0]
    assert comp.n_faces == 2
    assert comp.e_boundary == 4
    assert comp.n_vertices == 4
    assert comp.corner_change_total == 2.0
    assert comp.bound_2v_minus_eb == 4
    assert comp.genus == 0 and comp.boundary_cycles == 1
    assert not comp.chain_closes
    assert comp.proof_coverage == "outside proof coverage"
    assert comp.identities_hold()


def test_pak_fully_oriented_whole_surface(g2surf):
    dec = orient_by_vertex_order(g2surf)
    assert dec.n_oriented() == g2surf.n_edges
    rep = pak_report(dec)
    assert len(rep.components) == 1
    comp = rep.components[0]
    assert comp.n_faces == 24 and comp.n_vertices == 10
    assert comp.e_boundary == 0 and comp.boundary_cycles == 0
    assert comp.genus == 2
    # 2V - e_b = F + (4 - 4g): 20 = 24 - 4
    assert comp.bound_2v_minus_eb == 20
    assert 2 * comp.n_vertices - comp.n_faces == 4 - 4 * comp.genus
    assert comp.chain_closes
    assert comp.identities_hold()
    # the counting contradiction: c >= F > 2V - e_b
    assert comp.corner_change_total >= comp.n_faces > comp.bound_2v_minus_eb
    assert not is_tight(dec).tight


@given(st.integers(0, 100_000))
@settings(max_examples=80, deadline=None)
def test_pak_identities_random(seed):
    g2surf = genus2_surface()
    rng = np.random.default_rng(seed)
    dec = random_decoration(g2surf, rng)
    rep = pak_report(dec)
    assert rep.all_identities_hold()
    for comp in rep.components:
        assert comp.corner_change_total >= comp.n_faces


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_corner_total_reversal_invariant(seed):
    g2surf = genus2_surface()
    rng = np.random.default_rng(seed)
    dec = random_decoration(g2surf, rng)
    t1 = sum(corner_changes(dec).values())
    t2 = sum(corner_changes(dec.reversed()).values())
    assert t1 == t2


def test_decoration_roundtrip(g2surf):
    dec = Decoration.from_pairs(g2surf, [(3, FORWARD), (30, BACKWARD)])
    text = serialize_decoration(dec)
    back = parse_decoration(g2surf, text)
    assert np.array_equal(back.states, dec.states)
    assert serialize_decoration(back) == text


def test_corners_computed_once_per_decoration(g2surf, monkeypatch):
    calls = []
    corner_value = decor.corner_value

    def counting(*args):
        calls.append(args[1])
        return corner_value(*args)

    monkeypatch.setattr(decor, "corner_value", counting)
    dec = random_decoration(g2surf, np.random.default_rng(0))
    is_tight(dec)
    pak_report(dec)
    assert sorted(calls) == list(range(g2surf.n_darts))
    with pytest.raises(TypeError):
        corner_changes(dec)[0] = 1.0
    with pytest.raises(ValueError):
        dec.states[0] = 0


@pytest.mark.parametrize("seed", range(5))
def test_vectorised_paths_match_loops(g2surf, seed):
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(g2surf.n_edges):
        r = rng.random()
        states.append(FORWARD if r < 1 / 3 else BACKWARD if r < 2 / 3
                      else UNORIENTED)
    dec = random_decoration(g2surf, np.random.default_rng(seed))
    assert dec.states.tolist() == states
    totals = np.zeros(g2surf.n_vertices)
    for d, val in corner_changes(dec).items():
        totals[g2surf.tail(d)] += val
    assert np.array_equal(vertex_changes(dec), totals)


def test_parse_decoration_rejects_bad_records(g2surf):
    for record in ("o -1 +", "o 3 +-", "o 99 +", "o x +"):
        with pytest.raises(DecorationError, match="line 3"):
            parse_decoration(g2surf, "# decor v1\no 0 +\n%s\n" % record)


@pytest.mark.parametrize("first,second", [("o 0 +", "o 0 -"),
                                           ("o 0 +", "o 0 +"),
                                           ("o 35 -", "o 35 +")])
def test_parse_decoration_rejects_duplicate_edge(g2surf, first, second):
    edge = first.split()[1]
    with pytest.raises(DecorationError,
                       match="line 4: duplicate edge %s" % edge):
        parse_decoration(g2surf, "# decor v1\n%s\no 7 +\n%s\n"
                         % (first, second))


def test_states_outside_unit_range_rejected(g2surf):
    for bad in (2, -2):
        states = np.zeros(g2surf.n_edges, dtype=int)
        states[3] = bad
        with pytest.raises(DecorationError, match="states must be in"):
            Decoration(g2surf, states)


@pytest.mark.parametrize("bad", [
    [0.5, 1.7, -1.2, 0, 0, 0], [0, 0, 0, 0, 0, float("nan")],
    [0, 0, 1e-300, 0, 0, 0], ["1", 0, 0, 0, 0, 0], [1j, 0, 0, 0, 0, 0]],
    ids=["fractions", "nan", "tiny", "text", "complex"])
def test_states_that_are_not_exactly_unit_rejected(bad):
    # each is refused as a state, neither truncated nor a bare ValueError
    tet = tetrahedron_surface()
    with pytest.raises(DecorationError, match="states must be in"):
        Decoration(tet, bad)
    with pytest.raises(DecorationError, match="states must be in"):
        decor.batch_report(tet, [bad, [0] * 6])
    exact = Decoration(tet, [1.0, -1.0, 0.0, -0.0, True, False]).states
    assert exact.dtype == int and exact.tolist() == [1, -1, 0, 0, 1, 0]


# ---------------------------------------------------------------------------
# the batch path against the scalar oracle


def _scalar_rows(surface, states):
    rows = []
    for st in states:
        dec = Decoration(surface, st)
        rep = pak_report(dec)
        rows.append((is_tight(dec).tight,
                     sum(1 for c in rep.components if not c.chain_closes),
                     rep.all_identities_hold(),
                     sorted((c.n_vertices, c.n_edges, c.n_faces, c.e_boundary,
                             c.boundary_cycles) for c in rep.components)))
    return rows


def _batch_rows(surface, states):
    rep = decor.batch_report(surface, states)
    nv, ne, nf, eb, nb = decor._component_counts(surface, states)
    rows = []
    for i in range(len(states)):
        comps = sorted((int(nv[i, c]), int(ne[i, c]), int(nf[i, c]),
                        int(eb[i, c]), int(nb[i, c]))
                       for c in np.flatnonzero(nf[i]))
        rows.append((bool(rep.tight[i]), int(rep.outside[i]),
                     bool(rep.identities[i]), comps))
    return rows


def _structured_states(surface):
    ne = surface.n_edges
    rows = [np.eye(ne, dtype=int)[e] * FORWARD for e in range(ne)]
    for cyc in surface.face_cycles:
        rows.append(Decoration.from_pairs(
            surface, [(d // 2, FORWARD if d % 2 == 0 else BACKWARD)
                      for d in cyc]).states)
    rows.append(orient_by_vertex_order(surface).states)
    return np.array(rows)


def _sparse_states(surface, rng, n, p):
    oriented = rng.random((n, surface.n_edges)) < p
    signs = np.where(rng.random((n, surface.n_edges)) < 0.5, FORWARD, BACKWARD)
    return np.where(oriented, signs, UNORIENTED)


@pytest.fixture(scope="module")
def uniform_surf():
    return parse_surf((INPUTS / "genus2_uniform.surf").read_text())


def test_batch_matches_scalar_random(uniform_surf):
    states = decor.random_states(uniform_surf, np.random.default_rng(3), 1200)
    rows = _batch_rows(uniform_surf, states)
    assert rows == _scalar_rows(uniform_surf, states)
    # the draw is the stream of one random_decoration per row
    rng = np.random.default_rng(3)
    for st in states[:50]:
        assert np.array_equal(random_decoration(uniform_surf, rng).states, st)


def test_batch_matches_scalar_structured(uniform_surf):
    states = _structured_states(uniform_surf)
    rows = _batch_rows(uniform_surf, states)
    assert rows == _scalar_rows(uniform_surf, states)
    assert sum(r[0] for r in rows) == uniform_surf.n_edges


@pytest.mark.parametrize("p", [0.05, 0.2])
@pytest.mark.parametrize("which", ["octahedron", "genus2-data"])
def test_batch_matches_scalar_sparse(which, p):
    surface = (octahedron_surface() if which == "octahedron"
               else parse_surf(genus2_surface_file().read_text()))
    states = _sparse_states(surface, np.random.default_rng(11), 300, p)
    rows = _batch_rows(surface, states)
    assert rows == _scalar_rows(surface, states)
    assert any(r[0] for r in rows) and not all(r[0] for r in rows)


def test_batch_rejects_bad_input(uniform_surf):
    with pytest.raises(DecorationError, match="one state per edge"):
        decor.batch_report(uniform_surf, np.zeros((2, 5), dtype=int))
    with pytest.raises(DecorationError, match="states must be in"):
        decor.batch_report(uniform_surf,
                           np.full((1, uniform_surf.n_edges), 2))
    cube = from_face_vertex_lists([[0, 1, 2, 3], [4, 7, 6, 5], [0, 4, 5, 1],
                                   [1, 5, 6, 2], [2, 6, 7, 3], [3, 7, 4, 0]])
    with pytest.raises(DecorationError, match="triangulation"):
        decor.batch_report(cube, np.zeros((1, cube.n_edges), dtype=int))


def test_row_gather_is_take_along_axis():
    # the pointer-jumping gathers: a broadcast view and a wider source
    # (the face labels with their sentinel column) as well as a plain one
    rng = np.random.default_rng(4)
    idx = rng.integers(0, 72, size=(50, 72))
    for a in (rng.integers(0, 9, size=(50, 72)),
              rng.integers(0, 9, size=(50, 73)),
              np.broadcast_to(np.arange(72), (50, 72))):
        assert np.array_equal(decor._row_gather(a, idx),
                              np.take_along_axis(a, idx, axis=1))


def test_cli_import_leaves_scipy_sparse_out():
    # scipy.linalg too: the rigidity spectrum and solves use numpy only
    src = str(pathlib.Path(decor.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, %r); import endlab.cli; "
            "sys.exit(any(m.startswith(('scipy.sparse', 'scipy.linalg')) "
            "for m in sys.modules))" % src)
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


# ---------------------------------------------------------------------------
# the paper's tightness rule, verbatim, against the kept rule


def _paper_tight(surface, states):
    """Offending vertices under the paper's rule: at most 2 changes per
    vertex, and at most 1 at a vertex with three or more unoriented darts
    or two rotation-consecutive unoriented darts.  Corner values are read
    off the face cycles: the corner of face f at tail(d) pairs edge(d)
    with the face edge before it."""
    def away(d):
        return int(states[d // 2]) * (1 if d % 2 == 0 else -1)

    totals = [0.0] * surface.n_vertices
    for cyc in surface.face_cycles:
        for prev, d in zip(cyc[-1:] + cyc[:-1], cyc):
            a, b = away(d), away(prev ^ 1)
            if a == 0 and b == 0:
                change = 0.0
            elif a == 0 or b == 0:
                change = 0.5
            else:
                change = 0.0 if a == b else 1.0
            totals[surface.tail(d)] += change
    offenders = []
    for v in range(surface.n_vertices):
        unor = [away(d) == 0 for d in surface.vertex_star(v)]
        consecutive = len(unor) > 1 and any(
            unor[i - 1] and unor[i] for i in range(len(unor)))
        limit = 1.0 if sum(unor) >= 3 or consecutive else 2.0
        if totals[v] > limit + 1e-9:
            offenders.append(v)
    return offenders


@pytest.mark.parametrize("which", ["genus2", "octahedron", "compact-hull"])
def test_kept_tightness_rule_matches_paper_rule(which):
    surface = {"genus2": genus2_surface,
               "octahedron": octahedron_surface,
               "compact-hull": lambda: random_convex_compact(4, 12).tri}[which]()
    rng = np.random.default_rng(17)
    states = np.vstack(
        [decor.random_states(surface, rng, 400), _structured_states(surface)]
        + [_sparse_states(surface, rng, 200, p) for p in (0.05, 0.2, 0.5, 0.8)])
    assert len(states) >= 1000
    batch = decor.batch_report(surface, states).tight
    flags = []
    for st, batch_tight in zip(states, batch):
        offenders = _paper_tight(surface, st)
        rep = is_tight(Decoration(surface, st))
        assert rep.offenders == offenders
        assert rep.tight == batch_tight == (not offenders)
        flags.append(rep.tight)
    assert any(flags) and not all(flags)


# ---------------------------------------------------------------------------
# component counts: a function of the kept faces, taken once per pattern


def _kept(surface, states):
    """Faces with an oriented edge, read off the face cycles."""
    faces = np.array(surface.face_cycles)
    return np.any(np.asarray(states)[:, faces // 2] != 0, axis=2)


COUNT_SURFACES = {
    "genus2-uniform": lambda: parse_surf(
        (INPUTS / "genus2_uniform.surf").read_text()),
    "genus2-data": lambda: parse_surf(genus2_surface_file().read_text()),
    "octahedron": octahedron_surface,
}


@pytest.mark.parametrize("which", COUNT_SURFACES)
def test_counts_depend_only_on_kept_faces(which):
    surface = COUNT_SURFACES[which]()
    rng = np.random.default_rng(23)
    states = np.vstack([decor.random_states(surface, rng, 200)]
                       + [_sparse_states(surface, rng, 200, p)
                          for p in (0.05, 0.2)])
    kept = _kept(surface, states)
    # re-signed: every oriented edge flipped, or each at random
    variants = [-states,
                states * np.where(rng.random(states.shape) < 0.5, 1, -1)]
    # re-oriented: unoriented edges whose faces are all kept get a state
    both_kept = (kept[:, surface.dart_face[0::2]]
                 & kept[:, surface.dart_face[1::2]])
    fill = np.where(rng.random(states.shape) < 0.5, FORWARD, BACKWARD)
    variants.append(np.where(both_kept & (states == 0), fill, states))
    counts = decor._component_counts(surface, states)
    for other in variants:
        assert not np.array_equal(other, states)
        assert np.array_equal(_kept(surface, other), kept)
        for a, b in zip(decor._component_counts(surface, other), counts):
            assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(which=st.sampled_from(sorted(COUNT_SURFACES)),
       seed=st.integers(0, 2**32 - 1),
       p=st.sampled_from([0.05, 0.2, 2 / 3]),
       n=st.integers(1, 60), data=st.data())
def test_batch_report_commutes_with_row_selection(which, seed, p, n, data):
    # a permutation, a duplication or any mix of the two: row r of the
    # selected array's report is row idx[r] of the original's
    surface = COUNT_SURFACES[which]()
    states = _sparse_states(surface, np.random.default_rng(seed), n, p)
    idx = np.array(data.draw(st.one_of(
        st.permutations(range(n)),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))))
    whole = decor.batch_report(surface, states)
    # a second parse of the surface, whose pattern table is empty, so the
    # selected array is counted again rather than read from the first call's
    picked = decor.batch_report(COUNT_SURFACES[which](), states[idx])
    for name in ("tight", "outside", "identities"):
        assert np.array_equal(getattr(picked, name), getattr(whole, name)[idx])


def _spy_counts(monkeypatch):
    """Row count of each call of ``decor._component_counts``."""
    rows = []
    counts = decor._component_counts

    def spy(surface, st):
        rows.append(len(st))
        return counts(surface, st)

    monkeypatch.setattr(decor, "_component_counts", spy)
    return rows


def test_block_counted_once_per_kept_pattern(uniform_surf, monkeypatch):
    states = decor.random_states(uniform_surf, np.random.default_rng(7), 500)
    patterns = len(np.unique(_kept(uniform_surf, states), axis=0))
    assert 1 < patterns < 500
    rows = _spy_counts(monkeypatch)
    rep = decor.batch_report(uniform_surf, states)
    assert rows == [patterns]
    assert rep.identities.flags.writeable and len(rep.identities) == 500


def test_second_report_counts_no_rows(uniform_surf, monkeypatch):
    surface = uniform_surf
    states = decor.random_states(surface, np.random.default_rng(11), 300)
    table = {}
    first = decor.batch_report(surface, states, table)
    rows = _spy_counts(monkeypatch)
    again = decor.batch_report(surface, states, table)
    assert rows == []
    for name in ("tight", "outside", "identities"):
        assert np.array_equal(getattr(again, name), getattr(first, name))
        assert getattr(again, name).dtype == getattr(first, name).dtype


def test_block_counts_only_its_new_patterns(uniform_surf, monkeypatch):
    surface = uniform_surf
    rng = np.random.default_rng(13)
    seen = set()
    table = {}
    rows = _spy_counts(monkeypatch)
    for n in (200, 200, 1, 500):
        states = decor.random_states(surface, rng, n)
        patterns = {row.tobytes() for row in _kept(surface, states)}
        new = len(patterns - seen)
        rows.clear()
        decor.batch_report(surface, states, table)
        assert rows == ([new] if new else [])
        seen |= patterns
    assert 0 < new < 500


def test_reports_without_a_table_share_no_patterns(uniform_surf,
                                                    monkeypatch):
    # the pattern table is the caller's: calls without one keep nothing,
    # and a table passed in holds exactly the patterns counted into it
    states = decor.random_states(uniform_surf, np.random.default_rng(3), 50)
    patterns = len(np.unique(_kept(uniform_surf, states), axis=0))
    rows = _spy_counts(monkeypatch)
    decor.batch_report(uniform_surf, states)
    decor.batch_report(uniform_surf, states)
    table = {}
    decor.batch_report(uniform_surf, states, table)
    assert rows == [patterns] * 3 and len(table) == patterns > 1


def _parent_batch_report(surface, states, table=None):
    """``batch_report`` before any pattern table: the component counts once
    per distinct kept-face pattern of each array.  Verbatim, but for the
    ``table`` argument that pak-search now passes, which it ignores."""
    s = surface
    if not s.is_quasi_simplicial():
        raise DecorationError("component counting needs a triangulation")
    st = decor._states_array(s, states, 2)
    first, inverse = decor._distinct_rows(
        np.packbits(decor._kept_faces(s, st), axis=1))
    nv, ne, nf, eb, nb = decor._component_counts(s, st[first])
    exists = nf > 0
    chi = nv - ne + nf
    g2 = 2 - nb - chi
    if np.any(exists & (g2 % 2 != 0)):
        raise ValueError("component has inconsistent Euler data")
    genus = g2 // 2
    holds = ((3 * nf == 2 * ne - eb) & (chi == 2 - 2 * genus - nb)
             & (2 * nv - eb == nf + (4 - 4 * genus - 2 * nb)))
    return decor.BatchReport(
        tight=decor._batch_tight(s, st),
        outside=np.sum(exists & (chi >= 0), axis=1)[inverse],
        identities=np.all(holds | ~exists, axis=1)[inverse])


@pytest.mark.parametrize("structured", [False, True])
@pytest.mark.parametrize("samples", [0, 1, 37, 500, 501, 2001])
def test_pak_search_reports_match_per_block_loop(tmp_path, monkeypatch,
                                                 samples, structured):
    argv = ["pak-search", "--samples", str(samples),
            str(INPUTS / "genus2_uniform.surf")]
    argv += ["--structured"] if structured else []
    for seed in (0, 1, 7, 99):
        runs = []
        for report in (_parent_batch_report, decor.batch_report):
            monkeypatch.setattr(decor, "batch_report", report)
            out = tmp_path / "out.txt"
            code = cli.main(argv + ["--seed", str(seed), "--out", str(out)])
            runs.append((code, out.read_bytes()))
        assert runs[0] == runs[1] and runs[0][0] == 0, seed


def _parent_decorations(surface, states):
    """The verdict's decoration dicts with every row counted, by the
    formula of ``batch_report`` before it counted each kept-face pattern
    once; kept as its oracle."""
    nv, ne, nf, eb, nb = decor._component_counts(surface, states)
    exists = nf > 0
    chi = nv - ne + nf
    g2 = 2 - nb - chi
    assert not np.any(exists & (g2 % 2 != 0))
    genus = g2 // 2
    holds = ((3 * nf == 2 * ne - eb) & (chi == 2 - 2 * genus - nb)
             & (2 * nv - eb == nf + (4 - 4 * genus - 2 * nb)))
    return [{"tight": bool(tight), "oriented_edges": int(oriented),
             "components_outside_coverage": int(outside),
             "identities_hold": bool(ok)}
            for tight, oriented, outside, ok in zip(
                decor._batch_tight(surface, states),
                np.count_nonzero(states, axis=1),
                np.sum(exists & (chi >= 0), axis=1),
                np.all(holds | ~exists, axis=1))]


def test_spiral_hull_verdict_counts_one_row(monkeypatch):
    ps = spiral_module().build("compact", 128, np.random.default_rng([5, 128]))
    counts = decor._component_counts
    seen = []
    batch = rigidity.batch_report
    monkeypatch.setattr(rigidity, "batch_report",
                        lambda surface, st: seen.append(st) or batch(surface, st))
    rows = _spy_counts(monkeypatch)
    verdict = rigidity.projective_rigidity_verdict(ps)
    (states,) = seen
    assert len(states) == 6 and rows == [1]
    monkeypatch.setattr(decor, "_component_counts", counts)
    assert verdict.decorations == _parent_decorations(ps.tri, states)
