import itertools
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endlab import decor
from endlab.decor import (BACKWARD, FORWARD, UNORIENTED, Decoration,
                          DecorationError, corner_changes, is_tight, orient_by_vertex_order,
                          pak_report, parse_decoration, random_decoration,
                          serialize_decoration, vertex_changes)
from endlab.cellsurf import from_face_vertex_lists, parse_surf
from endlab.fixtures import (genus2_complex, genus2_surface_file,
                             octahedron_surface, random_convex_compact,
                             tetrahedron_surface)
from scripts_path import INPUTS  # see conftest


@pytest.fixture(scope="module")
def g2surf():
    return genus2_complex().surface


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
    g2surf = genus2_complex().surface
    rng = np.random.default_rng(seed)
    dec = random_decoration(g2surf, rng)
    rep = pak_report(dec)
    assert rep.all_identities_hold()
    for comp in rep.components:
        assert comp.corner_change_total >= comp.n_faces


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_corner_total_reversal_invariant(seed):
    g2surf = genus2_complex().surface
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
    nv, ne, nf, eb, nb = decor._component_counts(
        surface, states, decor._tail_incidence(surface))
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
    surface = {"genus2": lambda: genus2_complex().surface,
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
