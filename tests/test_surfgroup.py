import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import octagon
from endlab import cellsurf
from endlab.fixtures import genus2_surface
from endlab.surfgroup import (SurfaceGroupPresentation, TreeCotreePresentation,
                              cyclic_reduce, format_word, free_reduce,
                              invert_word, parse_word, standard_relator)
from octagon import (Genus2Complex, double_cover, genus2_complex,
                     matrix_is_identity_class)

STANDARD = standard_relator(2)


@pytest.fixture(scope="module")
def g2():
    return genus2_complex()


def test_parse_and_format():
    assert parse_word("abAB") == (1, 2, -1, -2)
    assert parse_word("a b a- b-") == (1, 2, -1, -2)
    assert format_word((1, 2, -1, -2)) == "abAB"
    assert format_word(()) == "1"


def test_free_reduce():
    assert free_reduce((1, -1, 2)) == (2,)
    assert free_reduce((1, 2, -2, -1)) == ()


def test_dehn_relator_trivial():
    pres = SurfaceGroupPresentation(STANDARD)
    assert pres.is_trivial(parse_word("abABcdCD"))


def test_dehn_generator_nontrivial():
    pres = SurfaceGroupPresentation(STANDARD)
    assert not pres.is_trivial(parse_word("a"))


def test_dehn_empty_trivial():
    pres = SurfaceGroupPresentation(STANDARD)
    assert pres.is_trivial(())


def test_dehn_conjugates_and_products():
    pres = SurfaceGroupPresentation(STANDARD)
    rel = pres.relator
    conj = (3, -4) + rel + (4, -3)
    assert pres.is_trivial(conj)
    assert pres.is_trivial(rel + rel)
    assert not pres.is_trivial(rel + (1,))


def random_word(rng, max_len=8):
    n = int(rng.integers(0, max_len + 1))
    letters = []
    for _ in range(n):
        x = int(rng.integers(1, 5))
        letters.append(x if rng.random() < 0.5 else -x)
    return tuple(letters)


@given(st.integers(0, 5000))
@settings(max_examples=120, deadline=None)
def test_dehn_matches_matrix_oracle(seed):
    """Dehn decisions agree with the faithful deck representation.

    The octagon side pairings generate a discrete group, so a word is
    trivial iff its matrix is +-identity; matrices of nontrivial elements
    are uniformly far from identity at these word lengths.
    """
    g2 = genus2_complex()
    pres = SurfaceGroupPresentation(STANDARD)
    rng = np.random.default_rng(seed)
    w = random_word(rng)
    dehn = pres.is_trivial(w)
    mat = matrix_is_identity_class(g2.schema.rho(w), tol=1e-6)
    assert dehn == mat


def test_fixture_counts(g2):
    s = g2.surface
    assert (s.n_vertices, s.n_edges, s.n_faces) == (10, 36, 24)
    assert s.genus() == 2
    assert s.is_quasi_simplicial()


def test_fixture_faces_contract(g2):
    for cyc in g2.surface.face_cycles:
        word, mat = g2.develop(cyc)
        assert g2.presentation.is_trivial(word)
        assert matrix_is_identity_class(mat)


def test_fixture_links_contract(g2):
    s = g2.surface
    for v in range(s.n_vertices):
        link = [int(s.fnext[d]) for d in s.vertex_star(v)][::-1]
        word, _ = g2.develop(link)
        assert g2.presentation.is_trivial(word)


def test_fixture_short_noncontractible(g2):
    # the two cone edges to the two polygon copies of a trisection vertex
    p1, p2 = g2.class_positions(1)
    word, mat = g2.develop([2 * p1, 2 * p2 + 1])
    assert not g2.presentation.is_trivial(word)
    assert not matrix_is_identity_class(mat)


def test_fixture_labels(g2):
    labels = {d: g2.dart_label(d) for d in range(g2.surface.n_darts)}
    assert len(labels) == 72
    # freely reduced
    for w in labels.values():
        assert free_reduce(w) == w
    # tree darts carry the identity
    tree_triv = sum(1 for w in labels.values() if not w)
    assert tree_triv >= 2 * (g2.surface.n_vertices - 1)
    # label of reversed dart is the inverse in the group
    pres = g2.presentation
    for d in range(0, 72, 7):
        assert pres.is_trivial(labels[d] + labels[d ^ 1])


def test_develop_matrix_matches_rho(g2):
    rng = np.random.default_rng(23)
    s = g2.surface
    for _ in range(10):
        # random closed dart walk: out and back along random darts
        v = int(rng.integers(0, s.n_vertices))
        star = s.vertex_star(v)
        d1 = star[int(rng.integers(0, len(star)))]
        ret = g2.tree_path(s.head(d1), v)
        word, mat = g2.develop([d1] + ret)
        diff = g2.schema.rho(word)
        m1 = octagon.normalize_det(mat)
        m2 = octagon.normalize_det(diff)
        assert min(np.max(np.abs(m1 - m2)), np.max(np.abs(m1 + m2))) < 1e-9


def test_is_contractible_dispatch(g2):
    pres = SurfaceGroupPresentation(STANDARD)
    assert pres.is_trivial(parse_word("abABcdCD"))
    assert not pres.is_trivial(parse_word("a"))
    assert pres.is_trivial(parse_word(""))
    cyc = g2.surface.face_cycles[0]
    assert g2.presentation.cycle_is_contractible(cyc)


# ---------------------------------------------------------------------------
# per-dart words against development and the parent's walkers


def _relator_forms(relator):
    """The parent's cyclic forms of the relator and its inverse.  Verbatim."""
    forms = set()
    for base in (relator, invert_word(relator)):
        for r in range(len(base)):
            forms.add(base[r:] + base[:r])
    return sorted(forms)


class _ParentDehn:
    """SurfaceGroupPresentation.dehn_reduce as it was before the piece table:
    a scan of every cyclic form per (length, start).  Verbatim method."""

    def __init__(self, genus):
        self.relator = standard_relator(genus)
        self._forms = _relator_forms(self.relator)

    def dehn_reduce(self, word):
        """Shorten by Dehn replacements until no long relator piece remains."""
        forms = self._forms
        half = len(self.relator) // 2
        w = cyclic_reduce(word)
        changed = True
        while changed and w:
            changed = False
            doubled = w + w
            n = len(w)
            for length in range(len(self.relator), half, -1):
                if length > n:
                    continue
                for start in range(n):
                    piece = doubled[start:start + length]
                    for f in forms:
                        if f[:length] == piece:
                            # w = (cyclic) piece * tail; replace piece by
                            # inverse of the complement f[length:]
                            rest = doubled[start + length:start + n]
                            w = cyclic_reduce(rest + invert_word(f[length:]))
                            changed = True
                            break
                    if changed:
                        break
                if changed:
                    break
        return w


class _ParentDualWalker:
    """The parent's dual-cycle walker over the octagon's faces.  Verbatim
    method."""

    def __init__(self, complex_):
        self.complex = complex_

    def cycle_word(self, dual_darts):
        _CROSS_LETTER, _SIGMA = octagon._CROSS_LETTER, octagon._SIGMA
        surf = self.complex.surface
        word = []
        current = int(surf.dart_face[dual_darts[0]])
        for d in dual_darts:
            f1 = int(surf.dart_face[d])
            f2 = int(surf.dart_face[d ^ 1])
            if f1 != current:
                raise ValueError("dual path discontinuity")
            e = d // 2
            if e >= 24:
                k = f1 // 3
                word.append(_CROSS_LETTER[k])
                t = f1 % 3
                assert f2 == 3 * _SIGMA[k] + 2 - t
            else:
                assert f2 in ((f1 + 1) % 24, (f1 - 1) % 24)
            current = f2
        if current != int(surf.dart_face[dual_darts[0]]):
            raise ValueError("dual path is not closed")
        return free_reduce(tuple(word))


def _dart_cycles(surface, walks):
    return [cellsurf.cycle_to_darts(surface, list(v), list(e)) for v, e in walks]


@pytest.fixture(scope="module")
def primal_cycles(g2):
    s = g2.surface
    cycles = _dart_cycles(
        s, cellsurf.simple_cycles_upto(s.n_vertices, s.adjacency(), 12))
    assert len(cycles) == 712
    return cycles


def test_labels_multiply_along_paths(g2, primal_cycles):
    # the product of the dart labels along a cycle is conjugate to the
    # cycle's developed class; a cyclically Dehn-reduced label is not a
    # based class and broke this on 26 of the 712 cycles
    pres = g2.presentation
    for darts in primal_cycles:
        product = free_reduce(x for d in darts for x in g2.dart_label(d))
        assert pres.is_trivial(product) == pres.is_trivial(g2.develop(darts)[0])
    assert format_word(g2.develop([22, 55, 1])[0]) == "cdCD"
    assert not pres.cycle_is_contractible([22, 55, 1])


def test_fixture_labels_are_based_words(g2):
    s = g2.surface
    for d in range(s.n_darts):
        loop = g2.tree_path(0, s.tail(d)) + [d] + g2.tree_path(s.head(d), 0)
        assert g2.dart_label(d) == g2.develop(loop)[0]


def test_table_matches_development_on_cycles_and_trails(g2, primal_cycles):
    s = g2.surface
    pres = g2.presentation
    trails = _dart_cycles(s, cellsurf.closed_trails_upto(
        s.n_vertices, s.adjacency(), 8, np.full(s.n_edges, 0.9), 6.3))
    assert len(trails) == 65536
    for darts in primal_cycles + trails:
        assert pres.cycle_is_contractible(darts) \
            == pres.is_trivial(g2.develop(darts)[0])


def _dual_loops(g2, l_max):
    """Every dual simple cycle up to l_max, and every loop that
    validate_hyperideal closes from a return path, as dual dart lists."""
    s = g2.surface
    dual = cellsurf.dual_cell_surface(s)
    adj = dual.adjacency()
    loops = _dart_cycles(dual, cellsurf.simple_cycles_upto(
        dual.n_vertices, adj, l_max))

    class Recorder:
        def cycle_is_contractible(self, vseq, eseq):
            loops.append(cellsurf.cycle_to_darts(dual, vseq, eseq))
            return True

    for v in range(s.n_vertices):
        boundary = s.dual_face_boundary(v)
        b_faces = [int(s.dart_face[d]) for d in s.vertex_star(v)]
        for pv, pe in cellsurf._simple_paths_between(adj, set(b_faces), l_max):
            cellsurf._returns_through_face(s, dual, Recorder(), v, boundary,
                                           b_faces, pv, pe)
    return loops


def test_dual_table_matches_parent_walker(g2):
    dual = g2.dual_presentation
    walker = _ParentDualWalker(g2)
    loops = _dual_loops(g2, 8)
    assert len(loops) > 1000
    contractible = 0
    for darts in loops:
        word = dual.cycle_word(darts)
        assert word == walker.cycle_word(darts)
        contractible += dual.is_trivial(word)
    assert 0 < contractible < len(loops)


@pytest.mark.parametrize("which", ["primal", "dual"])
def test_open_or_broken_paths_raise(which):
    surface = genus2_surface()
    if which == "dual":
        surface = cellsurf.dual_cell_surface(surface)
    pres = TreeCotreePresentation(surface)
    tail = pres.tail
    d = next(x for x in range(72) if tail[x] != tail[x ^ 1])
    with pytest.raises(ValueError, match="is not closed"):
        pres.cycle_word([d])
    broken = next(x for x in range(72) if tail[x] != tail[d ^ 1])
    with pytest.raises(ValueError, match="discontinuity at dart %d" % broken):
        pres.cycle_word([d, broken, d ^ 1])


def test_admissibility_never_develops(g2, monkeypatch):
    calls = []
    develop = Genus2Complex.develop

    def counting(self, darts):
        calls.append(len(darts))
        return develop(self, darts)

    monkeypatch.setattr(Genus2Complex, "develop", counting)
    s = g2.surface.with_theta(np.full(g2.surface.n_edges, 2 * math.pi / 3))
    for simple in (True, False):
        rep = cellsurf.validate_admissible(s, l_max=8,
                                           simple_cycles_only=simple)
        assert rep.passed
    assert calls == []


_RELATOR_FORMS = _relator_forms(STANDARD)
_CHUNKS = st.one_of(
    st.sampled_from([(x,) for x in (1, 2, 3, 4, -1, -2, -3, -4)]),
    st.builds(lambda f, a, b: f[min(a, b):max(a, b)],
              st.sampled_from(_RELATOR_FORMS), st.integers(0, 8),
              st.integers(0, 8)))


@given(st.lists(_CHUNKS, max_size=12))
@settings(max_examples=400, deadline=None)
def test_table_dehn_matches_parent_scan(chunks):
    # words built partly from relator pieces, so that replacements of every
    # length happen
    word = tuple(x for c in chunks for x in c)[:24]
    assert SurfaceGroupPresentation(STANDARD).dehn_reduce(word) \
        == _ParentDehn(2).dehn_reduce(word)



# ---------------------------------------------------------------------------
# the tree-cotree presentation against the octagon oracle


@given(st.lists(_CHUNKS, max_size=8))
@settings(max_examples=300, deadline=None)
def test_shorten_keeps_the_group_element(chunks):
    # words built partly from relator pieces, so that replacements happen;
    # the deck matrices decide equality up to 8 letters (as in
    # test_dehn_matches_matrix_oracle), beyond which their rounding grows
    word = tuple(x for c in chunks for x in c)[:16]
    pres = SurfaceGroupPresentation(STANDARD)
    short = pres.shorten(word)
    assert len(short) <= len(free_reduce(word))
    assert short == free_reduce(short)
    assert all(short[i:i + 5] not in pres._pieces for i in range(len(short)))
    assert pres.is_trivial(short + invert_word(word))
    if len(word) <= 8:
        rho = genus2_complex().schema.rho
        assert matrix_is_identity_class(rho(short + invert_word(word)),
                                        tol=1e-6)


def test_tree_cotree_presentation_of_the_fixture():
    s = genus2_surface()
    pres = TreeCotreePresentation(s)
    assert format_word(pres.relator) == "ACBDbdac"
    lengths = [len(w) for w in pres.words]
    assert (sum(lengths), max(lengths)) == (76, 4)
    # a spanning tree's darts carry the empty word; the relator spells
    # each of the 2g generators once and each inverse once
    assert lengths.count(0) >= 2 * (s.n_vertices - 1)
    assert sorted(pres.relator) == [-4, -3, -2, -1, 1, 2, 3, 4]
    for d, w in enumerate(pres.words):
        assert pres.is_trivial(w + pres.words[d ^ 1])
    # every face bounds a disk
    for cyc in s.face_cycles:
        assert pres.cycle_is_contractible(cyc)


def _random_closed_walks(surface, seed, count, max_steps=39):
    """Seeded closed dart walks: 1..max_steps random steps from a random
    vertex, closed by a shortest path back."""
    rng = np.random.default_rng(seed)
    stars = [surface.vertex_star(v) for v in range(surface.n_vertices)]
    back = []  # back[v][w]: first dart of a shortest path from w to v
    for v in range(surface.n_vertices):
        first = {v: None}
        order = [v]
        for u in order:
            for d in stars[u]:
                w = surface.head(d)
                if w not in first:
                    first[w] = d ^ 1
                    order.append(w)
        back.append(first)
    walks = []
    for _ in range(count):
        start = int(rng.integers(surface.n_vertices))
        darts, v = [], start
        for _ in range(int(rng.integers(1, max_steps + 1))):
            d = stars[v][int(rng.integers(len(stars[v])))]
            darts.append(d)
            v = surface.head(d)
        while v != start:
            darts.append(back[start][v])
            v = surface.head(darts[-1])
        walks.append(darts)
    return walks


def _all_cycles_and_trails(surface, trail_max):
    adj = surface.adjacency()
    n, ne = surface.n_vertices, surface.n_edges
    return (_dart_cycles(surface, cellsurf.simple_cycles_upto(n, adj, 10))
            + _dart_cycles(surface, cellsurf.closed_trails_upto(
                n, adj, trail_max, [1.0] * ne, trail_max + 0.5)))


@pytest.mark.parametrize("which", ["primal", "dual"])
def test_tree_cotree_oracle_agrees_with_the_octagon(g2, which):
    # every simple cycle of at most 10 edges; every closed trail of at most
    # 10 edges on the dual graph, and of at most 6 on the primal one (65,536
    # of them; at most 8 would be 3.25 million); and 10^4 random closed walks
    surface = genus2_surface()
    labels = g2.presentation
    if which == "dual":
        surface = cellsurf.dual_cell_surface(surface)
        labels = g2.dual_presentation
    pres = TreeCotreePresentation(surface)
    paths = _all_cycles_and_trails(surface, 10 if which == "dual" else 6)
    paths += _random_closed_walks(surface, 26, 10**4)
    verdicts = [pres.cycle_is_contractible(darts) for darts in paths]
    assert verdicts == [labels.cycle_is_contractible(darts) for darts in paths]
    assert 0 < sum(verdicts) < len(verdicts)


def test_tree_cotree_oracle_agrees_on_return_path_loops(g2):
    pres = TreeCotreePresentation(cellsurf.dual_cell_surface(genus2_surface()))
    loops = _dual_loops(g2, 8)
    verdicts = [pres.cycle_is_contractible(darts) for darts in loops]
    assert verdicts == [g2.dual_presentation.cycle_is_contractible(darts)
                        for darts in loops]
    assert 0 < sum(verdicts) < len(verdicts)


# ---------------------------------------------------------------------------
# a genus-3 surface: the double cover of the fixture


def test_double_cover_is_genus_3(g2):
    cover, down = double_cover()
    assert (cover.n_vertices, cover.n_edges, cover.n_faces) == (20, 72, 48)
    assert cover.genus() == 3 and cover.is_quasi_simplicial()
    assert len(TreeCotreePresentation(cover).relator) == 12


def test_cover_loops_contract_exactly_when_their_projections_do(g2):
    # the covering map is injective on fundamental groups
    cover, down = double_cover()
    oracle = cellsurf.ContractibilityOracle(cover)
    cycles = cellsurf.simple_cycles_upto(cover.n_vertices, cover.adjacency(), 8)
    assert len(cycles) == 41057
    verdicts = [oracle.cycle_is_contractible(list(v), list(e))
                for v, e in cycles]
    below = [g2.presentation.cycle_is_contractible(
        [down[d] for d in cellsurf.cycle_to_darts(cover, v, e)])
        for v, e in cycles]
    assert verdicts == below
    assert 0 < sum(verdicts) < len(verdicts)
