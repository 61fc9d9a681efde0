import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endlab import surfgroup
from endlab.surfgroup import (Genus2Complex, SurfaceGroupPresentation,
                              format_word, free_reduce, invert_word,
                              matrix_is_identity_class, parse_word)
from endlab.fixtures import genus2_complex


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
    pres = SurfaceGroupPresentation(2)
    assert pres.is_trivial(parse_word("abABcdCD"))


def test_dehn_generator_nontrivial():
    pres = SurfaceGroupPresentation(2)
    assert not pres.is_trivial(parse_word("a"))


def test_dehn_empty_trivial():
    pres = SurfaceGroupPresentation(2)
    assert pres.is_trivial(())


def test_dehn_conjugates_and_products():
    pres = SurfaceGroupPresentation(2)
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
    pres = SurfaceGroupPresentation(2)
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
        m1 = surfgroup.normalize_det(mat)
        m2 = surfgroup.normalize_det(diff)
        assert min(np.max(np.abs(m1 - m2)), np.max(np.abs(m1 + m2))) < 1e-9


def test_is_contractible_dispatch(g2):
    pres = SurfaceGroupPresentation(2)
    assert pres.is_trivial(parse_word("abABcdCD"))
    assert not pres.is_trivial(parse_word("a"))
    assert pres.is_trivial(parse_word(""))
    cyc = g2.surface.face_cycles[0]
    assert g2.presentation.cycle_is_contractible(cyc)
