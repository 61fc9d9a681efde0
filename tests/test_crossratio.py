import cmath
import math

import numpy as np
import pytest

from endlab import crossratio as cx
from endlab import fixtures
from endlab.crossratio import (CrossRatioAssignment, CrossRatioError,
                               edge_cross_ratio, from_ideal_surface,
                               holonomy_loop, holonomy_trace,
                               identity_residual, parse_cr, serialize_cr,
                               shear_angle_split, solve_vertex_conditions,
                               to_homog, vertex_conditions,
                               vertex_loop_darts)


def mobius(mat, z):
    p = mat @ to_homog(z)
    return cx.from_homog(p)


# ---------------------------------------------------------------------------
# the formula


def test_formula_standard_example():
    z = 0.37 + 1.21j
    v = edge_cross_ratio(0, 1, complex(math.inf, 0), z)
    assert abs(v - (z - 1) / z) < 1e-14


def test_formula_regular_tetrahedron_angles():
    zeta = cmath.exp(1j * math.pi / 3)
    pts = [0, 1, complex(math.inf, 0), zeta]
    # every edge of the regular configuration has |arg cr| = pi/3
    import itertools
    for (i, j) in itertools.combinations(range(4), 2):
        k, l = [x for x in range(4) if x not in (i, j)]
        v = edge_cross_ratio(pts[i], pts[j], pts[k], pts[l])
        assert abs(abs(cmath.phase(v)) - math.pi / 3) < 1e-12


def test_formula_moebius_invariance():
    rng = np.random.default_rng(3)
    for _ in range(40):
        pts = rng.normal(size=4) + 1j * rng.normal(size=4)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(m)) < 0.1:
            continue
        v1 = edge_cross_ratio(*pts)
        v2 = edge_cross_ratio(*(mobius(m, p) for p in pts))
        assert abs(v1 - v2) < 1e-12 * max(1.0, abs(v1))


def test_formula_rejects_coincident():
    with pytest.raises(CrossRatioError, match="coincident"):
        edge_cross_ratio(0, 0, 1, 2j)


def test_reversal_symmetry_on_fixture():
    # swapping i<->j together with k<->l leaves the formula unchanged
    tet = fixtures.ideal_tetrahedron(0.8 + 1.3j)
    pos = cx.chart_positions(tet)
    s = tet.tri
    for e in range(s.n_edges):
        d, t = 2 * e, 2 * e + 1
        vi, vj = s.tail(d), s.head(d)
        vk = s.tail(int(s.fnext[s.fnext[d]]))
        vl = s.tail(int(s.fnext[s.fnext[t]]))
        a = edge_cross_ratio(pos[vi], pos[vj], pos[vk], pos[vl])
        b = edge_cross_ratio(pos[vj], pos[vi], pos[vl], pos[vk])
        assert abs(a - b) < 1e-12


# ---------------------------------------------------------------------------
# vertex conditions


def test_octahedron_conditions():
    rep = vertex_conditions(from_ideal_surface(fixtures.ideal_octahedron()))
    assert rep.passed
    p, s = rep.max_residuals()
    assert p <= 1e-10 and s <= 1e-10


def test_tetrahedron_conditions_close():
    # with the sign convention of the module docstring the conditions hold
    # at odd-degree vertices too
    rep = vertex_conditions(from_ideal_surface(fixtures.ideal_tetrahedron()))
    assert rep.passed


def test_random_ideal_conditions():
    rep = vertex_conditions(from_ideal_surface(fixtures.random_ideal(23, 8)))
    assert rep.passed
    p, s = rep.max_residuals()
    assert p <= 1e-10 and s <= 1e-10


def test_perturbed_value_breaks_both_endpoints():
    oc = fixtures.ideal_octahedron()
    a = from_ideal_surface(oc)
    e = 5
    vals = list(a.values)
    vals[e] = vals[e] + 1e-3
    pert = CrossRatioAssignment(oc.tri, vals)
    rep = vertex_conditions(pert)
    assert not rep.passed
    u, w = oc.tri.edges[e]
    for r in rep.per_vertex:
        if r["vertex"] in (u, w):
            assert max(r["product_residual"], r["sum_residual"]) > 1e-4
        else:
            assert max(r["product_residual"], r["sum_residual"]) < 1e-12


def test_missing_value_flags_boundary_vertex():
    oc = fixtures.ideal_octahedron()
    a = from_ideal_surface(oc)
    vals = list(a.values)
    vals[0] = None
    rep = vertex_conditions(CrossRatioAssignment(oc.tri, vals))
    assert not rep.passed
    statuses = {r["vertex"]: r["status"] for r in rep.per_vertex}
    u, w = oc.tri.edges[0]
    assert statuses[u] == "boundary vertex"
    assert statuses[w] == "boundary vertex"


def test_degenerate_cr_rejected():
    oc = fixtures.ideal_octahedron()
    with pytest.raises(CrossRatioError, match="degenerate"):
        CrossRatioAssignment(oc.tri, [1.0 + 0j] + [1j] * 11)


# ---------------------------------------------------------------------------
# shear / angle split


def test_octahedron_split():
    a = from_ideal_surface(fixtures.ideal_octahedron())
    for rec in shear_angle_split(a):
        shear, angle, ext = rec
        assert abs(shear) < 1e-12
        assert abs(abs(angle) - math.pi / 2) < 1e-12
        assert abs(ext + angle - math.pi) < 1e-12


def test_split_agrees_with_dihedral_angles():
    for fx in (fixtures.ideal_tetrahedron(0.8 + 1.1j),
               fixtures.random_ideal(31, 7)):
        a = from_ideal_surface(fx)
        interior = math.pi - fx.dihedral_angles()
        split = shear_angle_split(a)
        for e in range(fx.tri.n_edges):
            assert abs(split[e][1] - interior[e]) < 1e-9


def test_split_shear_log2():
    z = 2.0 * cmath.exp(1j * math.pi / 3)
    a = from_ideal_surface(fixtures.ideal_tetrahedron(z))
    shears = sorted(abs(rec[0]) for rec in shear_angle_split(a))
    assert abs(shears[-1] - math.log(2.0)) < 1e-10


def test_real_positive_cr_flat_angle():
    oc = fixtures.ideal_octahedron()
    vals = [2.0 + 0j] * 12
    split = shear_angle_split(CrossRatioAssignment(oc.tri, vals))
    assert all(rec[1] == 0.0 for rec in split)


# ---------------------------------------------------------------------------
# holonomy


def test_octahedron_vertex_loops_identity():
    oc = fixtures.ideal_octahedron()
    a = from_ideal_surface(oc)
    for v in range(6):
        m = holonomy_loop(a, vertex_loop_darts(oc.tri, v))
        assert identity_residual(m) <= 1e-9


def test_octahedron_equatorial_loop_identity():
    oc = fixtures.ideal_octahedron()
    a = from_ideal_surface(oc)
    s = oc.tri
    # walk the equator 0 -> 2 -> 1 -> 3 -> 0 (all loops on a sphere close)
    path = []
    for u, w in ((0, 2), (2, 1), (1, 3), (3, 0)):
        d = next(d for d in range(s.n_darts)
                 if s.tail(d) == u and s.head(d) == w)
        path.append(d)
    m = holonomy_loop(a, path)
    assert identity_residual(m) <= 1e-9


def test_holonomy_rejects_open_path():
    oc = fixtures.ideal_octahedron()
    a = from_ideal_surface(oc)
    with pytest.raises(CrossRatioError, match="open path"):
        holonomy_loop(a, [0, 5])


def test_chart_independence_of_geometric_assignment():
    # rebuilding the assignment after an isometry of the surface gives the
    # same cross-ratios (the chart transforms by a Moebius map)
    from endlab import mink
    rng = np.random.default_rng(9)
    fx = fixtures.ideal_tetrahedron(0.7 + 0.9j)
    a = from_ideal_surface(fx)
    iso = mink.random_isometry(rng)
    moved = fx.with_vertex_vectors([iso @ v for v in fx.vectors])
    b = from_ideal_surface(moved)
    for x, y in zip(a.cr_array(), b.cr_array()):
        assert abs(x - y) < 1e-10


# ---------------------------------------------------------------------------
# synthetic genus-2 assignment


def test_synthetic_genus2_solution():
    g = fixtures.genus2_complex()
    res = solve_vertex_conditions(g.surface, seed=1, spread=1.0)
    assert res.converged
    rep = vertex_conditions(res.assignment)
    assert rep.passed

    # face and vertex loops develop to the identity class
    m = holonomy_loop(res.assignment, g.surface.face_cycles[0])
    assert identity_residual(m) <= 1e-9
    for v in (0, 1, 9):
        mm = holonomy_loop(res.assignment, vertex_loop_darts(g.surface, v))
        assert identity_residual(mm) <= 1e-8

    # a handle loop has hyperbolic holonomy, invariant under base change
    p1, p2 = g.class_positions(1)
    loop = [2 * p1, 2 * p2 + 1]
    tr = holonomy_trace(res.assignment, loop)
    assert tr > 2.0
    tr2 = holonomy_trace(res.assignment, [2 * p2 + 1, 2 * p1])
    assert abs(tr - tr2) <= 1e-8


def test_synthetic_reports_nonconvergence():
    g = fixtures.genus2_complex()
    res = solve_vertex_conditions(g.surface, seed=0, max_iter=1)
    assert not res.converged
    assert res.residual > 0


# ---------------------------------------------------------------------------
# cr v1 format


def test_cr_roundtrip():
    oc = fixtures.ideal_octahedron()
    a = from_ideal_surface(oc)
    text = serialize_cr(a)
    back = parse_cr(oc.tri, text)
    assert serialize_cr(back) == text
    assert np.allclose(back.cr_array(), a.cr_array())


def test_parse_cr_rejects_bad_records():
    oc = fixtures.ideal_octahedron()
    header_and_edge0 = serialize_cr(from_ideal_surface(oc)).splitlines()[:2]
    for record, reason in (("cr -1 0.5 0.5", "out of range"),
                           ("cr 99 0.5 0.5", "out of range"),
                           ("cr x 0.5 0.5", "bad edge id"),
                           ("cr 0 0.5 0.5", "duplicate edge 0"),
                           ("cr 1 nan 0.5", "non-finite"),
                           ("cr 1 0.5 inf", "non-finite")):
        with pytest.raises(CrossRatioError, match="line 3: .*" + reason):
            parse_cr(oc.tri, "\n".join(header_and_edge0 + [record]))
