import cmath
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endlab import crossratio as cx
from endlab import fixtures
from endlab.cellsurf import CellSurface, parse_surf
from endlab.crossratio import (CrossRatioAssignment, CrossRatioError,
                               edge_cross_ratio, from_ideal_surface,
                               holonomy_loop, holonomy_trace,
                               identity_residual, parse_cr, serialize_cr,
                               shear_angle_split, solve_vertex_conditions,
                               to_homog, vertex_conditions,
                               vertex_loop_darts)
from scripts_path import INPUTS  # see conftest


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


def genus2_uniform():
    return parse_surf((INPUTS / "genus2_uniform.surf").read_text())


def one_vertex_torus():
    # every edge is a loop, so each edge appears twice in the one star
    return CellSurface(1, [(0, 0)] * 3, [[0, 2, 5], [4, 1, 3]])


JACOBIAN_SURFACES = {
    "genus2-uniform": genus2_uniform,
    "genus2-complex": lambda: fixtures.genus2_complex().surface,
    "one-vertex-torus": one_vertex_torus,
}


def loop_residuals(surface, cr):
    """Per-star loop form of the residuals: (P_v - 1, S_v) per vertex."""
    res = []
    for v in range(surface.n_vertices):
        partial = np.cumprod([-cr[d // 2] for d in surface.vertex_star(v)])
        res += [partial[-1] - 1.0, partial.sum()]
    return np.array(res)


@pytest.mark.parametrize("name", sorted(JACOBIAN_SURFACES))
def test_exact_jacobian_matches_central_differences(name):
    surface = JACOBIAN_SURFACES[name]()
    edges, mask = cx._star_arrays(surface)
    ne = surface.n_edges
    rng = np.random.default_rng(5)
    h = 1e-6
    for spread in (0.08, 0.3, 1.0):
        cr = 1j * np.exp(spread * rng.normal(size=ne)
                         + 0.05j * rng.normal(size=ne))
        res = cx._condition_residuals(cr, edges, mask)
        want = loop_residuals(surface, cr)
        assert np.max(np.abs(res - want)) <= 1e-12 * np.max(np.abs(want))
        jac = cx._condition_jacobian(cr, edges, mask)
        # columns for the real and the imaginary part of each cross-ratio
        for direction, col in ((1.0, jac), (1j, 1j * jac)):
            for e in range(ne):
                dz = np.zeros(ne, dtype=complex)
                dz[e] = h * direction
                fd = (cx._condition_residuals(cr + dz, edges, mask)
                      - cx._condition_residuals(cr - dz, edges, mask)) / (2 * h)
                assert np.max(np.abs(col[:, e] - fd)) <= (
                    1e-6 * np.max(np.abs(jac)))


def test_seeded_starts_converge_fast():
    surface = genus2_uniform()
    for seed in range(200):
        res = solve_vertex_conditions(surface, seed=seed, spread=0.3)
        assert res.converged and res.iterations <= 9, seed
        assert vertex_conditions(res.assignment).passed, seed


def test_overflowing_trial_step_is_rejected_quietly():
    # this start's line search meets residuals near 1e182, whose squared
    # norm overflowed before the trial was rejected
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_vertex_conditions(genus2_uniform(), seed=27, spread=1.0)
    assert not res.converged


def test_synthetic_reports_nonconvergence():
    g = fixtures.genus2_complex()
    res = solve_vertex_conditions(g.surface, seed=0, max_iter=1)
    assert not res.converged
    assert res.residual > 0


def _parent_step(j, r):
    """The Gauss-Newton step before it solved the complex system: the
    least-squares solve of J's real block form.  Verbatim."""
    jac = np.block([[j.real, -j.imag], [j.imag, j.real]])
    step, *_ = np.linalg.lstsq(jac, r, rcond=None)
    return step


def _parent_solve_vertex_conditions(surface, seed=0, spread=0.08, max_iter=200):
    """solve_vertex_conditions before its step solved the complex system and
    before ``iterations`` counted steps.  Verbatim."""
    rng = np.random.default_rng(seed)
    ne = surface.n_edges
    cr = 1j * np.exp(spread * rng.normal(size=ne)
                     + 0.05j * rng.normal(size=ne))
    edges, mask = cx._star_arrays(surface)

    def real_residual(x):
        r = cx._condition_residuals(x[:ne] + 1j * x[ne:], edges, mask)
        return np.concatenate([r.real, r.imag])

    x = np.concatenate([cr.real, cr.imag])
    r = real_residual(x)
    it = 0
    for it in range(1, max_iter + 1):
        if np.linalg.norm(r, np.inf) < 1e-12:
            break
        j = cx._condition_jacobian(x[:ne] + 1j * x[ne:], edges, mask)
        jac = np.block([[j.real, -j.imag], [j.imag, j.real]])
        step, *_ = np.linalg.lstsq(jac, r, rcond=None)
        lam = 1.0
        norm_r = np.linalg.norm(r)
        for _ in range(40):
            xn = x - lam * step
            with np.errstate(over="ignore", invalid="ignore"):
                rn = real_residual(xn)
            # max |rn| >= norm_r already rules the trial out; testing it
            # first also rejects inf and nan, and keeps the norm from
            # overflowing on a finite but huge residual
            if (np.max(np.abs(rn)) < norm_r
                    and np.linalg.norm(rn) < norm_r):
                x, r = xn, rn
                break
            lam *= 0.5
        else:
            break
    values = list(x[:ne] + 1j * x[ne:])
    return cx.NewtonResult(
        assignment=CrossRatioAssignment(surface, values),
        converged=bool(np.linalg.norm(r, np.inf) < 1e-10),
        residual=float(np.linalg.norm(r, np.inf)),
        iterations=it,
        seed=seed)


@pytest.mark.parametrize("name", sorted(JACOBIAN_SURFACES))
def test_complex_step_matches_block_form(name):
    # the two routes differ by rounding amplified by cond(J): by <= 1e-12
    # relative on the central-difference test's three starts, and by a few
    # eps * cond(J) on any start (at one start of cond 2e4 the block form
    # is 3.3e-12 from the exact step, taken to 40 digits, and the complex
    # route 4e-15)
    surface = JACOBIAN_SURFACES[name]()
    edges, mask = cx._star_arrays(surface)
    ne = surface.n_edges
    rng = np.random.default_rng(5)
    for k, spread in enumerate((0.08, 0.3, 1.0) * 10):
        cr = 1j * np.exp(spread * rng.normal(size=ne)
                         + 0.05j * rng.normal(size=ne))
        res = cx._condition_residuals(cr, edges, mask)
        r = np.concatenate([res.real, res.imag])
        j = cx._condition_jacobian(cr, edges, mask)
        want = _parent_step(j, r)
        rel = np.max(np.abs(cx._newton_step(j, r) - want)) / np.max(
            np.abs(want))
        assert rel <= 16 * np.finfo(float).eps * np.linalg.cond(j), (k, rel)
        if k < 3:
            assert rel <= 1e-12, (k, rel)


def test_complex_step_keeps_block_form_rank_cut():
    # a 20 x 36 Jacobian whose least singular value is 54 eps times its
    # largest: the block form cuts below 72 eps, so it is cut there and
    # must be cut here, though the complex default (36 eps) would keep it
    rng = np.random.default_rng(4)

    def unitary(n):
        q, _ = np.linalg.qr(rng.normal(size=(n, n))
                            + 1j * rng.normal(size=(n, n)))
        return q

    sigma = np.linspace(1.0, 0.2, 20)
    sigma[-1] = 54 * np.finfo(float).eps
    j = (unitary(20) * sigma) @ unitary(36)[:20]
    r = rng.normal(size=40)
    want = _parent_step(j, r)
    assert np.linalg.norm(want) < 1e3
    assert np.max(np.abs(cx._newton_step(j, r) - want)) <= (
        1e-12 * np.max(np.abs(want)))


def test_solver_matches_parent_solver():
    # the parent counted the convergence test that ends a run as one more
    # iteration; it took the same steps
    surface = genus2_uniform()
    for spread in (0.08, 0.3):
        for seed in range(100):
            got = solve_vertex_conditions(surface, seed=seed, spread=spread)
            want = _parent_solve_vertex_conditions(surface, seed=seed,
                                                   spread=spread)
            assert (got.converged, got.iterations) == (
                want.converged, want.iterations - (want.residual < 1e-12)), (
                    spread, seed)


@pytest.mark.parametrize("kind,kwargs,converged", [
    ("converged", {"seed": 0, "spread": 0.3}, True),
    ("exhausted", {"seed": 0, "spread": 0.3, "max_iter": 3}, False),
    ("failed line search", {"seed": 27, "spread": 1.0}, False),
    ("no steps", {"seed": 0, "spread": 0.3, "max_iter": 0}, False)])
def test_iterations_count_newton_steps(monkeypatch, kind, kwargs, converged):
    calls = []
    jacobian = cx._condition_jacobian

    def spy(cr, edges, mask):
        calls.append(1)
        return jacobian(cr, edges, mask)

    monkeypatch.setattr(cx, "_condition_jacobian", spy)
    res = solve_vertex_conditions(genus2_uniform(), **kwargs)
    assert res.converged == converged
    assert res.iterations == len(calls)
    max_iter = kwargs.get("max_iter", 200)
    if kind == "failed line search":
        assert 0 < res.iterations < max_iter and res.residual >= 1e-12
    elif kind == "converged":
        assert 0 < res.iterations < max_iter and res.residual < 1e-12
    else:
        assert res.iterations == max_iter


def _parent_vertex_conditions(assignment):
    """vertex_conditions before it evaluated through the padded star arrays.
    Verbatim."""
    s = assignment.surface
    rows = []
    for v in range(s.n_vertices):
        star = s.vertex_star(v)
        crs = []
        missing = False
        for d in star:
            val = assignment.values[d // 2]
            if val is None:
                missing = True
                break
            crs.append(val)
        if missing:
            rows.append({"vertex": v, "status": "boundary vertex",
                         "product_residual": math.nan,
                         "sum_residual": math.nan})
            continue
        crs = [-c for c in crs]
        prod = complex(np.prod(crs))
        sum_res = 0.0
        n = len(crs)
        for r in range(n):
            rot = crs[r:] + crs[:r]
            partial = np.cumprod(rot)
            sum_res = max(sum_res, abs(partial.sum()))
        rows.append({"vertex": v, "status": "checked",
                     "product_residual": abs(prod - 1.0),
                     "sum_residual": float(sum_res)})
    return cx.VertexConditionReport(rows)


def _condition_assignments():
    """4 ideal fixtures, 12 Newton solves (converged or cut short) and one
    perturbed assignment with a missing value."""
    out = [from_ideal_surface(ps) for ps in (
        fixtures.ideal_octahedron(), fixtures.ideal_tetrahedron(),
        fixtures.random_ideal(23, 8), fixtures.random_ideal(4, 12))]
    for surface in (genus2_uniform(), fixtures.ideal_octahedron().tri,
                    one_vertex_torus()):
        for seed, spread, max_iter in ((0, 0.3, 200), (1, 1.0, 200),
                                       (2, 0.08, 2), (3, 1.0, 1)):
            out.append(solve_vertex_conditions(surface, seed, spread,
                                               max_iter).assignment)
    values = list(out[0].values)
    values[0] = None
    values[3] += 1e-3
    out.append(CrossRatioAssignment(out[0].surface, values))
    return out


def test_vertex_conditions_match_parent_loop():
    for i, assignment in enumerate(_condition_assignments()):
        rep = vertex_conditions(assignment)
        old = _parent_vertex_conditions(assignment)
        assert rep.passed == old.passed, i
        for row, want in zip(rep.per_vertex, old.per_vertex, strict=True):
            assert (row["vertex"], row["status"]) == (want["vertex"],
                                                      want["status"]), i
            for key in ("product_residual", "sum_residual"):
                assert row[key] == pytest.approx(want[key], rel=1e-13,
                                                 abs=1e-15, nan_ok=True), i


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
                           ("cr 1 0.5", "bad cr record"),
                           ("z 1 0.5 0.5", "bad cr record"),
                           ("cr 1 x 0.5", "bad cross-ratio x 0.5"),
                           ("cr 0 0.5 0.5", "duplicate edge 0"),
                           ("cr 1 nan 0.5", "non-finite"),
                           ("cr 1 0.5 inf", "non-finite")):
        with pytest.raises(CrossRatioError, match="line 3: .*" + reason):
            parse_cr(oc.tri, "\n".join(header_and_edge0 + [record]))


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.none() | st.builds(complex, finite, finite)
                .filter(lambda z: not (cx._within(z, 0.0, 1e-13)
                                       or cx._within(z, 1.0, 1e-13))),
                min_size=12, max_size=12))
def test_cr_roundtrip_is_bit_exact(values):
    surface = fixtures.ideal_octahedron().tri
    text = serialize_cr(CrossRatioAssignment(surface, values))
    back = parse_cr(surface, text)

    def bits(z):
        return None if z is None else struct.pack("<dd", z.real, z.imag)

    assert [bits(z) for z in back.values] == [bits(z) for z in values]
    assert serialize_cr(back) == text
