"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single "ACCEPTANCE n (<name>): PASS" line when its
criterion holds; a failed assertion means the criterion is violated.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from endlab import cellsurf, crossratio, decor, fixtures, mink, rigidity, volume
from endlab.cli import main
from scripts_path import GOLDEN, RUNS


@pytest.fixture(scope="module")
def compact_family():
    return [fixtures.compact_tetrahedron(1.0)] + [
        fixtures.random_convex_compact(seed, 8) for seed in range(20)]


@pytest.fixture(scope="module")
def ideal_family():
    return [fixtures.ideal_octahedron()] + [
        fixtures.random_ideal(seed, 8) for seed in range(20)]


def test_acceptance_1_adjointness_compact(compact_family):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for ps in compact_family:
        lop = rigidity.length_variation_operator(ps)
        mop = rigidity.angle_motion_operator(ps)
        for _ in range(100):
            z = rng.normal(size=lop.matrix.shape[1])
            t = rng.normal(size=mop.matrix.shape[1])
            lhs = float(np.dot(lop.matrix @ z, t))
            rhs = float(np.sum(mop.codomain_metric * z * (mop.matrix @ t)))
            worst = max(worst, abs(lhs - rhs)
                        / (np.linalg.norm(z) * np.linalg.norm(t)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-11, worst
    assert elapsed < 5.0, elapsed
    print("\nACCEPTANCE 1 (adjointness, compact pair): PASS "
          "(max residual %.2e, %.2fs)" % (worst, elapsed))


def test_acceptance_2_adjointness_ideal(ideal_family):
    rng = np.random.default_rng(1)
    worst = 0.0
    for ps in ideal_family:
        lop = rigidity.decorated_length_variation_operator(ps)
        mop = rigidity.ideal_angle_variation_operator(ps)
        raw = lop.meta["raw_rows"]
        b_int = mop.int_basis
        q = mop.embedding
        m = rigidity.shift_map_matrix(ps.tri).astype(float)
        for _ in range(100):
            w = rng.normal(size=raw.shape[1])
            coeff = rng.integers(-5, 6, size=b_int.shape[1]).astype(float)
            tdot = b_int @ coeff
            assert np.all(m.T @ tdot == 0.0)  # constraint holds exactly
            lhs = float(np.dot(raw @ w, tdot))
            rhs = float(np.dot(mop.matrix @ (q.T @ tdot), w))
            denom = np.linalg.norm(w) * max(np.linalg.norm(tdot), 1e-30)
            worst = max(worst, abs(lhs - rhs) / denom)
    assert worst <= 1e-11, worst
    print("\nACCEPTANCE 2 (adjointness, ideal pair): PASS "
          "(max residual %.2e)" % worst)


def test_acceptance_3_projective_rigidity(compact_family):
    for ps in compact_family:
        op = rigidity.length_variation_operator(ps)
        dim, gap = rigidity.kernel_dimension(op)
        assert dim == 6
        assert gap >= 1e3
        kb = op.kernel_basis()
        tb = rigidity.trivial_motion_basis(ps)
        assert np.linalg.norm(tb - kb @ (kb.T @ tb)) <= 1e-8
    oc = fixtures.ideal_octahedron()
    op = rigidity.decorated_length_variation_operator(oc)
    dim, gap = rigidity.kernel_dimension(op)
    assert dim == 6 and gap >= 1e3
    kb = op.kernel_basis()
    tb = rigidity.trivial_motion_basis(oc)
    assert np.linalg.norm(tb - kb @ (kb.T @ tb)) <= 1e-8
    print("\nACCEPTANCE 3 (kernel = trivial motions): PASS "
          "(21 compact fixtures + ideal octahedron)")


def test_acceptance_4_duality(compact_family):
    for ps in compact_family:
        dual = ps.dual_surface()
        ne = ps.base.n_edges
        assert np.allclose(dual.edge_lengths()[:ne], ps.dihedral_angles(),
                           atol=1e-10)
        for v in range(ps.base.n_vertices):
            p = mink.normalize_timelike(dual.base_face_normals[v])
            assert np.allclose(p, ps.vectors[v], atol=1e-9)
    print("\nACCEPTANCE 4 (duality identities): PASS (21 compact fixtures)")


def test_acceptance_5_cross_ratio_conditions():
    oc = fixtures.ideal_octahedron()
    a = crossratio.from_ideal_surface(oc)
    rep = crossratio.vertex_conditions(a)
    assert rep.passed
    p, s = rep.max_residuals()
    assert p <= 1e-10 and s <= 1e-10
    worst = 0.0
    for v in range(oc.tri.n_vertices):
        mloop = crossratio.holonomy_loop(
            a, crossratio.vertex_loop_darts(oc.tri, v))
        worst = max(worst, crossratio.identity_residual(mloop))
    assert worst <= 1e-9
    print("\nACCEPTANCE 5 (vertex conditions + holonomy): PASS "
          "(residuals %.1e/%.1e, holonomy %.1e)" % (p, s, worst))


def test_acceptance_6_schlafli():
    rep_t = volume.schlafli_residual_tetrahedron()
    rep_o = volume.schlafli_residual_split_octahedron()
    for rep in (rep_t, rep_o):
        assert 1.8 <= rep.order <= 2.2, rep
        assert rep.decoration_shift_change <= 1e-12
    print("\nACCEPTANCE 6 (Schlafli finite differences): PASS "
          "(orders %.3f / %.3f)" % (rep_t.order, rep_o.order))


def test_acceptance_7_volume_ground_truth():
    v = volume.ideal_tet_volume((math.pi / 3,) * 3)
    assert abs(v - 1.0149416) <= 1e-6
    oracle = 3.0 * quad(lambda t: -math.log(2.0 * math.sin(t)),
                        0, math.pi / 3, limit=300)[0]
    assert abs(v - oracle) <= 1e-7
    print("\nACCEPTANCE 7 (regular ideal volume): PASS (%.9f)" % v)


def test_acceptance_8_c11_profile():
    x0, x1 = 0.8, 1.1
    p0 = volume.d13_profile(x0, x1, 0.0)
    assert p0.derivative_left == 0.0 and p0.derivative_right == 0.0
    h = 1e-6
    for y in np.concatenate([np.linspace(-1.4, -0.1, 9),
                             np.linspace(0.1, 1.4, 9)]):
        fd = (volume.d13_profile(x0, x1, y + h).distance
              - volume.d13_profile(x0, x1, y - h).distance) / (2 * h)
        assert abs(fd - volume.d13_profile(x0, x1, y).derivative_left) <= 1e-6
    hh = 1e-3
    right = (volume.d13_profile(x0, x1, 2 * hh).distance
             - 2 * volume.d13_profile(x0, x1, hh).distance
             + volume.d13_profile(x0, x1, 0.0).distance) / (hh * hh)
    left = (volume.d13_profile(x0, x1, -2 * hh).distance
            - 2 * volume.d13_profile(x0, x1, -hh).distance
            + volume.d13_profile(x0, x1, 0.0).distance) / (hh * hh)
    expected = volume.d13_second_jump(x0, x1)
    assert abs((right - left) - expected) <= 0.05 * abs(expected)
    print("\nACCEPTANCE 8 (C^{1,1} profile): PASS "
          "(second-derivative jump %.6f)" % expected)


def test_acceptance_9_pak_machinery():
    # 27-case table, exact
    s = fixtures.tetrahedron_surface()
    cyc = s.face_cycles[0]
    edges = [d // 2 for d in cyc]
    for states in itertools.product((0, 1, -1), repeat=3):
        dec = decor.Decoration.from_pairs(s, list(zip(edges, states)))
        total = sum(decor.corner_changes(dec)[d] for d in cyc)
        if any(states):
            assert total >= 1.0
        else:
            assert total == 0.0
    # seeded sampling on the genus-2 fixture
    g2 = fixtures.genus2_surface()
    rng = np.random.default_rng(7)
    tight_random = 0
    for _ in range(1000):
        dec = decor.random_decoration(g2, rng)
        rep = decor.pak_report(dec)
        assert rep.all_identities_hold()  # exact integer arithmetic
        if decor.is_tight(dec).tight and dec.n_oriented() > 0:
            tight_random += 1
    assert tight_random == 0
    # structured cases are tight by definition and flagged
    for e in (0, 24, 30):
        dec = decor.Decoration.from_pairs(g2, [(e, decor.FORWARD)])
        assert decor.is_tight(dec).tight
        rep = decor.pak_report(dec)
        assert all(not c.chain_closes for c in rep.components)
    print("\nACCEPTANCE 9 (counting machinery): PASS "
          "(27-case table exact, 0/1000 random tight, structured flagged)")


def test_acceptance_10_thurston_pattern_sums():
    nerves = [fixtures.tetrahedron_surface(),
              fixtures.genus2_surface(),
              fixtures.random_convex_compact(5, 8).base]
    for nerve in nerves:
        pat = cellsurf.thurston_pattern(nerve)
        for cyc in pat.face_cycles:
            total = sum(pat.theta[d // 2] for d in cyc)
            assert abs(total - 2.0 * math.pi) <= 1e-12
    print("\nACCEPTANCE 10 (pattern face sums): PASS (3 nerves, exact)")


def test_acceptance_11_cli_determinism(tmp_path):
    for name, expect_code, argv in RUNS:
        out1 = tmp_path / ("a_" + name)
        out2 = tmp_path / ("b_" + name)
        assert main(list(argv) + ["--out", str(out1)]) == expect_code
        assert main(list(argv) + ["--out", str(out2)]) == expect_code
        b1 = out1.read_bytes()
        assert b1 == out2.read_bytes()
        assert b1 == (GOLDEN / name).read_bytes()
    print("\nACCEPTANCE 11 (CLI determinism + goldens): PASS "
          "(%d commands byte-stable)" % len(RUNS))
