import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from endlab import volume as vol
from endlab.volume import (AngleTriple, D13Profile, d13_profile,
                           d13_second_jump, ideal_tet_volume, lobachevsky,
                           schlafli_residual_split_octahedron,
                           schlafli_residual_tetrahedron,
                           tet_volume_from_chart)


def lob_quadrature(theta):
    import warnings
    with warnings.catch_warnings():
        # the integrand has an integrable log singularity at 0
        warnings.simplefilter("ignore")
        val, _ = quad(lambda t: -math.log(abs(2.0 * math.sin(t))), 0, theta,
                      limit=300)
    return val


# ---------------------------------------------------------------------------
# Lobachevsky function


def test_lob_half_pi_zero():
    assert abs(lobachevsky(math.pi / 2)) < 1e-14


def test_lob_pi_sixth_identity():
    # L(pi/6) = (3/2) L(pi/3); both sides also against quadrature
    d_series = lobachevsky(math.pi / 6) - 1.5 * lobachevsky(math.pi / 3)
    d_quad = lob_quadrature(math.pi / 6) - 1.5 * lob_quadrature(math.pi / 3)
    assert abs(d_series) < 1e-13
    assert abs(d_series - d_quad) < 1e-10


@given(st.floats(-9.0, 9.0))
@settings(max_examples=120)
def test_lob_odd_periodic(theta):
    assert abs(lobachevsky(theta + math.pi) - lobachevsky(theta)) < 1e-12
    assert abs(lobachevsky(-theta) + lobachevsky(theta)) < 1e-12


def test_lob_series_vs_quadrature_grid():
    for theta in np.linspace(0.05, math.pi / 2 - 0.05, 17):
        assert abs(lobachevsky(theta) - lob_quadrature(theta)) < 1e-10


# ---------------------------------------------------------------------------
# tetrahedron volume


def test_regular_volume_value():
    v = ideal_tet_volume((math.pi / 3, math.pi / 3, math.pi / 3))
    assert abs(v - 1.0149416) <= 1e-6
    oracle = 3.0 * lob_quadrature(math.pi / 3)
    assert abs(v - oracle) < 1e-7


def test_right_isoceles_volume():
    v = ideal_tet_volume((math.pi / 2, math.pi / 4, math.pi / 4))
    assert abs(v - 2.0 * lobachevsky(math.pi / 4)) < 1e-14


def test_regular_is_maximal():
    rng = np.random.default_rng(5)
    vmax = ideal_tet_volume((math.pi / 3,) * 3)
    for _ in range(200):
        a = rng.uniform(0.05, math.pi - 0.1)
        b = rng.uniform(0.05, math.pi - a - 0.05)
        if not 0.05 < math.pi - a - b < math.pi - 0.05:
            continue
        if abs(a - math.pi / 3) + abs(b - math.pi / 3) < 1e-3:
            continue
        assert ideal_tet_volume((a, b, math.pi - a - b)) < vmax


def test_angle_triple_validation():
    with pytest.raises(ValueError, match="sum to pi"):
        AngleTriple(1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="degenerate"):
        AngleTriple(1e-14, math.pi / 2, math.pi / 2 - 1e-14)


def test_volume_from_chart_matches_angles():
    import cmath
    z = 0.6 + 0.9j
    v = tet_volume_from_chart([0, 1, complex(math.inf, 0), z])
    angles = [abs(cmath.phase(w)) for w in (z, 1 / (1 - z), (z - 1) / z)]
    assert abs(v - sum(lobachevsky(a) for a in angles)) < 1e-14


def test_volumes_do_not_depend_on_the_builtin_sum(request):
    # Python 3.12 and later add floats in the builtin sum with Neumaier
    # compensation; a volume must keep its bits under that sum
    rng = np.random.default_rng(3)
    a = rng.uniform(0.1, 1.5, size=100)
    b = rng.uniform(0.1, math.pi - 0.1 - a)
    triples = list(zip(a.tolist(), b.tolist(), (math.pi - a - b).tolist()))
    charts = [[0, 1, complex(math.inf, 0), complex(x, y)]
              for x, y in rng.uniform(-2.0, 2.0, size=(100, 2)).tolist()]

    def volumes():
        return ([ideal_tet_volume(t) for t in triples],
                [tet_volume_from_chart(p) for p in charts])

    before = volumes()
    request.getfixturevalue("compensated_builtin_sum")  # from here on
    assert volumes() == before


# ---------------------------------------------------------------------------
# Schlafli sweeps


def test_schlafli_tetrahedron_order():
    rep = schlafli_residual_tetrahedron()
    assert rep.order_in(1.8, 2.2)
    assert rep.decoration_shift_change <= 1e-12


def test_schlafli_tetrahedron_zero_variation():
    rep = schlafli_residual_tetrahedron(dab=(0.0, 0.0))
    assert all(r < 1e-12 for r in rep.residuals)
    assert rep.schlafli_sum == 0.0


def test_schlafli_tetrahedron_decorated():
    rep = schlafli_residual_tetrahedron(scales=[0.2, -0.1, 0.3, 0.0])
    assert rep.order_in(1.8, 2.2)
    assert rep.decoration_shift_change <= 1e-12


def test_schlafli_split_octahedron_order():
    rep = schlafli_residual_split_octahedron()
    assert rep.order_in(1.8, 2.2)
    assert rep.decoration_shift_change <= 1e-12


def test_schlafli_dispatch():
    rep = schlafli_residual_tetrahedron(dab=(0.5, 0.2))
    assert rep.order_in(1.8, 2.2)


# ---------------------------------------------------------------------------
# the C^{1,1} profile


def test_d13_zero_derivatives_at_crease():
    p = d13_profile(0.7, 1.3, 0.0)
    assert p.derivative_left == 0.0 and p.derivative_right == 0.0
    assert abs(p.distance - 2.0) < 1e-15


def test_d13_continuous_at_crease():
    a = d13_profile(0.7, 1.3, -1e-9).distance
    b = d13_profile(0.7, 1.3, 1e-9).distance
    assert abs(a - b) < 1e-12


def test_d13_derivative_matches_finite_differences():
    x0, x1 = 0.8, 1.1
    h = 1e-6
    for y in np.concatenate([np.linspace(-1.5, -0.1, 8),
                             np.linspace(0.1, 1.5, 8)]):
        fd = (d13_profile(x0, x1, y + h).distance
              - d13_profile(x0, x1, y - h).distance) / (2 * h)
        closed = d13_profile(x0, x1, y).derivative_left
        assert abs(fd - closed) < 1e-6
        # the halved variant fails by a factor 2
        assert abs(fd - 0.5 * closed) > 0.1 * abs(closed)


def test_d13_second_difference_jump():
    x0, x1 = 0.8, 1.1
    h = 1e-3
    # one-sided second differences on each side of the crease
    right = (d13_profile(x0, x1, 2 * h).distance
             - 2 * d13_profile(x0, x1, h).distance
             + d13_profile(x0, x1, 0.0).distance) / (h * h)
    left = (d13_profile(x0, x1, -2 * h).distance
            - 2 * d13_profile(x0, x1, -h).distance
            + d13_profile(x0, x1, 0.0).distance) / (h * h)
    jump = right - left
    expected = d13_second_jump(x0, x1)
    assert abs(jump - expected) <= 0.05 * abs(expected)
