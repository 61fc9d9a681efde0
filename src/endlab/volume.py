"""Lobachevsky function, ideal volumes, and variational checks.

The Lobachevsky function L(t) = -int_0^t log|2 sin s| ds is evaluated by
odd/pi-periodic argument reduction to [-pi/2, pi/2] followed by the power
series

    L(t) = t (1 - log|2t|) + sum_{k>=1} zeta(2k) t^{2k+1} / (k (2k+1) pi^{2k}),

whose terms decay at least like (t/pi)^2 <= 1/4 per step, giving a
machine-precision geometric tail bound.  (A raw Fourier sum of sin(2nt)/n^2
would need ~1e12 terms for comparable accuracy.)

An ideal tetrahedron with dihedral angles (a, b, c), a+b+c = pi on
opposite-edge pairs, has volume L(a) + L(b) + L(c); the first-order volume
variation under an angle variation dt (interior angles, per-vertex sums
constrained to zero) is -(1/2) sum_e l_e dt_e with decorated edge lengths
l_e, independent of the decoration because the per-vertex constraints kill
the shift ambiguity.  The Schlafli sweeps here verify this by central
finite differences along explicit one-parameter families, fitting the
convergence order of |dV_FD - S| (expected 2).

The distance profile of the C^{1,1} analysis: for x0, x1 > 0,

    d13(y) = x0 + acosh(cosh x1 cosh y)        (y <= 0)
    d13(y) = acosh(cosh(x0+x1) cosh y)         (y >= 0)

with one-sided derivatives cosh(x) sinh(y) / sqrt(cosh^2 x cosh^2 y - 1)
for x = x1 resp. x0+x1 (finite differences confirm this un-halved form;
a printed variant with an extra 1/2 in the denominator fails them). Both
one-sided derivatives vanish at y = 0 and the second derivative jumps by
coth(x1) - coth(x0+x1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta

from . import crossratio as _cx
from . import mink, polysurf
from .rigidity import shift_map_matrix, zero_sum_basis


def lobachevsky(theta):
    """The Lobachevsky function, odd and pi-periodic, |error| < 1e-15."""
    t = float(theta)
    t = math.fmod(t, math.pi)
    if t > math.pi / 2:
        t -= math.pi
    elif t < -math.pi / 2:
        t += math.pi
    if t == 0.0:
        return 0.0
    sign = 1.0 if t > 0 else -1.0
    t = abs(t)
    total = t * (1.0 - math.log(2.0 * t))
    r2 = (t / math.pi) ** 2
    power = t * r2
    k = 1
    while True:
        term = zeta(2 * k) * power / (k * (2 * k + 1))
        total += term
        if term < 1e-18 * max(1.0, abs(total)):
            break
        power *= r2
        k += 1
        if k > 200:
            break
    return sign * total


@dataclass(frozen=True)
class AngleTriple:
    """Dihedral angles of an ideal tetrahedron on opposite-edge pairs."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        s = self.alpha + self.beta + self.gamma
        if abs(s - math.pi) > 1e-12:
            raise ValueError("angles must sum to pi (off by %.3g)" % (s - math.pi))
        for a in (self.alpha, self.beta, self.gamma):
            if a <= 1e-12 or a >= math.pi - 1e-12:
                raise ValueError("degenerate triple")

    def as_tuple(self):
        return (self.alpha, self.beta, self.gamma)


def ideal_tet_volume(triple):
    """Volume L(a) + L(b) + L(c) of the ideal tetrahedron."""
    if not isinstance(triple, AngleTriple):
        triple = AngleTriple(*triple)
    a, b, c = triple.as_tuple()
    return lobachevsky(a) + lobachevsky(b) + lobachevsky(c)


def tet_volume_from_chart(points):
    """Volume of the ideal tetrahedron over four CP^1 chart points.

    The three opposite-edge angle pairs are the arguments of the shape
    parameter orbit z, 1/(1-z), (z-1)/z; orientation is absorbed by taking
    absolute values (the three still sum to pi).
    """
    p0, p1, p2, p3 = points
    z = _cx.edge_cross_ratio(p0, p1, p2, p3)
    vals = (z, 1.0 / (1.0 - z), (z - 1.0) / z)
    a, b, c = (abs(cmath.phase(v)) for v in vals)
    if abs(a + b + c - math.pi) > 1e-9:
        raise ValueError("degenerate tetrahedron")
    return lobachevsky(a) + lobachevsky(b) + lobachevsky(c)


# ---------------------------------------------------------------------------
# Schlafli sweeps


@dataclass
class SchlafliReport:
    eps: list
    residuals: list
    order: float
    schlafli_sum: float
    decoration_shift_change: float

    def order_in(self, lo=1.8, hi=2.2):
        return lo <= self.order <= hi


def _fit_order(eps, resid):
    e = np.asarray(eps, dtype=float)
    r = np.asarray(resid, dtype=float)
    mask = r > 1e-13
    if mask.sum() < 2:
        return 2.0
    return float(np.polyfit(np.log(e[mask]), np.log(r[mask]), 1)[0])


class TetrahedronFamily:
    """One ideal tetrahedron parametrized by two angles, based at
    (alpha, beta) = (1.0, 0.9).

    The chart realization places the vertices at 0, 1, inf and
    z = (sin b / sin c) e^{ia}; lengths use the canonical decoration of
    the chart lift, optionally rescaled per vertex.
    """

    def __init__(self, scales=None):
        self.alpha = 1.0
        self.beta = 0.9
        self.scales = scales
        self.surface0 = self.surface(0.0, (1.0, 0.0))

    @staticmethod
    def _z(alpha, beta):
        gamma = math.pi - alpha - beta
        return (math.sin(beta) / math.sin(gamma)) * cmath.exp(1j * alpha)

    def surface(self, t, dab):
        from .fixtures import ideal_tetrahedron
        a = self.alpha + t * dab[0]
        b = self.beta + t * dab[1]
        return ideal_tetrahedron(self._z(a, b), scales=self.scales)

    def volume(self, t, dab):
        a = self.alpha + t * dab[0]
        b = self.beta + t * dab[1]
        return ideal_tet_volume(AngleTriple(a, b, math.pi - a - b))

    def dtheta(self, dab):
        """Per-edge interior-angle variation matching (dalpha, dbeta)."""
        da, db = dab
        dg = -da - db
        interior = math.pi - self.surface0.dihedral_angles()
        out = np.empty(len(interior))
        gamma = math.pi - self.alpha - self.beta
        for e, th in enumerate(interior):
            if abs(th - self.alpha) < 1e-8:
                out[e] = da
            elif abs(th - self.beta) < 1e-8:
                out[e] = db
            elif abs(th - gamma) < 1e-8:
                out[e] = dg
            else:
                raise ValueError("edge angle matches no family parameter")
        return out


def schlafli_residual_tetrahedron(dab=(1.0, -0.4), scales=None):
    """Central-difference check of dV = -(1/2) sum l_e dtheta_e on the
    one-tetrahedron family; returns the sweep and the convergence order."""
    eps_list = (3e-2, 1e-2, 3e-3, 1e-3)
    fam = TetrahedronFamily(scales)
    dtheta = fam.dtheta(dab)
    lengths = fam.surface0.edge_lengths()
    s_val = -0.5 * float(np.dot(lengths, dtheta))
    resid = []
    for eps in eps_list:
        dv = (fam.volume(eps, dab) - fam.volume(-eps, dab)) / (2 * eps)
        resid.append(abs(dv - s_val))
    shift = _decoration_shift_change(fam.surface0, lengths, dtheta)
    return SchlafliReport(list(eps_list), resid, _fit_order(eps_list, resid),
                          s_val, shift)


def _decoration_shift_change(ps, lengths, dtheta):
    """Change of the Schlafli sum when every decoration is rescaled.

    Rescaling vertex v by s adds s to each incident edge length; under the
    per-vertex zero-sum constraint on dtheta the sum is invariant.
    """
    m = shift_map_matrix(ps.tri).astype(float)
    shifts = np.linspace(0.3, 1.1, ps.tri.n_vertices)
    shifted = lengths + m @ shifts
    s0 = -0.5 * float(np.dot(lengths, dtheta))
    s1 = -0.5 * float(np.dot(shifted, dtheta))
    return abs(s1 - s0)


class SplitOctahedronFamily:
    """The ideal octahedron split into four tetrahedra along a diagonal.

    Chart positions are 0 and inf at the poles and (1, i, -1, -i) on the
    equator; the family moves the first equatorial position by t along the
    complex direction 0.7 + 0.3i.  Volumes sum the four tetrahedra; surface
    angles are read from the octahedron geometry.
    """

    def chart_points(self, t):
        eq = [1.0 + t * (0.7 + 0.3j), 1j, -1.0 + 0j, -1j]
        return eq, 0j, complex(math.inf, 0)

    def volume(self, t):
        eq, top, bot = self.chart_points(t)
        total = 0.0
        for i in range(4):
            total += tet_volume_from_chart([top, bot, eq[i], eq[(i + 1) % 4]])
        return total

    def surface(self, t):
        from .fixtures import octahedron_surface
        eq, top, bot = self.chart_points(t)
        # vertex order of the octahedron fixture: +x,-x,+y,-y,+z,-z
        chart = {4: top, 5: bot, 0: eq[0], 2: eq[1], 1: eq[2], 3: eq[3]}
        geoms = [polysurf.ideal_point(mink.chart_to_null(chart[v]))
                 for v in range(6)]
        return polysurf.PolySurface(octahedron_surface(), geoms, strict=False)

    def interior_angles(self, t):
        return math.pi - self.surface(t).dihedral_angles()

    def dtheta(self):
        """Constraint-projected interior-angle velocity of the family."""
        h = 1e-5
        fd = (self.interior_angles(h) - self.interior_angles(-h)) / (2 * h)
        b_int, q = zero_sum_basis(self.surface(0.0).tri)
        return q @ (q.T @ fd)


def schlafli_residual_split_octahedron():
    """Sweep for the split octahedron: the Schlafli sum uses the surface
    edges only (the splitting diagonal's angle sum stays 2*pi along the
    family, so it drops from every difference)."""
    eps_list = (3e-2, 1e-2, 3e-3)
    fam = SplitOctahedronFamily()
    dtheta = fam.dtheta()
    ps0 = fam.surface(0.0)
    lengths = ps0.edge_lengths()
    s_val = -0.5 * float(np.dot(lengths, dtheta))
    resid = []
    for eps in eps_list:
        dv = (fam.volume(eps) - fam.volume(-eps)) / (2 * eps)
        resid.append(abs(dv - s_val))
    shift = _decoration_shift_change(ps0, lengths, dtheta)
    return SchlafliReport(list(eps_list), resid, _fit_order(eps_list, resid),
                          s_val, shift)


# ---------------------------------------------------------------------------
# the C^{1,1} distance profile


@dataclass
class D13Profile:
    distance: float
    derivative_left: float
    derivative_right: float


def _d13_branch_low(x1, y):
    return math.acosh(math.cosh(x1) * math.cosh(y))


def _d13_deriv(x, y):
    c = math.cosh(x)
    s = math.sinh(y)
    return c * s / math.sqrt(c * c * math.cosh(y) ** 2 - 1.0)


def d13_profile(x0, x1, y):
    """Distance across a folding quadrilateral and its one-sided derivatives.

    For y < 0 the geodesic crosses the crease (distance x0 +
    acosh(cosh x1 cosh y)); for y > 0 it runs straight (distance
    acosh(cosh(x0+x1) cosh y)).  Both one-sided derivatives vanish at
    y = 0 exactly; the second derivative jumps there.
    """
    if x0 <= 0 or x1 <= 0:
        raise ValueError("side lengths must be positive")
    if y < 0:
        dist = x0 + _d13_branch_low(x1, y)
        der = _d13_deriv(x1, y)
        return D13Profile(dist, der, der)
    if y > 0:
        dist = math.acosh(math.cosh(x0 + x1) * math.cosh(y))
        der = _d13_deriv(x0 + x1, y)
        return D13Profile(dist, der, der)
    return D13Profile(x0 + x1, 0.0, 0.0)


def d13_second_jump(x0, x1):
    """Jump of the second derivative of the profile at y = 0.

    d''(0+) = cosh(x0+x1)/sqrt(cosh^2(x0+x1)-1) = coth(x0+x1) and
    d''(0-) = coth(x1); the jump is their difference.
    """
    a = math.cosh(x0 + x1) / math.sqrt(math.cosh(x0 + x1) ** 2 - 1.0)
    b = math.cosh(x1) / math.sqrt(math.cosh(x1) ** 2 - 1.0)
    return a - b
