"""Geometry kernel for the Minkowski model of H^3 and dS^3.

Vectors are numpy arrays of shape (4,) in R^{3,1} with the bilinear form

    <x, y> = x1*y1 + x2*y2 + x3*y3 - x4*y4

(signature +,+,+,-).  H^3 is the upper sheet {<x,x> = -1, x4 > 0}, the de
Sitter space dS^3 is {<x,x> = +1}, and future null rays are the ideal
boundary.  A horosphere is encoded by a future null vector u, the
horosphere being {x in H^3 : <x,u> = -1}; an oriented geodesic plane by a
unit spacelike normal n, the plane being {x in H^3 : <x,n> = 0}.

Length/angle conventions used throughout the package:

* distance of p, q in H^3:  cosh d = -<p,q>;
* decorated length of horospheres u, w:  l = log(-<u,w>/2), which is 0 for
  the symmetric pair (0,0,+-1,1) and gains +t when u is scaled by e^t;
* exterior dihedral angle of planes n1, n2 oriented away from the convex
  side: theta = acos(<n1,n2>), equal to the dS^3 distance of the dual
  points; 0 iff coplanar with equal orientation;
* complex edge length branch: real part >= 0, imaginary part in [0, pi).
  For two spacelike vectors whose planes intersect, the imaginary part is
  acos(<v0,v1>), i.e. the pairing is taken with the vectors as oriented
  (this equals the principal branch of acosh(-<v0,v1>) after re-orienting
  one vector, and matches the exterior-angle convention above).  The mixed
  timelike/spacelike case uses the principal complex acosh.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

TAU_NULL = 1e-9

#: Branch convention stamped into reports that expose complex lengths.
BRANCH_CONVENTION = "re>=0, im in [0,pi); spacelike pairs use acos(<v0,v1>)"

METRIC_DIAG = np.array([1.0, 1.0, 1.0, -1.0])


class GeometryError(ValueError):
    """Raised when an operation's geometric preconditions fail."""


class Causal(enum.Enum):
    TIMELIKE = "timelike"
    SPACELIKE = "spacelike"
    NULL = "null"


def mdot(x, y):
    """Minkowski pairing <x,y> with signature (+,+,+,-)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] \
        + x[..., 2] * y[..., 2] - x[..., 3] * y[..., 3]


def classify(v):
    """Causal type of v, with |<v,v>| compared against TAU_NULL * |v|_euc^2."""
    v = np.asarray(v, dtype=float)
    e2 = float(np.dot(v, v))
    if e2 == 0.0:
        raise GeometryError("degenerate vector")
    q = float(mdot(v, v))
    if abs(q) <= TAU_NULL * e2:
        return Causal.NULL
    return Causal.TIMELIKE if q < 0 else Causal.SPACELIKE


def normalize_timelike(v):
    """Scale v to <v,v> = -1 on the upper sheet (x4 > 0)."""
    v = np.asarray(v, dtype=float)
    q = mdot(v, v)
    if q >= 0:
        raise GeometryError("not a timelike vector")
    v = v / math.sqrt(-q)
    if v[3] < 0:
        v = -v
    return v


def normalize_spacelike(v):
    """Scale v to <v,v> = +1 (orientation preserved)."""
    v = np.asarray(v, dtype=float)
    q = mdot(v, v)
    if q <= 0:
        raise GeometryError("not a spacelike vector")
    return v / math.sqrt(q)


def is_future_null(v):
    v = np.asarray(v, dtype=float)
    return classify(v) is Causal.NULL and v[3] > 0


@dataclass(frozen=True)
class Horosphere:
    """Horosphere {x : <x,u> = -1} for a future null vector u.

    Scaling u by e^t moves the horosphere distance t toward its ideal
    point, so the vector doubles as a decoration parameter.
    """

    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if not is_future_null(u):
            raise GeometryError("horosphere vector must be future null")
        object.__setattr__(self, "u", u)

    def scaled(self, t):
        """Horosphere moved distance t toward the ideal point."""
        return Horosphere(math.exp(t) * self.u)


@dataclass(frozen=True)
class Plane:
    """Oriented geodesic plane {x : <x,n> = 0} with unit spacelike normal."""

    n: np.ndarray

    def __post_init__(self):
        n = normalize_spacelike(np.asarray(self.n, dtype=float))
        object.__setattr__(self, "n", n)


@dataclass(frozen=True)
class SpacelikePlaneDual:
    """Dual of a point of H^3: a totally geodesic spacelike plane in dS^3.

    Carried as the H^3 point itself; the flag keeps dual(dual(x)) typed.
    """

    normal: np.ndarray


def hyp_distance(p, q):
    """Distance in H^3 between normalized points of the upper sheet."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    for x in (p, q):
        if abs(mdot(x, x) + 1.0) > 1e-6 or x[3] <= 0:
            raise GeometryError("expected normalized H^3 points (upper sheet)")
    c = -mdot(p, q)
    if c < 1.0 - 1e-9:
        raise GeometryError("not both in same sheet")
    return math.acosh(max(c, 1.0))


def complex_edge_length(v0, v1):
    """Complex length d with cosh d = -<v0,v1>, branch as in the module doc.

    Both inputs must be unit-normalized (|<v,v>| = 1) and non-proportional.
    Timelike pair (same sheet): real hyperbolic distance.  Spacelike pair:
    real truncated length acosh(-<v0,v1>) when the dual planes are disjoint
    as oriented; i*acos(<v0,v1>) when they intersect (imaginary part equals
    the exterior dihedral angle of the planes as oriented); acosh(<v0,v1>)
    + i*pi when disjoint but anti-oriented.  Null input is rejected.
    """
    v0 = np.asarray(v0, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    c0 = classify(v0)
    c1 = classify(v1)
    if Causal.NULL in (c0, c1):
        raise GeometryError("use decorated_length for ideal endpoints")
    for v in (v0, v1):
        if abs(abs(mdot(v, v)) - 1.0) > 1e-6:
            raise GeometryError("inputs must be unit-normalized")
    cross = np.outer(v0, v1) - np.outer(v1, v0)
    if np.max(np.abs(cross)) < 1e-12 * max(1.0, float(np.dot(v0, v0))):
        raise GeometryError("proportional vectors have no connecting geodesic")
    s = float(mdot(v0, v1))
    if c0 is Causal.TIMELIKE and c1 is Causal.TIMELIKE:
        if v0[3] * v1[3] < 0:
            raise GeometryError("not both in same sheet")
        return complex(math.acosh(max(-s, 1.0)), 0.0)
    if c0 is Causal.SPACELIKE and c1 is Causal.SPACELIKE:
        if s <= -1.0:
            return complex(math.acosh(-s), 0.0)
        if s >= 1.0:
            return complex(math.acosh(s), math.pi)
        return complex(0.0, math.acos(s))
    # Mixed causal pair: principal branch, recorded as a convention choice.
    d = cmath.acosh(complex(-s, 0.0))
    if d.imag < 0:
        d = d.conjugate()
    return d


def decorated_length(u, w):
    """Signed distance between two horospheres along their common geodesic.

    l = log(-<u,w>/2); negative when the horoballs overlap.  Accepts
    Horosphere objects or raw future null vectors.
    """
    uv = u.u if isinstance(u, Horosphere) else np.asarray(u, dtype=float)
    wv = w.u if isinstance(w, Horosphere) else np.asarray(w, dtype=float)
    for x in (uv, wv):
        if not is_future_null(x):
            raise GeometryError("decorated_length needs future null vectors")
    m = -mdot(uv, wv)
    if m <= 1e-14 * uv[3] * wv[3]:
        raise GeometryError("same ideal point")
    return math.log(m / 2.0)


class UltraparallelError(GeometryError):
    """Planes do not intersect; carries their ultraparallel distance."""

    def __init__(self, distance):
        self.distance = distance
        super().__init__(
            "planes do not intersect (ultraparallel distance %.12g)" % distance)


def dihedral_angle_exterior(n1, n2):
    """Exterior dihedral angle acos(<n1,n2>) of two intersecting planes.

    Normals must be oriented away from the convex side; returns the dS^3
    distance between the dual points, in [0, pi).
    """
    a = n1.n if isinstance(n1, Plane) else normalize_spacelike(n1)
    b = n2.n if isinstance(n2, Plane) else normalize_spacelike(n2)
    c = float(mdot(a, b))
    if abs(c) >= 1.0 + 1e-12:
        raise UltraparallelError(math.acosh(abs(c)))
    return math.acos(min(1.0, max(-1.0, c)))


def dual(x):
    """Polar duality between planes of H^3 and points of dS^3.

    Plane -> its unit normal as a dS^3 point (ndarray); spacelike vector ->
    Plane; timelike vector -> SpacelikePlaneDual flag record (the dual is a
    spacelike plane of dS^3).  dual(dual(x)) == x up to normalization.
    """
    if isinstance(x, Plane):
        return x.n.copy()
    if isinstance(x, SpacelikePlaneDual):
        return normalize_timelike(x.normal)
    v = np.asarray(x, dtype=float)
    kind = classify(v)
    if kind is Causal.NULL:
        raise GeometryError("ideal points are self-dual boundary data")
    if kind is Causal.SPACELIKE:
        return Plane(v)
    return SpacelikePlaneDual(normalize_timelike(v))


# ---------------------------------------------------------------------------
# so(3,1) and isometries, used as the trivial-motion oracle.

def so31_basis():
    """The six generators of so(3,1): rotations J12, J13, J23, boosts K1-K3.

    A matrix A is in so(3,1) iff A^T G + G A = 0 for G = diag(1,1,1,-1).
    """
    gens = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        a = np.zeros((4, 4))
        a[i, j] = -1.0
        a[j, i] = 1.0
        gens.append(a)
    for i in range(3):
        a = np.zeros((4, 4))
        a[i, 3] = 1.0
        a[3, i] = 1.0
        gens.append(a)
    return gens


def random_isometry(rng):
    """Random orthochronous element of SO(3,1) via the exponential map of a
    generator combination with N(0, 0.6^2) coefficients."""
    from scipy.linalg import expm

    coeffs = rng.normal(size=6) * 0.6
    a = sum(c * g for c, g in zip(coeffs, so31_basis()))
    return expm(a)


# ---------------------------------------------------------------------------
# Model conversions (used by the cross-model distance oracle in tests and
# by the CP^1 chart in polysurf).

def hyperboloid_to_ball(p):
    """Poincare ball coordinates of an H^3 point."""
    p = np.asarray(p, dtype=float)
    return p[:3] / (1.0 + p[3])


def ball_to_halfspace(b):
    """Cayley map from the Poincare ball to the upper half-space model.

    Sends the ball boundary point (0,0,-1) to infinity; third coordinate of
    the result is the height.
    """
    b = np.asarray(b, dtype=float)
    x, y, z = b
    denom = x * x + y * y + (z + 1.0) ** 2
    if denom < 1e-300:
        raise GeometryError("point maps to infinity in the half-space chart")
    return np.array([2.0 * x / denom,
                     2.0 * y / denom,
                     (1.0 - x * x - y * y - z * z) / denom])


def stereographic_chart(direction):
    """CP^1 chart coordinate of an ideal direction on the unit sphere.

    Stereographic projection from (0,0,-1): rays along (0,0,-1,1) map to the
    point at infinity.
    """
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    if 1.0 + d[2] < 1e-14:
        return complex(math.inf, 0.0)
    return complex(d[0] / (1.0 + d[2]), d[1] / (1.0 + d[2]))


def chart_to_null(z):
    """Future null vector over the chart point z (inverse stereographic).

    The canonical scale is (2 Re z, 2 Im z, 1-|z|^2, 1+|z|^2); with this
    choice <u(z), u(w)> = -2 |z - w|^2 and u(inf) = (0,0,-1,1).
    """
    if z == complex(math.inf, 0.0) or (isinstance(z, complex) and cmath.isinf(z)):
        return np.array([0.0, 0.0, -1.0, 1.0])
    x, y = z.real, z.imag
    r2 = x * x + y * y
    return np.array([2.0 * x, 2.0 * y, 1.0 - r2, 1.0 + r2])
