"""Cross-ratio coordinates of triangulated ideal surfaces.

Each edge of an ideal triangulated surface carries the complex number

    cr = (v_k - v_i)(v_l - v_j) / ((v_k - v_j)(v_l - v_i))

where the edge runs v_i -> v_j and v_k, v_l are the apexes of the faces on
its left and right; the value is Moebius-invariant, symmetric under edge
reversal, and independent of the affine chart.  On convex fixtures the
argument of cr is the interior dihedral angle in (0, pi) (the exterior
complement is reported alongside), and log|cr| is the shear.

At a closed vertex with neighbors in cyclic order, the NEGATED values
c_i = -cr_i satisfy the two polynomial conditions: the full product
c_1 ... c_n is 1 and the telescoping sum c_1 + c_1 c_2 + ... is 0.  The
sign is forced: normalizing the vertex to infinity, the raw product
telescopes to (-1)^n for any geometric star while the negated partial
products reduce to -(v_n - v_1)/(v_{j+1} - v_j), whose sum vanishes
exactly for closed geometric stars of every degree (verified here on
generic fixtures to machine precision).  Condition evaluation therefore
negates; stored values keep the displayed formula so that arg cr stays
the interior angle.  Vertices with a missing edge value are flagged as
boundary vertices.  On the solution locus the telescoping sum vanishes
for every cyclic rotation (S_rotated = S / c_first), and the reported
residual is the max over rotations.

Holonomy along a closed dart loop is computed by developing triangles
across edges: flipping across an edge solves the far apex from cr, and
the return map of the starting triangle is the holonomy class, a 2x2
complex matrix up to sign.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import mink
from .polysurf import IDEAL

TAU_CR = 1e-9


class CrossRatioError(ValueError):
    pass


# ---------------------------------------------------------------------------
# CP^1 points as homogeneous pairs


def to_homog(z):
    if z is None or (isinstance(z, complex) and cmath.isinf(z)) or z == math.inf:
        return np.array([1.0 + 0j, 0.0 + 0j])
    return np.array([complex(z), 1.0 + 0j])


def from_homog(p):
    if abs(p[1]) < 1e-300 * abs(p[0]):
        return complex(math.inf, 0.0)
    return p[0] / p[1]


def _det(a, b):
    return a[0] * b[1] - a[1] * b[0]


def edge_cross_ratio(vi, vj, vk, vl):
    """The displayed cross-ratio for an edge vi->vj with left apex vk and
    right apex vl; inputs are chart values (inf allowed) or homogeneous
    pairs.  Coincident points are rejected."""
    pts = [p if isinstance(p, np.ndarray) else to_homog(p)
           for p in (vi, vj, vk, vl)]
    for a in range(4):
        for b in range(a + 1, 4):
            if abs(_det(pts[a], pts[b])) < 1e-14 * (
                    np.linalg.norm(pts[a]) * np.linalg.norm(pts[b])):
                raise CrossRatioError("coincident points")
    i, j, k, l = pts
    num = _det(k, i) * _det(l, j)
    den = _det(k, j) * _det(l, i)
    return num / den


# ---------------------------------------------------------------------------
# assignments


def _within(z, w, tol):
    """|z - w| < tol, without the OverflowError that abs() raises on a
    complex number near the float limit: the modulus is taken only when
    both parts are already below tol."""
    d = z - w
    return abs(d.real) < tol and abs(d.imag) < tol and abs(d) < tol


@dataclass
class CrossRatioAssignment:
    """Per-edge cross-ratios over a quasi-simplicial surface.

    ``values`` may contain None for missing edges (open data).
    """

    surface: object
    values: list

    def __post_init__(self):
        if len(self.values) != self.surface.n_edges:
            raise CrossRatioError("one value per edge required")
        if not self.surface.is_quasi_simplicial():
            raise CrossRatioError("cross-ratios need a triangulated surface")
        for v in self.values:
            if v is None:
                continue
            if _within(v, 0.0, 1e-13) or _within(v, 1.0, 1e-13):
                raise CrossRatioError("degenerate cross-ratio (0 or 1)")

    def cr_array(self):
        return np.array([complex("nan") if v is None else v
                         for v in self.values])


def chart_positions(ps):
    """CP^1 chart coordinates of the ideal vertices of a surface."""
    if ps.kind != IDEAL:
        raise CrossRatioError("chart positions need an ideal surface")
    out = []
    for u in ps.vectors:
        out.append(mink.stereographic_chart(u[:3]))
    return out


def from_ideal_surface(ps):
    """Cross-ratio assignment of an ideal triangulated surface.

    Left/right apexes are read from the half-edge structure: the face of a
    dart lies on its left.
    """
    pos = [to_homog(z) for z in chart_positions(ps)]
    s = ps.tri
    vals = []
    for e in range(s.n_edges):
        d, t = 2 * e, 2 * e + 1
        vi, vj = s.tail(d), s.head(d)
        vk = s.tail(int(s.fprev[d]))
        vl = s.tail(int(s.fprev[t]))
        vals.append(edge_cross_ratio(pos[vi], pos[vj], pos[vk], pos[vl]))
    return CrossRatioAssignment(s, vals)


def serialize_cr(assignment):
    lines = ["# cr v1"]
    for e, v in enumerate(assignment.values):
        if v is not None:
            lines.append("cr %d %.17g %.17g" % (e, v.real, v.imag))
    return "\n".join(lines) + "\n"


def parse_cr(surface, text):
    vals = [None] * surface.n_edges
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "cr" or len(parts) != 4:
            raise CrossRatioError("line %d: bad cr record" % ln)
        try:
            e = int(parts[1])
        except ValueError:
            raise CrossRatioError(
                "line %d: bad edge id %r" % (ln, parts[1])) from None
        if not 0 <= e < surface.n_edges:
            raise CrossRatioError("line %d: edge %d out of range 0..%d"
                                  % (ln, e, surface.n_edges - 1))
        if vals[e] is not None:
            raise CrossRatioError("line %d: duplicate edge %d" % (ln, e))
        try:
            z = complex(float(parts[2]), float(parts[3]))
        except ValueError:
            raise CrossRatioError("line %d: bad cross-ratio %s %s"
                                  % (ln, parts[2], parts[3])) from None
        if not cmath.isfinite(z):
            raise CrossRatioError("line %d: non-finite cross-ratio" % ln)
        vals[e] = z
    return CrossRatioAssignment(surface, vals)


# ---------------------------------------------------------------------------
# vertex conditions


@dataclass
class VertexConditionReport:
    per_vertex: list    # dicts: vertex, status, product_residual, sum_residual

    @property
    def passed(self):
        ok = [r for r in self.per_vertex if r["status"] == "checked"]
        flagged = [r for r in self.per_vertex if r["status"] == "boundary vertex"]
        if flagged:
            return False
        return all(r["product_residual"] <= TAU_CR
                   and r["sum_residual"] <= TAU_CR for r in ok)

    def max_residuals(self):
        ok = [r for r in self.per_vertex if r["status"] == "checked"]
        if not ok:
            return (math.nan, math.nan)
        return (max(r["product_residual"] for r in ok),
                max(r["sum_residual"] for r in ok))


def vertex_conditions(assignment):
    """Residuals of the two polynomial conditions at every closed vertex.

    Both conditions are evaluated on the negated values (see the module
    docstring) by :func:`_condition_residuals` over the padded vertex stars:
    the product residual from the star as stored, the telescoping-sum
    residual as the max over its cyclic rotations.  Padding is neutral in
    products and masked in sums, so the rolls of a padded star by every
    offset below its width give each rotation (a roll past the degree
    repeats the stored one).  Vertices missing an edge value (NaN in
    ``cr_array``) are reported with status "boundary vertex" and fail the
    report.
    """
    cr = assignment.cr_array()
    edges, mask = _star_arrays(assignment.surface)
    nv, width = edges.shape
    # row r of turns rolls a padded star left by r
    turns = (np.arange(width)[:, None] + np.arange(width)) % width
    res = _condition_residuals(cr, edges[:, turns].reshape(-1, width),
                               mask[:, turns].reshape(-1, width))
    res = np.abs(res).reshape(nv, width, 2)
    product, telescoping = res[:, 0, 0], res[:, :, 1].max(axis=1)
    boundary = (np.isnan(cr[edges]) & mask).any(axis=1)
    return VertexConditionReport([
        {"vertex": v, "status": "boundary vertex" if flagged else "checked",
         "product_residual": math.nan if flagged else float(p),
         "sum_residual": math.nan if flagged else float(t)}
        for v, (flagged, p, t) in enumerate(zip(boundary, product,
                                                telescoping))])


def shear_angle_split(assignment):
    """Per-edge (shear, angle) = (log|cr|, arg cr), plus the exterior
    complement pi - angle; the angle convention is interior-on-convex."""
    out = []
    for v in assignment.values:
        if v is None:
            out.append(None)
        else:
            out.append((math.log(abs(v)), cmath.phase(v),
                        math.pi - cmath.phase(v)))
    return out


# ---------------------------------------------------------------------------
# holonomy by developing


def _map_to_standard(p, q, r):
    """Matrix sending hom points p, q, r to 0, 1, inf."""
    lam = 1.0 / _det(q, p)
    mu = 1.0 / _det(q, r)
    return np.array([[p[1] * lam, -p[0] * lam],
                     [r[1] * mu, -r[0] * mu]], dtype=complex)


def _solve_apex(cr, pi_, pj_, pk_):
    """Far apex of the flip across edge (i,j) with near apex k."""
    b = cr * _det(pk_, pj_) / _det(pk_, pi_)
    return np.array([pj_[0] - b * pi_[0], pj_[1] - b * pi_[1]])


def holonomy_loop(assignment, darts):
    """Developing-map holonomy along a closed dart loop (matrix up to sign).

    The base triangle is the left face of the first dart, planted at
    (0, 1, inf); triangles are flipped across edges using the cr-determined
    apex solve while pivoting around each loop vertex; the holonomy is the
    Moebius map carrying the base triangle to its developed return copy.
    """
    s = assignment.surface
    darts = list(darts)
    if not darts:
        raise CrossRatioError("empty loop")
    for d, dn in zip(darts, darts[1:] + darts[:1]):
        if s.head(d) != s.tail(dn):
            raise CrossRatioError("open path (darts not head-to-tail)")

    def cr_of(e):
        v = assignment.values[e]
        if v is None:
            raise CrossRatioError("missing cross-ratio on edge %d" % e)
        return v

    # current dart d with positions of (tail, head, left apex)
    p_tail = to_homog(0.0)
    p_head = to_homog(1.0)
    p_apex = to_homog(None)
    init = (p_tail.copy(), p_head.copy(), p_apex.copy())
    for idx in range(len(darts)):
        d = darts[idx]
        d_next = darts[(idx + 1) % len(darts)]
        # pivot around w = head(d): dart t runs from w inside face(d); the
        # star of w is one vnext cycle holding d_next, so the pivot reaches it
        t = int(s.fnext[d])
        q_tail, q_head, q_apex = p_head, p_apex, p_tail
        while t != d_next:
            # flip across edge(t): triangle becomes (w, far apex, head(t))
            far = _solve_apex(cr_of(t // 2), q_tail, q_head, q_apex)
            t = s.vnext(t)
            q_tail, q_head, q_apex = q_tail, far, q_head
        p_tail, p_head, p_apex = q_tail, q_head, q_apex
    m = np.linalg.solve(_map_to_standard(p_tail, p_head, p_apex),
                        _map_to_standard(*init))
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return m / cmath.sqrt(det)


def holonomy_trace(assignment, darts):
    """|trace| of the loop holonomy (well-defined despite the sign)."""
    return abs(np.trace(holonomy_loop(assignment, darts)))


def identity_residual(m):
    """Distance of a det-1 matrix from +-identity."""
    eye = np.eye(2)
    return float(min(np.max(np.abs(m - eye)), np.max(np.abs(m + eye))))


def vertex_loop_darts(surface, v):
    """The link cycle around v as a closed dart path."""
    star = surface.vertex_star(v)
    return [int(surface.fnext[d]) for d in star][::-1]


# ---------------------------------------------------------------------------
# synthetic solutions of the vertex conditions


@dataclass
class NewtonResult:
    assignment: object
    converged: bool
    residual: float
    iterations: int
    seed: int


def _star_arrays(surface):
    """The vertex stars as a padded (V x max degree) array of edge ids in
    rotation order, with the mask of the entries that are real."""
    stars = [surface.vertex_star(v) for v in range(surface.n_vertices)]
    edges = np.zeros((len(stars), max(map(len, stars))), dtype=int)
    mask = np.zeros(edges.shape, dtype=bool)
    for v, star in enumerate(stars):
        edges[v, :len(star)] = [d // 2 for d in star]
        mask[v, :len(star)] = True
    return edges, mask


def _condition_residuals(cr, edges, mask):
    """The 2V complex residuals (P_v - 1, S_v per vertex, in vertex order) of
    the product and telescoping-sum conditions on the negated values."""
    partial = np.cumprod(np.where(mask, -cr[edges], 1.0), axis=1)
    res = np.empty(2 * len(edges), dtype=complex)
    res[0::2] = partial[:, -1] - 1.0
    res[1::2] = np.where(mask, partial, 0.0).sum(axis=1)
    return res


def _condition_jacobian(cr, edges, mask):
    """Exact complex 2V x E Jacobian of :func:`_condition_residuals`.

    At star position k, dP/dc_k is the product of the other factors, and
    dS/dc_k is the prefix product before k times one plus the telescoping
    sum after k.  Both come from one pass each way over the star positions,
    without division, so a factor near zero leaves them finite.  The chain
    rule through c = -cr negates, and an edge met twice in a star adds up.
    """
    c = np.where(mask, -cr[edges], 1.0)     # padding is neutral in products
    c0 = np.where(mask, c, 0.0)             # and in the telescoping sums
    nv, width = c.shape
    prefix = np.ones_like(c)
    suffix = np.ones_like(c)
    after = np.zeros_like(c)    # telescoping sum of the factors after k
    for k in range(1, width):
        prefix[:, k] = prefix[:, k - 1] * c[:, k - 1]
    for k in range(width - 2, -1, -1):
        suffix[:, k] = suffix[:, k + 1] * c[:, k + 1]
        after[:, k] = c0[:, k + 1] * (1.0 + after[:, k + 1])
    rows = np.broadcast_to(2 * np.arange(nv)[:, None], c.shape)[mask]
    cols = edges[mask]
    jac = np.zeros((2 * nv, len(cr)), dtype=complex)
    np.add.at(jac, (rows, cols), -(prefix * suffix)[mask])
    np.add.at(jac, (rows + 1, cols), -(prefix * (1.0 + after))[mask])
    return jac


def solve_vertex_conditions(surface, seed=0, spread=0.08, max_iter=200):
    """Damped Gauss-Newton solve of the vertex conditions from a seeded
    start near the symmetric point cr = i (a solution when every vertex
    degree is divisible by 4, as on the coned-octagon fixture).

    ``spread`` scales the random log-modulus (shear) of the start; larger
    spreads reach solutions with hyperbolic holonomy.  Each step solves the
    least-squares system of the exact Jacobian (both conditions are
    holomorphic in the cross-ratios, so it is the closed-form complex
    Jacobian in real block form) and halves the step up to 40 times until
    the residual norm drops; a trial point whose residual is not finite, or
    has an entry no smaller than the current norm, is rejected before its
    norm is taken.  The stopping rule is unchanged from the finite-difference
    solver: the iteration stops once every residual is below 1e-12, or after
    ``max_iter`` steps, and converged means below 1e-10.  Non-convergence is
    reported in the result, never retried silently.
    """
    rng = np.random.default_rng(seed)
    ne = surface.n_edges
    cr = 1j * np.exp(spread * rng.normal(size=ne)
                     + 0.05j * rng.normal(size=ne))
    edges, mask = _star_arrays(surface)

    def real_residual(x):
        r = _condition_residuals(x[:ne] + 1j * x[ne:], edges, mask)
        return np.concatenate([r.real, r.imag])

    x = np.concatenate([cr.real, cr.imag])
    r = real_residual(x)
    it = 0
    for it in range(1, max_iter + 1):
        if np.linalg.norm(r, np.inf) < 1e-12:
            break
        j = _condition_jacobian(x[:ne] + 1j * x[ne:], edges, mask)
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
    return NewtonResult(
        assignment=CrossRatioAssignment(surface, values),
        converged=bool(np.linalg.norm(r, np.inf) < 1e-10),
        residual=float(np.linalg.norm(r, np.inf)),
        iterations=it,
        seed=seed)
