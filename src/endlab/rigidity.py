"""Infinitesimal rigidity operators of polyhedral surfaces.

Two adjoint pairs are assembled over explicit bases.

Compact/hyperideal surfaces: the length-variation operator maps a tangent
vector Z_v at each vertex to the first-order variation of every edge
length, row e being <u_{e-,e}, Z_{e-}> + <u_{e+,e}, Z_{e+}> for the unit
link tangents u.  The angle-motion operator maps edge weight variations
t_e to the per-vertex closing vectors (sum of t_e u_{v,e} over edges at
v); with the vertex frames' metric signs it is the adjoint of the former,
and its kernel describes angle variations realizable by deformations that
keep all edge lengths.

Ideal surfaces with decorations: a first-order motion of a decorated
vertex is an affine function on its horosphere chart; dropping the
constant (a decoration shift) leaves a parallel 1-form, two numbers per
vertex.  The decorated-length variation operator evaluates these 1-forms
at the link points of each edge and projects to the quotient of R^E by
per-vertex shifts, realized concretely as the orthogonal complement of
the shift map's image - which is exactly the space of edge weights with
zero sum at every vertex.  The ideal angle-variation operator goes the
other way, from that constraint space to the per-vertex chart vectors
(sum of t_e xi_{v,e}), and is the adjoint.  The constraint space carries
an exact integer basis (kept alongside the orthonormal one) so the
per-vertex zero-sum condition holds with no rounding at all.

That integer basis is the rational null space of M^T (M the shift map)
in reduced row echelon form, each column scaled by the lcm of its
denominators, built combinatorially instead of by exact elimination.  The
columns of M^T are the unsigned incidence vectors of the edges, and a set
of them is independent exactly when every component of its edge graph
holds at most one cycle and that cycle is odd (a loop counts as odd).
RREF pivots are chosen greedily in column order, so the pivot edges are
the edges a greedy pass in id order keeps under that rule, and the null
vector of a free edge f is the unique solution with x_f = 1, the other
free edges 0: the kept edges form trees on one odd cycle each, and are
solved leaves first, then round each cycle from the alternating sum of
its vertex residuals.  Its entries lie in (1/2)Z, so solving with
x_f = 2 in integers and dividing by the column's gcd gives the
lcm-scaled column exactly.

Both operators of a pair are read off one link-row matrix A, the link
coordinates of every dart accumulated into the rows of its tail vertex:
M = A and L = (G A)^T on compact/hyperideal surfaces (G the diagonal
frame metric), L = q^T A^T and M = A q on ideal ones (q the orthonormal
zero-sum basis).  Adjointness is still reported as one matrix identity:
<L z, t> - <z, M t>_G = z^T (L^T - G M) t, so the Frobenius norm of
L^T - G M bounds the pairing defect over every pair (z, t) at once.  It
holds exactly by construction on compact/hyperideal surfaces and up to
the rounding of the q products on ideal ones, so it guards the
assembly; the finite-difference tests of the length operators against
edge_lengths() are the independent check of the geometry.  Nothing here
is random: the ``--seed`` of ``endlab rigidity`` is echoed in the report,
and nothing is drawn from it.

The trivial-motion oracle evaluates the six generators of so(3,1) at the
vertex data; on convex fixtures these span the kernels of the length
operators, which is the finite-polyhedron analogue of projective
rigidity.  The verdict reads the singular values of the length operator
from one Gram matrix: on compact/hyperideal surfaces L L^T = A^T A
(G^2 = 1), which is scattered from the link coordinates over the pairs of
darts that share a tail vertex, and on ideal ones it is L L^T.  Its
eigenvalues are the squared singular values, so the Gram squares the
condition number (Golub & Van Loan, Matrix Computations, 5.3); the
spectrum is taken from it only when the smallest singular value is at
least GRAM_MIN_SIGMA = 1e-4 times the largest, four orders above
TAU_RANK, and otherwise from one full SVD, which then also gives the
kernel basis.  A rank near the threshold is never decided from squared
data.  When the certified kernel is exactly as large as the trivial
motions and the operator has full row rank (every rigid closed
polyhedron), the reported kernel basis is the trivial-motion basis
itself, which no LAPACK build can change, and its distance from the
kernel is the row-space part of its columns, from one solve with the same
Gram matrix.  Any other kernel comes from the right singular vectors of a
full SVD.  (Closed equivariant surfaces of genus g >= 2 in ends have no
global isometries and their ideal angle-variation kernels have dimension
6g-6; finite polyhedra carry the 6 global motions instead, and only the
algebraic identities and the polyhedral kernel counts are checked here.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
# unused here: imported only because the benchmark's traced run reads
# sympy's import time (bench/layers.py)
import sympy  # noqa: F401

from . import mink
# pak_report stays bound here although the verdict batches its decorations:
# bench/test_bench.py checks that the span tracer wraps it at this binding
from .decor import batch_report, pak_report  # noqa: F401
from .mink import mdot
from .polysurf import IDEAL

TAU_RANK = 1e-8
MIN_GAP = 10.0
#: smallest sigma / sigma_max for which the spectrum is read off the Gram
GRAM_MIN_SIGMA = 1e-4


class IndeterminateRankError(ValueError):
    """Spectral gap too small to certify a kernel dimension."""

    def __init__(self, spectrum, gap):
        self.spectrum = np.asarray(spectrum)
        self.gap = gap
        super().__init__("indeterminate rank; spectrum attached")


@dataclass
class OperatorBundle:
    """A matrix with spectral bookkeeping.

    ``codomain_metric`` holds the diagonal signs of the codomain pairing
    (the hyperideal tangent frames are Lorentzian); ``int_basis``, when
    present, is an exact integer basis of the zero-sum space realized
    inside R^E (columns of ``embedding`` give the orthonormal basis
    actually used for coordinates); ``meta`` holds the raw link rows of
    the decorated length operator; ``gram`` is the Gram matrix of the
    rows, L L^T, when the builder has it more cheaply than the product
    (it is formed on first use otherwise).

    The singular values are computed on first use, as the square roots of
    the eigenvalues of the Gram matrix of the smaller side (``eigvalsh``,
    no vectors), in descending order.  When the smallest of them is under
    GRAM_MIN_SIGMA times the largest, they come instead from one full SVD,
    whose right singular vectors then serve :meth:`kernel_basis`; on the
    Gram route a full SVD runs only if :meth:`kernel_basis` is called.
    """

    matrix: np.ndarray
    codomain_metric: np.ndarray = None
    embedding: np.ndarray = None
    int_basis: np.ndarray = None
    meta: dict = field(default_factory=dict)
    gram: np.ndarray = None

    def __post_init__(self):
        self.matrix = m = np.asarray(self.matrix, dtype=float)
        if self.codomain_metric is None:
            self.codomain_metric = np.ones(m.shape[0])

    def _row_gram(self):
        if self.gram is None:
            self.gram = self.matrix @ self.matrix.T
        return self.gram

    @cached_property
    def _factors(self):
        """(singular values, V^T of a full SVD or None on the Gram route)."""
        m = self.matrix
        g = self._row_gram() if m.shape[0] <= m.shape[1] else m.T @ m
        s = np.sqrt(np.maximum(np.linalg.eigvalsh(g)[::-1], 0.0))
        if len(s) and s[0] > 0 and s[-1] >= GRAM_MIN_SIGMA * s[0]:
            return s, None
        _, s, vt = np.linalg.svd(m)
        return s, vt

    @property
    def singular_values(self):
        return self._factors[0]

    @cached_property
    def _vt(self):
        vt = self._factors[1]
        return np.linalg.svd(self.matrix)[2] if vt is None else vt

    def _rank(self, tau_rank):
        """Number of singular values above tau_rank * sigma_max."""
        s = self.singular_values
        smax = s[0] if len(s) else 0.0
        return int(np.sum(s > tau_rank * smax)) if smax > 0 else 0

    def kernel_basis(self, tau_rank=TAU_RANK):
        return self._vt[self._rank(tau_rank):].T

    def row_space_residual(self, x):
        """Frobenius norm of the row-space part L^T (L L^T)^-1 L x of the
        columns of x, by one solve with the Gram matrix L L^T (the one
        the spectrum was read from, when it was).  For a
        matrix of full row rank this is the exact distance of x from the
        kernel, ||x - K K^T x||_F for an orthonormal kernel basis K."""
        m = self.matrix
        y = np.linalg.solve(self._row_gram(), m @ x)
        return float(np.linalg.norm(m.T @ y))

    def rank_profile(self, tau_rank=TAU_RANK):
        """(rank, kernel dim, spectral gap) under the tolerance."""
        s = self.singular_values
        n = self.matrix.shape[1]
        rank = self._rank(tau_rank)
        if rank >= len(s) or rank == 0:
            gap = math.inf
        else:
            below = s[rank]
            gap = math.inf if below == 0.0 else s[rank - 1] / below
        return rank, n - rank, gap


def kernel_dimension(bundle, tau_rank=TAU_RANK):
    """Certified kernel dimension: singular values below tau * sigma_max.

    Raises IndeterminateRankError (spectrum attached) when the gap between
    kept and dropped singular values is under MIN_GAP.
    """
    rank, dim, gap = bundle.rank_profile(tau_rank)
    if gap < MIN_GAP:
        raise IndeterminateRankError(bundle.singular_values, gap)
    return dim, gap


# ---------------------------------------------------------------------------
# compact / hyperideal pair


def length_variation_operator(ps):
    """Pairing of vertex motions with the link tangents, edge by edge.

    Row e applied to Z gives <u_{e-,e}, Z_{e-}> + <u_{e+,e}, Z_{e+}> with
    the unit tangents pointing along the edge toward the far endpoint;
    since moving a vertex toward its neighbor shortens the edge, this is
    the NEGATIVE of the first-order length variation.  Its kernel (the
    length-preserving motions) and the adjointness with the angle-motion
    operator are insensitive to that overall sign.
    """
    if ps.kind == IDEAL:
        raise ValueError("use decorated_length_variation_operator for ideal")
    metric = ps.links().signs.reshape(-1).astype(float)
    # G A pairs each link tangent with the frame rows; adding 0.0 clears
    # the -0.0 that negative signs put on the zeros of A
    mat = (metric[:, None] * _link_rows(ps)).T + 0.0
    return OperatorBundle(mat, gram=_link_gram(ps))


def angle_motion_operator(ps):
    """Closing vectors of edge-weight variations: for each vertex the sum
    of t_e u_{v,e}, in frame coordinates.  Adjoint to the length-variation
    operator under the frame metric; its kernel is the space of angle
    variations realizable by deformations preserving all edge lengths."""
    if ps.kind == IDEAL:
        raise ValueError("use ideal_angle_variation_operator for ideal")
    metric = ps.links().signs.reshape(-1).astype(float)
    return OperatorBundle(_link_rows(ps), codomain_metric=metric)


# ---------------------------------------------------------------------------
# ideal pair and the shift quotient


def shift_map_matrix(surface):
    """Integer matrix of the per-vertex shift map into edge weights.

    Column v is the indicator of edges at v (2 for loops); its transpose's
    kernel is the zero-sum constraint space.
    """
    m = np.zeros((surface.n_edges, surface.n_vertices), dtype=int)
    for e, (u, v) in enumerate(surface.edges):
        m[e, u] += 1
        m[e, v] += 1
    return m


def _independent_edges(surface):
    """The pivot edges of the RREF of M^T: in id order, each edge that
    keeps every component at most one cycle, an odd one.  A union-find
    holds each vertex's path parity to its root and, per root, whether the
    component already has its odd cycle."""
    parent = list(range(surface.n_vertices))
    parity = [0] * surface.n_vertices  # parity of the path to parent[v]
    odd = [False] * surface.n_vertices

    def find(v):
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        p = 0
        for u in reversed(path):
            p ^= parity[u]
            parent[u], parity[u] = v, p
        return v, p

    kept = []
    for e, (u, v) in enumerate(surface.edges):
        (ru, pu), (rv, pv) = find(u), find(v)
        if ru != rv:
            if odd[ru] and odd[rv]:
                continue
            parent[rv], parity[rv] = ru, pu ^ pv ^ 1
            odd[ru] = odd[ru] or odd[rv]
        elif pu != pv or odd[ru]:  # an even cycle, or a second odd one
            continue
        else:
            odd[ru] = True
        kept.append(e)
    return kept


def _peel_order(edges, kept, n_vertices):
    """Solve order of the kept edges, whose components each hold one odd
    cycle: leaf steps (v, e, w), edge e leaving leaf v for w, then each
    cycle as (vertices v_0..v_{L-1}, edges e_0..e_{L-1}), e_i joining v_i
    to v_{i+1 mod L}."""
    incident = [[] for _ in range(n_vertices)]
    for e in kept:
        for v in edges[e]:
            incident[v].append(e)  # twice for a loop
    deg = [len(es) for es in incident]
    alive = dict.fromkeys(kept, True)
    leaves = [v for v in range(n_vertices) if deg[v] == 1]
    steps = []
    while leaves:
        v = leaves.pop()
        e = next(f for f in incident[v] if alive[f])
        alive[e] = False
        a, b = edges[e]
        w = b if a == v else a
        steps.append((v, e, w))
        deg[v] -= 1
        deg[w] -= 1
        if deg[w] == 1:
            leaves.append(w)
    cycles = []
    for e0 in kept:
        if not alive[e0]:
            continue
        verts, cyc = [], []
        v, e = edges[e0][0], e0
        while alive[e]:
            alive[e] = False
            verts.append(v)
            cyc.append(e)
            a, b = edges[e]
            v = b if a == v else a
            e = next((f for f in incident[v] if alive[f]), e)
        cycles.append((verts, cyc))
    return steps, cycles


def zero_sum_basis(surface):
    """(integer basis, orthonormal basis) of the per-vertex zero-sum space.

    The integer columns are the lcm-scaled RREF null basis of M^T (see the
    module docstring), one per edge outside :func:`_independent_edges`, in
    edge order; they satisfy the constraints exactly in floating point.
    The shift map is checked injective (fails only for bipartite graphs,
    which triangulation skeletons never are).
    """
    edges, ne = surface.edges, surface.n_edges
    kept = _independent_edges(surface)
    if len(kept) != surface.n_vertices:
        raise ValueError("per-vertex shift map is not injective")
    steps, cycles = _peel_order(edges, kept, surface.n_vertices)
    free = np.setdiff1d(np.arange(ne), kept)
    x = np.zeros((len(free), ne), dtype=np.int64)
    x[np.arange(len(free)), free] = 2
    # r[:, v]: what the unsolved kept edges at v must still sum to
    r = -2 * shift_map_matrix(surface)[free]
    for v, e, w in steps:
        x[:, e] = r[:, v]
        r[:, w] -= r[:, v]
    for verts, cyc in cycles:
        # round an odd cycle the alternating sum of the residuals at its
        # vertices counts the last edge twice and every other edge not at all
        alternating = 1 - 2 * (np.arange(len(verts)) % 2)
        prev = x[:, cyc[-1]] = (r[:, verts] @ alternating) // 2
        for v, e in zip(verts[:-1], cyc[:-1]):
            prev = x[:, e] = r[:, v] - prev
    x //= np.gcd.reduce(x, axis=1)[:, None]
    b_int = np.array(x, dtype=float).T
    q, _ = np.linalg.qr(b_int)
    return b_int, q


def _link_rows(ps):
    """Link coordinates accumulated by tail vertex: the (k|V|) x |E| matrix
    whose column e holds coords[d] in the k rows of tail(d), for both darts
    d of e (k = 3 frame coordinates, or 2 chart coordinates if ideal)."""
    links = ps.links()
    nv, k = links.signs.shape
    rows = k * ps.tri.dart_tail[:, None] + np.arange(k)
    edges = np.arange(ps.tri.n_darts)[:, None] // 2
    a = np.zeros((k * nv, ps.tri.n_edges))
    np.add.at(a, (rows, edges), links.coords)
    return a


def _link_gram(ps):
    """A^T A for the link-row matrix A of :func:`_link_rows`, scattered over
    the pairs of darts with a common tail: entry (e, f) sums <coords[d],
    coords[d']> over the darts d of e and d' of f with tail(d) = tail(d')
    (sum of deg(v)^2 pairs instead of a dense product)."""
    coords = ps.links().coords
    tail = ps.tri.dart_tail
    order = np.argsort(tail, kind="stable")  # darts grouped by tail
    deg = np.bincount(tail, minlength=ps.tri.n_vertices)
    reps = deg[tail[order]]  # each dart pairs with every dart of its star
    left = np.repeat(order, reps)
    slot = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    first = np.cumsum(deg) - deg
    right = order[np.repeat(first[tail[order]], reps) + slot]
    gram = np.zeros((ps.tri.n_edges, ps.tri.n_edges))
    np.add.at(gram, (left // 2, right // 2),
              np.vecdot(coords[left], coords[right]))
    return gram


def decorated_length_variation_operator(ps, basis=None):
    """Per-vertex parallel 1-forms to decorated-length variations, in the
    zero-sum realization of the shift quotient.

    Columns: two 1-form coefficients per vertex (the chart differentials);
    rows: coordinates in the orthonormal zero-sum basis.  The exact integer
    basis is kept on the bundle for constraint-exact tests.  ``basis`` is
    the (integer, orthonormal) pair of :func:`zero_sum_basis`, computed
    here when not given.
    """
    if ps.kind != IDEAL:
        raise ValueError("ideal surfaces only")
    b_int, q = zero_sum_basis(ps.tri) if basis is None else basis
    raw = _link_rows(ps).T
    mat = q.T @ raw
    return OperatorBundle(mat, embedding=q, int_basis=b_int,
                          meta={"raw_rows": raw})


def ideal_angle_variation_operator(ps, basis=None):
    """Zero-sum edge weight variations to per-vertex chart vectors.

    The domain constraint (weights at each vertex sum to zero) makes the
    chart sums translation-invariant, hence honest parallel vectors.
    Adjoint to the decorated-length variation operator; ``basis`` as there.
    """
    if ps.kind != IDEAL:
        raise ValueError("ideal surfaces only")
    b_int, q = zero_sum_basis(ps.tri) if basis is None else basis
    mat = _link_rows(ps) @ q
    return OperatorBundle(mat, embedding=q, int_basis=b_int)


# ---------------------------------------------------------------------------
# trivial-motion oracle


def trivial_motion_basis(ps):
    """Coordinates of the six so(3,1) generators in the operator domain.

    Compact/hyperideal: Killing fields evaluated at the vertices, in frame
    coordinates.  Ideal: the induced parallel 1-forms on the horosphere
    charts (the normal displacement of a horosphere under the motion u' =
    A u is the affine function p -> -<p, A u>).  Returns an orthonormal
    matrix whose columns span the trivial motions.
    """
    links = ps.links()
    k = links.signs.shape[1]
    # the motion of each vertex, in frame coordinates; an ideal vertex
    # sees the normal displacement -<p, A u> of its horosphere
    sign = -1 if ps.kind == IDEAL else links.signs
    cols = [(sign * mdot((ps.vectors @ gen.T)[:, None, :],
                         links.frames[:, :k])).reshape(-1)
            for gen in mink.so31_basis()]
    basis = np.array(cols).T
    qb, r = np.linalg.qr(basis)
    keep = np.abs(np.diag(r)) > 1e-10 * max(1.0, np.max(np.abs(r)))
    return qb[:, keep]


def adjointness_residual(lop, mop):
    """Frobenius norm of L^T - G M for a length operator L and its angle
    operator M, G the frame metric on the domain of L.

    It bounds |<L z, t> - <z, M t>_G| / (|z| |t|) over all pairs (z, t).
    """
    gm = mop.codomain_metric[:, None] * mop.matrix
    np.subtract(lop.matrix.T, gm, out=gm)
    return float(np.linalg.norm(gm))


# ---------------------------------------------------------------------------
# kernel vectors as deformations, and the rigidity verdict


def kernel_vector_as_deformation(ps, op, coords):
    """Convert kernel coordinates of the length operator ``op`` of ``ps``
    into deformation data consumable by decoration_from_deformation."""
    if ps.kind == IDEAL:
        # choose decoration-shift constants so the raw length variation
        # vanishes, not only its quotient class
        delta = op.meta["raw_rows"] @ coords
        m = shift_map_matrix(ps.tri).astype(float)
        a, *_ = np.linalg.lstsq(m, delta, rcond=None)
        return list(zip(np.reshape(coords, (-1, 2)), -a))
    c = np.asarray(coords, dtype=float).reshape(-1, 3, 1)
    return (c * ps.links().frames).sum(axis=1)


@dataclass
class RigidityVerdict:
    kernel_dim: int
    gap: float
    trivial_dim: int
    residual_dim: int
    trivial_match_residual: float
    adjointness: float
    decorations: list
    spectrum: np.ndarray
    notes: list


def projective_rigidity_verdict(ps, tau_rank=TAU_RANK):
    """Kernel of the length-variation operator vs the trivial motions.

    Residual dimension 0 on convex fixtures is the finite analogue of
    rigidity within a fixed end; each kernel basis vector also reports the
    induced edge decoration and its component counting, all vectors in one
    :func:`~endlab.decor.batch_report`.  Each operator of the adjoint pair
    is assembled once, over one zero-sum basis on ideal surfaces; the angle
    operator serves only the adjointness check, which runs first so that
    its memory is released before the factorisation.  Only the length
    operator is factored: one ``eigvalsh`` of its Gram matrix, and one full
    SVD only when the Gram is too ill-conditioned to decide the rank or
    the kernel basis is needed.  When the kernel is as large as the
    trivial motions and the length operator has full row rank, the kernel
    basis reported is the trivial-motion basis; otherwise it comes from a
    full SVD.
    """
    if ps.kind == IDEAL:
        basis = zero_sum_basis(ps.tri)
        op = decorated_length_variation_operator(ps, basis)
        mop = ideal_angle_variation_operator(ps, basis)
    else:
        op = length_variation_operator(ps)
        mop = angle_motion_operator(ps)
    adjointness = adjointness_residual(op, mop)
    del mop
    dim, gap = kernel_dimension(op, tau_rank)
    tb = trivial_motion_basis(ps)
    rank = op.matrix.shape[1] - dim
    # trivial motions must lie inside the kernel; when the kernel is as
    # large as they are and L is onto, they are its basis, off it by only
    # their row-space part
    if dim == tb.shape[1] and rank == op.matrix.shape[0]:
        kb = tb
        resid = op.row_space_residual(tb)
    else:
        kb = op.kernel_basis(tau_rank)
        resid = float(np.linalg.norm(tb - kb @ (kb.T @ tb)))
    residual_dim = dim - tb.shape[1]
    states = np.array([
        ps.decoration_from_deformation(
            kernel_vector_as_deformation(ps, op, kb[:, j])).states
        for j in range(kb.shape[1])], dtype=int).reshape(-1, ps.tri.n_edges)
    rep = batch_report(ps.tri, states)
    decos = [{"tight": bool(tight), "oriented_edges": int(oriented),
              "components_outside_coverage": int(outside),
              "identities_hold": bool(holds)}
             for tight, oriented, outside, holds in zip(
                 rep.tight, np.count_nonzero(states, axis=1), rep.outside,
                 rep.identities)]
    notes = ["finite polyhedron: trivial subspace is the 6 global motions",
             "closed genus-g surfaces in ends would instead carry a "
             "6g-6 dimensional ideal angle kernel"]
    return RigidityVerdict(
        kernel_dim=dim, gap=gap, trivial_dim=tb.shape[1],
        residual_dim=residual_dim, trivial_match_residual=resid,
        adjointness=adjointness,
        decorations=decos, spectrum=op.singular_values, notes=notes)
