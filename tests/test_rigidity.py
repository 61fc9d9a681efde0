import collections
import importlib.util
import math
import pathlib
import types

import numpy as np
import pytest

from endlab import fixtures, mink, rigidity
from endlab.cellsurf import from_face_vertex_lists
from endlab.cli import main
from endlab.decor import BACKWARD, FORWARD, is_tight, pak_report
from endlab.mink import mdot
from endlab.polysurf import PolySurface, compact_point, serialize_poly
from endlab.rigidity import (IndeterminateRankError, OperatorBundle,
                             adjointness_residual, angle_motion_operator,
                             decorated_length_variation_operator,
                             ideal_angle_variation_operator,
                             kernel_dimension, kernel_vector_as_deformation,
                             length_variation_operator,
                             projective_rigidity_verdict, shift_map_matrix,
                             trivial_motion_basis, zero_sum_basis)
from scripts_path import GOLDEN, RUNS  # see conftest


def null_project(p):
    """Nearest null vector with the same spatial direction (derivative-exact
    for tangent perturbations of null vectors)."""
    s = np.linalg.norm(p[:3])
    return np.array([p[0], p[1], p[2], s])


def fit_order(eps, resid):
    mask = np.array(resid) > 1e-14
    le, lr = np.log(np.array(eps)[mask]), np.log(np.array(resid)[mask])
    if len(le) < 2:
        return 2.0  # residuals at rounding level: treat as passing
    return float(np.polyfit(le, lr, 1)[0])


# ---------------------------------------------------------------------------
# compact pair


def test_length_rows_match_finite_differences():
    ct = fixtures.compact_tetrahedron(1.0)
    op = length_variation_operator(ct)
    links = ct.links()
    rng = np.random.default_rng(2)
    for _ in range(4):
        v = int(rng.integers(0, 4))
        i = int(rng.integers(0, 3))
        t = links.frames[v][i]
        eps_list = [3e-2, 1e-2, 3e-3, 1e-3]
        resid = []
        for eps in eps_list:
            plus = [p.copy() for p in ct.vectors]
            minus = [p.copy() for p in ct.vectors]
            plus[v] = mink.normalize_timelike(ct.vectors[v] + eps * t)
            minus[v] = mink.normalize_timelike(ct.vectors[v] - eps * t)
            lp = ct.with_vertex_vectors(plus).edge_lengths()
            lm = ct.with_vertex_vectors(minus).edge_lengths()
            fd = (lp - lm) / (2 * eps)
            # the operator pairs with tangents pointing toward the far
            # endpoint: rows are the negative length derivative
            resid.append(np.max(np.abs(fd + op.matrix[:, 3 * v + i])))
        order = fit_order(eps_list, resid)
        assert 1.8 <= order <= 2.2, (resid, order)


@pytest.mark.parametrize("make, normalize", [
    (lambda: fixtures.hyperideal_tetrahedron(2.0), mink.normalize_spacelike),
    (lambda: fixtures.random_convex_compact(3, 9), mink.normalize_timelike),
], ids=["hyper", "compact"])
def test_length_columns_match_finite_differences(make, normalize):
    # every column against the geometry: column 3v+i moves vertex v along
    # its frame row i, and the operator holds the negative length derivative
    ps = make()
    op = length_variation_operator(ps)
    frames = ps.links().frames
    eps_list = [1e-2, 1e-3, 1e-4]
    resid = []
    for eps in eps_list:
        worst = 0.0
        for v in range(ps.tri.n_vertices):
            for i in range(3):
                moved = []
                for step in (eps, -eps):
                    vecs = ps.vectors.copy()
                    vecs[v] = normalize(ps.vectors[v] + step * frames[v][i])
                    moved.append(ps.with_vertex_vectors(vecs).edge_lengths())
                fd = (moved[0] - moved[1]) / (2 * eps)
                worst = max(worst, np.max(np.abs(fd + op.matrix[:, 3 * v + i])))
        resid.append(worst)
    order = fit_order(eps_list, resid)
    assert 1.8 <= order <= 2.2, (resid, order)


@pytest.mark.parametrize("make", [
    lambda: fixtures.random_convex_compact(3, 9),
    lambda: fixtures.hyperideal_tetrahedron(2.0),
    lambda: fixtures.random_ideal(13, 8),
], ids=["compact", "hyper", "ideal"])
def test_length_operator_follows_vertex_relabeling(make):
    ps = make()
    length_op = (decorated_length_variation_operator if ps.kind == "ideal"
                 else length_variation_operator)
    nv = ps.tri.n_vertices
    perm = np.random.default_rng(6).permutation(nv)
    geoms = [None] * nv
    for v, g in enumerate(ps.geoms):
        geoms[perm[v]] = g
    moved = PolySurface(ps.base.relabeled(perm.tolist()), geoms)
    k = ps.links().signs.shape[1]
    back = (k * perm[:, None] + np.arange(k)).reshape(-1)
    lop = length_op(moved)
    assert np.array_equal(lop.matrix[:, back], length_op(ps).matrix)
    assert kernel_dimension(lop)[0] == 6


def test_killing_fields_in_kernel():
    for fx in (fixtures.compact_tetrahedron(1.0),
               fixtures.random_convex_compact(3, 7)):
        op = length_variation_operator(fx)
        links = fx.links()
        for gen in mink.so31_basis():
            coords = np.zeros(3 * fx.tri.n_vertices)
            for v in range(fx.tri.n_vertices):
                z = gen @ fx.vectors[v]
                rows, signs = links.frames[v], links.signs[v]
                for i in range(3):
                    coords[3 * v + i] = signs[i] * mdot(z, rows[i])
            out = op.matrix @ coords
            assert np.max(np.abs(out)) < 1e-9 * max(1.0, np.linalg.norm(coords))


def test_zero_motion_maps_to_zero():
    ct = fixtures.compact_tetrahedron(1.0)
    op = length_variation_operator(ct)
    assert not (op.matrix @ np.zeros(op.matrix.shape[1])).any()


def test_adjointness_compact():
    for fx in (fixtures.compact_tetrahedron(1.0),
               fixtures.random_convex_compact(8, 8),
               fixtures.hyperideal_tetrahedron(2.0)):
        assert adjointness_residual(length_variation_operator(fx),
                                    angle_motion_operator(fx)) < 1e-11


def test_angle_motion_orthonormal_corner():
    # tetrahedron with a corner at (0,0,0,1) and neighbors along the axes:
    # the three link tangents there are the coordinate axes, so a weight of
    # 1 on each incident edge sums to the frame vector (1,1,1)
    t = 0.9
    pts = [np.array([0.0, 0, 0, 1]),
           np.array([math.sinh(t), 0, 0, math.cosh(t)]),
           np.array([0.0, math.sinh(t), 0, math.cosh(t)]),
           np.array([0.0, 0, math.sinh(t), math.cosh(t)])]
    ps = PolySurface(fixtures.tetrahedron_surface(),
                     [compact_point(p) for p in pts], strict=False)
    op = angle_motion_operator(ps)
    weights = np.zeros(ps.tri.n_edges)
    for e, (u, v) in enumerate(ps.tri.edges):
        if 0 in (u, v):
            weights[e] = 1.0
    out = op.matrix @ weights
    assert np.allclose(out[0:3], [1.0, 1.0, 1.0], atol=1e-12)


def test_angle_motion_surjective_onto_killing_complement():
    rc = fixtures.random_convex_compact(21, 8)
    psi = angle_motion_operator(rc)
    rank = np.linalg.matrix_rank(psi.matrix, tol=1e-10)
    assert rank == 3 * rc.tri.n_vertices - 6
    # the image is metric-orthogonal to the Killing fields
    tb = trivial_motion_basis(rc)
    metric = psi.codomain_metric
    gram = tb.T @ (metric[:, None] * psi.matrix)
    assert np.max(np.abs(gram)) < 1e-9


# ---------------------------------------------------------------------------
# kernel dimensions


def test_kernel_dims_convex_fixtures():
    for fx in (fixtures.compact_tetrahedron(1.0),
               fixtures.random_convex_compact(5, 8),
               fixtures.hyperideal_tetrahedron(1.7)):
        dim, gap = kernel_dimension(length_variation_operator(fx))
        assert dim == 6
        assert gap >= 1e3


def test_kernel_grows_at_flat_vertex():
    fv = fixtures.flat_vertex_pyramid()
    dim, gap = kernel_dimension(length_variation_operator(fv))
    assert dim == 7
    assert gap >= 1e3


def test_zero_matrix_full_kernel():
    b = OperatorBundle(np.zeros((4, 9)))
    dim, gap = kernel_dimension(b)
    assert dim == 9 and gap == math.inf


def test_indeterminate_rank_raises():
    mat = np.diag([1.0, 1.2e-8, 0.9e-8])
    b = OperatorBundle(mat)
    with pytest.raises(IndeterminateRankError) as err:
        kernel_dimension(b)
    assert len(err.value.spectrum) == 3
    assert err.value.gap == pytest.approx(1.2 / 0.9)


def test_kernel_dim_rescaling_invariant():
    rng = np.random.default_rng(5)
    op = length_variation_operator(fixtures.random_convex_compact(2, 7))
    dim0, _ = kernel_dimension(op)
    r = rng.uniform(0.5, 2.0, size=op.matrix.shape[0])
    c = rng.uniform(0.5, 2.0, size=op.matrix.shape[1])
    scaled = OperatorBundle(r[:, None] * op.matrix * c[None, :])
    dim1, _ = kernel_dimension(scaled)
    assert dim0 == dim1


# ---------------------------------------------------------------------------
# ideal pair


def test_zero_sum_integer_basis_exact():
    oc = fixtures.ideal_octahedron()
    b_int, q = zero_sum_basis(oc.tri)
    m = shift_map_matrix(oc.tri).astype(float)
    assert b_int.shape == (12, 6)
    resid = m.T @ b_int
    assert np.all(resid == 0.0)  # exact in floating point: integer data
    assert np.allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-12)



def _sympy_zero_sum_basis(surface):
    """The rational null space of M^T by sympy, each column scaled by the
    lcm of its denominators: the basis zero_sum_basis must reproduce."""
    import sympy
    m = shift_map_matrix(surface)
    null = sympy.Matrix(m.T.tolist()).nullspace()
    if surface.n_edges - len(null) != surface.n_vertices:
        raise ValueError("per-vertex shift map is not injective")
    cols = []
    for vec in null:
        vals = [row[0] for row in vec.tolist()]
        lcm = math.lcm(*(x.q for x in vals))
        cols.append([x.p * (lcm // x.q) for x in vals])
    b_int = np.array(cols, dtype=float).T
    q, _ = np.linalg.qr(b_int)
    return b_int, q


def _multigraph():
    # two components on one odd cycle each (a loop at 2, the triangle
    # 3-4-5) once the greedy pass is done; parallel edges 1 and 5 close
    # even cycles, edge 8 joins two components that both have their odd
    # cycle, and loop 9 and triangle edge 10 would be second odd cycles
    edges = [(0, 1), (1, 0), (1, 2), (2, 2), (3, 4), (4, 3), (4, 5), (5, 3),
             (2, 3), (5, 5), (0, 2)]
    return types.SimpleNamespace(n_vertices=6, n_edges=len(edges),
                                 edges=edges)


ZERO_SUM_SURFACES = {
    "octahedron": lambda: fixtures.ideal_octahedron().tri,
    "rotated-octahedron": lambda: fixtures.rotated_ideal_octahedron().tri,
    "tetrahedron": lambda: fixtures.ideal_tetrahedron().tri,
    "random-13-8": lambda: fixtures.random_ideal(13, 8).tri,
    # the greedy basis of this one closes two odd cycles
    "random-2-20": lambda: fixtures.random_ideal(2, 20).tri,
    "ideal-80": lambda: _spiral("ideal", 80).tri,
    "multigraph": _multigraph,
}


@pytest.mark.parametrize("make", ZERO_SUM_SURFACES.values(),
                         ids=ZERO_SUM_SURFACES.keys())
def test_zero_sum_basis_is_the_sympy_basis(make):
    surface = make()
    b_int, q = zero_sum_basis(surface)
    expect_int, expect_q = _sympy_zero_sum_basis(surface)
    assert np.array_equal(b_int, expect_int)
    assert np.array_equal(q, expect_q)


def parent_shift_map_matrix(surface):
    """shift_map_matrix as a loop over the edges, as it was before one
    ``np.add.at``: kept verbatim as its oracle."""
    m = np.zeros((surface.n_edges, surface.n_vertices), dtype=int)
    for e, (u, v) in enumerate(surface.edges):
        m[e, u] += 1
        m[e, v] += 1
    return m


SHIFT_MAP_SURFACES = dict(ZERO_SUM_SURFACES, **{
    "compact-tetrahedron": lambda: fixtures.compact_tetrahedron(1.0).tri,
    "hyperideal-tetrahedron": lambda: fixtures.hyperideal_tetrahedron(2.0)
    .tri,
    "flat-vertex": lambda: fixtures.flat_vertex_pyramid().tri,
})


@pytest.mark.parametrize("make", SHIFT_MAP_SURFACES.values(),
                         ids=SHIFT_MAP_SURFACES.keys())
def test_shift_map_matches_parent_loop(make):
    # the multigraph's loops count twice, as the loop adds 1 twice
    surface = make()
    m = shift_map_matrix(surface)
    expect = parent_shift_map_matrix(surface)
    assert m.dtype == expect.dtype and np.array_equal(m, expect)


def test_zero_sum_basis_rejects_bipartite_skeleton():
    cube = from_face_vertex_lists([[0, 1, 2, 3], [4, 7, 6, 5], [0, 4, 5, 1],
                                   [1, 5, 6, 2], [2, 6, 7, 3], [3, 7, 4, 0]])
    with pytest.raises(ValueError, match="not injective"):
        _sympy_zero_sum_basis(cube)
    with pytest.raises(ValueError, match="not injective"):
        zero_sum_basis(cube)


@pytest.mark.parametrize("name", ["rigidity_octahedron.txt", "schlafli.txt"])
def test_goldens_never_call_sympy(monkeypatch, tmp_path, name):
    import sympy

    def forbidden(*args, **kwargs):
        raise AssertionError("sympy.Matrix called")

    monkeypatch.setattr(sympy, "Matrix", forbidden)
    _, code, argv = next(run for run in RUNS if run[0] == name)
    out = tmp_path / name
    assert main(list(argv) + ["--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / name).read_bytes()

def test_ideal_adjointness_with_exact_constraints():
    rng = np.random.default_rng(3)
    oc = fixtures.ideal_octahedron([0.2, -0.1, 0.0, 0.1, -0.2, 0.3])
    lop = decorated_length_variation_operator(oc)
    mop = ideal_angle_variation_operator(oc)
    b_int = mop.int_basis
    q = mop.embedding
    raw = lop.meta["raw_rows"]
    m = shift_map_matrix(oc.tri).astype(float)
    worst = 0.0
    for _ in range(100):
        w = rng.normal(size=raw.shape[1])
        coeff = rng.integers(-5, 6, size=b_int.shape[1]).astype(float)
        tdot = b_int @ coeff
        # the integer combination satisfies the vertex constraint exactly
        assert np.all(m.T @ tdot == 0.0)
        lhs = float(np.dot(raw @ w, tdot))
        rhs = float(np.dot(mop.matrix @ (q.T @ tdot), w))
        worst = max(worst, abs(lhs - rhs)
                    / (np.linalg.norm(w) * np.linalg.norm(tdot)))
    assert worst < 1e-11


def test_ideal_length_columns_match_finite_differences():
    oc = fixtures.ideal_octahedron()
    lop = decorated_length_variation_operator(oc)
    q = lop.embedding
    links = oc.links()
    eps_list = [3e-2, 1e-2, 3e-3]
    for v, a in ((0, 0), (3, 1)):
        w = np.zeros(2 * 6)
        w[2 * v + a] = 1.0
        col = lop.matrix @ w
        ea, eb, _ = links.frames[v]
        du = -(ea if a == 0 else eb)
        resid = []
        for eps in eps_list:
            plus = [u.copy() for u in oc.vectors]
            minus = [u.copy() for u in oc.vectors]
            plus[v] = null_project(oc.vectors[v] + eps * du)
            minus[v] = null_project(oc.vectors[v] - eps * du)
            lp = oc.with_vertex_vectors(plus).edge_lengths()
            lm = oc.with_vertex_vectors(minus).edge_lengths()
            fd = q.T @ ((lp - lm) / (2 * eps))
            resid.append(np.max(np.abs(fd - col)))
        order = fit_order(eps_list, resid)
        assert 1.7 <= order <= 2.3, (resid, order)


def test_ideal_operators_zero_to_zero():
    oc = fixtures.ideal_octahedron()
    lop = decorated_length_variation_operator(oc)
    mop = ideal_angle_variation_operator(oc)
    assert not (lop.matrix @ np.zeros(lop.matrix.shape[1])).any()
    assert not (mop.matrix @ np.zeros(mop.matrix.shape[1])).any()


def test_pure_rescaling_dies_in_quotient():
    oc = fixtures.ideal_octahedron()
    lop = decorated_length_variation_operator(oc)
    q = lop.embedding
    # a decoration rescaling contributes the constant function 1 at one
    # vertex: its raw length variation is the shift-map column
    m = shift_map_matrix(oc.tri).astype(float)
    for v in range(6):
        projected = q.T @ m[:, v]
        assert np.max(np.abs(projected)) < 1e-12


def test_quotient_invariance_under_decoration_rescale():
    t = 0.37
    base = fixtures.ideal_octahedron()
    scaled = fixtures.ideal_octahedron(scales=[t, 0, 0, 0, 0, 0])
    lop0 = decorated_length_variation_operator(base)
    lop1 = decorated_length_variation_operator(scaled)
    rng = np.random.default_rng(8)
    for _ in range(20):
        w = rng.normal(size=12)
        w2 = w.copy()
        w2[0:2] *= math.exp(t)  # re-express the 1-form in the flowed chart
        out0 = lop0.matrix @ w
        out1 = lop1.matrix @ w2
        assert np.max(np.abs(out0 - out1)) < 1e-12 * max(1, np.max(np.abs(out0)))


def test_mobius_motions_span_ideal_kernel():
    for fx in (fixtures.ideal_octahedron(),
               fixtures.random_ideal(13, 8)):
        lop = decorated_length_variation_operator(fx)
        dim, gap = kernel_dimension(lop)
        assert dim == 6 and gap > 1e3
        kb = lop.kernel_basis()
        tb = trivial_motion_basis(fx)
        assert np.linalg.norm(tb - kb @ (kb.T @ tb)) < 1e-8


# ---------------------------------------------------------------------------
# verdicts


def test_rigidity_verdict_compact():
    v = projective_rigidity_verdict(fixtures.compact_tetrahedron(1.0))
    assert v.kernel_dim == 6 and v.residual_dim == 0
    assert v.trivial_match_residual < 1e-8
    assert v.adjointness < 1e-11
    assert all(d["tight"] for d in v.decorations)
    assert all(d["identities_hold"] for d in v.decorations)


def test_rigidity_verdict_ideal_octahedron():
    v = projective_rigidity_verdict(fixtures.ideal_octahedron())
    assert v.kernel_dim == 6 and v.residual_dim == 0
    assert v.trivial_match_residual < 1e-8
    assert all(d["tight"] for d in v.decorations)


def test_rigidity_verdict_flat_fixture_flagged():
    v = projective_rigidity_verdict(fixtures.flat_vertex_pyramid())
    assert v.kernel_dim == 7
    assert v.residual_dim == 1  # reported, not asserted away


def _verdict_calls(monkeypatch, ps):
    """The verdict of ps, and its calls of the factorisations, of the
    least-squares solve and of the operator builders."""
    calls = collections.Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(np.linalg, "svd")
    counted(np.linalg, "eigvalsh")
    counted(np.linalg, "lstsq")
    counted(np.linalg, "solve")
    for name in ("length_variation_operator", "angle_motion_operator",
                 "decorated_length_variation_operator",
                 "ideal_angle_variation_operator", "zero_sum_basis"):
        counted(rigidity, name)
    return rigidity.projective_rigidity_verdict(ps), calls


@pytest.mark.parametrize("make, length_op, angle_op, max_bases", [
    (lambda: fixtures.compact_tetrahedron(1.0), "length_variation_operator",
     "angle_motion_operator", 0),
    (fixtures.ideal_octahedron, "decorated_length_variation_operator",
     "ideal_angle_variation_operator", 1),
])
def test_verdict_assembles_and_factors_once(monkeypatch, make, length_op,
                                            angle_op, max_bases):
    ps = make()
    v, calls = _verdict_calls(monkeypatch, ps)
    assert v.kernel_dim == 6
    assert calls.pop("zero_sum_basis", 0) <= max_bases
    assert calls.pop("svd", 0) == 0
    # one solve for the exact trivial-match residual and, on an ideal
    # surface, one of the shift map's normal equations for all six kernel
    # vectors; no least-squares solve
    assert calls.pop("solve", 0) == 1 + (ps.kind == "ideal")
    assert calls == {"eigvalsh": 1, length_op: 1, angle_op: 1}


def test_rank_deficient_verdict_factors_once(monkeypatch):
    # the spectrum and the kernel basis from one full SVD
    v, calls = _verdict_calls(monkeypatch, fixtures.flat_vertex_pyramid())
    assert v.kernel_dim == 7
    assert calls == {"eigvalsh": 1, "svd": 1, "length_variation_operator": 1,
                     "angle_motion_operator": 1}


def _with_entries_added(op, *added):
    """A copy of op with one more entry per (row, col, value): the value is
    added at that position, as ``op.matrix[row, col] += value`` would."""
    e = op.entries
    rows, cols, vals = np.array(added).T
    return OperatorBundle(rigidity.Entries(
        np.append(e.rows, rows.astype(int) % e.shape[0]),
        np.append(e.cols, cols.astype(int) % e.shape[1]),
        np.append(e.vals, vals), e.shape), codomain_metric=op.codomain_metric)


def test_adjointness_residual_bounds_every_pair():
    rng = np.random.default_rng(4)
    for fx, lbuild, mbuild in (
            (fixtures.hyperideal_tetrahedron(2.0), length_variation_operator,
             angle_motion_operator),
            (fixtures.random_ideal(13, 8), decorated_length_variation_operator,
             ideal_angle_variation_operator)):
        lop, mop = lbuild(fx), mbuild(fx)
        assert adjointness_residual(lop, mop) < 1e-12
        # a defect in one entry of M shows at its full size, and bounds the
        # pairing defect of every sampled pair
        mop = _with_entries_added(mop, (1, 2, 1e-3))
        resid = adjointness_residual(lop, mop)
        assert 0.9e-3 < resid < 1.1e-3
        for _ in range(50):
            z = rng.normal(size=lop.matrix.shape[1])
            t = rng.normal(size=mop.matrix.shape[1])
            defect = (np.dot(lop.matrix @ z, t)
                      - np.sum(mop.codomain_metric * z * (mop.matrix @ t)))
            assert abs(defect) <= resid * np.linalg.norm(z) * np.linalg.norm(t)


# ---------------------------------------------------------------------------
# the verdict's kernel basis: trivial motions without the full SVD

FAST_PATH = {
    "compact-tetrahedron": lambda: fixtures.compact_tetrahedron(1.0),
    "random-compact": lambda: fixtures.random_convex_compact(4, 12),
    "hyperideal-tetrahedron": lambda: fixtures.hyperideal_tetrahedron(2.0),
    "ideal-octahedron": fixtures.ideal_octahedron,
    "random-ideal": lambda: fixtures.random_ideal(13, 10),
}


def _length_operator(ps):
    if ps.kind == "ideal":
        return decorated_length_variation_operator(ps)
    return length_variation_operator(ps)


@pytest.mark.parametrize("make", FAST_PATH.values(), ids=FAST_PATH)
def test_trivial_basis_is_the_svd_kernel(make):
    ps = make()
    op = _length_operator(ps)
    tb = trivial_motion_basis(ps)
    dim, _ = kernel_dimension(op)
    rows, cols = op.matrix.shape
    assert dim == tb.shape[1] == cols - rows  # full row rank: the fast path
    kb = op.kernel_basis()
    outside = tb - kb @ (kb.T @ tb)
    resid = op.row_space_residual(tb)
    assert abs(resid - np.linalg.norm(outside)) <= 1e-13
    # both bases orthonormal and of one dimension: the largest sine of the
    # principal angles between the spans is the 2-norm of the part outside
    assert np.linalg.norm(outside, 2) <= 1e-10
    assert projective_rigidity_verdict(ps).trivial_match_residual == resid


def test_row_space_residual_is_distance_from_kernel():
    # away from rounding level too: columns well off the kernel of a
    # random matrix of full row rank
    rng = np.random.default_rng(9)
    b = OperatorBundle(rng.normal(size=(5, 11)))
    x, _ = np.linalg.qr(rng.normal(size=(11, 4)))
    kb = b.kernel_basis()
    dist = np.linalg.norm(x - kb @ (kb.T @ x))
    assert dist > 0.5
    assert b.row_space_residual(x) == pytest.approx(dist, rel=1e-12)


# ---------------------------------------------------------------------------
# the spectrum from one Gram matrix


def _bench_module(name):
    """A module of the benchmark (bench/<name>.py), loaded from its file."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / (
        name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spiral(kind, n):
    """Spiral hull of the benchmark inputs (bench/spiral.py), seeded."""
    return _bench_module("spiral").build(kind, n,
                                         np.random.default_rng([5, n]))


GRAM_CASES = dict(FAST_PATH, **{
    "hyperideal-dual": lambda: fixtures.compact_tetrahedron(1.0)
    .dual_surface(),
    "ideal-tetrahedron": fixtures.ideal_tetrahedron,
    "compact-32": lambda: _spiral("compact", 32),
    "compact-128": lambda: _spiral("compact", 128),
    "hyper-32": lambda: _spiral("hyper", 32),
    "hyper-128": lambda: _spiral("hyper", 128),
})


def parent_link_gram(ps):
    """The Gram scatter before it read the surface's stored vertex stars,
    kept as the oracle of :func:`rigidity._link_gram`.  Verbatim: darts
    grouped by an argsort of their tails."""
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


def _relabeled_hull(ps, seed):
    """The same hull with its vertices and edges renamed at random."""
    rng = np.random.default_rng(seed)
    vperm = rng.permutation(ps.base.n_vertices)
    geoms = [None] * len(vperm)
    for v, img in enumerate(vperm.tolist()):
        geoms[img] = ps.geoms[v]
    return PolySurface(ps.base.relabeled(
        vperm.tolist(), rng.permutation(ps.base.n_edges).tolist()), geoms)


LINK_GRAM_CASES = dict(GRAM_CASES, **{
    "compact-512": lambda: _spiral("compact", 512),
    "random-compact-60": lambda: fixtures.random_convex_compact(3, 60),
    "relabeled-compact-60": lambda: _relabeled_hull(
        fixtures.random_convex_compact(3, 60), 1),
    "relabeled-ideal": lambda: _relabeled_hull(fixtures.random_ideal(13, 10),
                                               2),
})


@pytest.mark.parametrize("make", LINK_GRAM_CASES.values(),
                         ids=LINK_GRAM_CASES)
def test_link_gram_matches_parent_grouping(make):
    ps = make()
    # no loops, so each entry sums at most two terms: bit for bit
    assert np.array_equal(rigidity._link_gram(ps).dense(),
                          parent_link_gram(ps))


@pytest.mark.parametrize("make", GRAM_CASES.values(), ids=GRAM_CASES)
def test_spectrum_from_the_gram(make):
    op = _length_operator(make())
    m = op.matrix
    product = m @ m.T
    gram = op._row_gram
    assert np.max(np.abs(gram - product)) <= 1e-13 * max(
        1.0, np.max(np.abs(product)))
    s = np.linalg.svd(m, compute_uv=False)
    assert s[-1] >= rigidity.GRAM_MIN_SIGMA * s[0]
    assert np.max(np.abs(op.singular_values - s)) <= 1e-10 * s[0]
    assert op._factors[1] is None  # no SVD behind the spectrum
    # a taller matrix goes through the Gram of its columns
    tall = OperatorBundle(m.T)
    assert np.max(np.abs(tall.singular_values - s)) <= 1e-10 * s[0]
    assert tall._factors[1] is None


def test_flat_vertex_falls_back_to_one_svd():
    op = length_variation_operator(fixtures.flat_vertex_pyramid())
    s, vt = op._factors
    assert vt is not None and s[-1] < 1e-13 * s[0]
    assert kernel_dimension(op)[0] == 7
    kb = op.kernel_basis()
    assert kb.shape[1] == 7 and np.max(np.abs(op.matrix @ kb)) < 1e-12
    # the spectrum and the kernel basis come from that one SVD
    np.testing.assert_array_equal(s, np.linalg.svd(op.matrix)[1])


@pytest.mark.parametrize("smallest, gram_route", [
    (0.0, False), (1e-9, False), (0.5e-4, False), (2e-4, True), (0.3, True),
])
def test_gram_guard_on_conditioning(smallest, gram_route):
    # a 12 x 20 matrix with singular values from 1 down to ``smallest``
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(rng.normal(size=(12, 12)))
    v, _ = np.linalg.qr(rng.normal(size=(20, 12)))
    sigma = np.geomspace(1.0, 0.5, 12)
    sigma[-1] = smallest
    b = OperatorBundle(u @ np.diag(sigma) @ v.T)
    assert (b._factors[1] is None) == gram_route
    # the Gram loses about eps / sigma_rel^2 relatively: 1e-8 at the guard
    assert np.all(np.abs(b.singular_values - sigma) <= 1e-14 + 1e-7 * sigma)
    dim, _ = kernel_dimension(b)
    assert dim == 8 + (smallest < 1e-8)


def test_adjointness_residual_unchanged_by_in_place_subtraction():
    for fx in (fixtures.compact_tetrahedron(1.0),
               fixtures.hyperideal_tetrahedron(2.0),
               fixtures.flat_vertex_pyramid(), fixtures.random_ideal(13, 8)):
        lop, mop = _length_operator(fx), (
            ideal_angle_variation_operator(fx) if fx.kind == "ideal"
            else angle_motion_operator(fx))
        before = mop.matrix.copy()
        gm = mop.codomain_metric[:, None] * mop.matrix
        assert adjointness_residual(lop, mop) == float(
            np.linalg.norm(lop.matrix.T - gm))
        np.testing.assert_array_equal(mop.matrix, before)


def _decoration_loop(ps, z):
    """PolySurface.decoration_from_deformation as it was before the states
    of all kernel vectors came from one array pass, kept as the oracle of
    that pass: the edge states of one deformation z."""
    links = ps.links()
    tail = ps.tri.dart_tail
    if ps.kind == "ideal":
        w, c = zip(*z)
        vals = (np.vecdot(np.array(w, dtype=float)[tail], links.coords)
                + np.array(c, dtype=float)[tail])
    else:
        vals = mdot(np.asarray(z, dtype=float)[tail], links.raw)
    scale = float(np.max(np.abs(vals), initial=0.0))
    tau_orient = 1e-9 * max(scale, 1e-30)
    first = vals[0::2]
    return np.where(first > tau_orient, FORWARD,
                    np.where(first < -tau_orient, BACKWARD, 0))


def _deformation(batch, j):
    """Deformation j of a :func:`kernel_vector_as_deformation` batch, in
    the per-vertex form decoration_from_deformation reads."""
    if isinstance(batch, tuple):  # ideal: (w, c)
        return list(zip(batch[0][j], batch[1][j]))
    return batch[j]


BATCH_CASES = dict(FAST_PATH, **{
    "flat-vertex": fixtures.flat_vertex_pyramid,
    "compact-128": lambda: _spiral("compact", 128),
    "hyper-128": lambda: _spiral("hyper", 128),
    "ideal-32": lambda: _spiral("ideal", 32),
    "ideal-80": lambda: _spiral("ideal", 80),
})


@pytest.mark.parametrize("make", BATCH_CASES.values(), ids=BATCH_CASES)
def test_batched_decorations_match_scalar_path(make):
    ps = make()
    op = _length_operator(ps)
    v = projective_rigidity_verdict(ps)
    kb = (trivial_motion_basis(ps) if v.residual_dim == 0
          else op.kernel_basis())
    assert len(v.decorations) == kb.shape[1] == v.kernel_dim
    batched = kernel_vector_as_deformation(ps, op, kb)
    states = ps.deformation_states(batched)
    assert states.shape == (kb.shape[1], ps.tri.n_edges)
    # each row has its own threshold: rows scaled 2^40 apart keep theirs
    scaled = kb * 2.0 ** (20 * (np.arange(kb.shape[1]) % 3 - 1))
    np.testing.assert_array_equal(ps.deformation_states(
        kernel_vector_as_deformation(ps, op, scaled)), states)
    for j, d in enumerate(v.decorations):
        # each row is the one-vector path's, and the parent's, decoration
        dec = ps.decoration_from_deformation(_deformation(batched, j))
        np.testing.assert_array_equal(dec.states, states[j])
        np.testing.assert_array_equal(
            _decoration_loop(ps, _deformation(batched, j)), states[j])
        # one column at a time gives the same decoration
        single = kernel_vector_as_deformation(ps, op, kb[:, [j]])
        np.testing.assert_array_equal(ps.deformation_states(single)[0],
                                      states[j])
        rep = pak_report(dec)
        assert d == {
            "tight": is_tight(dec).tight,
            "oriented_edges": dec.n_oriented(),
            "components_outside_coverage": sum(
                1 for c in rep.components if not c.chain_closes),
            "identities_hold": rep.all_identities_hold(),
        }


# ---------------------------------------------------------------------------
# the inertia certificate above SPECTRUM_MAX


def _disconnected_gram(zero_row=True):
    """Two hull Grams and a zero row on the diagonal, rows shuffled so the
    components interleave."""
    parts = [length_variation_operator(fixtures.random_convex_compact(s, n))
             ._row_gram for s, n in ((3, 9), (4, 12))]
    sizes = [len(p) for p in parts] + [int(zero_row)]
    g = np.zeros((sum(sizes), sum(sizes)))
    at = 0
    for p in parts:
        g[at:at + len(p), at:at + len(p)] = p
        at += len(p)
    perm = np.random.default_rng(6).permutation(len(g))
    return g[np.ix_(perm, perm)]


LEVEL_CASES = {
    "compact-128": lambda: _length_operator(_spiral("compact", 128))
    ._row_gram,
    "hull-60": lambda: _length_operator(
        fixtures.random_convex_compact(3, 60))._row_gram,
    "disconnected": _disconnected_gram,
    "dense-ideal": lambda: _length_operator(fixtures.random_ideal(13, 10))
    ._row_gram,
}


@pytest.mark.parametrize("make", LEVEL_CASES.values(), ids=LEVEL_CASES)
def test_level_partition_is_block_tridiagonal(make):
    g = make()
    levels = rigidity.level_partition(rigidity.Entries.from_dense(g))
    np.testing.assert_array_equal(np.sort(np.concatenate(levels)),
                                  np.arange(len(g)))
    level = np.empty(len(g), dtype=int)
    for k, rows in enumerate(levels):
        level[rows] = k
    i, j = np.nonzero(g)
    assert np.all(np.abs(level[i] - level[j]) <= 1)


def test_level_partition_of_a_spiral_hull_is_narrow():
    g = _length_operator(_spiral("compact", 128))._row_gram
    levels = rigidity.level_partition(rigidity.Entries.from_dense(g))
    assert len(levels) >= 8 and max(map(len, levels)) <= 80


@pytest.mark.parametrize("make", [LEVEL_CASES[k] for k in (
    "compact-128", "hull-60", "dense-ideal")] + [
        lambda: _disconnected_gram(zero_row=False)],
    ids=["compact-128", "hull-60", "dense-ideal", "disconnected"])
def test_block_solve_matches_dense_solve(make):
    # the forward substitution alone gives the quadratic form of the
    # inverse: ||C^-1 b||^2 = b^T gram^-1 b for gram = C C^T
    g = make()
    nonzero = rigidity.Entries.from_dense(g)
    factor = rigidity.block_cholesky(nonzero,
                                     rigidity.level_partition(nonzero), 0.0)
    # each level's inverse, which the substitution multiplies by
    for _, c, c_inv, _ in factor:
        assert np.linalg.norm(c_inv @ c - np.eye(len(c))) <= 1e-12
    rng = np.random.default_rng(8)
    for b in (rng.normal(size=(len(g), 3)), rng.normal(size=len(g))):
        z = rigidity.block_forward(factor, b)
        assert z.shape == b.shape
        ref = np.sum(b * np.linalg.solve(g, b))
        assert np.sum(z * z) == pytest.approx(ref, rel=1e-10)


#: rows per block of the parent's row-blocked dense passes (the Gershgorin
#: bound and the adjointness residual), which the tests of both span
PARENT_ROW_BLOCK = 256


def test_gershgorin_bound_in_row_blocks():
    g = _length_operator(_spiral("compact", 128))._row_gram
    assert len(g) > PARENT_ROW_BLOCK
    bound = rigidity._gershgorin_bound(rigidity.Entries.from_dense(g))
    assert bound == np.abs(g).sum(axis=1).max()
    assert bound >= np.linalg.eigvalsh(g)[-1]


def _conditioned(smallest, rows=rigidity.SPECTRUM_MAX + 20, cols=None):
    """A rows x cols operator (cols = rows + 6) with singular values from 1
    down to ``smallest``."""
    cols = rows + 6 if cols is None else cols
    rng = np.random.default_rng(12)
    u, _ = np.linalg.qr(rng.normal(size=(rows, rows)))
    v, _ = np.linalg.qr(rng.normal(size=(cols, rows)))
    sigma = np.geomspace(1.0, 0.5, rows)
    sigma[-1] = smallest
    return OperatorBundle(u @ np.diag(sigma) @ v.T)


@pytest.mark.parametrize("smallest", [1e-4, 5e-4])
def test_certificate_fails_near_the_floor(smallest):
    b = _conditioned(smallest)
    assert rigidity.certify_full_rank(
        rigidity.Entries.from_dense(b._row_gram)) is None
    assert not b.certifies_full_rank()
    # the spectrum route decides instead, from the spectrum
    assert kernel_dimension(b) == (6, math.inf)
    assert b.singular_values[-1] == pytest.approx(smallest, rel=1e-6)


CERTIFIED = {
    "hull-30": lambda: fixtures.random_convex_compact(3, 30),
    "hull-60": lambda: fixtures.random_convex_compact(3, 60),
    "hull-120": lambda: fixtures.random_convex_compact(3, 120),
    "hyperideal-tetrahedron": lambda: fixtures.hyperideal_tetrahedron(2.0),
    "hyperideal-dual": lambda: fixtures.compact_tetrahedron(1.0)
    .dual_surface(),
    "hyper-32": lambda: _spiral("hyper", 32),
}


@pytest.mark.parametrize("make", CERTIFIED.values(), ids=CERTIFIED)
def test_certificate_agrees_with_the_spectrum(make):
    op = _length_operator(make())
    assert rigidity.certify_full_rank(
        rigidity.Entries.from_dense(op._row_gram)) is not None
    s = np.linalg.svd(op.matrix, compute_uv=False)
    assert s[-1] > rigidity.CERTIFIED_FLOOR * s[0]
    assert len(s) == op.matrix.shape[0]


def test_certified_bundle_decides_without_the_spectrum(monkeypatch):
    b = _conditioned(0.3)
    assert b.certifies_full_rank()
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    monkeypatch.setattr(np.linalg, "svd", None)
    rows, cols = b.matrix.shape
    assert b.rank_profile() == (rows, cols - rows, math.inf)
    # a tolerance at the floor or above is not decided by the certificate
    assert not b.certifies_full_rank(rigidity.CERTIFIED_FLOOR)
    # nor is a taller matrix, or one at most SPECTRUM_MAX rows high
    assert not OperatorBundle(b.matrix.T).certifies_full_rank()
    assert not _conditioned(0.3, rows=rigidity.SPECTRUM_MAX,
                            cols=rigidity.SPECTRUM_MAX + 6)\
        .certifies_full_rank()


def _hull_100():
    return fixtures.random_convex_compact(5, 100)


def test_certified_verdict_factors_no_full_size_matrix(monkeypatch):
    ps = _hull_100()
    n = ps.tri.n_edges
    assert n > rigidity.SPECTRUM_MAX
    full = collections.Counter()

    def watched(name):
        fn = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            full[name] += np.shape(a)[0] >= n
            return fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, wrapper)

    for name in ("solve", "cholesky", "inv", "lstsq"):
        watched(name)
    v, calls = _verdict_calls(monkeypatch, ps)
    assert calls == {"length_variation_operator": 1,
                     "angle_motion_operator": 1}
    assert sum(full.values()) == 0
    assert v.spectrum is None and v.spectrum_count == n
    assert (v.kernel_dim, v.gap, v.residual_dim) == (6, math.inf, 0)
    assert v.trivial_match_residual <= 1e-12


def test_certified_report(tmp_path):
    path = tmp_path / "hull-100.poly"
    path.write_text(serialize_poly(_hull_100()))
    out = tmp_path / "report.txt"
    assert main(["rigidity", str(path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    count = lines.index("[SPECTRUM]") + 1
    assert lines[count:count + 3] == [
        "count: %d" % _hull_100().tri.n_edges,
        "sigma-rel-min: > 0.001 (a certified lower bound, not a computed "
        "value)", "[KERNEL]"]
    for line in _bench_module("cases").RIGID_LINES:
        assert line in lines


def _report_at(monkeypatch, tmp_path, path, spectrum_max):
    monkeypatch.setattr(rigidity, "SPECTRUM_MAX", spectrum_max)
    out = tmp_path / ("report-%d.txt" % spectrum_max)
    code = main(["rigidity", "--seed", "7", str(path), "--out", str(out)])
    lines = out.read_text().splitlines()
    at = lines.index("[SPECTRUM]")
    end = lines.index("[KERNEL]")
    return code, lines[:at], lines[at:end], lines[end:]


ROUTE_CASES = dict(FAST_PATH, **{
    "flat-vertex": fixtures.flat_vertex_pyramid,
    "ideal-tetrahedron": fixtures.ideal_tetrahedron,
    "rotated-ideal-octahedron": fixtures.rotated_ideal_octahedron,
    "hull-30": CERTIFIED["hull-30"],
    "hull-60": CERTIFIED["hull-60"],
    "hull-120": CERTIFIED["hull-120"],
    "golden-octahedron": "octahedron.poly",
    "golden-compact-tetrahedron": "tetrahedron_compact.poly",
    "golden-ideal-tetrahedron": "tetrahedron_ideal.poly",
})


@pytest.mark.parametrize("make", ROUTE_CASES.values(), ids=ROUTE_CASES)
def test_certificate_route_reports_the_spectrum_route_verdict(
        monkeypatch, tmp_path, make):
    if isinstance(make, str):
        path = GOLDEN / "inputs" / make
    else:
        path = tmp_path / "surface.poly"
        path.write_text(serialize_poly(make()))
    code, head, spectrum, rest = _report_at(monkeypatch, tmp_path, path,
                                            10 ** 9)
    # SPECTRUM_MAX 0: every wide length operator tries the certificate
    code0, head0, spectrum0, rest0 = _report_at(monkeypatch, tmp_path, path, 0)
    assert (code0, head0, rest0) == (code, head, rest)
    if len(spectrum0) == 3:  # certified: count and the bound
        assert spectrum0[:2] == spectrum[:2]
        assert spectrum0[2].startswith("sigma-rel-min: > ")
        assert all(float(line.split()[-1]) > rigidity.CERTIFIED_FLOOR
                   for line in spectrum[2:])
    else:  # not certified: the spectrum route, printed in full
        assert spectrum0 == spectrum


def test_adjointness_residual_over_several_row_blocks():
    ps = _spiral("compact", 128)
    lop, mop = length_variation_operator(ps), angle_motion_operator(ps)
    assert len(mop.matrix) > PARENT_ROW_BLOCK
    assert adjointness_residual(lop, mop) == 0.0
    # defects in the first and the last block both count
    mop = _with_entries_added(mop, (3, 5, 3e-3), (-2, 7, -4e-3))
    dense = np.linalg.norm(lop.matrix.T - mop.codomain_metric[:, None]
                           * mop.matrix)
    assert adjointness_residual(lop, mop) == pytest.approx(dense, rel=1e-12)
    assert dense == pytest.approx(5e-3, rel=1e-9)


# ---------------------------------------------------------------------------
# the certificate route over the non-zeros: oracles and memory


def parent_level_partition(gram):
    """level_partition before it read the Gram's non-zeros, kept verbatim
    as its oracle: the search over a dense boolean pattern."""
    pattern = gram != 0
    pattern |= pattern.T
    degree = np.count_nonzero(pattern, axis=1)
    seen = np.zeros(len(gram), dtype=bool)
    levels = []
    while not seen.all():
        rows = np.flatnonzero(~seen)
        frontier = rows[[np.argmin(degree[rows])]]
        while frontier.size:
            seen[frontier] = True
            levels.append(frontier)
            frontier = np.flatnonzero(pattern[frontier].any(axis=0) & ~seen)
    return levels


def parent_gershgorin_bound(gram, row_block=PARENT_ROW_BLOCK):
    """_gershgorin_bound before it read the Gram's non-zeros, kept verbatim
    as its oracle: dense row sums, ROW_BLOCK rows at a time."""
    return max((float(np.abs(gram[r:r + row_block]).sum(axis=1).max())
                for r in range(0, len(gram), row_block)), default=0.0)


SPARSE_GRAM_CASES = {
    "compact-128": lambda: _length_operator(_spiral("compact", 128)),
    "hull-60": lambda: _length_operator(fixtures.random_convex_compact(3, 60)),
    "hyper-128": lambda: _length_operator(_spiral("hyper", 128)),
    "relabeled-compact-60": lambda: _length_operator(_relabeled_hull(
        fixtures.random_convex_compact(3, 60), 1)),
}


@pytest.mark.parametrize("make", LEVEL_CASES.values(), ids=LEVEL_CASES)
def test_level_partition_and_bound_match_parent_dense(make):
    g = make()
    nonzero = rigidity.Entries.from_dense(g)
    levels = rigidity.level_partition(nonzero)
    expect = parent_level_partition(g)
    assert len(levels) == len(expect)
    for got, want in zip(levels, expect):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert rigidity._gershgorin_bound(nonzero) == parent_gershgorin_bound(g)


@pytest.mark.parametrize("make", SPARSE_GRAM_CASES.values(),
                         ids=SPARSE_GRAM_CASES)
def test_link_gram_entries_feed_the_parent_blocks(make):
    # the Gram's summed non-zeros scatter to the dense Gram, give the
    # parent's levels and bound, and block_cholesky gets the parent's
    # blocks bit for bit: the factor is the dense one's
    op = make()
    dense = op._row_gram
    assert np.array_equal(op.gram.dense(), dense)
    assert np.all(op.gram.vals != 0)
    levels = rigidity.level_partition(op.gram)
    for got, want in zip(levels, parent_level_partition(dense),
                         strict=True):
        assert np.array_equal(got, want)
    assert rigidity._gershgorin_bound(op.gram) == parent_gershgorin_bound(
        dense)
    for (rows, c, _, w), (_, c_ref, _, w_ref) in zip(
            rigidity.block_cholesky(op.gram, levels, 0.0),
            rigidity.block_cholesky(rigidity.Entries.from_dense(dense),
                                    levels, 0.0), strict=True):
        assert np.array_equal(c, np.linalg.cholesky(
            dense[np.ix_(rows, rows)] - (0 if w is None else w @ w.T)))
        assert np.array_equal(c, c_ref)
        assert (w is None and w_ref is None) or np.array_equal(w, w_ref)


PRODUCT_CASES = {
    "compact-tetrahedron": lambda: fixtures.compact_tetrahedron(1.0),
    "hyperideal-tetrahedron": lambda: fixtures.hyperideal_tetrahedron(2.0),
    "hyperideal-dual": lambda: fixtures.compact_tetrahedron(1.0)
    .dual_surface(),
    "flat-vertex": fixtures.flat_vertex_pyramid,
    "random-compact-60": lambda: fixtures.random_convex_compact(3, 60),
    "random-compact-100": _hull_100,
    "compact-128": lambda: _spiral("compact", 128),
    "hyper-128": lambda: _spiral("hyper", 128),
}


@pytest.mark.parametrize("make", PRODUCT_CASES.values(), ids=PRODUCT_CASES)
def test_entry_products_match_dense_products(make):
    ps = make()
    lop, mop = length_variation_operator(ps), angle_motion_operator(ps)
    rng = np.random.default_rng(13)
    for op in (lop, mop):
        m = op.matrix
        for x in (rng.normal(size=m.shape[1]),
                  rng.normal(size=(m.shape[1], 6))):
            got, want = op.entries.dot(x), m @ x
            assert got.shape == want.shape
            scale = np.linalg.norm(np.abs(m) @ np.abs(x))
            assert np.linalg.norm(got - want) <= 1e-15 * scale
    # M is the metric-signed transpose of L's entries
    assert np.array_equal(mop.matrix,
                          mop.codomain_metric[:, None] * lop.matrix.T)


def test_certified_verdict_forms_no_dense_operator(monkeypatch):
    # neither L, M nor the Gram is scattered to a dense array on the
    # certificate route
    ps = _hull_100()
    dense = collections.Counter()
    scatter = rigidity.Entries.dense

    def watched(entries):
        dense[entries.shape] += 1
        return scatter(entries)
    monkeypatch.setattr(rigidity.Entries, "dense", watched)
    v = projective_rigidity_verdict(ps)
    assert v.spectrum is None and v.spectrum_count == ps.tri.n_edges
    assert dense == {}


def test_verdict_peak_memory_below_one_dense_gram():
    # compact-512 (1530 edges): one dense Gram is 8 E^2 bytes, 18.7 MB;
    # the dense L, M and Gram together peaked at about 60 MB
    import tracemalloc
    ps = _spiral("compact", 512)
    ps.links()
    n = ps.tri.n_edges
    tracemalloc.start()
    try:
        v = projective_rigidity_verdict(ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.spectrum is None and v.kernel_dim == 6
    assert peak < 8 * n * n


# ---------------------------------------------------------------------------
# the certificate's factor bounds the residual; moved ideal hulls


@pytest.mark.parametrize("kind", ["compact", "hyper"])
def test_certified_verdict_factors_the_gram_once(monkeypatch, kind):
    # the shifted factor that certifies the rank also gives the residual,
    # by products with its inverted blocks: nothing is solved
    shifts = []
    factor = rigidity.block_cholesky
    solves = collections.Counter()
    solve = np.linalg.solve

    def counted(gram, levels, shift):
        shifts.append(shift)
        return factor(gram, levels, shift)

    def counted_solve(*args, **kwargs):
        solves["solve"] += 1
        return solve(*args, **kwargs)
    monkeypatch.setattr(rigidity, "block_cholesky", counted)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    v = projective_rigidity_verdict(_spiral(kind, 128))
    assert v.spectrum is None and v.residual_dim == 0
    assert v.trivial_match_residual <= 1e-12
    assert len(shifts) == 1 and shifts[0] > 0
    assert solves == {}


BOUND_CASES = {
    "compact-128": lambda: _spiral("compact", 128),
    "hyper-128": lambda: _spiral("hyper", 128),
    "compact-512": lambda: _spiral("compact", 512),
}


@pytest.mark.parametrize("make", BOUND_CASES.values(), ids=BOUND_CASES)
def test_certified_residual_bounds_the_exact_one(make):
    # (L L^T - s I)^-1 >= (L L^T)^-1: the bound is never below the exact
    # residual, and s is far enough below lambda_min that it is within 1 %
    ps = make()
    op = length_variation_operator(ps)
    assert op._certificate is not None
    frame, _ = np.linalg.qr(
        np.random.default_rng(14).normal(size=(op.shape[1], 4)))
    for x in (trivial_motion_basis(ps), frame):
        bound = op.row_space_residual(x)
        # the spectrum route's formula, one solve with the dense Gram
        y = np.linalg.solve(op._row_gram, op._apply(x))
        exact = float(np.linalg.norm(op._apply(y, transpose=True)))
        assert exact * (1 - 1e-9) <= bound <= 1.01 * exact * (1 + 1e-9)


@pytest.mark.parametrize("n", [16, 32, 128])
def test_moved_ideal_hulls_match_the_trivial_motions(n):
    # the horosphere charts do not lose digits wherever the isometry moves
    # the ideal vertices
    spiral = _bench_module("spiral")
    worst = max(projective_rigidity_verdict(spiral.build(
        "ideal", n, np.random.default_rng([seed, n]))).trivial_match_residual
        for seed in range(30))
    assert worst <= 1e-12


def test_bench_seed_3005_ideal_32_is_rigid(tmp_path):
    # the benchmark's ideal-32 input of seed 3005, whose residual was 3.3e-12
    cases = _bench_module("cases")
    i = cases.RIGIDITY_SIZES.index(("ideal", 32))
    ps = _bench_module("spiral").build("ideal", 32,
                                       np.random.default_rng([3005, i]))
    path = tmp_path / "ideal-32.poly"
    path.write_text(serialize_poly(ps))
    out = tmp_path / "report.txt"
    assert main(["rigidity", "--seed", "3005", str(path), "--out",
                 str(out)]) == 0
    lines = out.read_text().splitlines()
    for line in cases.RIGID_LINES:
        assert line in lines
