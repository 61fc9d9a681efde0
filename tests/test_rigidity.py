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
from endlab.decor import is_tight, pak_report
from endlab.mink import mdot
from endlab.polysurf import PolySurface, compact_point
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
    """The verdict of ps, and its calls of the factorisations and of the
    operator builders."""
    calls = collections.Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(np.linalg, "svd")
    counted(np.linalg, "eigvalsh")
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
    v, calls = _verdict_calls(monkeypatch, make())
    assert v.kernel_dim == 6
    assert calls.pop("zero_sum_basis", 0) <= max_bases
    assert calls.pop("svd", 0) == 0
    assert calls == {"eigvalsh": 1, length_op: 1, angle_op: 1}


def test_rank_deficient_verdict_factors_once(monkeypatch):
    # the spectrum and the kernel basis from one full SVD
    v, calls = _verdict_calls(monkeypatch, fixtures.flat_vertex_pyramid())
    assert v.kernel_dim == 7
    assert calls == {"eigvalsh": 1, "svd": 1, "length_variation_operator": 1,
                     "angle_motion_operator": 1}


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
        mop.matrix[1, 2] += 1e-3
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


def _spiral(kind, n):
    """Spiral hull of the benchmark inputs (bench/spiral.py), seeded."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spiral.py"
    spec = importlib.util.spec_from_file_location("spiral", path)
    spiral = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spiral)
    return spiral.build(kind, n, np.random.default_rng([5, n]))


GRAM_CASES = dict(FAST_PATH, **{
    "hyperideal-dual": lambda: fixtures.compact_tetrahedron(1.0)
    .dual_surface(),
    "ideal-tetrahedron": fixtures.ideal_tetrahedron,
    "compact-32": lambda: _spiral("compact", 32),
    "compact-128": lambda: _spiral("compact", 128),
    "hyper-32": lambda: _spiral("hyper", 32),
    "hyper-128": lambda: _spiral("hyper", 128),
})


@pytest.mark.parametrize("make", GRAM_CASES.values(), ids=GRAM_CASES)
def test_spectrum_from_the_gram(make):
    op = _length_operator(make())
    m = op.matrix
    product = m @ m.T
    gram = op._row_gram()
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


@pytest.mark.parametrize("make", list(FAST_PATH.values())
                         + [fixtures.flat_vertex_pyramid],
                         ids=list(FAST_PATH) + ["flat-vertex"])
def test_batched_decorations_match_scalar_path(make):
    ps = make()
    op = _length_operator(ps)
    v = projective_rigidity_verdict(ps)
    kb = (trivial_motion_basis(ps) if v.residual_dim == 0
          else op.kernel_basis())
    assert len(v.decorations) == kb.shape[1] == v.kernel_dim
    for j, d in enumerate(v.decorations):
        dec = ps.decoration_from_deformation(
            kernel_vector_as_deformation(ps, op, kb[:, j]))
        rep = pak_report(dec)
        assert d == {
            "tight": is_tight(dec).tight,
            "oriented_edges": dec.n_oriented(),
            "components_outside_coverage": sum(
                1 for c in rep.components if not c.chain_closes),
            "identities_hold": rep.all_identities_hold(),
        }
