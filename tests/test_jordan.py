import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from qsiegel import diagonal_algebra, herm_complex_algebra, make_algebra, sym_real_algebra
from qsiegel.jordan import algebra_dim
from qsiegel.errors import DimensionMismatch, DomainError, NotIdempotent, Singular

from conftest import ORACLE_SIZES, StructureTensorOracle, box_operator, dense_basis, random_elements

ALGEBRAS = [
    diagonal_algebra(1),
    diagonal_algebra(2),
    diagonal_algebra(3),
    sym_real_algebra(2),
    sym_real_algebra(3),
    herm_complex_algebra(2),
]


def sym2():
    return sym_real_algebra(2)


# -- left multiplication -----------------------------------------------------


def test_left_mult_scalar_algebra():
    alg = diagonal_algebra(1)
    t3 = alg.left_mult(np.array([3.0]))
    assert t3.shape == (1, 1) and t3[0, 0] == 3.0
    assert np.allclose(t3 @ np.array([2.0]), [6.0])


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"{a.kind}{a.rank}")
def test_left_mult_unit_is_identity(alg):
    assert np.allclose(alg.left_mult(alg.unit), np.eye(alg.dim), atol=1e-12)


def test_left_mult_matches_matrix_jordan_product():
    alg = sym2()
    x = alg.from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    e11 = alg.from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    got = alg.to_matrix(alg.left_mult(x) @ e11)
    assert np.allclose(got, np.array([[0.0, 0.5], [0.5, 0.0]]), atol=1e-12)


def test_left_mult_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        diagonal_algebra(2).left_mult(np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"{a.kind}{a.rank}")
def test_left_mult_symmetric_and_unital(alg):
    for x in random_elements(alg, 10, seed=1):
        t = alg.left_mult(x)
        assert np.allclose(t, t.T, atol=1e-11)
        assert np.allclose(t @ alg.unit, x, atol=1e-11)


# -- quadratic representation --------------------------------------------------


def test_quad_rep_scalar():
    alg = diagonal_algebra(1)
    assert np.allclose(alg.quad_rep(np.array([3.0])), [[9.0]])


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"{a.kind}{a.rank}")
def test_quad_rep_unit(alg):
    assert np.allclose(alg.quad_rep(alg.unit), np.eye(alg.dim), atol=1e-12)


def test_quad_rep_is_sandwich_product():
    # oracle: in a special Jordan algebra, P(x) y = x y x
    alg = sym2()
    rng = np.random.default_rng(2)
    for _ in range(20):
        x, y = rng.standard_normal(alg.dim), rng.standard_normal(alg.dim)
        xm, ym = alg.to_matrix(x), alg.to_matrix(y)
        assert np.allclose(alg.to_matrix(alg.quad_rep(x) @ y), xm @ ym @ xm, atol=1e-10)


# -- inversion -------------------------------------------------------------------


def test_invert_componentwise():
    alg = diagonal_algebra(2)
    assert np.allclose(alg.invert(np.array([2.0, 4.0])), [0.5, 0.25])
    assert np.allclose(alg.invert(alg.unit), alg.unit)


def test_invert_singular_reports_smallest_singular_value():
    alg = diagonal_algebra(2)
    with pytest.raises(Singular) as exc:
        alg.invert(np.array([1.0, 0.0]))
    assert exc.value.smallest_singular_value is not None
    assert exc.value.smallest_singular_value < 1e-12


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"{a.kind}{a.rank}")
def test_invert_involution_and_unit(alg):
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.standard_normal(alg.dim)
        p = alg.quad_rep(x)
        s = np.linalg.svd(p, compute_uv=False)
        if s[-1] <= 1e-6 * s[0]:
            continue
        cond = s[0] / s[-1]
        xinv = alg.invert(x)
        assert np.linalg.norm(alg.mult(x, xinv) - alg.unit) <= 1e-10 * cond
        assert np.allclose(alg.invert(xinv), x, atol=1e-8 * cond * max(1, np.linalg.norm(x)))
        # forced by the definition through the quadratic representation
        assert np.allclose(p @ xinv, x, atol=1e-8 * cond)


# -- spectral decomposition --------------------------------------------------------


def test_spectral_diagonal():
    alg = diagonal_algebra(2)
    dec = alg.spectral_decompose(np.array([3.0, -1.0]))
    assert np.allclose(dec.eigenvalues, [3.0, -1.0])
    assert np.allclose(dec.idempotents[0], [1.0, 0.0], atol=1e-12)
    assert np.allclose(dec.idempotents[1], [0.0, 1.0], atol=1e-12)


def test_spectral_unit_is_single_group():
    alg = sym2()
    dec = alg.spectral_decompose(alg.unit)
    assert len(dec.idempotents) == 1
    assert np.allclose(dec.eigenvalues, [1.0])
    assert np.allclose(dec.idempotents[0], alg.unit, atol=1e-12)
    assert dec.multiplicities[0] == alg.rank


def test_spectral_sym2_rank_one_projectors():
    # oracle: symmetric eigendecomposition of [[2,1],[1,2]]
    alg = sym2()
    x = alg.from_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    dec = alg.spectral_decompose(x)
    assert np.allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-10)
    v1 = np.array([1.0, 1.0]) / np.sqrt(2)
    v2 = np.array([1.0, -1.0]) / np.sqrt(2)
    assert np.allclose(alg.to_matrix(dec.idempotents[0]), np.outer(v1, v1), atol=1e-10)
    assert np.allclose(alg.to_matrix(dec.idempotents[1]), np.outer(v2, v2), atol=1e-10)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"{a.kind}{a.rank}")
def test_spectral_invariants_random(alg):
    for idx, x in enumerate(random_elements(alg, 100, seed=4)):
        dec = alg.spectral_decompose(x)
        cs = dec.idempotents
        assert np.linalg.norm(sum(cs) - alg.unit) <= 1e-10
        assert np.linalg.norm(dec.reconstruct() - x) <= 1e-10 * (1 + np.linalg.norm(x))
        for i, ci in enumerate(cs):
            assert np.linalg.norm(alg.mult(ci, ci) - ci) <= 1e-10
            for cj in cs[i + 1 :]:
                assert np.linalg.norm(alg.mult(ci, cj)) <= 1e-10
        assert list(dec.eigenvalues) == sorted(dec.eigenvalues, reverse=True)
        assert int(np.sum(dec.multiplicities)) == alg.rank


@pytest.mark.parametrize(
    "alg", [a for a in ALGEBRAS if a.kind != "diagonal"], ids=lambda a: f"{a.kind}{a.rank}"
)
def test_determinant_matches_matrix_oracle(alg):
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.standard_normal(alg.dim)
        expected = np.real(np.linalg.det(np.asarray(alg.to_matrix(x))))
        assert alg.det(x) == pytest.approx(expected, abs=1e-8 * max(1, abs(expected)))


def test_determinant_diagonal():
    alg = diagonal_algebra(3)
    assert alg.det(np.array([2.0, -1.0, 3.0])) == pytest.approx(-6.0)


# -- spectral maps --------------------------------------------------------------


def test_spectral_map_examples():
    alg = diagonal_algebra(2)
    assert np.allclose(alg.spectral_map(np.zeros(2), "exp"), [1.0, 1.0])
    one = diagonal_algebra(1)
    assert np.allclose(one.spectral_map(np.array([4.0]), "log"), [np.log(4.0)])
    x = np.array([2.0, 0.0])
    assert np.allclose(alg.spectral_map(x, "pseudo_inverse", proof_convention=True), [0.5, 1.0])
    assert np.allclose(alg.spectral_map(x, "pseudo_inverse"), [0.5, 0.0])
    assert np.allclose(alg.spectral_map(np.array([2.0, -3.0]), "abs"), [2.0, 3.0])
    assert np.allclose(alg.spectral_map(np.array([2.0, 0.0]), "step"), [1.0, 0.0])


def test_pseudo_inverse_proof_convention_solves_quadratic_equation():
    # the convention exists so that P(x) y = x has the solution y for singular x
    alg = sym_real_algebra(3)
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = rng.standard_normal(alg.dim)
        dec = alg.spectral_decompose(a)
        x = sum(l * c for l, c in zip([1.7, 0.0, -0.4], dec.idempotents))
        y = alg.spectral_map(x, "pseudo_inverse", proof_convention=True)
        assert np.linalg.norm(alg.quad_rep(x) @ y - x) <= 1e-8


def test_log_requires_cone():
    alg = diagonal_algebra(2)
    with pytest.raises(DomainError):
        alg.spectral_map(np.array([1.0, -1.0]), "log")


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"{a.kind}{a.rank}")
def test_exp_log_inverse_pair(alg):
    for u in random_elements(alg, 20, seed=7):
        assert np.linalg.norm(alg.log(alg.exp(u)) - u) <= 1e-8 * (1 + np.linalg.norm(u))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"{a.kind}{a.rank}")
def test_spectral_calculus_on_stacks(alg):
    # a (2, 3) stack of elements maps as its members do, by one stacked eigh
    xs = np.array(random_elements(alg, 6, seed=8)).reshape(2, 3, alg.dim)
    for f in ("exp", "abs", "step", "pseudo_inverse", lambda lam: lam**3):
        got = alg.spectral_map(xs, f)
        want = np.array([[alg.spectral_map(x, f) for x in row] for row in xs])
        assert got.shape == xs.shape and np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    cone = alg.exp(xs)
    assert np.max(np.abs(alg.log(cone) - xs)) <= 1e-8 * (1 + np.max(np.abs(xs)))
    want = np.array([[alg.quad_rep(x) for x in row] for row in xs])
    assert np.max(np.abs(alg.quad_rep(xs) - want)) <= 1e-12 * np.max(np.abs(want))
    with pytest.raises(DomainError):
        alg.log(np.array([alg.unit, -alg.unit]))


# -- cone membership ---------------------------------------------------------------


def test_cone_examples():
    alg = diagonal_algebra(2)
    assert not alg.cone_contains(np.array([1.0, -1.0]), "open")
    assert alg.cone_contains(alg.unit, "open")
    s2 = sym2()
    assert s2.cone_contains(s2.from_matrix(np.array([[2.0, 1.0], [1.0, 2.0]])), "open")
    assert alg.cone_contains(np.array([1.0, 0.0]), "closed")
    assert not alg.cone_contains(np.array([1.0, 0.0]), "open")


# -- box operators -------------------------------------------------------------------


def test_box_operator_unit_and_scalar():
    alg = sym2()
    assert np.allclose(box_operator(alg, alg.unit, alg.unit), np.eye(alg.dim), atol=1e-12)
    one = diagonal_algebra(1)
    assert np.allclose(box_operator(one, np.array([2.0]), np.array([3.0])), [[6.0]])


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"{a.kind}{a.rank}")
def test_box_operator_transpose(alg):
    rng = np.random.default_rng(8)
    for _ in range(10):
        u, up = rng.standard_normal(alg.dim), rng.standard_normal(alg.dim)
        assert np.allclose(box_operator(alg, u, up).T, box_operator(alg, up, u), atol=1e-10)


def test_box_exponential_acts_triangularly_on_peirce_components():
    # exp of the transposed box operator of (2y, e1) maps x1 + x0 to
    # (x1 + 2 T_e1 T_y^2 x0) + 2 T_y x0 + x0 for y in the half space
    alg = sym2()
    e1 = alg.from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    peirce = alg.peirce_system(e1)
    rng = np.random.default_rng(9)
    for _ in range(20):
        y = peirce.p_half @ rng.standard_normal(alg.dim)
        x1 = peirce.p1 @ rng.standard_normal(alg.dim)
        x0 = peirce.p0 @ rng.standard_normal(alg.dim)
        op = scipy.linalg.expm(box_operator(alg, 2.0 * y, e1).T)
        ty = alg.left_mult(y)
        expected = (
            x1
            + 2.0 * alg.mult(e1, ty @ (ty @ x0))
            + 2.0 * alg.mult(y, x0)
            + x0
        )
        assert np.allclose(op @ (x1 + x0), expected, atol=1e-9)


# -- Peirce systems ---------------------------------------------------------------------


def test_peirce_diagonal():
    alg = diagonal_algebra(2)
    ps = alg.peirce_system(np.array([1.0, 0.0]))
    assert np.allclose(ps.p1, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(ps.p_half, np.zeros((2, 2)), atol=1e-12)
    assert np.allclose(ps.p0, np.diag([0.0, 1.0]), atol=1e-12)


def test_peirce_unit():
    alg = sym2()
    ps = alg.peirce_system(alg.unit)
    assert np.allclose(ps.p1, np.eye(alg.dim), atol=1e-12)


def test_peirce_sym2_half_space():
    alg = sym2()
    e11 = alg.from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    ps = alg.peirce_system(e11)
    off = alg.from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    e22 = alg.from_matrix(np.array([[0.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(ps.p1 @ e11, e11, atol=1e-12)
    assert np.allclose(ps.p_half @ off, off, atol=1e-12)
    assert np.allclose(ps.p0 @ e22, e22, atol=1e-12)
    assert np.allclose(ps.p1 + ps.p_half + ps.p0, np.eye(alg.dim), atol=1e-12)
    assert np.allclose(ps.p1 @ ps.p_half, np.zeros((alg.dim,) * 2), atol=1e-12)


def test_peirce_rejects_non_idempotent():
    alg = sym2()
    with pytest.raises(NotIdempotent):
        alg.peirce_system(2.0 * alg.unit)


# -- operator identities --------------------------------------------------------------------


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"{a.kind}{a.rank}")
def test_multiplication_commutator_identity(alg):
    rng = np.random.default_rng(10)
    for _ in range(100):
        a, b, c = (rng.standard_normal(alg.dim) for _ in range(3))
        ta, tb, tc = alg.left_mult(a), alg.left_mult(b), alg.left_mult(c)
        tbc = alg.left_mult(alg.mult(b, c))
        tca = alg.left_mult(alg.mult(c, a))
        tab = alg.left_mult(alg.mult(a, b))
        total = (
            (ta @ tbc - tbc @ ta)
            + (tb @ tca - tca @ tb)
            + (tc @ tab - tab @ tc)
        )
        scale = (1 + np.linalg.norm(a)) * (1 + np.linalg.norm(b)) * (1 + np.linalg.norm(c))
        assert np.linalg.norm(total) <= 1e-9 * scale


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"{a.kind}{a.rank}")
def test_jordan_identity_and_inner_compatibility(alg):
    rng = np.random.default_rng(11)
    for _ in range(50):
        x, y, z = (rng.standard_normal(alg.dim) for _ in range(3))
        x2 = alg.mult(x, x)
        jordan = alg.mult(x, alg.mult(x2, y)) - alg.mult(x2, alg.mult(x, y))
        assert np.linalg.norm(jordan) <= 1e-10 * (1 + np.linalg.norm(x) ** 3 * np.linalg.norm(y))
        assoc = np.dot(alg.mult(x, y), z) - np.dot(y, alg.mult(x, z))
        assert abs(assoc) <= 1e-9 * (1 + np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(z))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"{a.kind}{a.rank}")
def test_mult_exp_matches_operator_exponential(alg):
    # independent oracle: matrix exponential of T_u
    rng = np.random.default_rng(12)
    for _ in range(10):
        u = rng.standard_normal(alg.dim)
        got = alg.mult_exp(u, t=1.0)
        assert np.allclose(got, scipy.linalg.expm(alg.left_mult(u)), atol=1e-9 * np.exp(np.linalg.norm(u)))
        assert np.allclose(got @ alg.unit, alg.exp(u), atol=1e-10 * np.exp(np.linalg.norm(u)))


def test_standard_frames_are_primitive_partitions():
    for alg in ALGEBRAS:
        frame = alg.standard_frame()
        assert len(frame) == alg.rank
        assert np.allclose(sum(frame), alg.unit, atol=1e-12)
        for i, c in enumerate(frame):
            assert np.linalg.norm(alg.mult(c, c) - c) <= 1e-12
            assert alg.trace(c) == pytest.approx(1.0, abs=1e-9)
            for d in frame[i + 1 :]:
                assert np.linalg.norm(alg.mult(c, d)) <= 1e-12


def test_make_algebra_kinds():
    assert make_algebra("rank1").dim == 1
    assert make_algebra("diagonal", 3).dim == 3
    assert make_algebra("sym_real", 3).dim == 6
    assert make_algebra("herm_complex", 2).dim == 4
    for kind, param in [("rank1", None), ("diagonal", 4), ("sym_real", 5), ("herm_complex", 3)]:
        assert algebra_dim(kind, param) == make_algebra(kind, param).dim
    with pytest.raises(ValueError):
        make_algebra("spin", 3)


# -- the matrix-native calculus against the structure-tensor oracle ---------------------


def _rel(got, want):
    return np.linalg.norm(np.asarray(got) - np.asarray(want)) / max(1.0, np.linalg.norm(want))


def _oracle_elements(alg):
    """The unit, each frame idempotent, an element with a repeated eigenvalue
    (except at rank one) and random elements."""
    rng = np.random.default_rng(13)
    r = alg.rank
    lam = np.concatenate([[2.0, 2.0], np.linspace(-1.5, 1.0, r - 2)]) if r > 1 else np.ones(1)
    if alg.kind == "diagonal":
        q = np.eye(r)
    else:
        z = rng.standard_normal((r, r)) + (1j * rng.standard_normal((r, r)) if alg.d == 2 else 0.0)
        q, _ = np.linalg.qr(z)
    repeated = alg.from_matrix(q @ np.diag(lam) @ q.conj().T)
    return [alg.unit, *alg.standard_frame(), repeated] + [rng.standard_normal(alg.dim) for _ in range(10)]


@pytest.mark.parametrize("kind,param", ORACLE_SIZES, ids=lambda v: str(v))
def test_spectral_calculus_matches_structure_tensor_oracle(kind, param):
    alg = make_algebra(kind, param)
    oracle = StructureTensorOracle(alg)
    rng = np.random.default_rng(14)
    for x in _oracle_elements(alg):
        dec = alg.spectral_decompose(x)
        vals, idempotents, mults = oracle.spectral_decompose(x)
        assert list(dec.multiplicities) == list(mults)
        assert np.max(np.abs(dec.eigenvalues - vals)) <= 1e-12 * max(1.0, np.linalg.norm(x))
        for got, want in zip(dec.idempotents, idempotents):
            assert _rel(got, want) <= 1e-12
        y = rng.standard_normal(alg.dim)
        assert _rel(alg.mult(x, y), oracle.mult(x, y)) <= 1e-12
        assert _rel(alg.left_mult(x), oracle.left_mult(x)) <= 1e-12
        assert _rel(alg.quad_rep(x), oracle.quad_rep(x)) <= 1e-12
        for t in (1.0, -0.7):
            assert _rel(alg.mult_exp(x, t), oracle.mult_exp(x, t)) <= 1e-12
        assert abs(alg.det(x) - oracle.det(x)) <= 1e-12 * max(1.0, abs(oracle.det(x)))


def test_make_algebra_holds_no_cubic_tensor():
    # the N x N x N structure tensor of sym_real 30 (N = 465) would take about 800 MB
    tracemalloc.start()
    try:
        alg = make_algebra("sym_real", 30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert alg.dim == 465 and not hasattr(alg, "structure")
    assert peak < 20 * 2**20


@pytest.mark.parametrize("kind,param", ORACLE_SIZES, ids=lambda v: str(v))
def test_index_form_matches_dense_basis(kind, param):
    # to_matrix is sum_k x_k B_k and from_matrix the coordinates Re tr(B_k M),
    # for single elements and for stacks, with real and complex coordinates
    alg = make_algebra(kind, param)
    basis = dense_basis(alg)
    n, dim = alg.rank, alg.dim
    rng = np.random.default_rng(15)
    for x in _oracle_elements(alg):
        assert _rel(alg.to_matrix(x), np.tensordot(x, basis, axes=1)) <= 1e-12
    xs = rng.standard_normal((3, 4, dim)) + 1j * rng.standard_normal((3, 4, dim))
    assert _rel(alg.to_matrix(xs), np.einsum("...k,kab->...ab", xs, basis)) <= 1e-12
    assert _rel(alg.to_matrix(xs.real), np.einsum("...k,kab->...ab", xs.real, basis)) <= 1e-12
    ms = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
    want = np.real(np.einsum("sab,kab->sk", ms, basis.conj()))
    assert _rel(alg.from_matrix(ms), want) <= 1e-12
    for m, row in zip(ms, want):
        assert _rel(alg.from_matrix(m), row) <= 1e-12
    for x in _oracle_elements(alg):
        assert _rel(alg.from_matrix(alg.to_matrix(x)), x) <= 1e-12
    with pytest.raises(DimensionMismatch):
        alg.to_matrix(np.ones(dim + 1))
    with pytest.raises(ValueError):
        alg.to_matrix(np.full(dim, np.nan))
