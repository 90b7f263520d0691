import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from qsiegel import (
    GroupElement,
    RealSubspace,
    SiegelPoint,
    standard_model,
)
from qsiegel import creal
from qsiegel.errors import NotInDomain

from conftest import (
    ORACLE_SIZES,
    DenseRepresentationOracle,
    beta_box,
    box_operator,
    composite_transport,
    dense_basis,
    r_stack,
    sample_points,
    unstack,
    validate_representation,
)


def test_representation_validation_accepts_builtins(models):
    for kind, (alg, rep, _) in models.items():
        validate_representation(alg, r_stack(rep))


def test_representation_validation_rejects_bad_families():
    alg, rep, _ = standard_model("diagonal", 2)
    bad = r_stack(rep)
    bad[0] = bad[0] + 0.1j * np.eye(2)  # not self-adjoint
    with pytest.raises(ValueError):
        validate_representation(alg, bad)
    bad = r_stack(rep)
    bad[1] = 2.0 * bad[1]  # breaks unitality
    with pytest.raises(ValueError):
        validate_representation(alg, bad)
    bad = 0.5 * np.stack([np.eye(2, dtype=complex)] * 2)  # not a homomorphism
    with pytest.raises(ValueError):
        validate_representation(alg, bad)


# -- the Hermitian map ---------------------------------------------------------


def test_q_eval_rank1(rank1):
    _, _, q_map = rank1
    assert np.allclose(q_map.q_eval([1.0 + 0j], [1j]), [-1j])
    assert np.allclose(q_map.q_eval([0.3 + 0.4j], [0j]), [0.0])


def test_q_eval_sym2_outer_product_oracle(sym2):
    # oracle: Q(v, v') = (v conj(v')^T + conj(v') v^T) / 2 as a symmetric matrix
    alg, _, q_map = sym2
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        got = q_map.q_eval(v, vp)
        expected_mat = 0.5 * (np.outer(v, vp.conj()) + np.outer(vp.conj(), v))
        expected = np.array(
            [np.trace(expected_mat @ b.conj().T) for b in dense_basis(alg)]
        )
        assert np.allclose(got, expected, atol=1e-12)
    e1 = np.array([1.0 + 0j, 0j])
    q11 = q_map.q_eval(e1, e1)
    assert np.allclose(np.asarray(alg.to_matrix(np.real(q11))), np.diag([1.0, 0.0]), atol=1e-12)


@pytest.mark.parametrize("kind", ["rank1", "diagonal", "sym_real", "herm_complex"])
def test_q_defining_identity_and_hermitian(models, kind):
    alg, rep, q_map = models[kind]
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.standard_normal(q_map.n) + 1j * rng.standard_normal(q_map.n)
        vp = rng.standard_normal(q_map.n) + 1j * rng.standard_normal(q_map.n)
        x = rng.standard_normal(alg.dim)
        lhs = np.dot(x, q_map.q_eval(v, vp))
        rhs = 2.0 * np.vdot(vp, rep.r_op(x) @ v)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))
        assert np.allclose(q_map.q_eval(vp, v), np.conj(q_map.q_eval(v, vp)), atol=1e-12)


@pytest.mark.parametrize("kind", ["rank1", "diagonal", "sym_real", "herm_complex"])
def test_q_cone_positivity(models, kind):
    alg, _, q_map = models[kind]
    rng = np.random.default_rng(2)
    for _ in range(100):
        v = rng.standard_normal(q_map.n) + 1j * rng.standard_normal(q_map.n)
        qvv = np.real(q_map.q_eval(v, v))
        assert alg.cone_contains(qvv, mode="closed")
        assert np.linalg.norm(qvv) > 1e-10


# -- real forms ------------------------------------------------------------------


def test_g_form_rank1(rank1):
    _, _, q_map = rank1
    g1 = q_map.g_matrix(np.array([1.0]))
    rng = np.random.default_rng(3)
    for _ in range(10):
        v1 = rng.standard_normal(2)
        v2 = rng.standard_normal(2)
        c1, c2 = creal.re_to_cx(v1), creal.re_to_cx(v2)
        assert v1 @ g1 @ v2 == pytest.approx(np.real(c1 * np.conj(c2)), abs=1e-12)


def test_g_form_zero_and_base(models):
    for alg, _, q_map in models.values():
        assert np.allclose(q_map.g_matrix(np.zeros(alg.dim)), 0.0)
        assert np.allclose(q_map.g_matrix(alg.unit), np.eye(2 * q_map.n), atol=1e-12)


def test_omega_is_alternating(models):
    for alg, _, q_map in models.values():
        rng = np.random.default_rng(4)
        x = rng.standard_normal(alg.dim)
        om = q_map.omega_matrix(x)
        assert np.allclose(om, -om.T, atol=1e-10)
        g = q_map.g_matrix(x)
        j = creal.j_matrix(q_map.n)
        v1, v2 = rng.standard_normal(2 * q_map.n), rng.standard_normal(2 * q_map.n)
        assert v1 @ om @ v2 == pytest.approx(v1 @ g @ (j @ v2), abs=1e-10)


# -- domain ------------------------------------------------------------------------


def test_domain_examples(rank1):
    _, _, q_map = rank1
    assert q_map.domain_contains(SiegelPoint([1j], [0j]))
    assert q_map.domain_contains(SiegelPoint([2j], [1.0 + 0j]))
    assert not q_map.domain_contains(SiegelPoint([1j], [1.0 + 0j]))
    assert not q_map.domain_contains(SiegelPoint([3.0 + 0j], [0j]))


# -- group --------------------------------------------------------------------------


def test_group_examples(rank1):
    _, _, q_map = rank1
    assert q_map.group_bracket([1.0 + 0j], [1j]) == pytest.approx(np.array([-4.0]))
    g = q_map.group_mul(GroupElement([0.0], [1.0 + 0j]), GroupElement([0.0], [1j]))
    assert np.allclose(g.x0, [-2.0]) and np.allclose(g.v0, [1.0 + 1j])
    p = q_map.group_act(GroupElement([0.0], [1.0 + 0j]), SiegelPoint([1j], [0j]))
    assert np.allclose(p.z, [2j]) and np.allclose(p.v, [1.0 + 0j])
    moved = q_map.group_act(GroupElement([0.5], [0j]), SiegelPoint([1j], [0.3 + 0j]))
    assert np.allclose(moved.z, [0.5 + 1j])


def test_group_inverse_and_bracket_properties(models):
    for alg, _, q_map in models.values():
        rng = np.random.default_rng(5)
        for _ in range(20):
            x0 = rng.standard_normal(alg.dim)
            v0 = rng.standard_normal(q_map.n) + 1j * rng.standard_normal(q_map.n)
            g = GroupElement(x0, v0)
            prod = q_map.group_mul(g, q_map.group_inv(g))
            assert np.linalg.norm(prod.x0) <= 1e-12 and np.linalg.norm(prod.v0) <= 1e-12
            assert np.linalg.norm(q_map.group_bracket(v0, v0)) <= 1e-12
            v1 = rng.standard_normal(q_map.n) + 1j * rng.standard_normal(q_map.n)
            assert np.allclose(
                q_map.group_bracket(v0, v1), -q_map.group_bracket(v1, v0), atol=1e-10
            )


def test_group_action_preserves_cone_part(models):
    for alg, _, q_map in models.values():
        rng = np.random.default_rng(6)
        for p in unstack(sample_points(q_map, alg, 100, 6)):
            g = GroupElement(
                rng.standard_normal(alg.dim),
                rng.standard_normal(q_map.n) + 1j * rng.standard_normal(q_map.n),
            )
            before = q_map.cone_part(p)
            after = q_map.cone_part(q_map.group_act(g, p))
            assert np.linalg.norm(after - before) <= 1e-12 * (1 + np.linalg.norm(before))


def test_group_associativity(sym2):
    alg, _, q_map = sym2
    rng = np.random.default_rng(7)
    for p in unstack(sample_points(q_map, alg, 20, 7)):
        gs = [
            GroupElement(rng.standard_normal(3), rng.standard_normal(2) + 1j * rng.standard_normal(2))
            for _ in range(3)
        ]
        left = q_map.group_mul(q_map.group_mul(gs[0], gs[1]), gs[2])
        right = q_map.group_mul(gs[0], q_map.group_mul(gs[1], gs[2]))
        assert np.allclose(left.x0, right.x0, atol=1e-10)
        assert np.allclose(left.v0, right.v0, atol=1e-10)
        # the group law reproduces composition of the affine actions
        via_mul = q_map.group_act(q_map.group_mul(gs[0], gs[1]), p)
        via_act = q_map.group_act(gs[0], q_map.group_act(gs[1], p))
        assert np.allclose(via_mul.z, via_act.z, atol=1e-10)
        assert np.allclose(via_mul.v, via_act.v, atol=1e-10)


# -- orbit tangents ------------------------------------------------------------------


def test_orbit_tangent_rank1(rank1):
    _, _, q_map = rank1
    w_real = RealSubspace(np.array([[1.0], [0.0]]))
    tangent = q_map.orbit_tangent(w_real, SiegelPoint([1j], [0j]))
    expected = RealSubspace(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    assert tangent.equals(expected)

    w_zero = RealSubspace.zero(2)
    t0 = q_map.orbit_tangent(w_zero, SiegelPoint([1j], [0j]))
    assert t0.dim == 1
    assert t0.contains_vector(np.array([1.0, 0.0, 0.0, 0.0]))

    w_full = RealSubspace.full(2)
    t1 = q_map.orbit_tangent(w_full, SiegelPoint([2j], [1.0 + 0j]))
    assert t1.dim == 3
    assert t1.contains_vector(np.array([0.0, 2.0, 1.0, 0.0]))


def test_orbit_tangent_dimension(models):
    for alg, _, q_map in models.values():
        rng = np.random.default_rng(8)
        p = unstack(sample_points(q_map, alg, 1, 8))[0]
        w = RealSubspace.from_spanning(rng.standard_normal((2 * q_map.n, q_map.n)))
        tangent = q_map.orbit_tangent(w, p)
        assert tangent.dim == alg.dim + w.dim


# -- transport to the base point --------------------------------------------------------


def test_transport_rank1_example(rank1):
    _, _, q_map = rank1
    image, deriv = q_map.transport_to_base(SiegelPoint([2.0 + 5j], [1.0 + 0j]))
    assert np.allclose(image.z, [1j], atol=1e-12)
    assert np.allclose(image.v, [0j], atol=1e-12)
    assert np.allclose(deriv[2:, 2:], 0.5 * np.eye(2), atol=1e-12)


def test_transport_identity_at_base(models):
    for alg, _, q_map in models.values():
        image, deriv = q_map.transport_to_base(q_map.base_point())
        assert np.allclose(image.z, q_map.base_point().z, atol=1e-12)
        assert np.allclose(deriv, np.eye(2 * (alg.dim + q_map.n)), atol=1e-10)


def test_transport_diag2_blocks(diag2):
    _, _, q_map = diag2
    image, deriv = q_map.transport_to_base(SiegelPoint([4j, 9j], [0j, 0j]))
    assert np.allclose(image.z, [1j, 1j], atol=1e-12)
    assert np.allclose(deriv[:4, :4], np.diag([0.25, 1 / 9, 0.25, 1 / 9]), atol=1e-12)
    assert np.allclose(deriv[4:, 4:], np.diag([0.5, 1 / 3, 0.5, 1 / 3]), atol=1e-12)


def test_transport_random_points_land_on_base(models):
    for alg, _, q_map in models.values():
        for p in unstack(sample_points(q_map, alg, 20, 9)):
            image, deriv = q_map.transport_to_base(p)
            assert np.linalg.norm(image.z - 1j * alg.unit) <= 1e-8
            assert np.linalg.norm(image.v) <= 1e-12
            assert np.linalg.cond(deriv) < 1e8


def test_transport_rejects_outside_domain(rank1):
    _, _, q_map = rank1
    with pytest.raises(NotInDomain):
        q_map.transport_to_base(SiegelPoint([1.0 + 0j], [0j]))
    # in a stack, one point outside the domain is enough
    with pytest.raises(NotInDomain):
        q_map.transport_to_base(SiegelPoint([[5j], [1.0 + 0j]], [[0j], [0j]]))


# -- equivariance and trace identities --------------------------------------------------


@pytest.mark.parametrize("kind", ["rank1", "diagonal", "sym_real", "herm_complex"])
def test_scaling_equivariance(models, kind):
    # e^{beta(A)} R_x v = R_{e^A x} e^{-beta(A)*} v for A = T_u and A = u box u'
    alg, rep, q_map = models[kind]
    rng = np.random.default_rng(10)
    for _ in range(50):
        u = rng.standard_normal(alg.dim) * 0.6
        up = rng.standard_normal(alg.dim) * 0.6
        x = rng.standard_normal(alg.dim)
        v = rng.standard_normal(q_map.n) + 1j * rng.standard_normal(q_map.n)

        cases = [
            (alg.mult_exp(u, 1.0), rep.r_op(u)),
            (scipy.linalg.expm(box_operator(alg, u, up)), beta_box(rep, u, up)),
        ]
        for e_a, beta in cases:
            lhs = scipy.linalg.expm(beta) @ rep.r_op(x) @ v
            rhs = rep.r_op(e_a @ x) @ (scipy.linalg.expm(-beta.conj().T) @ v)
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * (1 + np.linalg.norm(lhs))


@pytest.mark.parametrize("kind", ["diagonal", "sym_real", "herm_complex"])
def test_beta_transpose_is_adjoint(models, kind):
    alg, rep, _ = models[kind]
    rng = np.random.default_rng(11)
    for _ in range(25):
        u, up = rng.standard_normal(alg.dim), rng.standard_normal(alg.dim)
        # transpose of u box u' is u' box u, whose image must be the adjoint
        assert np.allclose(beta_box(rep, up, u), beta_box(rep, u, up).conj().T, atol=1e-10)
        assert np.allclose(box_operator(alg, u, up).T, box_operator(alg, up, u), atol=1e-10)


@pytest.mark.parametrize("kind", ["diagonal", "sym_real", "herm_complex"])
def test_trace_identity(models, kind):
    alg, rep, _ = models[kind]
    rng = np.random.default_rng(12)
    for _ in range(25):
        u, up, x, y = (rng.standard_normal(alg.dim) for _ in range(4))
        for a in (alg.left_mult(u), box_operator(alg, u, up)):
            lhs = np.trace(rep.r_op(alg.mult(a @ x, y)))
            rhs = np.trace(rep.r_op(alg.mult(x, a.T @ y)))
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


# -- the index-form model against the stored-tensor oracle ------------------------------


def _rel(got, want):
    return np.linalg.norm(np.asarray(got) - np.asarray(want)) / max(1.0, np.linalg.norm(want))


@pytest.mark.parametrize("kind,param", ORACLE_SIZES, ids=lambda v: str(v))
def test_model_matches_dense_tensor_oracle(kind, param):
    alg, rep, q_map = standard_model(kind, param)
    oracle = DenseRepresentationOracle(alg)
    n = q_map.n
    rng = np.random.default_rng(16)

    def vectors(*shape):
        return rng.standard_normal((*shape, n)) + 1j * rng.standard_normal((*shape, n))

    vs, vps = vectors(6), vectors(6)
    for v, vp in zip(vs, vps):
        want = oracle.q_eval(v, vp)
        assert _rel(q_map.q_eval(v, vp), want) <= 1e-12
        # Q(v, v') = from_matrix(M) + i from_matrix(-iM) with M = v v'^H
        m = np.outer(v, vp.conj())
        assert _rel(alg.from_matrix(m) + 1j * alg.from_matrix(-1j * m), want) <= 1e-12
    stacked = q_map.q_eval(vs[:, None, :], vps[None, :, :])
    want = np.array([[oracle.q_eval(v, vp) for vp in vps] for v in vs])
    assert stacked.shape == (6, 6, alg.dim) and _rel(stacked, want) <= 1e-12
    for _ in range(5):
        x = rng.standard_normal(alg.dim)
        assert _rel(rep.r_op(x), oracle.r_op(x)) <= 1e-12
        assert _rel(q_map.g_matrix(x), oracle.g_matrix(x)) <= 1e-12
    for v0 in vectors(3):
        assert _rel(q_map.affine_derivative(v0), oracle.affine_derivative(v0)) <= 1e-12
    points = unstack(sample_points(q_map, alg, 7, 16))
    for dim_w, p in zip((0, 1, n, 2 * n), points):
        w = RealSubspace.from_spanning(rng.standard_normal((2 * n, dim_w)))
        got, want = q_map.orbit_tangent(w, p), oracle.orbit_tangent(w, p)
        assert got.dim == want.dim == alg.dim + dim_w
        assert _rel(got.projector(), want.projector()) <= 1e-12
    for p in points[4:]:
        (image, deriv), (want_image, want_deriv) = q_map.transport_to_base(p), composite_transport(q_map, p)
        assert _rel(image.coords(), want_image.coords()) <= 1e-12
        assert _rel(deriv, want_deriv) <= 1e-12
    # a stack of points: each member of the stacked maps matches the oracles
    stack = sample_points(q_map, alg, 3, 17)
    singles = unstack(stack)
    w = RealSubspace.from_spanning(rng.standard_normal((2 * n, n)))
    tangents = q_map.orbit_tangent(w, stack)
    images, derivs = q_map.transport_to_base(stack)
    affine = q_map.affine_derivative(stack.v)
    for k, p in enumerate(singles):
        want_image, want_deriv = composite_transport(q_map, p)
        assert _rel(images.z[k], want_image.z) <= 1e-12 and _rel(derivs[k], want_deriv) <= 1e-12
        assert _rel(affine[k], oracle.affine_derivative(p.v)) <= 1e-12
        assert _rel(tangents[k] @ tangents[k].T, oracle.orbit_tangent(w, p).projector()) <= 1e-12


def test_standard_model_stores_no_cubic_stack():
    # one dense complex N x n x n stack at diagonal 256 takes 268 MB
    tracemalloc.start()
    try:
        alg, rep, q_map = standard_model("diagonal", 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    for obj in (alg, rep, q_map):
        assert not any(isinstance(a, np.ndarray) and a.ndim >= 3 for a in vars(obj).values())
    assert not any(hasattr(obj, name) for obj in (alg, rep, q_map)
                   for name in ("matrix_basis", "r_basis", "q_tensor", "_dual"))
