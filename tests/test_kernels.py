import dataclasses

import numpy as np
import pytest

from qsiegel import (
    RealSubspace,
    standard_model,
    SiegelPoint,
    GroupElement,
    build_kernel_params,
    classify_lambda,
    eval_kernel,
    fock_kernel,
    gram_psd_report,
    invariant_kernel_raw,
    frame_scalar_check,
    kernel_matrix,
)
from conftest import conj_matrix, sample_points, unstack
from qsiegel import creal
from qsiegel.catalog import catalog_get, catalog_list
from qsiegel.errors import (
    DecompositionFailure,
    FactorizationResidualTooLarge,
    FrameInvalid,
    NotInLambda,
)
from qsiegel.kernels import frame_kernel_params, frame_w_subspace


def rank1_params(rank1, x=1.0, chi=None):
    _, _, q_map = rank1
    w = RealSubspace(np.array([[1.0], [0.0]]))
    return build_kernel_params(q_map, w, np.array([x]), chi=chi)


# -- classification ------------------------------------------------------------


def test_classify_diag2_full_w(diag2):
    _, _, q_map = diag2
    w = RealSubspace.full(4)
    assert classify_lambda(q_map, w, np.array([1.0, 0.0])) == 1
    assert classify_lambda(q_map, w, np.array([1.0, -1.0])) is None
    assert classify_lambda(q_map, w, np.array([0.0, 0.0])) == 2
    assert classify_lambda(q_map, w, np.array([2.0, 3.0])) == 0


def test_classify_rank1_real_form_is_always_zero(rank1):
    _, _, q_map = rank1
    w = RealSubspace(np.array([[1.0], [0.0]]))
    for x in (1.0, -2.0, 0.0):
        assert classify_lambda(q_map, w, np.array([x])) == 0


# -- parameter assembly ----------------------------------------------------------


def test_build_params_rank1(rank1):
    params = rank1_params(rank1)
    assert params.k == 0
    assert np.allclose(params.a_x, [[1.0]], atol=1e-12)


def test_build_params_derives_the_spaces_once(monkeypatch):
    # one basic_spaces and one radical_on per parameter: derive_spaces checks
    # admissibility with the same predicate as classify_lambda
    from qsiegel import kernels, subspaces

    calls = {"basic_spaces": 0, "radical_on": 0}
    for name in calls:
        original = getattr(subspaces, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (subspaces, kernels):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    entry = catalog_get("sym3")
    alg, _, q_map = entry.model()
    w = entry.variant("frame").subspace(q_map.n)
    for x in (alg.unit, alg.standard_frame()[1]):
        calls.update(basic_spaces=0, radical_on=0)
        params = build_kernel_params(q_map, w, x, chi=np.array([0.3]))
        assert calls == {"basic_spaces": 1, "radical_on": 1}
        calls.update(basic_spaces=0, radical_on=0)
        assert classify_lambda(q_map, w, x) == params.k
        assert calls == {"basic_spaces": 1, "radical_on": 1}
    assert params.k >= 1, "the boundary x has a nonzero radical"


def test_build_params_rejects_inadmissible(diag2):
    _, _, q_map = diag2
    with pytest.raises(NotInLambda):
        build_kernel_params(q_map, RealSubspace.full(4), np.array([1.0, -1.0]))


def test_full_w_kernel_reduces_to_invariant_factor(diag2):
    alg, _, q_map = diag2
    w = RealSubspace.full(4)
    params = build_kernel_params(q_map, w, np.array([1.0, 2.0]))
    pts = unstack(sample_points(q_map, alg, 6, seed=0))
    for p1 in pts[:3]:
        for p2 in pts[3:]:
            assert eval_kernel(params, p1, p2) == pytest.approx(
                invariant_kernel_raw(q_map, params.x, p1, p2), abs=1e-12
            )


def test_chi_must_match_s_dimension(rank1):
    with pytest.raises(ValueError):
        rank1_params(rank1, chi=np.array([1.0, 2.0]))


# -- evaluation --------------------------------------------------------------------


def test_eval_rank1_base_value(rank1):
    params = rank1_params(rank1)
    p = SiegelPoint([1j], [0j])
    assert eval_kernel(params, p, p) == pytest.approx(np.exp(-2.0), rel=1e-12)


def test_eval_rank1_frozen_values(rank1):
    # frozen from the kernel formula evaluated by hand and cross-checked
    # against the coherent-state route; the invariant Hilbert space here is
    # one-dimensional so every Gram matrix has rank one
    params = rank1_params(rank1)
    pa = SiegelPoint([2j], [1j])
    pb = SiegelPoint([2j], [0j])
    assert eval_kernel(params, pa, pa) == pytest.approx(np.exp(-6.0), rel=1e-10)
    assert eval_kernel(params, pb, pa) == pytest.approx(np.exp(-5.0), rel=1e-10)
    gram = np.array(
        [
            [eval_kernel(params, pb, pb), eval_kernel(params, pb, pa)],
            [eval_kernel(params, pa, pb), eval_kernel(params, pa, pa)],
        ]
    )
    evals = np.linalg.eigvalsh(gram)
    assert evals[0] == pytest.approx(0.0, abs=1e-12)
    assert evals[1] > 0


def test_eval_agrees_with_adapted_coordinate_route():
    # independent oracle: the reproducing kernel of the image of the
    # coherent-state space, written in coordinates adapted to x (split along
    # P + S^x + jS^x, with the conjugation of the real form S^x); this route
    # never touches A_x or the fixed S-splitting used by eval_kernel

    for name, var in [("sym2", "frame"), ("diag2", "phase"), ("herm2", "frame"), ("sym3", "frame")]:
        entry = catalog_get(name)
        alg, _, q_map = entry.model()
        w = entry.variant(var).subspace(q_map.n)
        rng = np.random.default_rng(1)
        xs = [alg.exp(0.5 * rng.standard_normal(alg.dim)), alg.standard_frame()[0]]
        for x in xs:
            if classify_lambda(q_map, w, x) is None:
                continue
            params = build_kernel_params(q_map, w, x)
            d = params.spaces
            sx = d.s_x_complement
            jsx = sx.j_image(q_map.n)
            blocks = np.hstack([d.p.basis, sx.basis, jsx.basis])
            conj_sx = conj_matrix(sx, q_map.n)

            def split(v):
                coef = np.linalg.solve(blocks, creal.cx_to_re(v))
                q = creal.re_to_cx(d.p.basis @ coef[: d.p.dim])
                return q, v - q

            def adapted(p1, p2):
                q1, s1 = split(p1.v)
                q2, s2 = split(p2.v)
                s1b = creal.re_to_cx(conj_sx @ creal.cx_to_re(s1))
                s2b = creal.re_to_cx(conj_sx @ creal.cx_to_re(s2))
                expo = 1j * np.dot(
                    params.x,
                    p1.z
                    - np.conj(p2.z)
                    - 2j * q_map.q_eval(q1, q2)
                    - 1j * q_map.q_eval(s1, s1b)
                    - 1j * q_map.q_eval(s2b, s2),
                )
                return np.exp(expo)

            for p1 in unstack(sample_points(q_map, alg, 3, seed=2)):
                for p2 in unstack(sample_points(q_map, alg, 3, seed=3)):
                    expected = adapted(p1, p2)
                    assert eval_kernel(params, p1, p2) == pytest.approx(expected, rel=1e-9)


def params_sdim(q_map, w):
    return w.j_image(q_map.n).perp().dim


def test_chi_zero_matches_default(rank1):
    params0 = rank1_params(rank1)
    params1 = rank1_params(rank1, chi=np.zeros(1))
    p1, p2 = SiegelPoint([1j], [0.2 + 0j]), SiegelPoint([0.4 + 2j], [0.1j])
    assert eval_kernel(params0, p1, p2) == eval_kernel(params1, p1, p2)


def test_chi_twist_preserves_hermitian_symmetry_and_diagonal(rank1):
    p0 = rank1_params(rank1)
    pc = rank1_params(rank1, chi=np.array([1.7]))
    p1, p2 = SiegelPoint([1j], [0.2 + 0j]), SiegelPoint([0.4 + 2j], [0.1j])
    assert eval_kernel(pc, p1, p2) == pytest.approx(np.conj(eval_kernel(pc, p2, p1)), rel=1e-12)
    # the twist is a character: diagonal values pick up a phase of modulus 1
    assert abs(eval_kernel(pc, p1, p1)) == pytest.approx(abs(eval_kernel(p0, p1, p1)), rel=1e-10)


def test_hermitian_symmetry_random(models):
    for kind, (alg, _, q_map) in models.items():
        w = RealSubspace.full(2 * q_map.n)
        params = build_kernel_params(q_map, w, alg.exp(0.3 * alg.unit))
        pts = unstack(sample_points(q_map, alg, 6, seed=4))
        for p1 in pts:
            for p2 in pts:
                assert eval_kernel(params, p1, p2) == pytest.approx(
                    np.conj(eval_kernel(params, p2, p1)), abs=1e-12 * abs(eval_kernel(params, p1, p2)) + 1e-15
                )


def test_group_invariance():
    for name, var in [("sym2", "frame"), ("heisenberg-rank1", "real"), ("diag2", "phase")]:
        entry = catalog_get(name)
        alg, _, q_map = entry.model()
        w = entry.variant(var).subspace(q_map.n)
        rng = np.random.default_rng(5)
        x = alg.exp(0.4 * rng.standard_normal(alg.dim))
        params = build_kernel_params(q_map, w, x, chi=0.5 * np.ones(params_sdim(q_map, w)))
        pts = unstack(sample_points(q_map, alg, 4, seed=6))
        for _ in range(100):
            wv = w.basis @ rng.standard_normal(w.dim) if w.dim else np.zeros(2 * q_map.n)
            g = GroupElement(rng.standard_normal(alg.dim), creal.re_to_cx(wv))
            for p1 in pts[:2]:
                for p2 in pts[2:]:
                    before = eval_kernel(params, p1, p2)
                    after = eval_kernel(params, q_map.group_act(g, p1), q_map.group_act(g, p2))
                    assert abs(after - before) <= 1e-9 * max(1.0, abs(before))


def test_sx_choice_does_not_affect_values():
    # rebuild A_x from a randomized complement of N_x inside S_x: the split
    # [P | S^x | jS^x] of that complement gives its own projection p^x
    cases = [
        ("sym2", "frame", lambda alg: _frame_vector(alg, 0)),
        ("sym3", "frame", lambda alg: _frame_vector(alg, 1)),
        ("diag2", "full", lambda alg: np.array([1.0, 0.0])),
    ]
    compared = 0
    for name, var, make_x in cases:
        entry = catalog_get(name)
        alg, _, q_map = entry.model()
        w = entry.variant(var).subspace(q_map.n)
        x = make_x(alg)
        assert classify_lambda(q_map, w, x) >= 1
        params = build_kernel_params(q_map, w, x)
        rng = np.random.default_rng(7)
        d = params.spaces
        for _ in range(5):
            mix = d.s_x.basis @ rng.standard_normal((d.s_x.dim, d.s_x_complement.dim))
            cand = RealSubspace.from_spanning(d.s_x_complement.basis + 0.7 * mix)
            if cand.dim != d.s_x_complement.dim or cand.intersect(d.n_x).dim or cand.equals(d.s_x_complement):
                continue
            blocks = np.hstack([d.p.basis, cand.basis, creal.j_matrix(q_map.n) @ cand.basis])
            keep = np.diag((np.arange(2 * q_map.n) >= d.p.dim).astype(float))
            pxc = creal.complexify(blocks @ keep @ np.linalg.inv(blocks))
            a_x = 2.0 * pxc.conj().T @ q_map.rep.r_op(x) @ pxc
            params2 = dataclasses.replace(params, a_x=a_x)
            compared += 1
            for p1 in unstack(sample_points(q_map, alg, 3, seed=8)):
                for p2 in unstack(sample_points(q_map, alg, 3, seed=9)):
                    assert eval_kernel(params, p1, p2) == pytest.approx(
                        eval_kernel(params2, p1, p2), rel=1e-10, abs=1e-13
                    )
    assert compared == 10


def _frame_vector(alg, k):
    return alg.standard_frame()[k]


# -- the broadcast kernel matrix against the per-pair reference --------------------


def reference_kernel(params, p1, p2):
    """Per-pair evaluation that kernel_matrix replaced, kept as its reference:
    each point is split along P + S + jS, conjugated by the matrix of
    ``conj_matrix`` and paired with chi by a least-squares solve of its own."""

    def split(v):
        vre = creal.cx_to_re(v)
        coeff, _, _, _ = np.linalg.lstsq(params.spaces.split_matrix, vre, rcond=None)
        q = params.spaces.p.basis @ coeff[: params.spaces.p.dim]
        return creal.re_to_cx(vre - q)

    def chi_value(s):
        if params.chi.size == 0:
            return 0.0 + 0.0j
        b = params.spaces.s.basis
        span = np.hstack([b, creal.j_matrix(params.q_map.n) @ b])
        coeff, _, _, _ = np.linalg.lstsq(span, creal.cx_to_re(s), rcond=None)
        d = params.spaces.s.dim
        return np.dot(params.chi, coeff[:d]) + 1j * np.dot(params.chi, coeff[d:])

    s1, s2 = split(p1.v), split(p2.v)
    first = invariant_kernel_raw(params.q_map, params.x, p1, p2)
    conj_s = conj_matrix(params.spaces.s, params.q_map.n)
    s1bar = creal.re_to_cx(conj_s @ creal.cx_to_re(s1))
    s2bar = creal.re_to_cx(conj_s @ creal.cx_to_re(s2))
    d1 = s1 - s2bar
    d2 = s1bar - s2
    second = np.exp(np.vdot(params.a_x @ d2, d1))  # h(d1, A_x d2)
    third = np.exp(-1j * chi_value(d1))
    return complex(first * second * third)


KERNEL_CASES = [
    ("catalog", name, var.name)
    for name in catalog_list()
    for var in catalog_get(name).variants
    if var.expected_mf
] + [("frame", "sym_real", 4), ("frame", "sym_real", 6), ("frame", "herm_complex", 3), ("frame", "herm_complex", 4)]


def _kernel_case(source, a, b):
    """Model and W of a catalog variant (name, variant) or a frame W (kind, size)."""
    if source == "catalog":
        entry = catalog_get(a)
        alg, _, q_map = entry.model()
        return alg, q_map, entry.variant(b).subspace(q_map.n)
    alg, _, q_map = standard_model(a, b)
    w, _, _ = frame_w_subspace(alg, q_map, alg.standard_frame()[0])
    return alg, q_map, w


def _interior_and_boundary_x(alg, q_map, w, rng):
    """An interior x, and a frame combination with one zero weight and k > 0
    when the spec has one."""
    xs = [alg.exp(0.5 * rng.standard_normal(alg.dim))]
    frame = alg.standard_frame()
    for zero in range(len(frame)):
        weights = 0.5 + rng.random(len(frame))
        weights[zero] = 0.0
        x = sum(wi * ci for wi, ci in zip(weights, frame))
        k = classify_lambda(q_map, w, x)
        if k is not None and k > 0:
            xs.append(x)
            break
    return xs


@pytest.mark.parametrize("source,a,b", KERNEL_CASES)
def test_kernel_matrix_matches_per_pair_reference(source, a, b):
    alg, q_map, w = _kernel_case(source, a, b)
    rng = np.random.default_rng(20)
    s_dim = params_sdim(q_map, w)
    xs = _interior_and_boundary_x(alg, q_map, w, rng)
    if source == "frame":
        assert len(xs) == 2, "the frame W has admissible boundary points with k > 0"
    pts_a = sample_points(q_map, alg, 6, seed=21)
    pts_b = sample_points(q_map, alg, 4, seed=22)
    for x in xs:
        params = build_kernel_params(q_map, w, x, chi=rng.standard_normal(s_dim))
        if s_dim:
            assert np.any(params.chi != 0.0)
        for rows, cols in ((pts_a, pts_b), (pts_a, pts_a)):
            got = kernel_matrix(params, rows, cols)
            assert got.shape == (rows.z.shape[0], cols.z.shape[0])
            want = np.array([[reference_kernel(params, a, b) for b in unstack(cols)] for a in unstack(rows)])
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_eval_kernel_is_the_one_by_one_kernel_matrix(sym2):
    # a single unstacked SiegelPoint is a stack of one
    alg, _, q_map = sym2
    w = catalog_get("sym2").variant("frame").subspace(q_map.n)
    params = build_kernel_params(q_map, w, alg.unit, chi=np.array([0.8]))
    p1, p2 = unstack(sample_points(q_map, alg, 2, seed=23))
    assert p1.z.shape == (alg.dim,) and p1.v.shape == (q_map.n,)
    assert kernel_matrix(params, p1, p2).shape == (1, 1)
    assert eval_kernel(params, p1, p2) == kernel_matrix(params, p1, p2)[0, 0]


def test_gram_matrix_is_exactly_hermitian():
    entry = catalog_get("sym3")
    alg, _, q_map = entry.model()
    w = entry.variant("frame").subspace(q_map.n)
    params = build_kernel_params(q_map, w, alg.standard_frame()[1], chi=np.array([0.7]))
    pts = sample_points(q_map, alg, 15, seed=24)
    gram = gram_psd_report(params, pts, keep_matrix=True).gram
    assert np.array_equal(gram, gram.conj().T)
    upper = np.triu_indices(15)
    assert np.allclose(gram[upper], kernel_matrix(params, pts, pts)[upper], rtol=1e-13, atol=0.0)


def test_batched_split_matches_single_splits_and_checks_every_row(sym2):
    alg, _, q_map = sym2
    w = catalog_get("sym2").variant("frame").subspace(q_map.n)
    spaces = build_kernel_params(q_map, w, alg.unit).spaces
    vs = sample_points(q_map, alg, 5, seed=25).v
    q, c = spaces.split_p_s(vs)
    # the coordinates c of s are complex over the basis of the real form S
    assert np.allclose(q + c @ creal.re_to_cx(spaces.s.basis.T), vs, atol=1e-14)
    for i, v in enumerate(vs):
        qi, ci = spaces.split_p_s(v)
        assert np.allclose(q[i], qi, atol=1e-14) and np.allclose(c[i], ci, atol=1e-14)
    # zero the last S + jS direction: only rows without a component along it split
    narrow_matrix = spaces.split_matrix.copy()
    narrow_matrix[:, -1] = 0.0
    narrow = dataclasses.replace(spaces, split_matrix=narrow_matrix)
    inside = creal.re_to_cx(narrow.split_matrix @ np.ones(narrow.split_matrix.shape[1]))
    narrow.split_p_s(np.array([inside, inside]))
    with pytest.raises(DecompositionFailure):
        narrow.split_p_s(np.array([inside, vs[0], inside]))


# -- positivity ---------------------------------------------------------------------


def test_gram_reports_psd_on_mf_entries():
    for name, var in [("heisenberg-rank1", "real"), ("sym2", "frame"), ("diag2", "realform")]:
        entry = catalog_get(name)
        alg, _, q_map = entry.model()
        w = entry.variant(var).subspace(q_map.n)
        rng = np.random.default_rng(10)
        for trial in range(5):
            x = alg.exp(0.5 * rng.standard_normal(alg.dim))
            chi = rng.standard_normal(params_sdim(q_map, w))
            params = build_kernel_params(q_map, w, x, chi=chi)
            rep = gram_psd_report(params, sample_points(q_map, alg, 12, seed=trial))
            assert rep.psd, f"{name}/{var} trial {trial}: min eig {rep.min_eigenvalue}"


def test_single_point_gram(rank1):
    params = rank1_params(rank1)
    rep = gram_psd_report(params, SiegelPoint([1j], [0j]))
    assert rep.n_points == 1 and rep.psd


def test_negative_control_inadmissible_x_defeats_positivity(diag2):
    # x with a negative direction on P cannot produce a positive-type kernel;
    # a non-PSD Gram must appear within a bounded search over point sets
    alg, _, q_map = diag2
    x = np.array([1.0, -1.0])
    rng = np.random.default_rng(11)
    found = False
    for trial in range(100):
        pts = unstack(sample_points(q_map, alg, 5, seed=100 + trial))
        g = np.array([[invariant_kernel_raw(q_map, x, a, b) for b in pts] for a in pts])
        if np.linalg.eigvalsh(0.5 * (g + g.conj().T))[0] < -1e-8 * max(1, np.linalg.norm(g, 2)):
            found = True
            break
    assert found


# -- coherent-state kernel ------------------------------------------------------------


def test_fock_kernel_values(rank1, diag2):
    _, _, q_map = rank1
    assert fock_kernel(q_map, np.array([1.0]), [1.0 + 0j], [1.0 + 0j]) == pytest.approx(np.exp(2.0))
    assert fock_kernel(q_map, np.array([1.0]), [0.7 + 0.2j], [0j]) == pytest.approx(1.0)
    _, _, q2 = diag2
    val = fock_kernel(q2, np.array([1.0, 2.0]), [1.0 + 0j, 1.0 + 0j], [1.0 + 0j, 1.0 + 0j])
    assert val == pytest.approx(np.exp(6.0))


def test_fock_kernel_positive_type(diag2):
    _, _, q_map = diag2
    rng = np.random.default_rng(12)
    x = np.array([0.8, 1.3])
    qs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(10)]
    g = np.array([[fock_kernel(q_map, x, a, b) for b in qs] for a in qs])
    assert np.linalg.eigvalsh(0.5 * (g + g.conj().T))[0] >= -1e-8 * np.linalg.norm(g, 2)


def test_fock_kernel_validates_p_membership(rank1):
    _, _, q_map = rank1
    p_space = RealSubspace.zero(2)
    with pytest.raises(ValueError):
        fock_kernel(q_map, np.array([1.0]), [1.0 + 0j], [1.0 + 0j], p_space=p_space)


# -- frame-based scalar reduction ------------------------------------------------------


def test_frame_scalar_worked_example(sym2):
    alg, _, q_map = sym2
    e1 = alg.from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    x = alg.from_matrix(np.array([[2.0, 1.0], [1.0, 1.0]]))
    report = frame_scalar_check(alg, q_map, e1, x, n_samples=100, seed=0)
    assert report.scalar == pytest.approx(1.0, abs=1e-10)
    assert report.solve_residual <= 1e-10
    assert report.scalar_deviation <= 1e-8
    y = alg.to_matrix(report.y)
    assert np.allclose(y, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-10)


def test_frame_scalar_unit_and_degenerate(sym2):
    alg, _, q_map = sym2
    e1 = alg.from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert frame_scalar_check(alg, q_map, e1, alg.unit).scalar == pytest.approx(1.0)
    x0_only = alg.from_matrix(np.array([[0.0, 0.0], [0.0, 1.0]]))
    rep = frame_scalar_check(alg, q_map, e1, x0_only)
    assert rep.scalar == pytest.approx(0.0, abs=1e-12)
    assert rep.scalar_deviation <= 1e-10


def test_frame_scalar_herm2(herm2):
    alg, _, q_map = herm2
    e1 = alg.standard_frame()[0]
    rng = np.random.default_rng(13)
    for _ in range(5):
        x = alg.exp(0.5 * rng.standard_normal(alg.dim))
        rep = frame_scalar_check(alg, q_map, e1, x, n_samples=40, seed=1)
        assert rep.scalar_deviation <= 1e-8


@pytest.mark.parametrize("kind,param", [("diagonal", 2), ("sym_real", 2), ("sym_real", 3)])
def test_frame_scalar_check_on_an_idempotent_accepted_to_rounding(kind, param):
    # e1 scaled by 1 + 3e-9 passes the 1e-8 idempotent test, and its Peirce
    # projectors carry dust of that size; at diagonal 2 U(e1, 1/2) is 0, and a
    # dust direction kept as its basis solved x_half = 2 T_y x_0 with y ~ 3e8
    alg, _, q_map = standard_model(kind, param)
    e1 = alg.standard_frame()[0]
    x = alg.unit + 0.1 * e1
    exact = frame_scalar_check(alg, q_map, e1, x, n_samples=5)
    near = frame_scalar_check(alg, q_map, (1.0 + 3e-9) * e1, x, n_samples=5)
    assert abs(near.scalar - exact.scalar) <= 1e-7
    assert np.max(np.abs(near.y - exact.y)) <= 1e-7


def test_frame_scalar_rejects_bad_frames(sym2):
    alg, _, q_map = sym2
    with pytest.raises(FrameInvalid):
        frame_scalar_check(alg, q_map, alg.unit / np.sqrt(2.0), alg.unit)  # not primitive
    with pytest.raises(FrameInvalid):
        frame_scalar_check(alg, q_map, 2.0 * alg.standard_frame()[0], alg.unit)  # not unit norm


def test_frame_scalar_rejects_unsolvable_factorization(sym2):
    # x with x_half nonzero but x_0 = 0 violates the admissibility condition
    alg, _, q_map = sym2
    e1 = alg.from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    x = alg.from_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(FactorizationResidualTooLarge):
        frame_scalar_check(alg, q_map, e1, x)


def test_frame_w_matches_catalog(sym2, herm2):
    from qsiegel import standard_model

    sym3 = standard_model("sym_real", 3)
    for model, entry_name in [(sym2, "sym2"), (herm2, "herm2"), (sym3, "sym3")]:
        alg, _, q_map = model
        e1 = alg.standard_frame()[0]
        w, p, s = frame_w_subspace(alg, q_map, e1)
        expected = catalog_get(entry_name).variant("frame").subspace(q_map.n)
        assert w.equals(expected)


def test_frame_scalar_scalar_matches_a_x_action(sym2):
    # A_x acts on S + jS as multiplication by the scalar
    alg, _, q_map = sym2
    e1 = alg.standard_frame()[0]
    rng = np.random.default_rng(14)
    for _ in range(10):
        x = alg.exp(0.5 * rng.standard_normal(alg.dim))
        rep = frame_scalar_check(alg, q_map, e1, x, n_samples=10, seed=2)
        params = frame_kernel_params(alg, q_map, e1, x)
        s_vec = np.array([1.0 + 0.3j, 0j])
        assert np.allclose(params.a_x @ s_vec, rep.scalar * s_vec, atol=1e-9)
