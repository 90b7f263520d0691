import tracemalloc

import numpy as np
import pytest

from qsiegel import (
    RealSubspace,
    SiegelPoint,
    creal,
    base_metric,
    bergman_metric_scale,
    certify_all,
    check_coisotropic,
    check_imq_vanishes,
    check_orbit_multiplicity,
    check_orthocomplement_identity,
    standard_model,
)
from qsiegel import certify
from qsiegel.catalog import catalog_get, catalog_list
from qsiegel.certify import BaseMetric, block_size, exact_measure_moments, exact_metric_scale
from qsiegel.errors import HypothesisViolated, NotInCone, NotPSD
from qsiegel.integrals import base_measure_moments, sample_invariant_measure
from qsiegel.kernels import frame_w_subspace
from qsiegel.subspaces import complement_wrt, kernel_of_form
from qsiegel.tolerances import TOL_SUB, TOL_ZERO

from conftest import (
    ORACLE_SIZES,
    DenseRepresentationOracle,
    SVDCounter,
    base_metric_u_block_oracle,
    coisotropic_loop_oracle,
    distinguished_points,
    oracle_expected_mf,
    orbit_loop_oracle,
    orbit_qr_oracle,
    orthocomplement_loop_oracle,
    sample_points,
    unstack,
)


def w_real(rank1):
    return RealSubspace(np.array([[1.0], [0.0]]))


def coiso_points(q_map, seed, count):
    """The ``count`` cone points at which ``certify_all`` certifies coisotropy for ``seed``."""
    return certify._cone_points(q_map, seed, count)[0]


# -- Im Q vanishing -----------------------------------------------------------


def test_imq_rank1_cases(rank1):
    _, _, q_map = rank1
    cert = check_imq_vanishes(q_map, RealSubspace(np.array([[1.0], [0.0]])))
    assert cert.verdict and cert.witness is None
    cert0 = check_imq_vanishes(q_map, RealSubspace.zero(2))
    assert not cert0.verdict
    assert cert0.witness is not None and "s1" in cert0.witness
    assert cert0.residual > 0.5
    certv = check_imq_vanishes(q_map, RealSubspace.full(2))
    assert certv.verdict  # vacuous: S = 0


def test_imq_witness_is_violating_pair(herm2):
    _, _, q_map = herm2
    w = catalog_get("herm2").variant("realform").subspace(2)
    cert = check_imq_vanishes(q_map, w)
    assert not cert.verdict
    s1 = np.array([complex(a, b) for a, b in cert.witness["s1"]])
    s2 = np.array([complex(a, b) for a, b in cert.witness["s2"]])
    assert np.linalg.norm(np.imag(q_map.q_eval(s1, s2))) == pytest.approx(cert.residual, rel=1e-9)


def test_imq_witness_is_first_largest_pair_in_row_major_order(monkeypatch):
    # the blocked scan reports the pair that the loop over i <= j, keeping
    # the first strictly larger |Im Q| from the dense-stack Q, reports: with
    # the default blocks (one block at these sizes), and with one pair a block
    cases = [
        (entry.model(), var.subspace(entry.model()[2].n))
        for entry in map(catalog_get, catalog_list())
        for var in entry.variants
        if not var.expected_mf
    ]
    rng = np.random.default_rng(17)
    for kind, param in [("diagonal", 4), ("sym_real", 3), ("herm_complex", 3)]:
        model = standard_model(kind, param)
        for dim_w in (0, 1, 2, model[2].n):
            cases.append((model, RealSubspace.from_spanning(rng.standard_normal((2 * model[2].n, dim_w)))))
    for (alg, _, q_map), w in cases:
        oracle = DenseRepresentationOracle(alg)
        basis = creal.re_to_cx(w.j_image(q_map.n).perp().basis.T)
        worst, pair = 0.0, None
        for i in range(len(basis)):
            for j in range(i, len(basis)):
                r = float(np.linalg.norm(np.imag(oracle.q_eval(basis[i], basis[j]))))
                if r > worst:
                    worst, pair = r, (basis[i], basis[j])
        default = check_imq_vanishes(q_map, w)
        with monkeypatch.context() as m:
            m.setattr(certify, "STACK_BYTES", 1)
            one_pair = check_imq_vanishes(q_map, w)
        assert one_pair == default
        assert default.residual == pytest.approx(worst, rel=1e-12, abs=1e-15)
        if not default.verdict:
            assert default.witness == {"s1": [[z.real, z.imag] for z in pair[0]], "s2": [[z.real, z.imag] for z in pair[1]]}


def test_imq_scan_memory_is_bounded_by_one_block():
    # the real-form W at diagonal 64 has dim S = 64, so 2080 pairs; held at
    # once, their vectors and Q peaked at 13 MB.  Scanned in blocks of
    # STACK_BYTES of Q values, the peak stays within 4 MB
    alg, _, q_map = standard_model("diagonal", 64)
    n = q_map.n
    w = RealSubspace(np.vstack([np.eye(n), np.zeros((n, n))]))
    tracemalloc.start()
    try:
        cert = check_imq_vanishes(q_map, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.extra["dim_s"] == n and cert.verdict
    assert peak <= 4e6


# -- base metric ----------------------------------------------------------------


def test_base_metric_rank1(rank1):
    alg, _, q_map = rank1
    bm = base_metric(alg, q_map)
    assert bm.u_block == pytest.approx(np.array([[0.75]]))
    assert bm.e_prime == pytest.approx(np.array([3.0]))
    assert np.allclose(bm.v_block, 3.0 * np.eye(2), atol=1e-12)


def test_base_metric_diag2_blocks(diag2):
    alg, _, q_map = diag2
    bm = base_metric(alg, q_map)
    assert np.allclose(bm.u_block, 0.75 * np.eye(2), atol=1e-12)
    assert np.allclose(bm.e_prime, [3.0, 3.0], atol=1e-12)


def test_base_metric_block_structure(models):
    for alg, _, q_map in models.values():
        bm = base_metric(alg, q_map)
        n2, nu = 2 * q_map.n, alg.dim
        assert np.allclose(bm.matrix[: 2 * nu, 2 * nu :], 0.0)
        assert np.linalg.eigvalsh(bm.matrix)[0] > 0
        assert np.allclose(bm.matrix[:nu, nu : 2 * nu], 0.0)


@pytest.mark.parametrize("kind,param", [("sym_real", 2), ("sym_real", 6), ("herm_complex", 4)])
def test_base_metric_u_block_matches_entrywise_definition(kind, param):
    alg, _, q_map = standard_model(kind, param)
    want = base_metric_u_block_oracle(alg, q_map)
    got = base_metric(alg, q_map).u_block
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("kind,param", ORACLE_SIZES, ids=lambda v: str(v))
def test_base_metric_e_prime_matches_trace_formula(kind, param):
    # e' = 2 (N/r e + (tr R_{B_k})_k), the traces read off the dense stack of R_k
    alg, _, q_map = standard_model(kind, param)
    r_basis = DenseRepresentationOracle(alg).r_basis
    want = 2.0 * (alg.dim / alg.rank * alg.unit + np.einsum("kaa->k", r_basis).real)
    got = base_metric(alg, q_map).e_prime
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["rank1", "sym_real"])
def test_metric_scale_close_to_one(models, kind):
    alg, _, q_map = models[kind]
    scale, ratios = bergman_metric_scale(alg, q_map, seed=0, samples=150_000)
    assert scale == pytest.approx(1.0, abs=0.02)
    for r in ratios:
        assert r == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("kind,param", [("sym_real", 3), ("herm_complex", 3)])
def test_exact_measure_moments_match_the_sampler(kind, param):
    # the mean and covariance behind the exact metric scale, against the MC
    # moments of base_measure_moments, within 4 se; the variance's se from the
    # fourth central moment of the same samples (seed 6, stream 4)
    alg, _, q_map = standard_model(kind, param)
    mean, cov = exact_measure_moments(alg)
    rng = np.random.default_rng(21)
    zetas = rng.standard_normal((3, alg.dim)) + 1j * rng.standard_normal((3, alg.dim))
    gammas = rng.standard_normal((3, q_map.n)) + 1j * rng.standard_normal((3, q_map.n))
    samples = 100_000
    _, m1, m2, qv = base_measure_moments(alg, q_map, zetas, gammas, samples, seed=6)
    us = sample_invariant_measure(alg, alg.unit, samples, seed=6)
    for zeta, first, second in zip(zetas, m1, m2):
        var = zeta.real @ cov @ zeta.real + zeta.imag @ cov @ zeta.imag
        assert abs(first - zeta @ mean) <= 4.0 * np.sqrt(var / samples)
        dev = np.abs(us @ zeta - first) ** 2
        assert abs(second - abs(first) ** 2 - var) <= 4.0 * np.sqrt(np.var(dev) / samples)
    for a, got in zip(np.real(q_map.q_eval(gammas, gammas)), qv):
        assert abs(got - a @ mean) <= 4.0 * np.sqrt(a @ cov @ a / samples)


SCALE_SIZES = [
    ("rank1", None), ("diagonal", 3), ("sym_real", 2), ("sym_real", 3), ("sym_real", 4), ("sym_real", 5),
    ("sym_real", 6), ("herm_complex", 2), ("herm_complex", 3), ("herm_complex", 4), ("sym_real", 10),
    ("herm_complex", 8), ("diagonal", 64),
]


@pytest.mark.parametrize("kind,param", SCALE_SIZES, ids=lambda v: str(v))
def test_exact_metric_scale_is_one(kind, param):
    alg, _, q_map = standard_model(kind, param)
    scale, ratios = exact_metric_scale(alg, q_map, seed=4)
    assert len(ratios) == 8
    assert max(abs(r - 1.0) for r in [scale, *ratios]) <= 1e-12


def test_certify_all_metric_scale_is_one_on_the_catalog():
    for name in catalog_list():
        entry = catalog_get(name)
        alg, _, q_map = entry.model()
        for variant in entry.variants:
            report = certify_all(alg, q_map, variant.subspace(q_map.n), samples=1, seed=2, compute_scale=True)
            assert abs(report.certificates[1].metric_scale - 1.0) <= 1e-12, (name, variant.name)


# -- coisotropy -------------------------------------------------------------------


def test_coisotropic_rank1_cases(rank1):
    _, _, q_map = rank1
    ys = coiso_points(q_map, 0, 10)
    assert check_coisotropic(q_map, RealSubspace(np.array([[1.0], [0.0]])), ys).verdict
    zero = check_coisotropic(q_map, RealSubspace.zero(2), ys)
    assert not zero.verdict
    assert zero.witness is not None and "point" in zero.witness
    single = check_coisotropic(q_map, RealSubspace.zero(2), ys[3])
    assert (single.samples, single.sample_residuals[0]) == (None, zero.sample_residuals[3])
    assert check_coisotropic(q_map, RealSubspace.full(2), ys).verdict


def test_coisotropic_scale_invariance(sym2):
    # orthocomplements are scale-free: the phase-space oracle gives the
    # certifier's verdict under any positive multiple of the base metric
    alg, _, q_map = sym2
    entry = catalog_get("sym2")
    bm = base_metric(alg, q_map)
    ys = coiso_points(q_map, 1, 6)
    for var in ("frame", "skew"):
        w = entry.variant(var).subspace(2)
        verdicts = {check_coisotropic(q_map, w, ys).verdict}
        for t in (0.5, 1.0, 2.0):
            scaled = BaseMetric(t * bm.matrix, bm.e_prime, bm.u_block, bm.v_block)
            verdicts.add(max(coisotropic_loop_oracle(alg, q_map, w, ys, metric=scaled)) <= TOL_SUB)
        assert len(verdicts) == 1


# -- orthocomplement identity -------------------------------------------------------


def both_kinds_of_point(alg, q_map, w, count, seed):
    """The distinguished points (iy, js) and general domain points, ``count`` of each."""
    return distinguished_points(alg, q_map, w, count, seed), sample_points(q_map, alg, count, seed)


def test_orthocomplement_mf_entries():
    for name, var in [
        ("heisenberg-rank1", "real"),
        ("heisenberg-rank1", "full"),
        ("diag2", "phase"),
        ("sym2", "frame"),
        ("sym2", "realform"),
        ("herm2", "frame"),
    ]:
        entry = catalog_get(name)
        alg, _, q_map = entry.model()
        w = entry.variant(var).subspace(q_map.n)
        for points in both_kinds_of_point(alg, q_map, w, 10, 2):
            cert = check_orthocomplement_identity(alg, q_map, w, points)
            assert cert.residual <= 1e-7, f"{name}/{var}: {cert.residual}"


def test_orthocomplement_base_example_rank1(rank1):
    alg, _, q_map = rank1
    w = RealSubspace(np.array([[1.0], [0.0]]))
    for points in both_kinds_of_point(alg, q_map, w, 5, 3):
        assert check_orthocomplement_identity(alg, q_map, w, points).residual <= 1e-7


def test_orthocomplement_trivial_full_w(rank1):
    alg, _, q_map = rank1
    w = RealSubspace.full(2)
    for points in both_kinds_of_point(alg, q_map, w, 4, 4):
        assert check_orthocomplement_identity(alg, q_map, w, points).residual <= 1e-7


def test_orthocomplement_requires_hypothesis(herm2):
    alg, _, q_map = herm2
    w = catalog_get("herm2").variant("realform").subspace(2)
    with pytest.raises(HypothesisViolated):
        check_orthocomplement_identity(alg, q_map, w, sample_points(q_map, alg, 2, 0))


def _orthocomplement_cases():
    for name in catalog_list():
        entry = catalog_get(name)
        alg, _, q_map = entry.model()
        for var in entry.variants:
            if var.expected_mf:
                yield f"{name}/{var.name}", alg, q_map, var.subspace(q_map.n)
    for kind in ("sym_real", "herm_complex"):
        alg, _, q_map = standard_model(kind, 4)
        yield f"{kind} 4 frame", alg, q_map, frame_w_subspace(alg, q_map, alg.standard_frame()[0])[0]
        yield f"{kind} 4 W = V", alg, q_map, RealSubspace.full(2 * q_map.n)


def test_stacked_orthocomplement_matches_the_loop_oracle():
    # the stacked check against the per-point loop it replaced, at the
    # distinguished points and at general ones, and at one unstacked point
    cases = list(_orthocomplement_cases())
    assert len(cases) == 13 + 4  # the multiplicity-free catalog variants, then frame and W = V at sym4 and herm4
    for label, alg, q_map, w in cases:
        for points in both_kinds_of_point(alg, q_map, w, 6, 5):
            cert = check_orthocomplement_identity(alg, q_map, w, points)
            assert cert.condition == "orthocomplement_identity" and cert.samples == 6
            assert cert.verdict and cert.tol == TOL_SUB and cert.residual == np.max(cert.sample_residuals)
            gap = np.max(np.abs(cert.sample_residuals - orthocomplement_loop_oracle(alg, q_map, w, points)))
            assert gap <= 1e-12, (label, gap)
            single = unstack(points)[2]
            one = check_orthocomplement_identity(alg, q_map, w, single)
            assert one.samples is None and len(one.sample_residuals) == 1
            assert abs(one.residual - orthocomplement_loop_oracle(alg, q_map, w, single)[0]) <= 1e-12, label


# -- orbit multiplicity ----------------------------------------------------------------


def test_orbit_multiplicity_rank1(rank1):
    _, _, q_map = rank1
    x = np.array([1.0])
    assert check_orbit_multiplicity(q_map, RealSubspace(np.array([[1.0], [0.0]])), x).verdict
    bad = check_orbit_multiplicity(q_map, RealSubspace.zero(2), x)
    assert not bad.verdict and bad.witness is not None
    assert check_orbit_multiplicity(q_map, RealSubspace.full(2), x).verdict


def test_orbit_multiplicity_degenerate_x(diag2):
    # x on the cone boundary: the kernel of g_x absorbs the missing direction
    _, _, q_map = diag2
    w = RealSubspace.full(4)
    assert check_orbit_multiplicity(q_map, w, np.array([1.0, 0.0])).verdict


def test_orbit_multiplicity_rejects_indefinite(diag2):
    _, _, q_map = diag2
    with pytest.raises(NotPSD):
        check_orbit_multiplicity(q_map, RealSubspace.full(4), np.array([1.0, -1.0]))
    with pytest.raises(NotPSD):
        check_orbit_multiplicity(q_map, RealSubspace.full(4), np.array([[1.0, 2.0], [1.0, -1.0]]))


# -- the stacked certifiers against the per-sample loops ------------------------------


def _oracle_subspaces(alg, q_map):
    """W = 0, the full space, the real form, the frame W and a random W."""
    n = q_map.n
    rng = np.random.default_rng(31)
    return {
        "zero": RealSubspace.zero(2 * n),
        "full": RealSubspace.full(2 * n),
        "realform": RealSubspace(np.vstack([np.eye(n), np.zeros((n, n))])),
        "frame": frame_w_subspace(alg, q_map, alg.standard_frame()[0])[0],
        "random": RealSubspace.from_spanning(rng.standard_normal((2 * n, n))),
    }


def _boundary_parameters(alg, rng, count):
    """Cone parameters of rank r - 1: P(a) moves frame weights with one zero
    to a generic point of the boundary (at rank 1, the apex 0)."""
    frame = np.array(alg.standard_frame())
    xs = []
    for k in range(count):
        weights = rng.uniform(0.5, 2.0, alg.rank)
        weights[k % alg.rank] = 0.0
        a = alg.exp(0.5 * rng.standard_normal(alg.dim))
        xs.append(alg.quad_rep(a) @ (weights @ frame))
    return np.array(xs)


@pytest.mark.parametrize("kind,param", ORACLE_SIZES, ids=lambda v: str(v))
def test_stacked_certifiers_match_per_sample_loops(kind, param, monkeypatch):
    # residuals lie in [0, 1], so 1e-12 is absolute; per-sample verdicts must
    # be identical.  The orbit stacks put a frame idempotent among interior
    # x, take boundary x only, and mix the two, so ranks differ inside one
    # stack; g_x has a kernel at every boundary x.
    alg, _, q_map = standard_model(kind, param)
    xs = alg.exp(0.7 * np.random.default_rng(32).standard_normal((7, alg.dim)))
    boundary = _boundary_parameters(alg, np.random.default_rng(37), 4)
    stacks = [
        np.insert(xs, 3, alg.standard_frame()[0], axis=0),
        boundary,
        np.concatenate([xs[:3], boundary[:1], xs[3:], boundary[1:]]),
    ]
    ys = coiso_points(q_map, 4, 7)

    def certify_all_stacks(w):
        orbit = [check_orbit_multiplicity(q_map, w, stack) for stack in stacks]
        return [check_coisotropic(q_map, w, ys)] + orbit

    subspaces = _oracle_subspaces(alg, q_map)
    for name, w in subspaces.items():
        oracles = [coisotropic_loop_oracle(alg, q_map, w, ys)] + [orbit_loop_oracle(q_map, w, x) for x in stacks]
        for cert, want in zip(certify_all_stacks(w), oracles):
            got = cert.sample_residuals
            assert got.shape == (len(want),), name
            assert np.max(np.abs(got - want)) <= 1e-12, name
            assert list(got <= TOL_SUB) == [r <= TOL_SUB for r in want], name
    # in blocks of 3 samples, blocks end inside every stack, and the mixed
    # stack has a block with no kernel (K = W as it is) beside blocks that
    # span ker g_x + W; the witness is certified again on its own
    whole = certify_all_stacks(subspaces["random"])
    m = 2 * q_map.n
    monkeypatch.setattr(certify, "STACK_BYTES", 3 * 8 * m * m)
    assert block_size(q_map) == 3
    for a, b in zip(whole, certify_all_stacks(subspaces["random"])):
        assert np.max(np.abs(a.sample_residuals - b.sample_residuals)) <= 1e-12
        assert (a.verdict, a.witness) == (b.verdict, b.witness)


@pytest.mark.parametrize(
    "kind,param", ORACLE_SIZES + [("sym_real", 10), ("herm_complex", 8), ("diagonal", 16)], ids=lambda v: str(v)
)
def test_coisotropic_closed_form_matches_the_phase_space_definition(kind, param):
    # the closed form on S against the loop oracle's complement in R^(2N + 2n),
    # a route through rank decisions, at 1e-12: the real form and
    # random W from 0 to 2n dimensions, both verdicts among them
    alg, _, q_map = standard_model(kind, param)
    n = q_map.n
    rng = np.random.default_rng(35)
    subspaces = {"realform": RealSubspace(np.vstack([np.eye(n), np.zeros((n, n))]))}
    for d in sorted({0, 1, n - 1, n, n + 1, 2 * n - 1, 2 * n}):
        subspaces[d] = RealSubspace.from_spanning(rng.standard_normal((2 * n, d))) if d else RealSubspace.zero(2 * n)
    ys = coiso_points(q_map, 6, 3)
    for name, w in subspaces.items():
        got = check_coisotropic(q_map, w, ys).sample_residuals
        want = coisotropic_loop_oracle(alg, q_map, w, ys)
        assert np.max(np.abs(got - want)) <= 1e-12, name


@pytest.mark.parametrize(
    "kind,param", ORACLE_SIZES + [("sym_real", 10), ("herm_complex", 8), ("diagonal", 16)], ids=lambda v: str(v)
)
def test_orbit_residuals_match_the_qr_oracle_at_interior_x(kind, param):
    # at interior x the closed form |W-perp^T J Q|_2, Q R = g_x^-1 W-perp,
    # decides no rank: random W from 0 to 2n dimensions, both verdicts among them
    alg, _, q_map = standard_model(kind, param)
    n = q_map.n
    rng = np.random.default_rng(36)
    xs = alg.exp(0.7 * rng.standard_normal((4, alg.dim)))
    for d in range(2 * n + 1):
        w = RealSubspace.from_spanning(rng.standard_normal((2 * n, d))) if d else RealSubspace.zero(2 * n)
        got = certify._orbit_residuals(q_map, w, xs)[0]
        assert np.max(np.abs(got - orbit_qr_oracle(q_map, w, xs))) <= 1e-12, d


@pytest.mark.parametrize("kind,param", ORACLE_SIZES, ids=lambda v: str(v))
def test_coisotropic_at_y_is_orbit_condition_at_y_inverse(kind, param):
    # W_y^perp in j W_y, W_y = Y^(-1/2) W, is j Y W^perp in W: the orbit
    # certifier's inclusion at x = y^-1, the pairs that certify_all draws.
    # Every dimension of W is drawn, so both verdicts occur (a hypersurface
    # is always coisotropic).
    alg, _, q_map = standard_model(kind, param)
    n = q_map.n
    rng = np.random.default_rng(33)
    ys, xs = certify._cone_points(q_map, 5, 7)
    for x, y in zip(xs, ys):
        assert np.max(np.abs(alg.mult(x, y) - alg.unit)) <= 1e-12
    for d in range(2 * n + 1):
        w = RealSubspace.from_spanning(rng.standard_normal((2 * n, d))) if d else RealSubspace.zero(2 * n)
        coiso = check_coisotropic(q_map, w, ys).sample_residuals
        orbit = check_orbit_multiplicity(q_map, w, xs).sample_residuals
        assert list(coiso <= TOL_SUB) == list(orbit <= TOL_SUB), d


CATALOG_VARIANTS = [(name, var.name) for name in catalog_list() for var in catalog_get(name).variants]
NOT_MF_VARIANTS = [
    (name, var.name) for name in catalog_list() for var in catalog_get(name).variants if not var.expected_mf
]


def _coisotropic_window(q_map, w, ys):
    """|M_y|_2 / lambda_max(Y) and |M_y|_2 / lambda_min(Y) at each y, and |M_y|_2,
    M_y[i, j] = <y, Im Q(s_j, s_i)> over an orthonormal basis s of S = (jW)-perp
    (its 2-norm does not depend on the basis), read from ``q_eval``."""
    s = creal.re_to_cx(w.j_image(q_map.n).perp().basis.T)
    m = np.imag(q_map.q_eval(s[None, :, :], s[:, None, :])) @ ys.T
    norm = np.linalg.norm(np.moveaxis(m, -1, 0), ord=2, axis=(-2, -1))
    lam = np.linalg.eigvalsh(q_map.rep.two_r(ys))
    return norm / lam[:, -1], norm / lam[:, 0], norm


def _assert_in_window(label, q_map, w, ys):
    # S is orthonormal over the reals, so lambda_min(Y) I <= G <= lambda_max(Y) I
    # and C = G^(-1/2) M_y G^(-1/2) has |M_y| / lambda_max <= |C|_2 <= |M_y| / lambda_min,
    # up to a relative 1e-12 of rounding.  Where M_y vanishes in exact arithmetic
    # (a hypersurface W, a multiplicity-free W) both sides are rounding noise, and
    # the residual must read 0 within TOL_ZERO.  Returns the number of windows tested.
    r = check_coisotropic(q_map, w, ys).sample_residuals
    lo, hi, norm = _coisotropic_window(q_map, w, ys)
    zero = norm <= TOL_ZERO
    assert np.all(r[zero] <= TOL_ZERO), label
    assert np.all(lo[~zero] <= r[~zero] * (1 + 1e-12)), (label, np.max(lo / r))
    assert np.all(r[~zero] <= hi[~zero] * (1 + 1e-12)), (label, np.max(r / hi))
    return int(np.sum(~zero))


@pytest.mark.parametrize("kind,param", ORACLE_SIZES, ids=lambda v: str(v))
def test_coisotropic_residual_lies_in_its_im_q_window(kind, param):
    # random W of every dimension with S != 0, at the points certify_all draws
    alg, _, q_map = standard_model(kind, param)
    n = q_map.n
    rng = np.random.default_rng(38)
    ys = coiso_points(q_map, 8, 10)
    tested = 0
    for d in range(2 * n):
        w = RealSubspace.from_spanning(rng.standard_normal((2 * n, d))) if d else RealSubspace.zero(2 * n)
        tested += _assert_in_window(d, q_map, w, ys)
    assert tested == 10 * (2 * n - 1)


def test_coisotropic_residual_lies_in_its_im_q_window_on_the_catalog():
    tested = 0
    for name in catalog_list():
        entry = catalog_get(name)
        _, _, q_map = entry.model()
        ys = coiso_points(q_map, 9, 10)
        for var in entry.variants:
            w = var.subspace(q_map.n)
            if w.j_image(q_map.n).perp().dim:
                tested += _assert_in_window(f"{name}/{var.name}", q_map, w, ys)
    assert tested == 10 * len(NOT_MF_VARIANTS)


@pytest.mark.parametrize("name,variant", CATALOG_VARIANTS)
def test_coisotropic_refuses_points_outside_the_open_cone(name, variant):
    # G = Re H > 0 needs y in the open cone: at -e, at 0 and at an indefinite
    # y the closed form ended in an SVD that did not converge, or read 0 at
    # sym2/frame, (1, -1, 0); alone or in a stack of cone points
    entry = catalog_get(name)
    alg, _, q_map = entry.model()
    w = entry.variant(variant).subspace(q_map.n)
    frame = np.array(alg.standard_frame())
    indefinite = frame.sum(axis=0) - 2.0 * frame[-1]
    for y in (-alg.unit, np.zeros(alg.dim), indefinite):
        for ys in (y, np.vstack([coiso_points(q_map, 0, 3), y])):
            with pytest.raises(NotInCone):
                check_coisotropic(q_map, w, ys)


@pytest.mark.parametrize("name,variant", NOT_MF_VARIANTS)
def test_coisotropic_witness_is_a_violating_complement_vector(name, variant):
    # the complement basis is not unique, so the witness is checked by what it
    # must satisfy: moved to the base point it lies in the base-metric
    # complement of the moved orbit tangent T, and away from J T by more than tol
    entry = catalog_get(name)
    alg, _, q_map = entry.model()
    w = entry.variant(variant).subspace(q_map.n)
    cert = check_coisotropic(q_map, w, coiso_points(q_map, 3, 20))
    assert not cert.verdict
    point = SiegelPoint(*(np.array([complex(*t) for t in cert.witness["point"][key]]) for key in ("z", "v")))
    _, deriv = q_map.transport_to_base(point)
    moved = deriv @ np.array(cert.witness["tangent_vector"])
    tangent = q_map.orbit_tangent(w, point).apply(deriv)
    orth = complement_wrt(base_metric(alg, q_map).matrix, tangent)
    jt = tangent.apply(certify.phase_space_j(alg.dim, q_map.n))
    assert abs(np.linalg.norm(moved) - 1.0) <= 1e-12
    assert np.linalg.norm(moved - orth.projector() @ moved) <= 1e-12
    assert np.linalg.norm(moved - jt.projector() @ moved) > cert.tol


@pytest.mark.parametrize("name,variant", NOT_MF_VARIANTS)
def test_orbit_witness_is_a_unit_vector_of_jw_prime_outside_k(name, variant):
    # the basis of jW' is not unique, so the witness v is checked by what it
    # must satisfy at its x: a unit vector of jW', W' the g_x-complement of W,
    # farther than tol from K = ker g_x + W
    entry = catalog_get(name)
    alg, _, q_map = entry.model()
    w = entry.variant(variant).subspace(q_map.n)
    orbit = certify_all(alg, q_map, w, samples=50, seed=3).certificates[2]
    assert not orbit.verdict
    v = creal.cx_to_re(np.array([complex(*t) for t in orbit.witness["v"]]))
    gx = q_map.g_matrix(np.array(orbit.witness["x"]))
    jw_prime = complement_wrt(gx, w).j_image(q_map.n)
    k = kernel_of_form(gx).add(w)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert np.linalg.norm(v - jw_prime.projector() @ v) <= 1e-12
    assert np.linalg.norm(v - k.projector() @ v) > orbit.tol


def test_orbit_block_takes_one_svd_at_interior_x_and_two_with_a_kernel(monkeypatch):
    # the g_x-complement of W always; the span of ker g_x + W only in a block
    # where some g_x has a kernel, here a frame idempotent among interior x
    entry = catalog_get("sym3")
    alg, _, q_map = entry.model()
    interior = alg.exp(0.7 * np.random.default_rng(4).standard_normal((5, alg.dim)))
    mixed = np.insert(interior, 2, alg.standard_frame()[0], axis=0)
    counter = SVDCounter(monkeypatch)
    for variant in ("frame", "complexline"):
        w = entry.variant(variant).subspace(q_map.n)
        for xs, svds in ((interior, 1), (mixed, 2)):
            counter.reset()
            certify._orbit_residuals(q_map, w, xs)
            assert counter.calls == svds, (variant, len(xs))


def test_witness_is_first_of_the_tied_worst_samples():
    # on sym3/complexline every sample reads 1 + O(1e-16): the witness is the
    # first sample drawn, not the one that rounding noise makes the largest
    entry = catalog_get("sym3")
    alg, _, q_map = entry.model()
    w = entry.variant("complexline").subspace(q_map.n)
    _, coiso, orbit = certify_all(alg, q_map, w, samples=50, seed=3).certificates
    for cert in (coiso, orbit):
        assert not cert.verdict
        assert np.max(cert.sample_residuals) - np.min(cert.sample_residuals) <= TOL_ZERO
        assert cert.residual == np.max(cert.sample_residuals)
        assert np.argmax(cert.sample_residuals) != 0
    y = coiso_points(q_map, 3, 1)[0]
    assert coiso.witness["point"] == {"z": [[0.0, float(t)] for t in y], "v": [[0.0, 0.0]] * q_map.n}
    x = certify._cone_points(q_map, 3, 1)[1][0]
    assert orbit.witness["x"] == [float(t) for t in x]


def test_certify_all_memory_is_bounded_by_one_block():
    # samples are certified in blocks: 4 blocks at diagonal 32 (2n = 64) peak
    # within 1.5 times one block; unblocked, every sample's 2n x 2n stacks
    # would be held at once.  The real form keeps Im Q's scan over S, which does not
    # depend on the samples, small beside a block.
    alg, _, q_map = standard_model("diagonal", 32)
    n = q_map.n
    w = RealSubspace(np.vstack([np.eye(n), np.zeros((n, n))]))
    block = block_size(q_map)
    certify_all(alg, q_map, w, samples=block, seed=0)
    peaks = []
    for count in (block, 4 * block):
        tracemalloc.start()
        try:
            certify_all(alg, q_map, w, samples=count, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


# -- combined harness ---------------------------------------------------------------------


def test_certify_all_catalog_agreement():
    for name in catalog_list():
        entry = catalog_get(name)
        alg, _, q_map = entry.model()
        for var in entry.variants:
            w = var.subspace(q_map.n)
            report = certify_all(alg, q_map, w, samples=12, seed=5)
            assert report.consistent, f"{name}/{var.name}"
            assert report.mf == var.expected_mf, f"{name}/{var.name}"
            assert oracle_expected_mf(q_map, w) == var.expected_mf
            assert report.certificates[2].extra["sample_agreement"]


def test_certificate_serialization(rank1):
    alg, _, q_map = rank1
    report = certify_all(alg, q_map, RealSubspace.zero(2), samples=6, seed=6)
    d = report.to_dict()
    assert d["consistent"] is True and d["mf"] is False
    conditions = {c["condition"] for c in d["certificates"]}
    assert conditions == {"imq_vanishes", "coisotropic", "orbit_multiplicity_one"}
    for c in d["certificates"]:
        assert set(c) >= {"condition", "verdict", "residual", "tol", "witness"}
        assert (c["witness"] is not None) == (not c["verdict"])


def test_certify_all_counts_the_points_it_certifies(rank1):
    # zero points asked for still certifies one per sampled certifier, and reports it
    alg, _, q_map = rank1
    report = certify_all(alg, q_map, RealSubspace.zero(2), samples=0, seed=3)
    for cert in report.certificates[1:]:
        assert cert.samples == len(cert.sample_residuals) == 1
        assert cert.to_dict()["samples"] == 1 and cert.seed == 3


def test_certifiers_agree_on_random_subspaces(models):
    # the equivalence is universal, not a property of curated examples:
    # any real subspace must receive identical verdicts from all three tests
    for kind, (alg, _, q_map) in models.items():
        rng = np.random.default_rng(42)
        for trial in range(12):
            d = int(rng.integers(0, 2 * q_map.n + 1))
            w = RealSubspace.from_spanning(rng.standard_normal((2 * q_map.n, d)))
            report = certify_all(alg, q_map, w, samples=12, seed=trial)
            assert report.consistent, f"{kind} trial {trial} dim {d}"


# -- invariance: the verdict must not depend on choices that do not matter ---------------

@pytest.mark.parametrize("name,variant", CATALOG_VARIANTS)
def test_mf_verdict_invariant_under_rebasing_and_seed(name, variant):
    entry = catalog_get(name)
    alg, _, q_map = entry.model()
    var = entry.variant(variant)
    basis = np.array(var.basis, dtype=float).reshape(-1, 2 * q_map.n)
    k = basis.shape[0]
    rng = np.random.default_rng(2024)
    reports = []
    for _ in range(3):
        # a random invertible change of basis with condition number at most 4
        q1, _ = np.linalg.qr(rng.standard_normal((k, k)))
        q2, _ = np.linalg.qr(rng.standard_normal((k, k)))
        rebased = q1 @ np.diag(rng.uniform(0.5, 2.0, k)) @ q2 @ basis
        w = RealSubspace.from_spanning(rebased.T) if k else var.subspace(q_map.n)
        reports.append(certify_all(alg, q_map, w, samples=12, seed=0))
    for seed in (1, 2, 3):
        reports.append(certify_all(alg, q_map, var.subspace(q_map.n), samples=12, seed=seed))
    assert all(r.consistent and r.mf == var.expected_mf for r in reports)


@pytest.mark.parametrize("name,variant", CATALOG_VARIANTS)
def test_orbit_verdict_invariant_under_scaling_x(name, variant):
    entry = catalog_get(name)
    alg, _, q_map = entry.model()
    var = entry.variant(variant)
    w = var.subspace(q_map.n)
    rng = np.random.default_rng(7)
    interior = [alg.exp(0.7 * rng.standard_normal(alg.dim)) for _ in range(3)]
    for x in interior + [alg.standard_frame()[0]]:
        verdicts = {check_orbit_multiplicity(q_map, w, t * x).verdict for t in (1e-3, 1.0, 1e3)}
        assert len(verdicts) == 1
    assert all(check_orbit_multiplicity(q_map, w, x).verdict == var.expected_mf for x in interior)
