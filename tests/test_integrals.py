import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate

from conftest import (
    MODEL_KINDS,
    base_moments_oracle,
    bergman_gamma_row_oracle,
    bergman_mc_oracle,
    cone_box_mc,
    gamma_rows_reference,
    inv_i_iq_oracle,
    iq_box_mc,
)
from qsiegel import SiegelPoint, bergman_kernel, cone_integrals, integrals, standard_model
from qsiegel.errors import NotInCone, NotInDomain
from qsiegel.integrals import (
    _conditional_phase,
    _log_prefactor,
    _phase_parts,
    _sample_cone_gamma,
    base_measure_moments,
    cone_laplace,
    gaussian_iq,
    log_gindikin_gamma,
    measure_mass,
    sample_cone_exponential,
    sample_invariant_measure,
)
from qsiegel.rng import BLOCK, block_generator


# -- closed forms ---------------------------------------------------------------


def test_cone_integrals_rank1(rank1):
    alg, _, q_map = rank1
    ci = cone_integrals(alg, q_map, np.array([1.0]))
    assert ci.i_value == pytest.approx(0.5)
    assert ci.iq_value == pytest.approx(math.pi / 2.0)


def test_cone_integrals_diag2(diag2):
    alg, _, q_map = diag2
    ci = cone_integrals(alg, q_map, np.array([1.0, 1.0]))
    assert ci.i_value == pytest.approx(0.25)
    assert ci.iq_value == pytest.approx((math.pi / 2.0) ** 2)


def test_scaling_law_diagonal(diag2):
    alg, _, q_map = diag2
    u = np.array([0.7, 1.3])
    i1 = cone_integrals(alg, q_map, u).i_value
    i2 = cone_integrals(alg, q_map, 2.0 * u).i_value
    assert i2 == pytest.approx(2.0 ** (-alg.dim) * i1)


def test_sym2_laplace_matches_hand_integral(sym2):
    # direct reduction: integrate the off-diagonal coordinate out of the cone
    alg, _, q_map = sym2
    a, b = 1.0, 1.0
    expected = math.sqrt(2.0) * math.pi / (16.0 * (a * b) ** 1.5)
    u = alg.from_matrix(np.diag([a, b]))
    assert cone_laplace(alg, u) == pytest.approx(expected, rel=1e-12)


def test_iq_positive_and_scaling(models):
    for alg, _, q_map in models.values():
        rng = np.random.default_rng(0)
        u = alg.exp(0.5 * rng.standard_normal(alg.dim))
        v1 = gaussian_iq(q_map, u)
        assert v1 > 0
        assert gaussian_iq(q_map, 2.0 * u) == pytest.approx(v1 / 2.0 ** q_map.n, rel=1e-10)


def test_cone_integrals_requires_open_cone(diag2):
    alg, _, q_map = diag2
    with pytest.raises(NotInCone):
        cone_integrals(alg, q_map, np.array([1.0, 0.0]))
    with pytest.raises(NotInCone):
        cone_integrals(alg, q_map, np.array([1.0, -1.0]))


def test_closed_forms_read_inf_past_the_largest_double():
    # at diagonal 64 the closed forms at these small cone points lie past the
    # largest double: each reads inf, as the closed Bergman kernel does, and
    # none raises OverflowError
    alg, _, q_map = standard_model("diagonal", 64)
    assert measure_mass(alg, 1e-3 * alg.unit) == math.inf
    assert cone_laplace(alg, 1e-8 * alg.unit) == math.inf
    assert gaussian_iq(q_map, 1e-8 * alg.unit) == math.inf


# -- Monte Carlo cross-checks -----------------------------------------------------


@pytest.mark.parametrize("kind", ["rank1", "diagonal", "sym_real", "herm_complex"])
def test_mc_matches_closed_forms(models, kind):
    # the box MC of the test oracles against the library's closed forms
    alg, _, q_map = models[kind]
    closed = cone_integrals(alg, q_map, alg.unit)
    i_mc, i_se = cone_box_mc(alg, alg.unit, 400_000, seed=2)
    iq_mc, iq_se = iq_box_mc(q_map, alg.unit, 400_000, seed=2)
    assert i_se <= 0.1 * i_mc and iq_se <= 0.1 * iq_mc
    assert abs(i_mc - closed.i_value) <= 4.0 * i_se + 1e-3 * closed.i_value
    assert abs(iq_mc - closed.iq_value) <= 4.0 * iq_se + 1e-3 * closed.iq_value


def test_mc_determinism(diag2):
    alg, _, q_map = diag2
    assert cone_box_mc(alg, alg.unit, 50_000, seed=9) == cone_box_mc(alg, alg.unit, 50_000, seed=9)
    assert iq_box_mc(q_map, alg.unit, 50_000, seed=9) == iq_box_mc(q_map, alg.unit, 50_000, seed=9)


# -- invariant measure -------------------------------------------------------------


def test_measure_mass_rank1_quadrature_oracle(rank1):
    alg, _, q_map = rank1
    for y in (1.0, 2.5):
        val, _ = scipy.integrate.quad(
            lambda u: math.exp(-2.0 * u * y) * (2.0 * u) * (2.0 * u / math.pi), 0.0, np.inf
        )
        assert measure_mass(alg, np.array([y])) == pytest.approx(val, rel=1e-9)
        assert measure_mass(alg, np.array([y])) == pytest.approx(1.0 / (math.pi * y**3), rel=1e-12)


def _assert_gamma_mean(alg, sampler, shape, seed):
    # the cone's Gamma family of shape s and scale (2y)^{-1} has mean s (2y)^{-1}
    y = alg.exp(0.3 * np.random.default_rng(seed).standard_normal(alg.dim))
    us = sampler(alg, y, 100_000, seed=seed)
    se = us.std(axis=0) / math.sqrt(len(us))
    assert np.all(np.abs(us.mean(axis=0) - shape * alg.invert(2.0 * y)) <= 4.0 * se)


@pytest.mark.parametrize("kind", ["rank1", "diagonal", "sym_real", "herm_complex"])
def test_invariant_measure_sampler_moments(models, kind):
    alg = models[kind][0]
    _assert_gamma_mean(alg, sample_invariant_measure, 2.0 * alg.dim / alg.rank + 1.0, seed=3)


@pytest.mark.parametrize("kind", ["rank1", "diagonal", "sym_real", "herm_complex"])
def test_exponential_sampler_moments(models, kind):
    alg = models[kind][0]

    def samples_only(*args, **kwargs):
        return sample_cone_exponential(*args, **kwargs)[0]

    _assert_gamma_mean(alg, samples_only, alg.dim / alg.rank, seed=4)


def _sampler_y(alg):
    return alg.exp(0.3 * np.random.default_rng(8).standard_normal(alg.dim))


SHAPES = {"invariant": lambda alg: 2.0 * alg.dim / alg.rank + 1.0, "exponential": lambda alg: alg.dim / alg.rank}

# the row protocol is pinned at the model kinds and at herm_complex 3, whose
# exponential shapes 3, 2, 1 give a row summed from three exponentials
SAMPLER_SIZES = [pytest.param(kind, param, id=kind) for kind, param in MODEL_KINDS] + [
    pytest.param("herm_complex", 3, id="herm_complex-3")
]


def _gamma_shapes(alg, s):
    return s - 0.5 * alg.d * np.arange(alg.rank)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("kind,param", SAMPLER_SIZES)
def test_bartlett_samples_match_explicit_reference(kind, param, shape):
    # reference: per sample, the lower-triangular T from the same draws (the
    # Gamma(s - j d/2) rows by gamma_rows_reference, then the normals, d per
    # entry below the diagonal in row-major order), then A T T^H A^H with
    # A = cholesky((2y)^-1), then from_matrix; the Bartlett determinant
    # prod_j T_jj^2 against np.linalg.det(T T^H)
    alg = standard_model(kind, param)[0]
    r, d, n = alg.rank, alg.d, alg.dim
    s = SHAPES[shape](alg)
    y = _sampler_y(alg)
    a = np.linalg.cholesky(np.linalg.inv(2.0 * alg.to_matrix(y)))
    count = 1500
    got, dets = _sample_cone_gamma(alg, y, s, count, seed=7, stream=4)
    low_rows, low_cols = np.tril_indices(r, -1)
    for b in range(0, count, BLOCK):
        g = block_generator(7, 4, b // BLOCK)
        gammas = gamma_rows_reference(g, _gamma_shapes(alg, s))
        normals = g.standard_normal((n - r, BLOCK)) if n > r else np.zeros((0, BLOCK))
        for k in range(min(BLOCK, count - b)):
            t = np.diag([math.sqrt(gam[k]) for gam in gammas]).astype(complex)
            parts = normals[:, k].reshape(len(low_rows), d)
            for (p, q), x in zip(zip(low_rows, low_cols), parts):
                t[p, q] = x @ np.array([1.0, 1.0j])[:d] / math.sqrt(2.0)
            u = a @ t @ t.conj().T @ a.conj().T
            expected = alg.from_matrix(u)
            assert np.allclose(got[b + k], expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())
            assert dets[b + k] == pytest.approx(np.real(np.linalg.det(t @ t.conj().T)), rel=1e-9)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("kind", ["rank1", "diagonal", "sym_real", "herm_complex"])
def test_sampler_second_moments(models, kind, shape):
    # a Gamma/Wishart of shape s and scale Y = (2y)^{-1} has
    # Var <u, a> = s tr((A Y)^2), A = to_matrix(a); within 4 se of the
    # sample variance, se from the fourth central moment
    alg = models[kind][0]
    s = SHAPES[shape](alg)
    y = _sampler_y(alg)
    us, _ = _sample_cone_gamma(alg, y, s, 200_000, seed=5, stream=4)
    ym = alg.to_matrix(alg.invert(2.0 * y))
    for a in np.random.default_rng(9).standard_normal((3, alg.dim)):
        am = alg.to_matrix(a)
        expected = s * np.real(np.trace(am @ ym @ am @ ym))
        vals = us @ a
        dev = vals - vals.mean()
        var = np.mean(dev**2)
        se = math.sqrt((np.mean(dev**4) - var**2) / len(vals))
        assert abs(var - expected) <= 4.0 * se


@pytest.mark.parametrize("kind", ["rank1", "diagonal", "sym_real", "herm_complex"])
def test_sampler_prefix_is_stable(models, kind):
    # sample i depends only on (seed, stream, i): a shorter run is a prefix,
    # bit for bit, across block and chunk boundaries
    alg = models[kind][0]
    y = _sampler_y(alg)
    s = SHAPES["invariant"](alg)
    short, short_dets = _sample_cone_gamma(alg, y, s, 700, seed=2, stream=4)
    for count in (1500, 40_000):
        long, long_dets = _sample_cone_gamma(alg, y, s, count, seed=2, stream=4)
        assert np.array_equal(long[:700], short) and np.array_equal(long_dets[:700], short_dets)
    assert np.array_equal(sample_invariant_measure(alg, y, 1500, seed=2)[:700], short)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("kind,param", SAMPLER_SIZES)
def test_determinants_match_the_per_block_gamma_reference(kind, param, shape):
    # prod_j T_jj^2 bit for bit against a reference that builds each block's own
    # generator and draws its rows by gamma_rows_reference, whatever the mode:
    # with zero Gamma-row weights the sampler draws only the Gamma rows, in
    # chunks sized by those r rows, one generator serves the call, and a row
    # of integer shape k <= 3 is the sum of k standard exponentials.  Counts
    # cross block and chunk boundaries and end inside a block
    alg = standard_model(kind, param)[0]
    r = alg.rank
    s = SHAPES[shape](alg)
    y = _sampler_y(alg)
    for count in (700, 1500, 40_000):
        _, dets = _sample_cone_gamma(alg, y, s, count, seed=2, stream=4)
        out, only = _sample_cone_gamma(alg, y, s, count, seed=2, stream=4, gamma_weights=np.empty((r, 0)))
        assert out.shape == (count, 0) and np.array_equal(only, dets)
        expected = np.empty(count)
        for b in range(0, count, BLOCK):
            g = block_generator(2, 4, b // BLOCK)
            rows = gamma_rows_reference(g, _gamma_shapes(alg, s))
            expected[b : b + BLOCK] = np.prod(rows, axis=0)[: count - b]
        assert np.array_equal(dets, expected)


@pytest.mark.parametrize("kind,param", SAMPLER_SIZES)
def test_gamma_row_contractions_match_the_per_block_reference(kind, param):
    # with (r, k) Gamma-row weights the (count, k) output is the materialized
    # Gamma rows times the weights, to rounding, with the same determinants
    alg = standard_model(kind, param)[0]
    r = alg.rank
    s = SHAPES["exponential"](alg)
    y = _sampler_y(alg)
    weights = np.random.default_rng(11).standard_normal((r, 3))
    for count in (700, 40_000):
        _, dets = _sample_cone_gamma(alg, y, s, count, seed=2, stream=4)
        out, only = _sample_cone_gamma(alg, y, s, count, seed=2, stream=4, gamma_weights=weights)
        gammas = np.empty((count, r))
        for b in range(0, count, BLOCK):
            g = block_generator(2, 4, b // BLOCK)
            gammas[b : b + BLOCK] = gamma_rows_reference(g, _gamma_shapes(alg, s)).T[: count - b]
        expected = gammas @ weights
        assert np.array_equal(only, dets)
        assert np.allclose(out, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("kind", ["rank1", "diagonal", "sym_real", "herm_complex"])
def test_projected_samples_are_the_samples_times_directions(models, kind):
    # the (count, k) projections on k directions are u @ directions of the
    # same draws, to rounding, with the same determinants
    alg = models[kind][0]
    y = _sampler_y(alg)
    s = SHAPES["invariant"](alg)
    directions = np.random.default_rng(10).standard_normal((alg.dim, 3))
    us, dets = _sample_cone_gamma(alg, y, s, 5000, seed=2, stream=4)
    proj, proj_dets = _sample_cone_gamma(alg, y, s, 5000, seed=2, stream=4, directions=directions)
    expected = us @ directions
    assert proj.shape == (5000, 3) and np.array_equal(proj_dets, dets)
    assert np.allclose(proj, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())


MODEL_SIZES = [
    ("rank1", None),
    ("diagonal", 3),
    ("sym_real", 2),
    ("sym_real", 3),
    ("sym_real", 4),
    ("herm_complex", 2),
    ("herm_complex", 3),
]


def _gamma_sym(n, a):
    return math.pi ** (n * (n - 1) / 4.0) * math.prod(math.gamma(a - k / 2.0) for k in range(n))


def _gamma_herm(n, a):
    return math.pi ** (n * (n - 1) / 2.0) * math.prod(math.gamma(a - k) for k in range(n))


def _per_kind_laplace(kind, n, mat):
    det2 = np.real(np.linalg.det(2.0 * mat))
    if kind == "diagonal":
        return float(np.prod(1.0 / (2.0 * np.real(np.diag(mat)))))
    if kind == "sym_real":
        return 2.0 ** (n * (n - 1) / 4.0) * _gamma_sym(n, (n + 1) / 2.0) * det2 ** (-(n + 1) / 2.0)
    return 2.0 ** (n * (n - 1) / 2.0) * _gamma_herm(n, n) * det2 ** (-n)


def _per_kind_mass(kind, n, mat):
    det2 = np.real(np.linalg.det(2.0 * mat))
    if kind == "diagonal":
        return float(np.prod(1.0 / (math.pi * np.real(np.diag(mat)) ** 3)))
    if kind == "sym_real":
        const = 2.0 ** (n * (n + 1) / 2.0) * (2.0 / math.pi) ** n
        return const * _gamma_sym(n, n + 2.0) / _gamma_sym(n, (n + 1) / 2.0) * det2 ** (-(n + 2.0))
    const = 2.0 ** (n * n) * (2.0 / math.pi) ** n
    return const * _gamma_herm(n, 2.0 * n + 1.0) / _gamma_herm(n, n) * det2 ** (-(2.0 * n + 1.0))


@pytest.mark.parametrize("kind,param", MODEL_SIZES, ids=lambda v: str(v))
def test_gindikin_forms_match_per_kind_formulas(kind, param):
    # the classical per-kind gamma integrals of the three cone families, and
    # the Gaussian I_Q, against the single Gamma_Omega / determinant-power forms;
    # the Bergman MC's weight e^L(2y) (prod_j T_jj^2)^(N/r + 1) against
    # (2 pi)^-N I(y) / (I(u) I_Q(u)) on materialized u, and the test oracles'
    # own 1 / (I I_Q) against the two closed forms
    alg, _, q_map = standard_model(kind, param)
    family = "diagonal" if kind == "rank1" else kind
    rng = np.random.default_rng(12)
    points = [alg.unit] + [alg.exp(0.5 * rng.standard_normal(alg.dim)) for _ in range(3)]
    for u in points:
        mat = alg.to_matrix(u)
        assert cone_laplace(alg, u) == pytest.approx(_per_kind_laplace(family, alg.rank, mat), rel=1e-12)
        assert measure_mass(alg, u) == pytest.approx(_per_kind_mass(family, alg.rank, mat), rel=1e-12)
    inv = inv_i_iq_oracle(alg, np.array([np.real(np.linalg.det(alg.to_matrix(u))) for u in points]))
    expected = [1.0 / (cone_laplace(alg, u) * gaussian_iq(q_map, u)) for u in points]
    assert inv == pytest.approx(expected, rel=1e-12)
    y, s = points[1], alg.dim / alg.rank
    us, bartlett = _sample_cone_gamma(alg, y, s, 5, seed=12, stream=3)
    weight = math.exp(_log_prefactor(alg, np.linalg.slogdet(2.0 * alg.to_matrix(y))[1])) * bartlett ** (s + 1.0)
    scale = cone_laplace(alg, y) / (2.0 * math.pi) ** alg.dim
    assert weight == pytest.approx([scale / (cone_laplace(alg, u) * gaussian_iq(q_map, u)) for u in us], rel=1e-12)


# -- Bergman kernel ------------------------------------------------------------------


def _w(q_map, p1, p2):
    return p1.z - np.conj(p2.z) - 2j * q_map.q_eval(p1.v, p2.v)


def _rank1_quadrature(q_map, p1, p2):
    """Test-local oracle: the rank-one kernel (2/pi^2) int_0^inf u^2 e^{i u w} du
    by adaptive quadrature, w = z1 - conj(z2) - 2i Q(v1, v2)."""
    w = complex(_w(q_map, p1, p2)[0])

    def part(trig):
        return scipy.integrate.quad(
            lambda u: (2.0 / math.pi**2) * u * u * math.exp(-u * w.imag) * trig(u * w.real), 0.0, np.inf
        )[0]

    return complex(part(math.cos), part(math.sin))


def _domain_point(alg, q_map, rng):
    v = 0.3 * (rng.standard_normal(q_map.n) + 1j * rng.standard_normal(q_map.n))
    y = np.real(q_map.q_eval(v, v)) + alg.exp(0.3 * rng.standard_normal(alg.dim))
    return SiegelPoint(0.5 * rng.standard_normal(alg.dim) + 1j * y, v)


def test_bergman_rank1_base_value(rank1):
    alg, _, q_map = rank1
    p = SiegelPoint([1j], [0j])
    est = bergman_kernel(alg, q_map, p, p, method="closed")
    assert est.value.real == pytest.approx(1.0 / (2.0 * math.pi**2), rel=1e-8)
    assert abs(est.value.imag) <= 1e-12


def test_bergman_rank1_shifted(rank1):
    alg, _, q_map = rank1
    p = SiegelPoint([2j], [0j])
    est = bergman_kernel(alg, q_map, p, p, method="closed")
    assert est.value.real == pytest.approx(1.0 / (16.0 * math.pi**2), rel=1e-8)


def test_bergman_mc_matches_quadrature(rank1):
    alg, _, q_map = rank1
    p1 = SiegelPoint([0.4 + 1.5j], [0.3 + 0.2j])
    p2 = SiegelPoint([-0.1 + 1.1j], [0.1 - 0.4j])
    quad = _rank1_quadrature(q_map, p1, p2)
    mc = bergman_kernel(alg, q_map, p1, p2, samples=400_000, seed=6, method="mc")
    assert abs(mc.value - quad) <= 4.0 * mc.se + 1e-9


def test_bergman_closed_matches_rank1_quadrature(rank1):
    alg, _, q_map = rank1
    rng = np.random.default_rng(21)
    points = [SiegelPoint([1j], [0j])] + [_domain_point(alg, q_map, rng) for _ in range(4)]
    for p1 in points:
        for p2 in points:
            closed = bergman_kernel(alg, q_map, p1, p2)
            assert closed.method == "closed" and closed.se == 0.0
            assert abs(closed.value - _rank1_quadrature(q_map, p1, p2)) <= 1e-10 * abs(closed.value)


@pytest.mark.parametrize("kind,param", MODEL_SIZES, ids=lambda v: str(v))
def test_bergman_closed_on_diagonal_is_measure_mass(kind, param):
    # at coincident points the integral is the measure mass at the cone part
    alg, _, q_map = standard_model(kind, param)
    rng = np.random.default_rng(22)
    for _ in range(3):
        p = _domain_point(alg, q_map, rng)
        exact = measure_mass(alg, q_map.cone_part(p)) / (2.0 * math.pi) ** alg.dim
        value = bergman_kernel(alg, q_map, p, p, method="closed").value
        assert abs(value - exact) <= 1e-12 * exact


@pytest.mark.parametrize("kind,param", MODEL_SIZES, ids=lambda v: str(v))
def test_bergman_closed_invariant_and_hermitian(kind, param):
    from qsiegel import GroupElement

    alg, _, q_map = standard_model(kind, param)
    rng = np.random.default_rng(23)
    p1, p2 = _domain_point(alg, q_map, rng), _domain_point(alg, q_map, rng)
    g = GroupElement(rng.standard_normal(alg.dim), rng.standard_normal(q_map.n) + 1j * rng.standard_normal(q_map.n))
    k12 = bergman_kernel(alg, q_map, p1, p2, method="closed").value
    moved = bergman_kernel(alg, q_map, q_map.group_act(g, p1), q_map.group_act(g, p2), method="closed").value
    assert moved == pytest.approx(k12, rel=1e-10)
    assert bergman_kernel(alg, q_map, p2, p1, method="closed").value == pytest.approx(np.conj(k12), rel=1e-10)


HOMOGENEITY_SIZES = MODEL_SIZES + [("diagonal", 64), ("herm_complex", 8)]


def _assert_homogeneous(kind, param, method):
    # with delta_t(z, v) = (t z, sqrt(t) v), w scales by t and Delta(-i w) by
    # t^r, so K(delta_t p, delta_t q) = t^(-(2N + r)) K(p, q).  t = 2^k with k
    # even scales the points exactly, and k runs over the whole range where
    # the scaled value stays a normal double and the points stay clear of
    # the cone's absolute membership slack: more than 20 steps of k, or more
    # than all but two of the 2000 / (2N + r) steps in the binary range of the
    # doubles.
    # The MC draws the same Gamma rows at every t and its kappa and c0 are
    # scale free, so its value and se scale as the closed form does
    alg, _, q_map = standard_model(kind, param)
    rng = np.random.default_rng(28)
    p1, p2 = _domain_point(alg, q_map, rng), _domain_point(alg, q_map, rng)
    options = {"method": method, "samples": 2_000, "seed": 1}
    base = bergman_kernel(alg, q_map, p1, p2, **options)
    degree = 2 * alg.dim + alg.rank
    log2_k = math.log2(abs(base.value))
    lowest = min(np.linalg.eigvalsh(alg.to_matrix(q_map.cone_part(p)))[0] for p in (p1, p2))
    lo = max(math.ceil((log2_k - 1000) / degree), math.ceil(math.log2(1e-8 / lowest)))
    hi = math.floor((log2_k + 1000) / degree)
    assert hi - lo > min(20, 2000 // degree - 2)
    for k in range(lo + lo % 2, hi + 1, 2 * max(1, (hi - lo) // 16)):
        t, root = 2.0**k, 2.0 ** (k // 2)
        scaled = bergman_kernel(alg, q_map, *[SiegelPoint(t * p.z, root * p.v) for p in (p1, p2)], **options)
        expected = complex(math.ldexp(base.value.real, -k * degree), math.ldexp(base.value.imag, -k * degree))
        assert abs(scaled.value - expected) <= 1e-12 * abs(expected), k
        assert abs(scaled.se - math.ldexp(base.se, -k * degree)) <= 1e-12 * math.ldexp(base.se, -k * degree), k


@pytest.mark.parametrize("kind,param", HOMOGENEITY_SIZES, ids=lambda v: str(v))
def test_bergman_closed_is_homogeneous(kind, param):
    _assert_homogeneous(kind, param, "closed")


@pytest.mark.parametrize("kind,param", HOMOGENEITY_SIZES, ids=lambda v: str(v))
def test_bergman_mc_is_homogeneous(kind, param):
    _assert_homogeneous(kind, param, "mc")


# herm_complex 3 is the first size whose proposal has a shape-3 Gamma row
CALIBRATION_SIZES = [
    ("rank1", None), ("diagonal", 2), ("sym_real", 2), ("herm_complex", 2), ("sym_real", 3), ("herm_complex", 3)
]


@pytest.mark.parametrize("diagonal", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("kind,param", CALIBRATION_SIZES, ids=lambda v: str(v))
def test_bergman_mc_calibrated_against_closed_form(kind, param, diagonal):
    # |MC - closed| <= 4 max(reported se, closed-form se).  The weight
    # Delta(u)^(N/r + 1) under the shape-N/r proposal has
    # E[f^2] / E[f]^2 = R = Gamma_Omega(3N/r + 2) Gamma_Omega(N/r) / Gamma_Omega(2N/r + 1)^2,
    # so the se is K sqrt((R - 1)/n) on the diagonal, and at most
    # K(p_mid) sqrt(R/n) off it, with p_mid the point of cone part Im w / 2
    alg, _, q_map = standard_model(kind, param)
    rng = np.random.default_rng(24)
    p1 = _domain_point(alg, q_map, rng)
    p2 = p1 if diagonal else _domain_point(alg, q_map, rng)
    samples, k = 200_000, alg.dim / alg.rank
    ratio = math.exp(
        log_gindikin_gamma(alg, 3 * k + 2) + log_gindikin_gamma(alg, k) - 2.0 * log_gindikin_gamma(alg, 2 * k + 1)
    )
    closed = bergman_kernel(alg, q_map, p1, p2, method="closed").value
    if diagonal:
        se_closed = abs(closed) * math.sqrt((ratio - 1.0) / samples)
    else:
        k_mid = measure_mass(alg, np.imag(_w(q_map, p1, p2)) / 2.0) / (2.0 * math.pi) ** alg.dim
        se_closed = k_mid * math.sqrt(ratio / samples)
    mc = bergman_kernel(alg, q_map, p1, p2, samples=samples, seed=25, method="mc")
    assert abs(mc.value - closed) <= 4.0 * max(mc.se, se_closed)


PROJECTED_SIZES = [("diagonal", 4), ("sym_real", 3), ("herm_complex", 3), ("herm_complex", 4)]
BERGMAN_MC_SIZES = list(dict.fromkeys(CALIBRATION_SIZES + PROJECTED_SIZES))


def _on_off(value):
    return ("on" if value else "off") if isinstance(value, bool) else str(value)


# where no normals are integrated out: on the diagonal, and off it where d = 0
MATERIALIZED_CASES = [(kind, param, True) for kind, param in PROJECTED_SIZES] + [("diagonal", 4, False)]


@pytest.mark.parametrize("kind,param,diagonal", MATERIALIZED_CASES, ids=_on_off)
def test_bergman_mc_matches_materialized_samples(kind, param, diagonal):
    # the real-arithmetic weight gives the value and se of the complex weight
    # e^(i<u, Re w>) / (I I_Q) over the whole sample matrix u, to rounding;
    # 60 000 samples span several chunks and end inside a block
    alg, _, q_map = standard_model(kind, param)
    rng = np.random.default_rng(26)
    p1 = _domain_point(alg, q_map, rng)
    p2 = p1 if diagonal else _domain_point(alg, q_map, rng)
    value, se = bergman_mc_oracle(alg, q_map, p1, p2, 60_000, seed=27)
    mc = bergman_kernel(alg, q_map, p1, p2, samples=60_000, seed=27, method="mc")
    assert abs(mc.value - value) <= 1e-12 * abs(value)
    assert abs(mc.se - se) <= 1e-12 * se


@pytest.mark.parametrize("kind,param", PROJECTED_SIZES, ids=lambda v: str(v))
def test_bergman_mc_matches_the_gamma_row_oracle(kind, param):
    # off the diagonal the streamed estimate is the mean of c0 e^(g kappa) / (I I_Q)
    # over the whole (samples, r) array of Gamma rows, to rounding
    alg, _, q_map = standard_model(kind, param)
    rng = np.random.default_rng(26)
    p1, p2 = _domain_point(alg, q_map, rng), _domain_point(alg, q_map, rng)
    value, se = bergman_gamma_row_oracle(alg, q_map, p1, p2, 60_000, seed=27)
    mc = bergman_kernel(alg, q_map, p1, p2, samples=60_000, seed=27, method="mc")
    assert abs(mc.value - value) <= 1e-12 * abs(value)
    assert abs(mc.se - se) <= 1e-12 * se


def _bartlett_phases(alg, y, a, gammas, samples, seed):
    """<u, a> for u = A T T^H A^H, A = cholesky((2y)^-1), over ``samples`` draws of
    the normals below the diagonal of T, whose diagonal is fixed at sqrt(gammas)."""
    r, d = alg.rank, alg.d
    a_chol = np.linalg.cholesky(np.linalg.inv(2.0 * alg.to_matrix(y)))
    low_rows, low_cols = np.tril_indices(r, -1)
    units = np.array([1.0, 1.0j])[:d] / math.sqrt(2.0)
    rng = np.random.default_rng(seed)
    phases = []
    for lo in range(0, samples, 25_000):
        m = min(25_000, samples - lo)
        t = np.zeros((m, r, r), dtype=complex)
        t[:, np.arange(r), np.arange(r)] = np.sqrt(gammas)
        t[:, low_rows, low_cols] = rng.standard_normal((m, len(low_rows), d)) @ units
        u = a_chol @ t @ np.swapaxes(t.conj(), 1, 2) @ a_chol.conj().T
        phases.append(alg.from_matrix(u) @ a)
    return np.concatenate(phases)


@pytest.mark.parametrize("kind,param", [("sym_real", 3), ("herm_complex", 3), ("herm_complex", 4)], ids=lambda v: str(v))
def test_conditional_phase_integrates_the_bartlett_normals(kind, param):
    # for one fixed diagonal of T, the mean of e^(i<u, a>) over 200 000 draws of
    # the normals below it is c0 exp(g kappa) within 4 se, and tells it apart
    # from e^(i g a_diag), the phase with the normals set to 0
    alg, _, q_map = standard_model(kind, param)
    rng = np.random.default_rng(33)
    p1, p2 = _domain_point(alg, q_map, rng), _domain_point(alg, q_map, rng)
    w = _w(q_map, p1, p2)
    y, a = np.imag(w) / 2.0, np.real(w)
    gammas = rng.gamma(alg.dim / alg.rank - 0.5 * alg.d * np.arange(alg.rank))
    kappa, c0 = _conditional_phase(alg, y, a)
    assert np.all(kappa[:, 0] <= 0.0)
    expected = c0 * np.exp(gammas @ (kappa[:, 0] + 1j * kappa[:, 1]))
    f = np.exp(1j * _bartlett_phases(alg, y, a, gammas, 200_000, seed=34))
    mean = np.mean(f)
    se = math.sqrt(np.mean(np.abs(f - mean) ** 2) / len(f))
    assert abs(mean - expected) <= 4.0 * se
    assert abs(np.exp(1j * gammas @ kappa[:, 1]) - expected) > 40.0 * se


@pytest.mark.parametrize("kind,param", MODEL_SIZES + [("herm_complex", 4)], ids=lambda v: str(v))
def test_conditional_phase_over_the_gamma_rows_is_the_closed_form(kind, param):
    # the Gamma rows integrate out too: with g_j ~ Gamma(s_j), s_j = N/r - j d/2,
    # and the weight C Delta(u)^p, p = N/r + 1, E[g_j^p e^(kappa_j g_j)] is
    # Gamma(s_j + p) / Gamma(s_j) (1 - kappa_j)^-(s_j + p), so c0 times their
    # product is the Gindikin closed form of K(p1, p2), to rounding; C from
    # the test oracles' own 1 / (I I_Q) constant at Delta(u) = 1 / Delta(2 y0)
    alg, _, q_map = standard_model(kind, param)
    rng = np.random.default_rng(38)
    r, n = alg.rank, alg.dim
    power = 2.0 * n / r + 1.0 - n / r
    shapes = n / r - 0.5 * alg.d * np.arange(r)
    for _ in range(3):
        p1, p2 = _domain_point(alg, q_map, rng), _domain_point(alg, q_map, rng)
        w = _w(q_map, p1, p2)
        y0 = np.imag(w) / 2.0
        kappa, c0 = _conditional_phase(alg, y0, np.real(w))
        det_2y = np.real(np.linalg.det(2.0 * alg.to_matrix(y0)))
        value = c0 * inv_i_iq_oracle(alg, 1.0 / det_2y) * cone_laplace(alg, y0) / (2.0 * math.pi) ** n
        for s_j, k_j in zip(shapes, kappa[:, 0] + 1j * kappa[:, 1]):
            value *= math.gamma(s_j + power) / math.gamma(s_j) * (1.0 - k_j) ** -(s_j + power)
        closed = bergman_kernel(alg, q_map, p1, p2, method="closed").value
        assert abs(value - closed) <= 1e-12 * abs(closed)


def _phase_route(alg, q_map, p1, p2, samples, seed):
    """(value, se) of the MC Bergman kernel by the cosine and sine of the
    sampler's phases <u, Re w>, with the normals drawn: the phase estimator
    over the same Gamma rows, which the library's estimate is held against.
    Its weight is (prod_j T_jj^2)^(N/r + 1), and e^L(2 y0), with log Delta(2 y0)
    from the eigenvalues, is added to the log of the mean and of the se, as the
    library does."""
    w = _w(q_map, p1, p2)
    y0 = np.imag(w) / 2.0
    phase, bartlett = sample_cone_exponential(alg, y0, samples, seed, directions=np.real(w)[:, None])
    weight = bartlett ** (alg.dim / alg.rank + 1.0)
    re, im = np.cos(phase[:, 0]) * weight, np.sin(phase[:, 0]) * weight
    mean = complex(np.mean(re), np.mean(im))
    se = math.sqrt(np.mean((re - mean.real) ** 2 + (im - mean.imag) ** 2) / samples)
    log_scale = _log_prefactor(alg, np.sum(np.log(2.0 * np.linalg.eigvalsh(alg.to_matrix(y0)))))
    return mean / abs(mean) * math.exp(log_scale + math.log(abs(mean))), math.exp(log_scale + math.log(se))


@pytest.mark.parametrize("kind,param", BERGMAN_MC_SIZES, ids=lambda v: str(v))
def test_bergman_mc_on_the_diagonal_is_real(kind, param):
    # at p1 = p2 the estimate is the mean of the real weight over Delta(u)
    # alone: its imaginary part is exactly 0, and its real part and se are
    # those of the phase route to 1e-15
    alg, _, q_map = standard_model(kind, param)
    p = _domain_point(alg, q_map, np.random.default_rng(31))
    value, se = _phase_route(alg, q_map, p, p, 60_000, seed=32)
    mc = bergman_kernel(alg, q_map, p, p, samples=60_000, seed=32, method="mc")
    assert mc.value.imag == 0.0
    assert abs(mc.value.real - value.real) <= 1e-15 * abs(value.real)
    assert abs(mc.se - se) <= 1e-15 * se


@pytest.mark.parametrize("kind,param", BERGMAN_MC_SIZES, ids=lambda v: str(v))
def test_bergman_mc_off_the_diagonal_has_at_most_the_phase_route_se(kind, param):
    # integrating the normals out cannot raise the se over the same Gamma rows;
    # where d = 0 there are no normals, and value and se are the phase route's
    alg, _, q_map = standard_model(kind, param)
    rng = np.random.default_rng(35)
    p1, p2 = _domain_point(alg, q_map, rng), _domain_point(alg, q_map, rng)
    value, se = _phase_route(alg, q_map, p1, p2, 60_000, seed=36)
    mc = bergman_kernel(alg, q_map, p1, p2, samples=60_000, seed=36, method="mc")
    assert 0.0 < mc.se <= se
    if alg.d == 0:
        assert abs(mc.value - value) <= 1e-14 * abs(value)
        assert abs(mc.se - se) <= 1e-15 * se


def test_phase_parts_match_cos_and_sin():
    # weight cos and weight sin from one half-angle tangent, within 4e-16 per
    # unit weight of np.cos and np.sin and finite everywhere: on +-0, odd
    # multiples of pi (where the tangent is largest) and their neighbours,
    # uniform phases and magnitudes up to 1e6; power-of-two weights scale exactly
    rng = np.random.default_rng(39)
    odd = math.pi * (2.0 * np.arange(-1000, 1000) + 1.0)
    phases = np.concatenate([
        [0.0, -0.0], odd, np.nextafter(odd, np.inf), np.nextafter(odd, -np.inf),
        rng.uniform(-10.0, 10.0, 10**6), rng.choice([-1.0, 1.0], 10**6) * 10.0 ** rng.uniform(-8.0, 6.0, 10**6),
    ])
    weight = 2.0 ** rng.integers(-40, 40, len(phases))
    re, im = _phase_parts(phases.copy(), weight)
    assert np.all(np.isfinite(re)) and np.all(np.isfinite(im))
    assert np.max(np.abs(re - weight * np.cos(phases)) / weight) <= 4e-16
    assert np.max(np.abs(im - weight * np.sin(phases)) / weight) <= 4e-16


class _RecordingGenerator:
    """A generator that records the name of every method it is asked for."""

    def __init__(self, gen, calls):
        self._gen, self._calls = gen, calls

    def __getattr__(self, name):
        self._calls.append(name)
        return getattr(self._gen, name)


def _bergman_mc_draw_calls(monkeypatch, kind, param):
    """The set of generator methods each Bergman MC call asks for, on the diagonal and off it."""
    calls = []
    original = integrals.blocks

    def recording(*args):
        return ((_RecordingGenerator(g, calls), rows) for g, rows in original(*args))

    monkeypatch.setattr(integrals, "blocks", recording)
    alg, _, q_map = standard_model(kind, param)
    rng = np.random.default_rng(37)
    p1, p2 = _domain_point(alg, q_map, rng), _domain_point(alg, q_map, rng)
    found = []
    for other in (p1, p2):
        calls.clear()
        bergman_kernel(alg, q_map, p1, other, samples=3_000, seed=1, method="mc")
        found.append(set(calls))
    return found


@pytest.mark.parametrize("kind,param", BERGMAN_MC_SIZES, ids=lambda v: str(v))
def test_bergman_mc_draws_no_normals(monkeypatch, kind, param):
    # on the diagonal and off it, the Bergman MC draws the r Gamma rows alone
    for calls in _bergman_mc_draw_calls(monkeypatch, kind, param):
        assert calls and calls <= {"gamma", "standard_exponential"}


@pytest.mark.parametrize(
    "kind,param", [("rank1", None), ("diagonal", 4), ("herm_complex", 2), ("herm_complex", 3)], ids=lambda v: str(v)
)
def test_bergman_mc_at_integer_shapes_draws_only_exponentials(monkeypatch, kind, param):
    # every proposal row has integer shape k <= 3 here (1 at rank1 and diagonal,
    # n - j at herm_complex n), so each is a sum of k exponentials: no gamma call
    for calls in _bergman_mc_draw_calls(monkeypatch, kind, param):
        assert calls == {"standard_exponential"}


@pytest.mark.parametrize("kind,param", [("sym_real", 3), ("herm_complex", 3), ("herm_complex", 4)], ids=lambda v: str(v))
def test_bergman_mc_memory_is_bounded_by_the_sample_count(kind, param):
    # the sampler yields at most two exponents and one determinant per sample,
    # never the (samples, N) array u: 200 000 samples peak within 8 MB at every size,
    # off the diagonal and on it, where the materialized u and five complex
    # temporaries held 18 MB at sym_real 3 and 23 MB at herm_complex 3
    alg, _, q_map = standard_model(kind, param)
    rng = np.random.default_rng(28)
    p1, p2 = _domain_point(alg, q_map, rng), _domain_point(alg, q_map, rng)
    for other in (p2, p1):
        bergman_kernel(alg, q_map, p1, other, samples=2_000, seed=1, method="mc")
        tracemalloc.start()
        try:
            bergman_kernel(alg, q_map, p1, other, samples=200_000, seed=1, method="mc")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6


@pytest.mark.parametrize("kind,param", [("sym_real", 3), ("herm_complex", 3)], ids=lambda v: str(v))
def test_base_measure_moments_match_materialized_samples(kind, param):
    # one projection on the stacked [Re zeta | Im zeta | Q(gamma, gamma)]
    # gives the moments of each direction applied to the whole u, to rounding
    alg, _, q_map = standard_model(kind, param)
    rng = np.random.default_rng(29)
    zetas = rng.standard_normal((4, alg.dim)) + 1j * rng.standard_normal((4, alg.dim))
    gammas = rng.standard_normal((4, q_map.n)) + 1j * rng.standard_normal((4, q_map.n))
    _, m1, m2, qv = base_measure_moments(alg, q_map, zetas, gammas, 60_000, seed=30)
    for got, expected in zip((m1, m2, qv), base_moments_oracle(alg, q_map, zetas, gammas, 60_000, seed=30)):
        assert got.shape == expected.shape
        assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))


def test_bergman_translation_invariance(rank1):
    alg, _, q_map = rank1
    from qsiegel import GroupElement

    p1 = SiegelPoint([0.2 + 1.3j], [0.1 + 0j])
    p2 = SiegelPoint([1.1j], [0.2j])
    g = GroupElement([0.7], [0j])
    k1 = bergman_kernel(alg, q_map, p1, p2, method="closed")
    k2 = bergman_kernel(
        alg, q_map, q_map.group_act(g, p1), q_map.group_act(g, p2), method="closed"
    )
    assert k1.value == pytest.approx(k2.value, rel=1e-10)


def test_bergman_hermitian_within_error(rank1):
    alg, _, q_map = rank1
    p1 = SiegelPoint([0.4 + 1.5j], [0.3 + 0.2j])
    p2 = SiegelPoint([-0.1 + 1.1j], [0.1 - 0.4j])
    k12 = bergman_kernel(alg, q_map, p1, p2, method="closed")
    k21 = bergman_kernel(alg, q_map, p2, p1, method="closed")
    assert k12.value == pytest.approx(np.conj(k21.value), rel=1e-9)


def test_bergman_sym2_coincident_matches_measure_mass(sym2):
    # at coincident points the integral is the measure mass at the cone part
    alg, _, q_map = sym2
    z = 1j * alg.from_matrix(np.array([[2.0, 0.3], [0.3, 1.3]]))
    p = SiegelPoint(z, [0.1 + 0.2j, -0.3 + 0j])
    est = bergman_kernel(alg, q_map, p, p, samples=300_000, seed=7, method="mc")
    exact = measure_mass(alg, q_map.cone_part(p)) / (2.0 * math.pi) ** alg.dim
    assert abs(est.value - exact) <= 4.0 * est.se
    assert abs(est.value.imag) <= 4.0 * est.se


def test_bergman_requires_domain(rank1):
    alg, _, q_map = rank1
    good = SiegelPoint([1j], [0j])
    bad = SiegelPoint([0j], [0j])
    with pytest.raises(NotInDomain):
        bergman_kernel(alg, q_map, good, bad)


def test_bergman_unknown_method_rejected(rank1):
    alg, _, q_map = rank1
    p = SiegelPoint([1j], [0j])
    with pytest.raises(ValueError, match="'closed'"):
        bergman_kernel(alg, q_map, p, p, method="quadrature")


def test_bergman_mc_determinism(sym2):
    alg, _, q_map = sym2
    p = SiegelPoint(1j * alg.unit, np.zeros(2, dtype=complex))
    a = bergman_kernel(alg, q_map, p, p, samples=60_000, seed=11, method="mc")
    b = bergman_kernel(alg, q_map, p, p, samples=60_000, seed=11, method="mc")
    assert a.value == b.value and a.se == b.se
