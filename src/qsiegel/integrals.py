"""Cone integrals, the Bergman kernel, and metric moments.

I(u) integrates exp(-2<u, y>) over the symmetric cone and I_Q(u) integrates
exp(-2<u, Q(v, v)>) over V, both against Lebesgue measure in the fixed
orthonormal coordinates.  For a cone of rank r, dimension N and Peirce
constant d every such integral is a determinant power times the Gindikin
gamma function

    Gamma_Omega(s) = (2 pi)^((N - r)/2) prod_{j < r} Gamma(s - j d / 2),

through  int exp(-2<u, y>) Delta(u)^(s - N/r) du = Gamma_Omega(s) Delta(2y)^(-s)
(Faraut-Koranyi, Analysis on Symmetric Cones, ch. VII), so I(u), the mass of
the base measure and the Bergman kernel are written once for every built-in
kind, in log scale and with one prefactor (``_log_prefactor``); I_Q is a
Gaussian.  The same factorization is the Bartlett decomposition of the
normalized densities Delta(u)^(s - N/r) exp(-2<u, y>): u = A T T^H A^H with
A A^H = (2y)^-1 and T lower triangular, T_jj^2 ~ Gamma(s - j d/2) and d
independent N(0, 1/2) real parts in each entry below the diagonal.  So a
sample costs r Gamma draws and N - r normals, every coordinate of u is a
quadratic form in them, and prod_j T_jj^2 = Delta(u) Delta(2y).  A consumer
that needs only <u, a> for a few directions a contracts the form with them
first, so u itself is never formed: the metric moments take a dozen
projections.  The Bergman MC needs only the mean of e^(i<u, a>) against the
weight (prod_j T_jj^2)^(N/r + 1).  Given the Gamma rows the columns of T
separate and <u, a> is a Gaussian quadratic form in each column's normals,
so their average is c0 exp(sum_j kappa_j T_jj^2) in closed form
(``_conditional_phase``), and the Bergman MC draws only the r Gamma rows.
A row of integer shape k <= 3 is the sum of k standard exponentials, which is
exactly Gamma(k) and, up to k = 3, cheaper than numpy's Gamma draw; every
Bergman proposal row at rank one, the diagonal kind and herm_complex up to
n = 3 is one.  Off the diagonal the weight's cosine and sine parts come from
one half-angle tangent (``_phase_parts``).  All sampling is counter-based,
keyed by (seed, stream, block index), and runs on one thread (``rng`` says
why).
"""
import cmath
import math
from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from .errors import NonFiniteValue, NotInCone, NotInDomain
from .rng import BLOCK, blocks


# -- closed forms -----------------------------------------------------------


def log_gindikin_gamma(alg, s):
    """log Gamma_Omega(s) of the cone of ``alg``, by ``math.lgamma``; s > (r - 1) d / 2."""
    r, d = alg.rank, alg.d
    return (alg.dim - r) / 2.0 * math.log(2.0 * math.pi) + sum(math.lgamma(s - j * d / 2.0) for j in range(r))


def _log_prefactor(alg, log_det):
    """L(a) = log[pi^-N (2/pi)^r Delta(a)^-s] from log Delta(a), s = ``measure_shape``: the Gindikin
    normalization of the Bergman kernel (a = -i w), the measure mass (a = 2y) and the MC (a = 2 y0)."""
    return alg.rank * math.log(2.0 / math.pi) - alg.dim * math.log(math.pi) - measure_shape(alg) * log_det


def _log_gamma_ratio(alg):
    """log Gamma_Omega(s) / Gamma_Omega(N/r), s = ``measure_shape``: the closed forms' Gamma_Omega terms."""
    return log_gindikin_gamma(alg, measure_shape(alg)) - log_gindikin_gamma(alg, alg.dim / alg.rank)


def _exp(log_value, x=1.0):
    """x e^log_value, with log_value added to log |x| so that e^log_value alone may lie outside the
    doubles: inf past the largest double and 0.0 below the smallest, never ``OverflowError``."""
    size = abs(x)
    with np.errstate(over="ignore"):
        return x / size * float(np.exp(log_value + math.log(size))) if size else x


def _log_det_2u(alg, u, what):
    """log Delta(2u) from one ``eigvalsh``, raising NotInCone unless u lies in the open cone."""
    vals = np.linalg.eigvalsh(alg.to_matrix(u))
    if vals[0] <= 0.0:
        raise NotInCone(f"{what} requires its argument in the open cone")
    return float(np.sum(np.log(2.0 * vals)))


def cone_laplace(alg, u):
    """Closed form of I(u) = Gamma_Omega(N/r) Delta(2u)^(-N/r)."""
    s = alg.dim / alg.rank
    return _exp(log_gindikin_gamma(alg, s) - s * _log_det_2u(alg, u, "I(u)"))


def gaussian_iq(q_map, u):
    """I_Q(u) as the Gaussian integral of the form v -> 2 g_u(v, v)."""
    m_u = 2.0 * q_map.g_matrix(u)
    vals = np.linalg.eigvalsh(0.5 * (m_u + m_u.T))
    if vals[0] <= 0.0:
        raise NotInCone("the quadratic form of I_Q(u) is not positive definite")
    return _exp(0.5 * (m_u.shape[0] * math.log(math.pi) - np.sum(np.log(vals))))


@dataclass
class ConeIntegrals:
    i_value: float
    iq_value: float


def cone_integrals(alg, q_map, u):
    """I(u) and I_Q(u) in closed form; both are positive on the open cone."""
    u = alg.check_element(u)
    if not alg.cone_contains(u, mode="open"):
        raise NotInCone("cone integrals need u in the open cone")
    return ConeIntegrals(cone_laplace(alg, u), gaussian_iq(q_map, u))


# -- the invariant base measure and the exact samplers ------------------------


def measure_shape(alg):
    """Shape 2N/r + 1 of the invariant measure, the Bergman exponent and the base metric's scalar: the
    standard representation has I_Q(u) = (pi/2)^r / Delta(u), so 1/(I I_Q) ~ Delta(u)^(2N/r + 1 - N/r)."""
    return 2.0 * alg.dim / alg.rank + 1.0


def measure_mass(alg, y):
    """Closed-form mass of exp(-2<u,y>) / (I(u) I_Q(u)) mu_U: (2 pi)^N times the closed Bergman kernel
    at -i w = 2y, 2^N (2/pi)^r Gamma_Omega(s) / Gamma_Omega(N/r) Delta(2y)^(-s), s = ``measure_shape``."""
    log_det = _log_det_2u(alg, y, "measure mass")
    return _exp(alg.dim * math.log(2.0 * math.pi) + _log_prefactor(alg, log_det) + _log_gamma_ratio(alg))


# a chunk of samples holds about this many pair products (128 kB), and at
# least one block
_CHUNK_VALUES = 1 << 14

# The sum of k standard exponentials is exactly Gamma(k), and up to this k it
# is the cheaper draw.  ns a draw on Philox in 1024-value calls, 2-core
# x86-64 with AVX-512, for shapes 1 to 5: ``gamma`` 10.2, 29.7, 29.1, 27.2,
# 26.2; the sum of k exponentials 9.6, 16.0, 22.6, 27.8, 33.3.
_EXPONENTIAL_SUM_MAX = 3


def _bartlett_form(alg, y):
    """Every coordinate of u as a quadratic form in the Bartlett variables.

    The variables theta are T_00..T_(r-1)(r-1), then d standard normals for
    each entry below the diagonal of T (row-major); variable i sits at
    (row_i, col_i) of T with value unit_i theta_i, where unit_i is 1 on the
    diagonal and 1/sqrt 2 or i/sqrt 2 below it.  With A A^H = (2y)^-1 and
    C_k = A^H B_k A,

        u_k = Re<T T^H, C_k> = sum_(col_i = col_j) theta_i theta_j Re(unit_i conj(unit_j) conj(C_k[row_i, row_j])),

    so only variables of one column of T meet.  Returns those pairs (i <= j),
    the r pairs (j, j) of the diagonal first, and the weights w with
    u = sum_pairs theta_i theta_j w.
    """
    r, d = alg.rank, alg.d
    a = np.linalg.cholesky(np.linalg.inv(2.0 * alg.to_matrix(y)))
    low_rows, low_cols = np.tril_indices(r, -1)
    row = np.concatenate([np.arange(r), np.repeat(low_rows, d)])
    col = np.concatenate([np.arange(r), np.repeat(low_cols, d)])
    unit = np.concatenate([np.ones(r), np.tile([1.0, 1.0j][:d], len(low_rows)) / math.sqrt(2.0)])
    i, j = np.nonzero(np.triu(col[:, None] == col[None, :]))
    first = np.argsort((i >= r) | (i != j), kind="stable")
    i, j = i[first], j[first]
    # C_k[row_i, row_j] = a_(row_i)^H B_k a_(row_j) for the columns a_p of A
    c = alg.outer_coords(a.T[row[j]], a.T[row[i]])
    # a pair i < j also stands for the equal term (j, i)
    factor = np.where(i == j, 1.0, 2.0) * unit[i] * unit[j].conj()
    return i, j, np.real(factor[:, None] * c.conj())


def _conditional_phase(alg, y, a):
    """(kappa, c0) with E[e^(i<u, a>) | g] = c0 exp(sum_j kappa_j g_j), the normals
    of the Bartlett decomposition integrated out given its Gamma rows g_j = T_jj^2.

    Contracted with a, the Bartlett form is sum_j g_j a_j + sum_j sqrt(g_j) b_j^T z
    + z^T M z in the standard normals z, where b_j lives on the normals of column
    j of T and M is block diagonal by column.  With M = O diag(lam) O^T and
    beta = O^T [b_0 .. b_(r-1)], the Gaussian integral gives
    kappa_j = i a_j - 1/2 sum_k beta_kj^2 / (1 - 2i lam_k) and
    c0 = prod_k (1 - 2i lam_k)^(-1/2), each factor's principal root.  Returned as
    the (r, 2) real array [Re kappa | Im kappa], Re kappa <= 0, and the complex c0.
    """
    r = alg.rank
    i, j, weights = _bartlett_form(alg, y)
    coef = weights @ a
    phase = coef[:r]
    # past the r pairs (j, j), a pair is T_jj with a normal below it, or two normals
    i, j, coef = i[r:], j[r:] - r, coef[r:]
    cross = i < r
    b = np.zeros((alg.dim - r, r))
    b[j[cross], i[cross]] = coef[cross]
    m = np.zeros((alg.dim - r, alg.dim - r))
    rows, cols, half = i[~cross] - r, j[~cross], 0.5 * coef[~cross]
    m[rows, cols] += half
    m[cols, rows] += half
    lam, vecs = np.linalg.eigh(m)
    beta2 = (vecs.T @ b) ** 2
    # 1 / (1 - 2i lam) = (1 + 2i lam) / (1 + 4 lam^2)
    damp = beta2 / (1.0 + 4.0 * lam**2)[:, None]
    kappa = np.column_stack([-0.5 * damp.sum(axis=0), phase - (lam[:, None] * damp).sum(axis=0)])
    c0 = cmath.exp(complex(-0.25 * np.sum(np.log1p(4.0 * lam**2)), 0.5 * np.sum(np.arctan(2.0 * lam))))
    return kappa, c0


def _sample_cone_gamma(alg, y, s, count, seed, stream, directions=None, gamma_weights=None):
    """Exact samples u of the density ~ Delta(u)^(s - N/r) exp(-2<u, y>), and prod_j T_jj^2.

    This is the cone's Gamma family of shape s and scale (2y)^-1, with mean
    s (2y)^-1, drawn by its Bartlett decomposition (see the module
    docstring).  Block b draws BLOCK values of each Gamma(s - j d/2) in turn,
    then an (N - r) x BLOCK array of normals; one generator, re-keyed for
    each block, serves the whole call.  A run of rows of integer shape
    k <= ``_EXPONENTIAL_SUM_MAX`` (3, the measured break-even) draws one
    (rows, k, BLOCK) array of ``standard_exponential`` and sums it over k:
    the sum of k standard exponentials is exactly Gamma(k), and k = 1 is
    numpy's Gamma(1) draw itself.  Half-integer shapes and k >= 4 draw by
    ``gamma``.  Every mode draws by this rule.

    With ``directions`` an (N, k) array, the Bartlett weights are contracted
    with it once, and the first return value is the (count, k) array of
    <u, a> for the columns a: the same draws, and u itself is never formed.
    With ``gamma_weights`` an (r, k) array, each block draws its r Gamma rows
    g_j = T_jj^2 and stops: its normals come after them, and the next block
    is re-keyed, so every g is the one the full draw gives.  The first return
    value is then the (count, k) array g @ gamma_weights; with k = 0 only the
    second is wanted, the Bartlett determinant prod_j T_jj^2 = Delta(u) Delta(2y).
    """
    r, n = alg.rank, alg.dim
    if gamma_weights is None:
        i, j, weights = _bartlett_form(alg, y)
        if directions is not None:
            weights = weights @ directions
    else:
        # the r pairs (j, j) alone: their products are the Gamma draws
        i, weights = np.arange(r), gamma_weights
    # normals enter only through the pairs past the r Gamma rows
    normals = len(i) > r
    shapes = s - 0.5 * alg.d * np.arange(r)
    # rows of one shape (all r when d = 0) draw in one call, in the same order
    cuts = [0, *(np.flatnonzero(np.diff(shapes)) + 1).tolist(), r]
    runs = [(a, b, float(shapes[a])) for a, b in zip(cuts[:-1], cuts[1:])]
    step = max(1, _CHUNK_VALUES // (len(i) * BLOCK)) * BLOCK
    out = np.empty((count, weights.shape[1]))
    dets = np.empty(count)
    draws = blocks(seed, stream, count)
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        # pairs[p] = theta_i theta_j; its first r rows, T_jj^2, are the Gamma
        # draws themselves.  theta holds T_jj for j < r - 1, then the normals.
        pairs = np.empty((len(i), hi - lo))
        theta = np.empty((n, hi - lo)) if normals else None
        for g, rows in islice(draws, step // BLOCK):  # the chunk's blocks
            cols = slice(rows.start - lo, rows.stop - lo)
            nb = rows.stop - rows.start
            for a, b, shape in runs:
                if shape.is_integer() and shape <= _EXPONENTIAL_SUM_MAX:
                    # row by row, k = shape exponentials each, added in place in the
                    # draw (np.sum over the middle axis costs 3-8 us more a call)
                    draw = g.standard_exponential((b - a, int(shape), BLOCK))
                    sums = draw[:, 0]
                    for term in range(1, int(shape)):
                        sums += draw[:, term]
                    pairs[a:b, cols] = sums[:, :nb]
                else:
                    pairs[a:b, cols] = g.gamma(shape, size=(b - a, BLOCK))[:, :nb]
            if normals:
                theta[r:, cols] = g.standard_normal((n - r, BLOCK))[:, :nb]
        np.prod(pairs[:r], axis=0, out=dets[lo:hi])
        if normals:
            # T_jj meets another variable only when normals lie below it (j < r - 1)
            np.sqrt(pairs[: r - 1], out=theta[: r - 1])
            np.multiply(theta[i[r:]], theta[j[r:]], out=pairs[r:])
        np.dot(pairs.T, weights, out=out[lo:hi])
    return out, dets


def sample_invariant_measure(alg, y, count, seed, directions=None):
    """Exact samples from the normalized measure exp(-2<u,y>)/(I I_Q) mu_U (shape 2N/r + 1),
    or their projections <u, a> on the columns of ``directions``; stream 4."""
    return _sample_cone_gamma(alg, y, measure_shape(alg), count, seed, 4, directions)[0]


def sample_cone_exponential(alg, y0, count, seed, directions=None, gamma_weights=None):
    """Samples u from the density exp(-2<u, y0>) / I(y0) on the cone (shape N/r),
    or their projections on the columns of ``directions``, or the contractions
    of their Gamma rows with ``gamma_weights``, with prod_j T_jj^2; stream 3."""
    return _sample_cone_gamma(alg, y0, alg.dim / alg.rank, count, seed, 3, directions, gamma_weights)


# -- Bergman kernel ----------------------------------------------------------


def _phase_parts(phase, weight):
    """(weight cos phase, weight sin phase) from one half-angle tangent t = tan(phase / 2):
    with h = weight / (1 + t^2) they are 2h - weight and 2t h.  numpy's float64 ``tan`` is
    SIMD-dispatched where ``cos`` and ``sin`` are not.  The first part is a new array; the
    second overwrites ``phase``."""
    t = np.multiply(phase, 0.5, out=phase)
    np.tan(t, out=t)
    h = np.multiply(t, t)
    h += 1.0
    np.divide(weight, h, out=h)
    t *= h
    t *= 2.0
    h *= 2.0
    h -= weight
    return h, t


@dataclass
class BergmanEstimate:
    value: complex
    se: float
    method: str
    samples: int = 0
    seed: Optional[int] = None


def bergman_kernel(alg, q_map, p1, p2, samples=200_000, seed=0, method="closed"):
    """Reproducing kernel of the square-integrable holomorphic functions.

    With w = z1 - conj(z2) - 2i Q(v1, v2) the kernel is
    (2 pi)^-N int e^{i<u, w>} / (I(u) I_Q(u)) du over the cone.  'closed' (the default)
    evaluates it by the Gindikin integral e^L(-i w) Gamma_Omega(2N/r + 1) / Gamma_Omega(N/r),
    L = ``_log_prefactor`` at the ``slogdet`` of -i w.  'mc' importance-samples it with the
    exact exponential-weight proposal at the cone midpoint y0 = Im w / 2, where
    (2 pi)^-N I(y0) / (I(u) I_Q(u)) = e^L(2 y0) (prod_j g_j)^(N/r + 1) in its Gamma rows
    g_j = T_jj^2: the weight does not depend on y0, and e^L is added to the log of the mean
    and of the se.  The Bartlett normals are integrated out, E[e^{i<u, Re w>} | g] =
    c0 e^{g kappa} (``_conditional_phase``): the sampler yields g Re kappa, g Im kappa and
    prod_j g_j, the weight times e^{g Re kappa} is summed as its cosine and sine parts at
    g Im kappa, both from t = tan(g Im kappa / 2) as 2h - weight and 2t h with
    h = weight / (1 + t^2) (``_phase_parts``), and c0 multiplies the mean and |c0| the se.
    The mean is unchanged and the variance can only drop; with d = 0, Re kappa = 0 and
    c0 = 1.  At p1 = p2, w = 2i (Im z - Q(v, v)) is imaginary (up to the rounding of
    Im Q(v, v)) and K(p, p) is real: the sampler yields prod_j g_j alone and the imaginary
    part is exactly 0.  A value past the largest double reads inf, one below the smallest 0.0.
    """
    for p in (p1, p2):
        if not q_map.domain_contains(p):
            raise NotInDomain("Bergman kernel arguments must lie in the domain")
    with np.errstate(over="ignore", invalid="ignore"):
        w = p1.z - np.conj(p2.z) - 2j * q_map.q_eval(p1.v, p2.v)
    if not np.all(np.isfinite(w)):
        raise NonFiniteValue("w = z1 - conj(z2) - 2i Q(v1, v2) overflows")
    r, power = alg.rank, measure_shape(alg)

    if method == "closed":
        sign, log_det = np.linalg.slogdet(alg.to_matrix(-1j * w))
        size = _exp(_log_prefactor(alg, log_det) + _log_gamma_ratio(alg))
        return BergmanEstimate(complex(sign) ** -power * size, 0.0, "closed")
    if method != "mc":
        raise ValueError("method must be 'closed' or 'mc'")

    y0 = np.imag(w) / 2.0
    if not alg.cone_contains(y0, mode="open"):
        raise NotInDomain("midpoint cone part left the open cone")
    # the weight is (prod_j g_j)^(N/r + 1), the measure's shape less the proposal's
    weight_power = power - alg.dim / r
    if np.array_equal(p1.z, p2.z) and np.array_equal(p1.v, p2.v):
        # K(p, p) is real: the weight is its one part
        _, dets = sample_cone_exponential(alg, y0, samples, seed, gamma_weights=np.empty((r, 0)))
        parts, c0 = [np.power(dets, weight_power, out=dets)], 1.0
    else:
        # the normals integrated out: the weight times e^(g kappa), times c0
        kappa, c0 = _conditional_phase(alg, y0, np.real(w))
        # with no normals below the diagonal (d = 0) Re kappa = 0 and nothing damps
        damped = kappa[:, 0].any()
        exponents, dets = sample_cone_exponential(
            alg, y0, samples, seed, gamma_weights=kappa if damped else kappa[:, 1:]
        )
        weight = np.power(dets, weight_power, out=dets)
        if damped:
            weight *= np.exp(exponents[:, 0], out=exponents[:, 0])
        parts = _phase_parts(exponents[:, -1], weight)
    # the mean of each part of f, then |f - mean|^2 in place: its mean is the sum of the parts' means
    mean = complex(*(np.mean(part) for part in parts))
    for part, m in zip(parts, (mean.real, mean.imag)):
        part -= m
        part *= part
    se = math.sqrt(sum(np.mean(part) for part in parts) / samples)
    log_scale = _log_prefactor(alg, _log_det_2u(alg, y0, "the Bergman MC"))
    return BergmanEstimate(c0 * _exp(log_scale, mean), abs(c0) * _exp(log_scale, se), "mc", samples, seed)


# -- moments of the base measure for the metric oracle -----------------------


def base_measure_moments(alg, q_map, directions_u, directions_v, samples=200_000, seed=0):
    """MC moments of the measure exp(-2<u,e>) / (I I_Q) mu_U at the base point.

    The measure is sampled exactly (its density is a Wishart/Gamma family),
    so no importance weights enter.  Returns (delta, m1, m2, qv): the
    closed-form mass, the first and second sample moments of <u, zeta> for
    each U_C direction zeta, and the first moment of <u, Q(gamma, gamma)>
    for each V direction gamma, all normalized by the mass.  The sampler
    yields only the projections of u on the columns [Re zeta | Im zeta | Q(gamma, gamma)].
    """
    e = alg.unit
    delta = measure_mass(alg, e)
    zetas = np.array(directions_u, dtype=complex).reshape(-1, alg.dim)
    gammas = np.array(directions_v, dtype=complex).reshape(-1, q_map.n)
    qgs = np.real(q_map.q_eval(gammas, gammas))
    k = len(zetas)
    proj = sample_invariant_measure(alg, e, samples, seed, directions=np.concatenate([zetas.real, zetas.imag, qgs]).T)
    vals = proj[:, :k] + 1j * proj[:, k : 2 * k]
    return delta, np.mean(vals, axis=0), np.mean(np.abs(vals) ** 2, axis=0), np.mean(proj[:, 2 * k :], axis=0)
