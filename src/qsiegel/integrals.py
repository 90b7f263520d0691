"""Cone integrals, the Bergman kernel, and metric moments.

I(u) integrates exp(-2<u, y>) over the symmetric cone and I_Q(u) integrates
exp(-2<u, Q(v, v)>) over V, both against Lebesgue measure in the fixed
orthonormal coordinates.  For a cone of rank r, dimension N and Peirce
constant d every such integral is a determinant power times the Gindikin
gamma function

    Gamma_Omega(s) = (2 pi)^((N - r)/2) prod_{j < r} Gamma(s - j d / 2),

through  int exp(-2<u, y>) Delta(u)^(s - N/r) du = Gamma_Omega(s) Delta(2y)^(-s)
(Faraut-Koranyi, Analysis on Symmetric Cones, ch. VII), so I(u),
1/(I(u) I_Q(u)) and the mass of the base measure are written once for every
built-in kind; I_Q is a Gaussian.  The normalized densities
Delta(u)^(s - N/r) exp(-2<u, y>) are sampled exactly: independent Gamma(s)
coordinates for d = 0, Wishart matrices with 2s/d degrees of freedom over R
or C for d = 1, 2.  Box-rejection Monte Carlo provides the independent
cross-check of the closed forms.  All sampling is counter-based, keyed by
(seed, stream, block index), so results do not depend on scheduling.
"""
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import MCVarianceTooHigh, NotInCone, NotInDomain
from .rng import BLOCK, blocks


def _batch_to_matrix(alg, xs):
    return np.einsum("sk,kab->sab", xs, alg.matrix_basis)


def _batch_from_matrix(alg, mats):
    return np.real(np.einsum("sab,kab->sk", mats, alg.matrix_basis.conj()))


# -- closed forms -----------------------------------------------------------


def gindikin_gamma(alg, s):
    """Gindikin gamma function Gamma_Omega(s) of the cone of ``alg``."""
    r, d = alg.rank, alg.d
    return (2.0 * math.pi) ** ((alg.dim - r) / 2.0) * math.prod(
        math.gamma(s - j * d / 2.0) for j in range(r)
    )


def _log_det_2u(alg, u, what):
    """log Delta(2u), raising NotInCone unless u lies in the open cone."""
    mat = alg.to_matrix(u)
    if np.linalg.eigvalsh(mat)[0] <= 0.0:
        raise NotInCone(f"{what} requires its argument in the open cone")
    return np.linalg.slogdet(2.0 * mat)[1]


def cone_laplace(alg, u):
    """Closed form of I(u) = Gamma_Omega(N/r) Delta(2u)^(-N/r)."""
    s = alg.dim / alg.rank
    return float(gindikin_gamma(alg, s) * math.exp(-s * _log_det_2u(alg, u, "I(u)")))


def gaussian_iq(q_map, u):
    """I_Q(u) as the Gaussian integral of the form v -> 2 g_u(v, v)."""
    m_u = 2.0 * q_map.g_matrix(u)
    vals = np.linalg.eigvalsh(0.5 * (m_u + m_u.T))
    if vals[0] <= 0.0:
        raise NotInCone("the quadratic form of I_Q(u) is not positive definite")
    n_r = m_u.shape[0]
    return float(math.pi ** (n_r / 2.0) * math.exp(-0.5 * np.sum(np.log(vals))))


def _batch_inv_i_iq(alg, q_map, us):
    """Vectorized 1 / (I(u) I_Q(u)) for a batch of cone points.

    For the standard representation the Gaussian determinant of I_Q
    collapses to I_Q(u) = (pi/2)^r / Delta(u).
    """
    r, s = alg.rank, alg.dim / alg.rank
    dets = np.real(np.linalg.det(_batch_to_matrix(alg, us)))
    inv_i = np.exp(s * (r * math.log(2.0) + np.log(dets))) / gindikin_gamma(alg, s)
    inv_iq = (2.0 / math.pi) ** r * dets
    return inv_i * inv_iq


# -- box-rejection Monte Carlo ----------------------------------------------

# box half-width in units of the inverse smallest spectral value; the
# truncated mass scales like exp(-_BOX_KAPPA) times a low-degree polynomial
_BOX_KAPPA = 12.0


def _cone_box_mc(alg, u, samples, seed, stream):
    """Rejection MC for I(u): uniform box scaled by the spectral data of u."""
    dec = alg.spectral_decompose(u)
    lam_min = float(np.min(dec.eigenvalues))
    n = alg.dim
    if alg.kind == "diagonal":
        lows = np.zeros(n)
        highs = _BOX_KAPPA / (2.0 * np.asarray(u))
    else:
        r = _BOX_KAPPA / (2.0 * lam_min)
        lows = -r * np.ones(n)
        highs = r * np.ones(n)
    vol = float(np.prod(highs - lows))
    uvec = np.asarray(u, dtype=float)

    total = total_sq = 0.0
    for g, rows in blocks(seed, stream, samples):
        ys = lows + g.random((BLOCK, n))[: rows.stop - rows.start] * (highs - lows)
        inside = _batch_in_cone(alg, ys)
        f = np.where(inside, np.exp(-2.0 * ys @ uvec), 0.0)
        total += float(np.sum(f))
        total_sq += float(np.sum(f * f))
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return vol * mean, vol * math.sqrt(var / samples)


def _batch_in_cone(alg, ys):
    if alg.kind == "diagonal":
        return np.all(ys > 0.0, axis=1)
    vals = np.linalg.eigvalsh(_batch_to_matrix(alg, ys))
    return vals[:, 0] > 0.0


def _iq_box_mc(q_map, u, samples, seed, stream):
    m_u = 2.0 * q_map.g_matrix(u)
    m_u = 0.5 * (m_u + m_u.T)
    vals = np.linalg.eigvalsh(m_u)
    if vals[0] <= 0.0:
        raise NotInCone("I_Q box requires a positive form")
    dim = m_u.shape[0]
    r = math.sqrt(2.0 * _BOX_KAPPA / vals[0])
    vol = (2.0 * r) ** dim
    total = total_sq = 0.0
    for g, rows in blocks(seed, stream, samples):
        vs = (2.0 * g.random((BLOCK, dim))[: rows.stop - rows.start] - 1.0) * r
        f = np.exp(-np.einsum("si,ij,sj->s", vs, m_u, vs))
        total += float(np.sum(f))
        total_sq += float(np.sum(f * f))
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return vol * mean, vol * math.sqrt(var / samples)


@dataclass
class ConeIntegrals:
    i_value: float
    iq_value: float
    method: str
    i_se: float = 0.0
    iq_se: float = 0.0
    samples: int = 0
    seed: Optional[int] = None
    closed_form_i: bool = True
    closed_form_iq: bool = True


def cone_integrals(alg, q_map, u, method="closed", samples=200_000, seed=0, se_limit=0.01):
    """I(u) and I_Q(u); ``method`` is 'closed' or 'mc'.

    Both values are positive on the open cone.  The MC path reports standard
    errors and raises MCVarianceTooHigh when either relative error exceeds
    ``se_limit``.
    """
    u = alg.check_element(u)
    if not alg.cone_contains(u, mode="open"):
        raise NotInCone("cone integrals need u in the open cone")
    if method == "closed":
        return ConeIntegrals(cone_laplace(alg, u), gaussian_iq(q_map, u), "closed")
    if method != "mc":
        raise ValueError("method must be 'closed' or 'mc'")
    i_val, i_se = _cone_box_mc(alg, u, samples, seed, stream=1)
    iq_val, iq_se = _iq_box_mc(q_map, u, samples, seed, stream=2)
    if i_se > se_limit * abs(i_val) or iq_se > se_limit * abs(iq_val):
        raise MCVarianceTooHigh(
            f"relative standard error above {se_limit:.1%} "
            f"(I: {i_se / abs(i_val):.2%}, I_Q: {iq_se / abs(iq_val):.2%})",
            relative_se=float(max(i_se / abs(i_val), iq_se / abs(iq_val))),
        )
    return ConeIntegrals(i_val, iq_val, "mc", i_se, iq_se, samples, seed, False, False)


# -- the invariant base measure and the exact samplers ------------------------


def measure_mass(alg, y):
    """Closed-form mass of the measure exp(-2<u,y>) / (I(u) I_Q(u)) mu_U.

    The density is 2^N (2/pi)^r Delta(u)^(N/r + 1) exp(-2<u,y>) / Gamma_Omega(N/r),
    so the mass is 2^N (2/pi)^r Gamma_Omega(2N/r + 1) / Gamma_Omega(N/r)
    times Delta(2y)^(-(2N/r + 1)).
    """
    r, s = alg.rank, alg.dim / alg.rank
    const = (
        2.0 ** alg.dim * (2.0 / math.pi) ** r
        * gindikin_gamma(alg, 2.0 * s + 1.0) / gindikin_gamma(alg, s)
    )
    return float(const * math.exp(-(2.0 * s + 1.0) * _log_det_2u(alg, y, "measure mass")))


def _sample_cone_gamma(alg, y, s, count, seed, stream):
    """Exact samples of the density ~ Delta(u)^(s - N/r) exp(-2<u, y>) on the cone.

    This is the cone's Gamma family of shape s and scale (2y)^-1, with mean
    s (2y)^-1.  For d = 0 the coordinates are independent Gamma(s) draws.
    For d = 1, 2 a sample is A Z Z^H A^H, where Z is an r x 2s/d matrix of
    standard normals over R or C and A A^H = (d/4) y^-1.
    """
    out = np.empty((count, alg.dim))
    d, r = alg.d, alg.rank
    if d == 0:
        scale = 1.0 / (2.0 * np.asarray(y, dtype=float))
        for g, rows in blocks(seed, stream, count):
            out[rows] = g.gamma(s, size=(BLOCK, alg.dim))[: rows.stop - rows.start] * scale
        return out
    a = np.linalg.cholesky(np.linalg.inv((4.0 / d) * alg.to_matrix(y)))
    shape = (BLOCK, r, round(2.0 * s / d))
    for g, rows in blocks(seed, stream, count):
        nb = rows.stop - rows.start
        z = g.standard_normal(shape)[:nb]
        if d == 2:
            z = (z + 1j * g.standard_normal(shape)[:nb]) / math.sqrt(2.0)
        az = a @ z
        out[rows] = _batch_from_matrix(alg, az @ az.conj().swapaxes(1, 2))
    return out


def sample_invariant_measure(alg, y, count, seed, stream=4):
    """Exact samples from the normalized measure exp(-2<u,y>)/(I I_Q) mu_U (shape 2N/r + 1)."""
    return _sample_cone_gamma(alg, y, 2.0 * alg.dim / alg.rank + 1.0, count, seed, stream)


def sample_cone_exponential(alg, y0, count, seed, stream=3):
    """Samples from the density exp(-2<u, y0>) / I(y0) on the cone (shape N/r)."""
    return _sample_cone_gamma(alg, y0, alg.dim / alg.rank, count, seed, stream)


# -- Bergman kernel ----------------------------------------------------------


@dataclass
class BergmanEstimate:
    value: complex
    se: float
    method: str
    samples: int = 0
    seed: Optional[int] = None


def bergman_kernel(alg, q_map, p1, p2, samples=200_000, seed=0, method="auto"):
    """Reproducing kernel of the square-integrable holomorphic functions.

    1D adaptive quadrature in the rank-one case; otherwise (or on request)
    importance-sampled MC with the exact exponential-weight proposal at the
    cone midpoint of the two points.
    """
    for p in (p1, p2):
        if not q_map.domain_contains(p):
            raise NotInDomain("Bergman kernel arguments must lie in the domain")
    w = p1.z - np.conj(p2.z) - 2j * q_map.q_eval(p1.v, p2.v)
    re_w = np.real(w)
    im_w = np.imag(w)

    if method == "auto":
        method = "quadrature" if alg.dim == 1 else "mc"

    if method == "quadrature":
        if alg.dim != 1:
            raise ValueError("quadrature path only covers rank-one algebras")
        import scipy.integrate  # only here, so importing qsiegel does not load scipy
        a, b_ = float(re_w[0]), float(im_w[0])

        def integrand_re(u):
            return (2.0 / math.pi ** 2) * u * u * math.exp(-u * b_) * math.cos(u * a)

        def integrand_im(u):
            return (2.0 / math.pi ** 2) * u * u * math.exp(-u * b_) * math.sin(u * a)

        vr, er = scipy.integrate.quad(integrand_re, 0.0, np.inf)
        vi, ei = scipy.integrate.quad(integrand_im, 0.0, np.inf)
        return BergmanEstimate(complex(vr, vi), float(math.hypot(er, ei)), "quadrature")

    y0 = im_w / 2.0
    if not alg.cone_contains(y0, mode="open"):
        raise NotInDomain("midpoint cone part left the open cone")
    i_y0 = cone_laplace(alg, y0)

    us = sample_cone_exponential(alg, y0, samples, seed, stream=3)
    total = 0.0 + 0.0j
    total_sq = np.zeros(2)
    for b in range(0, samples, _CHUNK):
        f = np.exp(1j * us[b : b + _CHUNK] @ re_w) * _batch_inv_i_iq(alg, q_map, us[b : b + _CHUNK])
        total += np.sum(f)
        total_sq += np.array([np.sum(f.real ** 2), np.sum(f.imag ** 2)])
    mean = total / samples
    var = np.maximum(total_sq / samples - np.array([mean.real ** 2, mean.imag ** 2]), 0.0)
    scale = i_y0 / (2.0 * math.pi) ** alg.dim
    se = scale * math.sqrt(float(np.sum(var)) / samples)
    return BergmanEstimate(complex(scale * mean), float(se), "mc", samples, seed)


_CHUNK = 1 << 16


# -- moments of the base measure for the metric oracle -----------------------


def base_measure_moments(alg, q_map, directions_u, directions_v, samples=200_000, seed=0):
    """MC moments of the measure exp(-2<u,e>) / (I I_Q) mu_U at the base point.

    The measure is sampled exactly (its density is a Wishart/Gamma family),
    so no importance weights enter.  Returns (delta, m1, m2, qv): the
    closed-form mass, the first and second sample moments of <u, zeta> for
    each U_C direction zeta, and the first moment of <u, Q(gamma, gamma)>
    for each V direction gamma, all normalized by the mass.
    """
    e = alg.unit
    delta = measure_mass(alg, e)
    m1 = np.zeros(len(directions_u), dtype=complex)
    m2 = np.zeros(len(directions_u))
    qv = np.zeros(len(directions_v))
    qgs = [np.real(q_map.q_eval(g, g)) for g in directions_v]
    us = sample_invariant_measure(alg, e, samples, seed, stream=4)
    for d, zeta in enumerate(directions_u):
        vals = us @ np.asarray(zeta)
        m1[d] = np.mean(vals)
        m2[d] = float(np.mean(np.abs(vals) ** 2))
    for d, qg in enumerate(qgs):
        qv[d] = float(np.mean(us @ qg))
    return delta, m1, m2, qv
