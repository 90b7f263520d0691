"""Certificates for the equivalent multiplicity-freeness conditions.

Three independent decision procedures are implemented and cross-validated:

* ``check_imq_vanishes`` -- the algebraic condition Im Q(S, S) = {0},
* ``check_coisotropic``  -- coisotropy of group orbits for the symplectic
  form of the invariant metric, tested by transporting orbit tangents to the
  base point,
* ``check_orbit_multiplicity`` -- the coadjoint-orbit condition
  j(W-complement for g_x) inside ker(g_x) + W at cone parameters x.

The theory says the three verdicts agree; disagreement is an alarm and maps
to a dedicated exit code in the CLI.
"""
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import creal
from .errors import HypothesisViolated, NotPSD, NotPositiveDefinite
from .integrals import base_measure_moments
from .representation import SiegelPoint
from .subspaces import RealSubspace, complement_wrt, kernel_of_form
from .tolerances import TOL_PSD, TOL_SUB, TOL_ZERO


@dataclass
class Certificate:
    condition: str
    verdict: bool
    residual: float
    tol: float
    witness: Optional[dict] = None
    seed: Optional[int] = None
    samples: Optional[int] = None
    metric_scale: Optional[float] = None
    extra: dict = field(default_factory=dict)

    def to_dict(self):
        out = {
            "condition": self.condition,
            "verdict": bool(self.verdict),
            "residual": float(self.residual),
            "tol": float(self.tol),
            "witness": self.witness,
            "seed": self.seed,
            "samples": self.samples,
            "metric_scale": self.metric_scale,
        }
        out.update(self.extra)
        return out


def _pairs(vec):
    vec = np.asarray(vec, dtype=complex)
    return [[float(a.real), float(a.imag)] for a in vec]


def phase_space_j(dim_u, n):
    """Complex structure on (Re z, Im z, Re v, Im v) coordinates."""
    out = np.zeros((2 * (dim_u + n), 2 * (dim_u + n)))
    out[: 2 * dim_u, : 2 * dim_u] = creal.j_matrix(dim_u)
    out[2 * dim_u :, 2 * dim_u :] = creal.j_matrix(n)
    return out


# -- condition: Im Q(S, S) = 0 ------------------------------------------------


def check_imq_vanishes(q_map, w):
    """Scan Im Q on a basis of S = (jW)-orthocomplement for re h.

    One call evaluates Q on every pair i <= j of basis vectors, in row-major
    order, so the witness is the first pair with the largest |Im Q|.
    """
    s = w.j_image(q_map.n).perp()
    basis = creal.re_to_cx(s.basis.T)
    first, second = np.triu_indices(s.dim)
    q = q_map.q_eval(basis[first], basis[second])
    resid = np.linalg.norm(np.imag(q), axis=1)
    scale = max(1.0, float(np.max(np.linalg.norm(q, axis=1), initial=0.0)))
    worst = float(np.max(resid, initial=0.0))
    tol = TOL_ZERO * scale
    verdict = worst <= tol
    witness = None
    if not verdict:
        k = int(np.argmax(resid))
        witness = {"s1": _pairs(basis[first[k]]), "s2": _pairs(basis[second[k]])}
    return Certificate("imq_vanishes", verdict, worst, tol, witness, extra={"dim_s": s.dim})


# -- base metric ---------------------------------------------------------------


@dataclass
class BaseMetric:
    matrix: np.ndarray      # 2(N+n) x 2(N+n), block diagonal
    e_prime: np.ndarray     # cone point with <e', x> = 2(tr T_x + tr R_x)
    u_block: np.ndarray     # N x N block H; the U_C part is diag(H, H)
    v_block: np.ndarray     # 2n x 2n, the form of e'


def base_metric(alg, q_map):
    """Invariant metric at the base point (ie, 0) in closed form.

    e' is the cone point with <e', x> = 2(tr T_x + tr R_x), where
    tr T_x = (N / r) tr x and tr R_x = tr(X) / 2 = tr(x) / 2, so
    e' = (2N / r + 1) e.  U-part: (a + ib, a' + ib') -> <e', a o a' + b o b'> / 4,
    so H = T_{e'} / 4.  V-part: the form of e'.  Mixed block zero.
    """
    dim, n = alg.dim, q_map.n
    e_prime = (2.0 * alg.dim / alg.rank + 1.0) * alg.unit
    t = alg.left_mult(e_prime)
    h = 0.125 * (t + t.T)
    v_block = q_map.g_matrix(e_prime)
    g = np.zeros((2 * (dim + n), 2 * (dim + n)))
    g[:dim, :dim] = h
    g[dim : 2 * dim, dim : 2 * dim] = h
    g[2 * dim :, 2 * dim :] = v_block
    if np.linalg.eigvalsh(0.5 * (g + g.T))[0] <= 0.0:
        raise NotPositiveDefinite("base metric is not positive definite")
    return BaseMetric(g, e_prime, h, v_block)


def bergman_metric_scale(alg, q_map, metric=None, seed=0, samples=100_000, n_dirs=4):
    """Ratio of the closed-form base metric to MC moments of the invariant
    measure, averaged over random tangent directions.  The theory predicts 1;
    the value is reported in certificates and never affects verdicts."""
    if metric is None:
        metric = base_metric(alg, q_map)
    rng = np.random.default_rng(seed + 12345)
    dirs_u = []
    dirs_v = []
    for _ in range(n_dirs):
        z = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        dirs_u.append(z / np.linalg.norm(z))
        g = rng.standard_normal(q_map.n) + 1j * rng.standard_normal(q_map.n)
        dirs_v.append(g / np.linalg.norm(g))
    _, m1, m2, qv = base_measure_moments(alg, q_map, dirs_u, dirs_v, samples, seed)
    ratios = []
    for d, zeta in enumerate(dirs_u):
        oracle = float(m2[d] - np.abs(m1[d]) ** 2)
        a, b = np.real(zeta), np.imag(zeta)
        closed = float(a @ metric.u_block @ a + b @ metric.u_block @ b)
        ratios.append(closed / oracle)
    for d, gamma in enumerate(dirs_v):
        oracle = float(2.0 * qv[d])
        gre = creal.cx_to_re(gamma)
        closed = float(gre @ metric.v_block @ gre)
        ratios.append(closed / oracle)
    return float(np.mean(ratios)), [float(r) for r in ratios]


# -- condition: coisotropic orbits ---------------------------------------------


def check_coisotropic(alg, q_map, w, n_samples=20, seed=0, metric_scale=None, metric=None, tol=TOL_SUB):
    """Transport orbit tangents to the base point and test
    (tangent)-orthocomplement inside J(tangent) there.

    Verdicts are invariant under rescaling ``metric`` by any positive factor
    (orthocomplements are scale-free); the optional argument exists so that
    this can be exercised directly."""
    if metric is None:
        metric = base_metric(alg, q_map)
    jmat = phase_space_j(alg.dim, q_map.n)
    rng = np.random.default_rng([seed, 0xC015])
    worst = 0.0
    witness = None
    for _ in range(max(1, n_samples)):
        p = q_map.sample_domain_point(rng)
        tangent = q_map.orbit_tangent(w, p)
        _, deriv = q_map.transport_to_base(p)
        timg = tangent.apply(deriv)
        orth = complement_wrt(metric.matrix, timg)
        if orth.dim == 0:
            continue
        # J is orthogonal, so it keeps the basis of timg orthonormal
        jt = RealSubspace(jmat @ timg.basis)
        resid_mat = orth.basis - jt.projector() @ orth.basis
        r = float(np.linalg.norm(resid_mat, ord=2))
        if r > worst:
            worst = r
            if r > tol:
                col = int(np.argmax(np.linalg.norm(resid_mat, axis=0)))
                back = np.linalg.solve(deriv, orth.basis[:, col])
                witness = {
                    "tangent_vector": [float(t) for t in back],
                    "point": {
                        "z": _pairs(p.z),
                        "v": _pairs(p.v),
                    },
                }
    verdict = worst <= tol
    return Certificate(
        "coisotropic",
        verdict,
        worst,
        tol,
        witness if not verdict else None,
        seed=seed,
        samples=n_samples,
        metric_scale=metric_scale,
    )


# -- orthocomplement identity over the distinguished submanifold ----------------


@dataclass
class OrthocomplementReport:
    max_distance: float
    distances: List[float]
    seed: int
    samples: int


def check_orthocomplement_identity(alg, q_map, w, n_samples=20, seed=0):
    """Equality of the transported orthocomplement of an orbit tangent with
    J applied to the explicit tangent family at points c = (iy, js).

    Requires Im Q(S, S) = {0}; raises HypothesisViolated otherwise.
    """
    if not check_imq_vanishes(q_map, w).verdict:
        raise HypothesisViolated("the orthocomplement identity assumes Im Q(S,S) = 0")
    metric = base_metric(alg, q_map)
    jmat = phase_space_j(alg.dim, q_map.n)
    s_space = w.j_image(q_map.n).perp()
    sprime = complement_wrt(q_map.g_matrix(metric.e_prime), w).j_image(q_map.n)
    rng = np.random.default_rng([seed, 0x0C11])
    dists = []
    for _ in range(max(1, n_samples)):
        if s_space.dim:
            s_vec = creal.re_to_cx(s_space.basis @ rng.standard_normal(s_space.dim))
        else:
            s_vec = np.zeros(q_map.n, dtype=complex)
        v_c = 1j * s_vec
        cone = alg.exp(0.7 * rng.standard_normal(alg.dim))
        y = np.real(q_map.q_eval(v_c, v_c)) + cone
        c = SiegelPoint(1j * y.astype(complex), v_c)

        tangent = q_map.orbit_tangent(w, c)
        _, deriv = q_map.transport_to_base(c)
        orth = complement_wrt(metric.matrix, tangent.apply(deriv))
        lhs = orth.apply(np.linalg.inv(deriv))

        # the tangent family is the orbit tangent at c of the group over R_cone S'
        r_sprime = RealSubspace.from_spanning(creal.realify(q_map.rep.r_op(cone)) @ sprime.basis)
        rhs = q_map.orbit_tangent(r_sprime, c).apply(jmat)
        dists.append(lhs.distance(rhs))
    return OrthocomplementReport(float(max(dists)), [float(d) for d in dists], seed, n_samples)


# -- condition: orbit multiplicity one ------------------------------------------


def check_orbit_multiplicity(q_map, w, x, tol=TOL_SUB):
    """j(W-complement for g_x) inside ker(g_x) + W, for PSD g_x."""
    x = np.asarray(x, dtype=float)
    gx = q_map.g_matrix(x)
    gx = 0.5 * (gx + gx.T)
    vals = np.linalg.eigvalsh(gx)
    if vals[0] < -TOL_PSD * max(1.0, float(np.max(np.abs(vals)))):
        raise NotPSD("g_x must be positive semi-definite on V")
    jwp = complement_wrt(gx, w).j_image(q_map.n)
    target = kernel_of_form(gx).add(w)
    if jwp.dim == 0:
        return Certificate("orbit_multiplicity_one", True, 0.0, tol, extra={"x": [float(t) for t in x]})
    resid_mat = jwp.basis - target.projector() @ jwp.basis
    worst = float(np.linalg.norm(resid_mat, ord=2))
    verdict = worst <= tol
    witness = None
    if not verdict:
        col = int(np.argmax(np.linalg.norm(resid_mat, axis=0)))
        witness = {"v": _pairs(creal.re_to_cx(jwp.basis[:, col])), "x": [float(t) for t in x]}
    return Certificate(
        "orbit_multiplicity_one", verdict, worst, tol, witness, extra={"x": [float(t) for t in x]}
    )


# -- combined harness ------------------------------------------------------------


@dataclass
class CombinedReport:
    certificates: List[Certificate]
    consistent: bool
    mf: Optional[bool]
    orbit_sample_verdicts: List[bool]

    def to_dict(self):
        return {
            "consistent": bool(self.consistent),
            "mf": self.mf if self.mf is None else bool(self.mf),
            "certificates": [c.to_dict() for c in self.certificates],
        }


def certify_all(alg, q_map, w, n_coiso=20, n_orbit=50, seed=0, metric_scale=None, compute_scale=False, tol=TOL_SUB):
    """Run the three certifiers and compare their verdicts.

    Orbit multiplicity is sampled at ``n_orbit`` interior cone points; its
    certificate verdict is the conjunction, with per-sample verdicts kept for
    diagnosis.  ``consistent`` is True when all three conditions agree.
    """
    metric = base_metric(alg, q_map)
    if compute_scale and metric_scale is None:
        metric_scale, _ = bergman_metric_scale(alg, q_map, metric=metric, seed=seed)
    c_imq = check_imq_vanishes(q_map, w)
    c_coiso = check_coisotropic(
        alg, q_map, w, n_samples=n_coiso, seed=seed, metric_scale=metric_scale, metric=metric, tol=tol
    )

    rng = np.random.default_rng([seed, 0x0B17])
    verdicts = []
    worst = 0.0
    witness = None
    for _ in range(max(1, n_orbit)):
        x = alg.exp(0.7 * rng.standard_normal(alg.dim))
        cert = check_orbit_multiplicity(q_map, w, x, tol=tol)
        verdicts.append(cert.verdict)
        if cert.residual > worst:
            worst = cert.residual
            witness = cert.witness
    all_true = all(verdicts)
    c_orbit = Certificate(
        "orbit_multiplicity_one",
        all_true,
        worst,
        tol,
        witness if not all_true else None,
        seed=seed,
        samples=n_orbit,
        extra={"sample_agreement": bool(all(v == verdicts[0] for v in verdicts))},
    )
    consistent = c_imq.verdict == c_coiso.verdict == c_orbit.verdict
    mf = c_imq.verdict if consistent else None
    return CombinedReport([c_imq, c_coiso, c_orbit], consistent, mf, verdicts)
