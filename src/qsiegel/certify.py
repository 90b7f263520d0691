"""Certificates for the equivalent multiplicity-freeness conditions.

Three certifiers are implemented and cross-validated:

* ``check_imq_vanishes`` -- the algebraic condition Im Q(S, S) = {0},
* ``check_coisotropic``  -- coisotropy of group orbits for the symplectic
  form of the invariant metric.  At the base point that metric is scalar on
  Re U, Im U and V, and the orbit tangent through a point with
  y = Im z - Q(v, v) moves to Re U + W_y, W_y = Y^(-1/2) W; so the test is
  W_y-perp inside j W_y, in V: <y, Im Q(S, S)> = 0 for S = (jW)-perp, with
  the residual |G^(-1/2) Im H G^(-1/2)|_2, H = S^H Y S, G = Re H,
* ``check_orbit_multiplicity`` -- the coadjoint-orbit condition
  j(W-complement for g_x) inside ker(g_x) + W at cone parameters x.

Only Im Q is algebraically separate.  The coisotropic condition at y is the
orbit condition at x = y^-1 (both say j Y W-perp lies in W), so
``certify_all`` tests that one statement by two numerical routes on the same
points: coisotropy at each y of one draw and orbit multiplicity at its
inverse.  Their agreement checks the numerics.  The theory says the three
verdicts agree; disagreement is an alarm and maps to a dedicated exit code
in the CLI.

No point check draws: each takes the points it checks and returns a
Certificate whose ``sample_residuals`` keep one residual a point.  The two
sampled certifiers take stacks of cone points y and x, which ``certify_all``
draws as pairs (y, y^-1) with ``_cone_points``, and certify them in blocks
that keep one 2n x 2n float64 stack within STACK_BYTES.
``check_orthocomplement_identity``, which feeds no verdict of
``certify_all``, takes domain points (a SiegelPoint stack) and checks them
in one stacked pass through the phase-space subspaces.

The coisotropic residual decides no rank.  The orbit certifier takes, per
block, one stacked eigh of 2R_x, whose realification is g_x: its
eigenvalues give the PSD test and |g_x|_2, and ``subspaces.kernel_bases``
reads ker g_x off them.  The g_x-complement of W
is one stacked ``subspaces.complement_bases``; only a block in which some
g_x has a kernel (a boundary x) spans ker g_x + W with
``subspaces.span_bases``, and every other block tests against W itself.
These decide every rank of a stack at once, with masked zero columns where a
sample's rank is lower than the stack's width.  The witness is the first
sample above the tolerance whose residual is within TOL_ZERO of the worst.
"""
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from . import creal
from .errors import HypothesisViolated, NotInCone, NotPSD
from .integrals import base_measure_moments, measure_shape
from .representation import SiegelPoint
from .subspaces import complement_bases, kernel_bases, span_bases
from .tolerances import TOL_CONE, TOL_PSD, TOL_SUB, TOL_ZERO

# byte budget of one stack of 2n x 2n float64 matrices in the sampled
# certifiers, and of one stack of Q values in the Im Q pair scan.  It bounds
# their memory whatever the number of samples or pairs: a block holds three
# to five such stacks at its peak, and 256 KB holds 227 samples a block at
# sym_real 6 and 2 at diagonal 64, and 256 pairs at diagonal 64
STACK_BYTES = 2**18


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
    # per-sample residuals of the sampled certifiers; not part of the report
    sample_residuals: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

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


def phase_space_j(dim_u, n):
    """Complex structure on (Re z, Im z, Re v, Im v) coordinates."""
    out = np.zeros((2 * (dim_u + n), 2 * (dim_u + n)))
    out[: 2 * dim_u, : 2 * dim_u] = creal.j_matrix(dim_u)
    out[2 * dim_u :, 2 * dim_u :] = creal.j_matrix(n)
    return out


# -- condition: Im Q(S, S) = 0 ------------------------------------------------


def check_imq_vanishes(q_map, w):
    """Scan Im Q on a basis of S = (jW)-orthocomplement for re h.

    The pairs i <= j of basis vectors are evaluated in row-major order, in
    blocks whose stack of Q values fits in STACK_BYTES, so the witness is the
    first pair with the largest |Im Q| and the memory does not grow with the
    number of pairs.
    """
    s = w.j_image(q_map.n).perp()
    basis = creal.re_to_cx(s.basis.T)
    first, second = np.triu_indices(s.dim)
    step = max(1, STACK_BYTES // (16 * q_map.algebra.dim))
    worst, q_max, k = 0.0, 0.0, None
    for lo in range(0, len(first), step):
        q = q_map.q_eval(basis[first[lo : lo + step]], basis[second[lo : lo + step]])
        resid = np.linalg.norm(np.imag(q), axis=1)
        q_max = max(q_max, float(np.max(np.linalg.norm(q, axis=1))))
        top = int(np.argmax(resid))
        if resid[top] > worst:
            worst, k = float(resid[top]), lo + top
    tol = TOL_ZERO * max(1.0, q_max)
    verdict = worst <= tol
    witness = None
    if not verdict:
        witness = {"s1": creal.pairs(basis[first[k]]), "s2": creal.pairs(basis[second[k]])}
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
    e' = s e with s = 2N / r + 1, the measure's shape.  U-part: (a + ib, a' + ib')
    -> <e', a o a' + b o b'> / 4, so H = T_{e'} / 4 = s / 4 I.  V-part: the form
    of e', s I.  Mixed block zero.  s > 0, so the metric is positive definite.
    """
    s = measure_shape(alg)
    diagonal = np.repeat([0.25 * s, s], [2 * alg.dim, 2 * q_map.n])
    return BaseMetric(np.diag(diagonal), s * alg.unit, 0.25 * s * np.eye(alg.dim), s * np.eye(2 * q_map.n))


def bergman_metric_scale(alg, q_map, seed=0, samples=100_000):
    """Ratio of the closed-form base metric to MC moments of the invariant
    measure, averaged over random tangent directions.  The theory predicts 1;
    the value is reported in certificates and never affects verdicts."""

    def sampled(zetas, gammas):
        _, m1, m2, qv = base_measure_moments(alg, q_map, zetas, gammas, samples, seed)
        return m2 - np.abs(m1) ** 2, 2.0 * qv

    return _metric_scale(alg, q_map, seed, sampled)


def exact_metric_scale(alg, q_map, seed=0):
    """``bergman_metric_scale`` from the exact moments of the invariant measure,
    the value its MC estimate converges to: 1 up to rounding."""
    mean, cov = exact_measure_moments(alg)

    def exact(zetas, gammas):
        var = [z.real @ cov @ z.real + z.imag @ cov @ z.imag for z in zetas]
        return var, 2.0 * np.real(q_map.q_eval(gammas, gammas)) @ mean

    return _metric_scale(alg, q_map, seed, exact)


def exact_measure_moments(alg):
    """Mean s Y and covariance s P(Y) of the invariant measure at the base
    point, Y = (2e)^-1 and s = ``measure_shape``: the cone's Gamma family of
    shape s and scale Y has Var <u, a> = s tr((A Y)^2) (Faraut-Koranyi, ch. VII)."""
    s = measure_shape(alg)
    y_inv = alg.invert(2.0 * alg.unit)
    return s * y_inv, s * alg.quad_rep(y_inv)


def _metric_scale(alg, q_map, seed, moments):
    """Mean and list of the ratios of the closed-form metric to the measure
    side over four seeded unit directions zeta in U_C and four gamma in V, where
    ``moments(zetas, gammas)`` gives Var <u, zeta> and 2 E<u, Q(gamma, gamma)>."""
    metric = base_metric(alg, q_map)
    rng = np.random.default_rng(seed + 12345)
    dirs_u = []
    dirs_v = []
    for _ in range(4):
        z = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        dirs_u.append(z / np.linalg.norm(z))
        g = rng.standard_normal(q_map.n) + 1j * rng.standard_normal(q_map.n)
        dirs_v.append(g / np.linalg.norm(g))
    var_u, mean_v = moments(np.array(dirs_u), np.array(dirs_v))
    ratios = []
    for zeta, oracle in zip(dirs_u, var_u):
        a, b = np.real(zeta), np.imag(zeta)
        ratios.append(float(a @ metric.u_block @ a + b @ metric.u_block @ b) / float(oracle))
    for gamma, oracle in zip(dirs_v, mean_v):
        gre = creal.cx_to_re(gamma)
        ratios.append(float(gre @ metric.v_block @ gre) / float(oracle))
    return float(np.mean(ratios)), [float(r) for r in ratios]


# -- condition: coisotropic orbits ---------------------------------------------


def check_coisotropic(q_map, w, ys, tol=TOL_SUB):
    """W_y-perp inside j W_y, W_y = Y^(-1/2) W, at cone points y, in closed form on S.

    The translations n(x0, v0) move any point to (iy, 0), y = Im z - Q(v, v),
    so the condition at a point depends on y alone.  Y commutes with j, so
    W_y-perp = Y^(1/2) jS and (j W_y)-perp = Y^(1/2) S: the test is
    <y, Im Q(S, S)> = 0, and |O - P_{jW_y} O|_2 is the cosine of the smallest
    principal angle between Y^(1/2) S and Y^(1/2) jS, |C|_2 for
    C = G^(-1/2) Im H G^(-1/2), H = S^H Y S over complex S and G = Re H.

    ``ys`` is one cone point (N,) or a stack (S, N), certified in blocks of
    ``block_size``; the residual is the worst and ``sample_residuals`` keeps
    each one.  The witness is the point (iy, 0) with tangent vector
    (0, 0, Y jS G^(-1/2) u), u the top eigenvector of C^T C.  Raises
    NotInCone when some y is not in the open cone."""
    ys = np.asarray(ys, dtype=float)
    stack = np.atleast_2d(ys)
    s_rows = creal.re_to_cx((creal.j_matrix(q_map.n) @ w.perp().basis).T)
    resid, worst, k = _sampled(q_map, lambda block: _coisotropic_residuals(q_map, s_rows, block), stack, tol)
    witness = None
    if k is not None:
        _, c, root, y = _coisotropic_residuals(q_map, s_rows, stack[k : k + 1])
        u = np.linalg.eigh(c[0].T @ c[0])[1][:, -1]
        gamma = y[0] @ (1j * ((root[0] @ u) @ s_rows))
        tangent = np.concatenate([np.zeros(2 * q_map.dim_u), creal.cx_to_re(gamma)])
        witness = {
            "tangent_vector": [float(t) for t in tangent],
            "point": {"z": [[0.0, float(t)] for t in stack[k]], "v": creal.pairs(np.zeros(q_map.n))},
        }
    samples = None if ys.ndim == 1 else len(stack)
    return Certificate("coisotropic", k is None, worst, tol, witness, samples=samples, sample_residuals=resid)


def _coisotropic_residuals(q_map, s, ys):
    """Per-point |C|_2, C, G^(-1/2) and Y for a stack of cone points, H over the
    rows ``s`` of S = (jW)-perp = j W-perp; dim S = 0 reads 0.  G > 0 needs y in
    the open cone, tested as ``cone_contains`` does: NotInCone when some Y has
    an eigenvalue at most TOL_CONE."""
    y = q_map.rep.two_r(ys)
    if np.any(np.linalg.eigvalsh(y)[..., 0] <= TOL_CONE):
        raise NotInCone("coisotropy is certified at points y of the open cone")
    h = s.conj() @ y @ s.T
    vals, vecs = np.linalg.eigh(h.real)
    root = (vecs / np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    c = root @ h.imag @ root
    return np.linalg.norm(c, ord=2, axis=(-2, -1)), c, root, y


# -- orthocomplement identity ------------------------------------------------------


def check_orthocomplement_identity(alg, q_map, w, points):
    """Equality of the transported orthocomplement of an orbit tangent with
    J applied to the explicit tangent family, at the domain points ``points``.

    At a point with y = Im z - Q(v, v) the left side pulls back, along the
    transport to (ie, 0), the base-metric complement of the transported
    tangent of the orbit of the group over W; the right side is J of the
    orbit tangent of the group over realify(R_y) S', S' = j(W-complement for
    g_e').  The translations n(x0, v0) normalize the group over W and permute
    its orbits, so the identity holds at every domain point, not only at
    (iy, js); a point outside the domain raises NotInDomain.

    ``points`` is one SiegelPoint or a stack, checked in one stacked pass,
    so memory grows with the number of points, about five (2N + 2n)^2
    float64 matrices a point.  A point's residual is the Frobenius distance
    of the two projectors; the residual is the worst and
    ``sample_residuals`` keeps each one.

    Requires Im Q(S, S) = {0}; raises HypothesisViolated otherwise.
    """
    if not check_imq_vanishes(q_map, w).verdict:
        raise HypothesisViolated("the orthocomplement identity assumes Im Q(S,S) = 0")
    metric = base_metric(alg, q_map)
    stack = SiegelPoint(np.atleast_2d(points.z), np.atleast_2d(points.v))
    # j is orthogonal, so it keeps the complement's columns orthonormal
    sprime = creal.j_matrix(q_map.n) @ complement_bases(q_map.g_matrix(metric.e_prime), w.basis)
    _, deriv = q_map.transport_to_base(stack)
    orth = complement_bases(metric.matrix, deriv @ q_map.orbit_tangent(w, stack))
    lhs = span_bases(np.linalg.solve(deriv, orth))
    r_sprime = span_bases(creal.realify(q_map.rep.r_op(q_map.cone_part(stack))) @ sprime)
    rhs = phase_space_j(alg.dim, q_map.n) @ q_map.orbit_tangent(r_sprime, stack)
    resid = np.linalg.norm(lhs @ np.swapaxes(lhs, -1, -2) - rhs @ np.swapaxes(rhs, -1, -2), axis=(-2, -1))
    worst = float(np.max(resid))
    samples = None if points.z.ndim == 1 else len(resid)
    return Certificate(
        "orthocomplement_identity", worst <= TOL_SUB, worst, TOL_SUB, samples=samples, sample_residuals=resid
    )


# -- condition: orbit multiplicity one ------------------------------------------


def check_orbit_multiplicity(q_map, w, x, tol=TOL_SUB):
    """j(W-complement for g_x) inside ker(g_x) + W, for PSD g_x.

    ``x`` is one cone parameter (N,) or a stack (S, N), certified in blocks
    of ``block_size`` samples.  For a stack the verdict is the conjunction,
    the residual the worst and ``sample_residuals`` keeps each one.
    """
    x = np.asarray(x, dtype=float)
    xs = np.atleast_2d(x)
    resid, worst, k = _sampled(q_map, lambda block: _orbit_residuals(q_map, w, block), xs, tol)
    witness = None
    if k is not None:
        _, resid_mat, jwp = _orbit_residuals(q_map, w, xs[k : k + 1])
        col = int(np.argmax(np.linalg.norm(resid_mat[0], axis=0)))
        witness = {"v": creal.pairs(creal.re_to_cx(jwp[0][:, col])), "x": [float(t) for t in xs[k]]}
    if x.ndim == 1:
        extra = {"x": [float(t) for t in x]}
    else:
        extra = {"sample_agreement": bool(np.all((resid <= tol) == (resid[0] <= tol)))}
    return Certificate(
        "orbit_multiplicity_one",
        k is None,
        worst,
        tol,
        witness,
        samples=None if x.ndim == 1 else len(xs),
        extra=extra,
        sample_residuals=resid,
    )


def _orbit_residuals(q_map, w, xs):
    """Per-sample residuals |jW' - P_K jW'|_2 for a stack of cone parameters,
    where W' is the g_x-complement of W and K = ker g_x + W.

    One stacked eigh of 2R_x gives the PSD test, |g_x|_2 and ker g_x; a block
    in which no g_x has a kernel, every interior x, takes K = W as it is.
    Returns (residuals, residual matrices, bases of jW').  Raises NotPSD when
    some g_x is not positive semi-definite; a sample with jW' = 0 has
    residual 0.
    """
    gx, vals, vecs = q_map.g_matrix_eigh(xs)
    gx_norm = np.max(np.abs(vals), axis=-1)
    if np.any(vals[..., 0] < -TOL_PSD * np.maximum(1.0, gx_norm)):
        raise NotPSD("g_x must be positive semi-definite on V")
    # j is orthogonal, so it keeps the complement's columns orthonormal or zero
    jwp = creal.j_matrix(q_map.n) @ complement_bases(gx, w.basis, gx_norm)
    kernel = kernel_bases(vals, vecs, gx_norm)
    target = w.basis
    if kernel.shape[-1]:
        wide = np.broadcast_to(w.basis, kernel.shape[:-1] + (w.dim,))
        target = span_bases(np.concatenate([kernel, wide], axis=-1))
    resid_mat = jwp - target @ (np.swapaxes(target, -1, -2) @ jwp)
    return np.linalg.norm(resid_mat, ord=2, axis=(-2, -1)), resid_mat, jwp


# -- shared by the sampled certifiers -------------------------------------------


def block_size(q_map):
    """Samples per block, so that one stack of 2n x 2n float64 matrices fits in STACK_BYTES."""
    m = 2 * q_map.n
    return max(1, STACK_BYTES // (8 * m * m))


def _sampled(q_map, residuals, stack, tol):
    """(per-point residuals, worst, witness index) of ``stack``.

    The residuals are ``residuals(block)[0]`` over blocks of ``block_size``.
    The witness index is None when the worst is within ``tol``, else the first
    point above ``tol`` whose residual is within TOL_ZERO of the worst, so
    that rounding noise among tied points does not pick the witness."""
    block = block_size(q_map)
    resid = np.concatenate([residuals(stack[start : start + block])[0] for start in range(0, len(stack), block)])
    worst = float(np.max(resid))
    if worst <= tol:
        return resid, worst, None
    return resid, worst, int(np.flatnonzero((resid > tol) & (resid >= worst - TOL_ZERO))[0])


# -- combined harness ------------------------------------------------------------


@dataclass
class CombinedReport:
    certificates: List[Certificate]
    consistent: bool
    mf: Optional[bool]

    def to_dict(self):
        return {
            "consistent": bool(self.consistent),
            "mf": self.mf if self.mf is None else bool(self.mf),
            "certificates": [c.to_dict() for c in self.certificates],
        }


def certify_all(alg, q_map, w, samples=20, seed=0, compute_scale=False, tol=TOL_SUB):
    """Run the three certifiers and compare their verdicts.

    ``_cone_points`` draws ``samples`` pairs (y, x = y^-1), at least one:
    coisotropy is certified at each cone point y and orbit multiplicity at
    its inverse x, the one statement j Y W-perp in W by two numerical routes.
    Each verdict is the conjunction, and each certificate's ``samples``
    counts the points it certified.  ``consistent`` is True when all three
    conditions agree.  With ``compute_scale`` the coisotropic certificate
    carries the exact metric scale.
    """
    c_imq = check_imq_vanishes(q_map, w)
    ys, xs = _cone_points(q_map, seed, max(1, samples))
    c_coiso = replace(check_coisotropic(q_map, w, ys, tol=tol), seed=seed)
    if compute_scale:
        c_coiso = replace(c_coiso, metric_scale=exact_metric_scale(alg, q_map, seed=seed)[0])
    c_orbit = replace(check_orbit_multiplicity(q_map, w, xs, tol=tol), seed=seed)
    consistent = c_imq.verdict == c_coiso.verdict == c_orbit.verdict
    mf = c_imq.verdict if consistent else None
    return CombinedReport([c_imq, c_coiso, c_orbit], consistent, mf)


def _cone_points(q_map, seed, count):
    """``count`` interior cone points ys = exp(0.7 g) and their inverses
    xs = exp(-0.7 g), g standard normal, drawn a block of ``block_size`` at a
    time from ``default_rng([seed, 0xC015])``.  g and -g have one law, so
    xs is distributed as ys."""
    alg, block = q_map.algebra, block_size(q_map)
    rng = np.random.default_rng([seed, 0xC015])
    gs = [0.7 * rng.standard_normal((min(block, count - s), alg.dim)) for s in range(0, count, block)]
    return np.concatenate([alg.exp(g) for g in gs]), np.concatenate([alg.exp(-g) for g in gs])
