import math
import sys

import numpy as np
import pytest

from qsiegel import GroupElement, RealSubspace, SiegelPoint, creal, standard_model
from qsiegel.certify import base_metric, phase_space_j
from qsiegel.errors import DecompositionFailure, NotInCone, NotInDomain, NotPSD
from qsiegel.integrals import (
    _conditional_phase,
    cone_laplace,
    sample_cone_exponential,
    sample_invariant_measure,
)
from qsiegel.rng import BLOCK, block_generator, blocks
from qsiegel.subspaces import complement_wrt, kernel_of_form
from qsiegel.tolerances import TOL_EIG, TOL_PSD, TOL_RANK


MODEL_KINDS = [("rank1", None), ("diagonal", 2), ("sym_real", 2), ("herm_complex", 2)]

# the sizes at which the library is pinned to the dense-stack oracles
ORACLE_SIZES = (
    [("rank1", None), ("diagonal", 3)]
    + [("sym_real", n) for n in range(2, 7)]
    + [("herm_complex", n) for n in range(2, 5)]
)


@pytest.fixture(scope="session")
def models():
    return {kind: standard_model(kind, param) for kind, param in MODEL_KINDS}


@pytest.fixture(scope="session")
def rank1(models):
    return models["rank1"]


@pytest.fixture(scope="session")
def diag2(models):
    return models["diagonal"]


@pytest.fixture(scope="session")
def sym2(models):
    return models["sym_real"]


@pytest.fixture(scope="session")
def herm2(models):
    return models["herm_complex"]


def random_elements(alg, count, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return [scale * rng.standard_normal(alg.dim) for _ in range(count)]


def sample_points(q_map, alg, count, seed):
    """A stack of ``count`` domain points, drawn point by point from
    ``default_rng(seed)``: v uniform in a box, t uniform in [0.2, 5] and
    z = x0 + i(Re Q(v, v) + t e) for a standard normal x0."""
    rng = np.random.default_rng(seed)
    zs, vs = [], []
    for _ in range(count):
        v = rng.uniform(-2.0, 2.0, size=2 * q_map.n) / np.sqrt(2 * q_map.n)
        vc = creal.re_to_cx(v)
        t = rng.uniform(0.2, 5.0)
        y = np.real(q_map.q_eval(vc, vc)) + t * alg.unit
        zs.append(rng.standard_normal(alg.dim) + 1j * y)
        vs.append(vc)
    return SiegelPoint(np.array(zs), np.array(vs))


def unstack(points):
    """The members of a SiegelPoint stack, one SiegelPoint each."""
    return [SiegelPoint(z, v) for z, v in zip(points.z, points.v)]


def oracle_expected_mf(q_map, w, tol=1e-10):
    """Direct definition-chasing verdict: scan Im Q over a basis of S.

    Independent of the three certifiers; the catalog's frozen verdicts and
    the certifiers are both checked against it.
    """
    s = w.j_image(q_map.n).perp()
    worst = 0.0
    for i in range(s.dim):
        for j in range(i, s.dim):
            q = q_map.q_eval(creal.re_to_cx(s.basis[:, i]), creal.re_to_cx(s.basis[:, j]))
            worst = max(worst, float(np.linalg.norm(np.imag(q))))
    return worst <= tol


def dense_basis(alg):
    """The N x n x n stack of basis matrices B_k, built from (r, d) alone.

    E_ii, then for each i < j the symmetric (E_ij + E_ji)/sqrt 2 and, for
    d = 2, the antisymmetric i (E_ij - E_ji)/sqrt 2: the stack the algebra
    once stored, and the reference for its index form.
    """
    n, d = alg.rank, alg.d
    units = np.eye(n)
    basis = [np.outer(units[i], units[i]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            off = np.outer(units[i], units[j]) / np.sqrt(2.0)
            if d >= 1:
                basis.append(off + off.T)
            if d == 2:
                basis.append(1j * (off - off.T))
    return np.array(basis, dtype=complex if d == 2 else float)


def box_operator(alg, u, up):
    """u box u' = T_{u o u'} + [T_u, T_{u'}]."""
    tu = alg.left_mult(u)
    tup = alg.left_mult(up)
    return alg.left_mult(alg.mult(u, up)) + tu @ tup - tup @ tu


def beta_box(rep, u, up):
    """beta(u box u') = R_{u o u'} + [R_u, R_{u'}]."""
    ru, rup = rep.r_op(u), rep.r_op(up)
    return rep.r_op(rep.algebra.mult(u, up)) + ru @ rup - rup @ ru


def r_stack(rep):
    """The family x -> R_x of a representation as the stack of R on each basis vector."""
    return np.array([rep.r_op(e) for e in np.eye(rep.algebra.dim)], dtype=complex)


def validate_representation(alg, r_basis, tol=1e-8):
    """Raise ValueError unless the stack r_basis defines a representation:
    each R_k Hermitian, R_e = Id/2 and x -> 2 R_x a Jordan homomorphism."""
    r_basis = np.asarray(r_basis, dtype=complex)
    n = r_basis.shape[1]
    for k in range(alg.dim):
        if np.linalg.norm(r_basis[k] - r_basis[k].conj().T) > tol:
            raise ValueError(f"R on basis vector {k} is not self-adjoint")
    if np.linalg.norm(np.tensordot(alg.unit, r_basis, axes=1) - 0.5 * np.eye(n)) > tol:
        raise ValueError("representation is not unital (R_e != Id/2)")
    eye = np.eye(alg.dim)
    for k in range(alg.dim):
        for l in range(k, alg.dim):
            lhs = np.tensordot(alg.mult(eye[k], eye[l]), r_basis, axes=1)
            rhs = r_basis[k] @ r_basis[l] + r_basis[l] @ r_basis[k]
            if np.linalg.norm(lhs - rhs) > tol:
                raise ValueError("x -> 2 R_x is not a Jordan algebra homomorphism")


class DenseRepresentationOracle:
    """The stored-tensor standard representation that the index form replaced.

    It keeps r_basis[k] = B_k / 2 as a dense N x n x n stack and evaluates
    Q(v, v')_k = v'^H (2 R_k) v by one contraction per pair of vectors, and
    the orbit tangents and affine derivatives one vector at a time.
    """

    def __init__(self, alg):
        self.alg = alg
        self.n = alg.rank
        self.r_basis = 0.5 * dense_basis(alg).astype(complex)

    def r_op(self, x):
        return np.einsum("k,kab->ab", np.asarray(x, dtype=float), self.r_basis)

    def q_eval(self, v, vp):
        return np.einsum("kab,a,b->k", 2.0 * self.r_basis, np.conj(vp), np.asarray(v, dtype=complex))

    def g_matrix(self, x):
        return 2.0 * creal.realify(self.r_op(x))

    def orbit_tangent(self, w, point):
        nn, nu = self.n, self.alg.dim
        cols = [np.concatenate([x0, np.zeros(nu + 2 * nn)]) for x0 in np.eye(nu)]
        for wcol in w.basis.T:
            zeta = 2j * self.q_eval(point.v, creal.re_to_cx(wcol))
            cols.append(np.concatenate([zeta.real, zeta.imag, wcol]))
        return RealSubspace.from_spanning(np.column_stack(cols))

    def affine_derivative(self, v0):
        nn, nu = self.n, self.alg.dim
        d = np.eye(2 * (nu + nn))
        for idx, gcol in enumerate(np.eye(2 * nn)):
            zeta = 2j * self.q_eval(creal.re_to_cx(gcol), v0)
            d[: 2 * nu, 2 * nu + idx] = np.concatenate([zeta.real, zeta.imag])
        return d


def composite_transport(q_map, point):
    """The transport to (ie, 0) as the composite group motion the closed form replaced.

    n(0, -v), then dropping Re z, then the scaling t(-u) by u = log(Im z - Q(v, v)):
    e^{-T_u} = P(exp(-u/2)) on U_C and e^{-R_u} from the eigenvectors of R_u on V.
    Returns (image point, derivative matrix).
    """
    alg = q_map.algebra
    y = q_map.cone_part(point)
    if not alg.cone_contains(y, mode="open"):
        raise NotInDomain("point is not in the Siegel domain")
    u = alg.log(y)
    d1 = q_map.affine_derivative(-point.v)
    p1 = q_map.group_act(GroupElement(np.zeros(alg.dim), -point.v), point)
    p2 = SiegelPoint(p1.z - np.real(p1.z), p1.v)
    eu = alg.mult_exp(u, -1.0)
    vals, vecs = np.linalg.eigh(q_map.rep.r_op(u))
    ev = (vecs * np.exp(-vals)) @ vecs.conj().T
    d3 = np.zeros_like(d1)
    d3[: 2 * alg.dim, : 2 * alg.dim] = np.kron(np.eye(2), eu)
    d3[2 * alg.dim :, 2 * alg.dim :] = creal.realify(ev)
    image = SiegelPoint(1j * (eu @ np.imag(p2.z)).astype(complex), p2.v)
    return image, d3 @ d1


class StructureTensorOracle:
    """The structure-tensor calculus that the matrix-native algebra replaced.

    The product is read off the N x N x N tensor <B_i o B_j, B_k>, and the
    spectral decomposition goes through the associative subalgebra of powers
    R[x] = span{e, x, x^2, ...}, on which T_x acts with the spectral
    eigenvalues of x.  It shares no code path with ``EuclideanJordanAlgebra``
    beyond the matrix basis, and serves as its reference.
    """

    def __init__(self, alg):
        b = dense_basis(alg)
        self.alg = alg
        # <B_i o B_j, B_k> = Re tr(B_i B_j B_k) for Hermitian B_k
        self.structure = np.real(np.einsum("iab,jbc,kca->ijk", b, b, b))
        self.trace_vec = np.einsum("ijj->i", self.structure) * (alg.rank / alg.dim)

    def mult(self, x, y):
        return np.einsum("ijk,i,j->k", self.structure, x, y)

    def left_mult(self, x):
        return np.einsum("ijk,i->kj", self.structure, x)

    def quad_rep(self, x):
        t = self.left_mult(x)
        return 2.0 * (t @ t) - self.left_mult(self.mult(x, x))

    def spectral_decompose(self, x):
        """(eigenvalues, idempotents, multiplicities), eigenvalues descending."""
        alg = self.alg
        scale = max(1.0, float(np.linalg.norm(x)))
        xs = x / scale
        powers = [alg.unit.copy()]
        for _ in range(alg.rank):
            powers.append(self.mult(xs, powers[-1]))
        uu, ss, _ = np.linalg.svd(np.column_stack(powers), full_matrices=False)
        m = int(np.sum(ss > TOL_RANK * ss[0]))
        basis = uu[:, :m]
        t_restr = basis.T @ self.left_mult(xs) @ basis
        vals, vecs = np.linalg.eigh(0.5 * (t_restr + t_restr.T))
        vals = vals * scale
        y = basis @ vecs
        alpha = y.T @ alg.unit
        order = np.argsort(vals)[::-1]
        vals, alpha, y = vals[order], alpha[order], y[:, order]
        gap = TOL_EIG * scale
        eigenvalues, idempotents, mults = [], [], []
        start = 0
        for i in range(1, m + 1):
            if i == m or vals[i - 1] - vals[i] > gap:
                c = y[:, start:i] @ alpha[start:i]
                eigenvalues.append(float(np.mean(vals[start:i])))
                idempotents.append(c)
                mults.append(int(round(float(self.trace_vec @ c))))
                start = i
        return np.array(eigenvalues), idempotents, np.array(mults)

    def det(self, x):
        vals, _, mults = self.spectral_decompose(x)
        return float(np.prod(vals ** mults))

    def mult_exp(self, u, t=1.0):
        """e^{t T_u} from the joint Peirce projectors of the idempotents of u."""
        vals, cs, _ = self.spectral_decompose(u)
        out = np.zeros((self.alg.dim, self.alg.dim))
        for k, ck in enumerate(cs):
            out += np.exp(t * vals[k]) * self.quad_rep(ck)
            for l in range(k + 1, len(cs)):
                ekl = 4.0 * self.left_mult(ck) @ self.left_mult(cs[l])
                out += np.exp(t * (vals[k] + vals[l]) / 2.0) * ekl
        return out


def base_metric_u_block_oracle(alg, q_map):
    """The U-block of the base metric by its definition, entry by entry:
    H[k, l] = (tr T_{B_k o B_l} + tr R_{B_k o B_l}) / 2."""
    oracle = StructureTensorOracle(alg)
    eye = np.eye(alg.dim)
    h = np.empty((alg.dim, alg.dim))
    for k in range(alg.dim):
        for l in range(k, alg.dim):
            prod = oracle.mult(eye[k], eye[l])
            val = 0.5 * (np.trace(oracle.left_mult(prod)) + np.trace(q_map.rep.r_op(prod)).real)
            h[k, l] = h[l, k] = val
    return h


def coisotropic_loop_oracle(alg, q_map, w, ys, metric=None):
    """Per-point residuals of the coisotropic certifier at the cone points
    ``ys``, one point at a time, in the phase space R^(2N + 2n).

    Each y is lifted to a general point (x0 + i(Q(v, v) + y), v) with the
    oracle's own v and x0, which the certifier's reduction to (iy, 0) drops;
    its orbit tangent is transported to the base point, and the tangent's
    complement for ``metric`` (the base metric by default) is tested against
    J of the tangent through the one-matrix ``RealSubspace`` calls: the
    definition that the stacked certifier in V reduces.  A point whose
    complement is zero reads 0.
    """
    if metric is None:
        metric = base_metric(alg, q_map)
    jmat = phase_space_j(alg.dim, q_map.n)
    rng = np.random.default_rng(0xC015)
    resid = []
    for y in np.atleast_2d(ys):
        v = rng.standard_normal(q_map.n) + 1j * rng.standard_normal(q_map.n)
        x0 = rng.standard_normal(alg.dim)
        p = SiegelPoint(x0 + 1j * (np.real(q_map.q_eval(v, v)) + y), v)
        tangent = q_map.orbit_tangent(w, p)
        _, deriv = q_map.transport_to_base(p)
        timg = tangent.apply(deriv)
        orth = complement_wrt(metric.matrix, timg)
        if orth.dim == 0:
            resid.append(0.0)
            continue
        jt = RealSubspace(jmat @ timg.basis)
        resid.append(float(np.linalg.norm(orth.basis - jt.projector() @ orth.basis, ord=2)))
    return resid


def distinguished_points(alg, q_map, w, count, seed):
    """A stack of ``count`` points c = (iy, js) of the distinguished submanifold,
    from ``default_rng(seed)``: s = S a for S = (jW)-perp and a standard normal
    a, and y = Q(js, js) + exp(0.7 g) for a standard normal g."""
    s_basis = w.j_image(q_map.n).perp().basis
    rng = np.random.default_rng(seed)
    v = 1j * creal.re_to_cx(rng.standard_normal((count, s_basis.shape[1])) @ s_basis.T)
    cone = alg.exp(0.7 * rng.standard_normal((count, alg.dim)))
    return SiegelPoint(1j * (np.real(q_map.q_eval(v, v)) + cone), v)


def orthocomplement_loop_oracle(alg, q_map, w, points):
    """Per-point distances of the orthocomplement identity at ``points`` (one
    SiegelPoint or a stack), one point at a time through the one-matrix
    ``RealSubspace`` calls: the loop that the stacked
    ``check_orthocomplement_identity`` replaced."""
    metric = base_metric(alg, q_map)
    jmat = phase_space_j(alg.dim, q_map.n)
    sprime = complement_wrt(q_map.g_matrix(metric.e_prime), w).j_image(q_map.n)
    dists = []
    for c in unstack(SiegelPoint(np.atleast_2d(points.z), np.atleast_2d(points.v))):
        tangent = q_map.orbit_tangent(w, c)
        _, deriv = q_map.transport_to_base(c)
        orth = complement_wrt(metric.matrix, tangent.apply(deriv))
        lhs = orth.apply(np.linalg.inv(deriv))
        # the tangent family is the orbit tangent at c of the group over R_y S'
        r_sprime = RealSubspace.from_spanning(creal.realify(q_map.rep.r_op(q_map.cone_part(c))) @ sprime.basis)
        rhs = q_map.orbit_tangent(r_sprime, c).apply(jmat)
        dists.append(lhs.distance(rhs))
    return dists


def orbit_loop_oracle(q_map, w, xs):
    """Per-sample residuals of the orbit certifier, one cone parameter at a time.

    The loop that the stacked ``check_orbit_multiplicity`` replaced, with
    |g_x|_2 from an SVD of each g_x.  A sample with j(W-complement) = 0 reads 0.
    """
    resid = []
    for x in xs:
        gx = q_map.g_matrix(x)
        gx = 0.5 * (gx + gx.T)
        vals = np.linalg.eigvalsh(gx)
        if vals[0] < -TOL_PSD * max(1.0, float(np.max(np.abs(vals)))):
            raise NotPSD("g_x must be positive semi-definite on V")
        jwp = complement_wrt(gx, w).j_image(q_map.n)
        target = kernel_of_form(gx).add(w)
        if jwp.dim == 0:
            resid.append(0.0)
            continue
        resid.append(float(np.linalg.norm(jwp.basis - target.projector() @ jwp.basis, ord=2)))
    return resid


def orbit_qr_oracle(q_map, w, xs):
    """Per-sample residuals of the orbit certifier at interior cone parameters,
    by a route that decides no rank.

    g_x is invertible there, so ker g_x = 0, K = W and the g_x-complement of W
    is W' = g_x^-1 W-perp: the residual |jW' - P_W jW'|_2 is |W-perp^T J Q|_2
    for the orthonormal Q of Q R = g_x^-1 W-perp.  W = V reads 0.
    """
    w_perp = w.perp().basis
    jmat = creal.j_matrix(q_map.n)
    resid = []
    for x in xs:
        if w_perp.shape[1] == 0:
            resid.append(0.0)
            continue
        q, _ = np.linalg.qr(np.linalg.solve(q_map.g_matrix(x), w_perp))
        resid.append(float(np.linalg.norm(w_perp.T @ jmat @ q, ord=2)))
    return resid


def inv_i_iq_oracle(alg, dets):
    """1 / (I(u) I_Q(u)) = 2^N (2/pi)^r Delta(u)^(N/r + 1) / Gamma_Omega(N/r) at the
    determinants Delta(u), from an lgamma constant of its own."""
    r, d, k = alg.rank, alg.d, alg.dim / alg.rank
    log_gamma = (alg.dim - r) / 2.0 * math.log(2.0 * math.pi) + sum(math.lgamma(k - j * d / 2.0) for j in range(r))
    return math.exp(alg.dim * math.log(2.0) + r * math.log(2.0 / math.pi) - log_gamma) * dets ** (k + 1.0)


def bergman_mc_oracle(alg, q_map, p1, p2, samples, seed):
    """(value, se) of the MC Bergman kernel from the materialized samples u.

    The estimator as it read before the sampler yielded only the phases:
    the whole (samples, N) array u, its product with Re w, and the complex
    weight e^{i<u, Re w>} / (I I_Q), with Delta(u) the determinant of each
    materialized u, its mean and the se of that mean.
    """
    w = p1.z - np.conj(p2.z) - 2j * q_map.q_eval(p1.v, p2.v)
    y0 = np.imag(w) / 2.0
    us, _ = sample_cone_exponential(alg, y0, samples, seed)
    dets = np.real(np.linalg.det(alg.to_matrix(us)))
    f = np.exp(1j * (us @ np.real(w))) * inv_i_iq_oracle(alg, dets)
    mean = np.mean(f)
    se = math.sqrt(np.mean(np.abs(f - mean) ** 2) / samples)
    scale = cone_laplace(alg, y0) / (2.0 * math.pi) ** alg.dim
    return complex(scale * mean), float(scale * se)


def gamma_rows_reference(gen, shapes):
    """One block's Gamma rows Gamma(shape) for ``shapes`` in turn, BLOCK values each, stated
    row by row: a row of integer shape k <= 3 is the sum of k rows of standard exponentials
    (exactly Gamma(k)), any other row is ``gen.gamma(shape)``."""
    rows = []
    for shape in shapes:
        if float(shape).is_integer() and shape <= 3:
            rows.append(gen.standard_exponential((int(shape), BLOCK)).sum(axis=0))
        else:
            rows.append(gen.gamma(shape, size=BLOCK))
    return np.array(rows)


def bergman_gamma_row_oracle(alg, q_map, p1, p2, samples, seed):
    """(value, se) of the off-diagonal MC Bergman kernel from the materialized Gamma rows.

    Each block's own generator draws its r rows Gamma(N/r - j d/2) by
    ``gamma_rows_reference`` into the whole (samples, r) array g; the weight is the complex
    e^(g kappa) / (I I_Q) with (kappa, c0) from ``_conditional_phase``, and c0
    multiplies its mean and |c0| the se of that mean.
    """
    w = p1.z - np.conj(p2.z) - 2j * q_map.q_eval(p1.v, p2.v)
    y0 = np.imag(w) / 2.0
    r, d, s = alg.rank, alg.d, alg.dim / alg.rank
    g = np.empty((samples, r))
    for b in range(0, samples, BLOCK):
        gen = block_generator(seed, 3, b // BLOCK)
        g[b : b + BLOCK] = gamma_rows_reference(gen, s - 0.5 * d * np.arange(r)).T[: samples - b]
    kappa, c0 = _conditional_phase(alg, y0, np.real(w))
    dets = np.prod(g, axis=1) / np.real(np.linalg.det(2.0 * alg.to_matrix(y0)))
    f = np.exp(g @ (kappa[:, 0] + 1j * kappa[:, 1])) * inv_i_iq_oracle(alg, dets)
    mean = np.mean(f)
    se = math.sqrt(np.mean(np.abs(f - mean) ** 2) / samples)
    scale = cone_laplace(alg, y0) / (2.0 * math.pi) ** alg.dim
    return complex(scale * c0 * mean), float(scale * abs(c0) * se)


def base_moments_oracle(alg, q_map, directions_u, directions_v, samples, seed):
    """(m1, m2, qv) of ``base_measure_moments`` from the materialized samples u
    of the invariant measure, each direction applied to u on its own."""
    us = sample_invariant_measure(alg, alg.unit, samples, seed)
    zetas = np.array(directions_u, dtype=complex).reshape(-1, alg.dim)
    vals = us @ zetas.real.T + 1j * (us @ zetas.imag.T)
    gammas = np.array(directions_v, dtype=complex).reshape(-1, q_map.n)
    qgs = np.real(q_map.q_eval(gammas, gammas))
    return np.mean(vals, axis=0), np.mean(np.abs(vals) ** 2, axis=0), np.mean(us @ qgs.T, axis=0)


def intersect_oracle(a, b):
    """A meet B as ``RealSubspace.intersect`` read before it called
    ``complement_bases``: its own SVD of [A | -B], the null mask at
    TOL_RANK * max(s[0], 1) and sqrt(2) A times the coefficients on A."""
    if a.dim == 0 or b.dim == 0:
        return RealSubspace.zero(a.ambient)
    stacked = np.hstack([a.basis, -b.basis])
    _, s, vt = np.linalg.svd(stacked, full_matrices=True)
    null_mask = np.zeros(vt.shape[0], dtype=bool)
    null_mask[s.size :] = True
    null_mask[: s.size] = s <= TOL_RANK * max(s[0], 1.0)
    coeffs = vt[null_mask][:, : a.dim].T
    return RealSubspace(np.sqrt(2.0) * (a.basis @ coeffs))


def split_projection_oracle(d, n):
    """p^x as ``derive_spaces`` built it before one SVD did both jobs: the
    split [P | S^x | jS^x] tested by ``matrix_rank(tol=1e-10)``, then
    blocks . diag(0 on P, 1 past it) . inv(blocks).  None when it does not split."""
    blocks = np.hstack([d.p.basis, d.s_x_complement.basis, d.s_x_complement.j_image(n).basis])
    if blocks.shape[1] != 2 * n or np.linalg.matrix_rank(blocks, tol=1e-10) != 2 * n:
        return None
    sel = np.zeros((2 * n, 2 * n))
    sel[d.p.dim :, d.p.dim :] = np.eye(2 * n - d.p.dim)
    return blocks @ sel @ np.linalg.inv(blocks)


def sx_oracle(q_map, d):
    """(S_x, S^x) by the route ``derive_spaces`` took before it read S_x as the
    radical of omega_x = g_x(., j.) on W: the g_x-complement of jW met with W,
    then S_x met with N_x^perp."""
    s_x = complement_wrt(d.g_x, d.w.j_image(q_map.n)).intersect(d.w)
    return s_x, s_x.intersect(d.n_x.perp())


class SVDCounter:
    """Replaces ``np.linalg.svd`` and keeps the name of the function that made each call."""

    def __init__(self, monkeypatch):
        self.callers = []
        original = np.linalg.svd

        def counting(*args, **kwargs):
            self.callers.append(sys._getframe(1).f_code.co_name)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)

    def reset(self):
        self.callers.clear()

    @property
    def calls(self):
        return len(self.callers)


def conj_matrix(real_form, n):
    """Real-linear conjugation of (real_form + j real_form) fixing real_form.

    Returned as a 2n x 2n matrix that acts as the conjugation on the complex
    span of the real form and as zero on a complement: the pseudo-inverse of
    [S | jS] maps a vector to its coordinates, and the jS ones change sign.
    The kernels read the conjugate from the coordinates of their own split;
    this is the reference they are pinned to.
    """
    if real_form.dim == 0:
        return np.zeros((2 * n, 2 * n))
    b = real_form.basis
    jb = creal.j_matrix(n) @ b
    span = np.hstack([b, jb])
    if np.linalg.matrix_rank(span, tol=1e-10) != span.shape[1]:
        raise DecompositionFailure("real form meets j(real form); no conjugation")
    coeff = np.linalg.pinv(span)
    signs = np.diag(np.concatenate([np.ones(real_form.dim), -np.ones(real_form.dim)]))
    return span @ signs @ coeff


# -- box-rejection Monte Carlo: the independent oracle of the cone integrals ----

# box half-width in units of the inverse smallest spectral value; the
# truncated mass scales like exp(-BOX_KAPPA) times a low-degree polynomial
BOX_KAPPA = 12.0


def cone_box_mc(alg, u, samples, seed, stream=1):
    """(I(u), se) by rejection MC: a uniform box scaled by the spectral data of u.

    A diagonal cone (d = 0) is the positive orthant, so its box starts at 0
    with one width per coordinate; the others take a cube about 0.
    """
    lam_min = float(np.min(alg.spectral_decompose(u).eigenvalues))
    n = alg.dim
    uvec = np.asarray(u, dtype=float)
    if alg.d == 0:
        lows = np.zeros(n)
        highs = BOX_KAPPA / (2.0 * uvec)
    else:
        r = BOX_KAPPA / (2.0 * lam_min)
        lows = -r * np.ones(n)
        highs = r * np.ones(n)
    vol = float(np.prod(highs - lows))
    total = total_sq = 0.0
    for g, rows in blocks(seed, stream, samples):
        ys = lows + g.random((BLOCK, n))[: rows.stop - rows.start] * (highs - lows)
        inside = np.linalg.eigvalsh(alg.to_matrix(ys))[:, 0] > 0.0
        f = np.where(inside, np.exp(-2.0 * ys @ uvec), 0.0)
        total += float(np.sum(f))
        total_sq += float(np.sum(f * f))
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return vol * mean, vol * math.sqrt(var / samples)


def iq_box_mc(q_map, u, samples, seed, stream=2):
    """(I_Q(u), se) by MC over a cube about 0 scaled by the smallest eigenvalue of the form."""
    m_u = 2.0 * q_map.g_matrix(u)
    m_u = 0.5 * (m_u + m_u.T)
    vals = np.linalg.eigvalsh(m_u)
    if vals[0] <= 0.0:
        raise NotInCone("I_Q box requires a positive form")
    dim = m_u.shape[0]
    r = math.sqrt(2.0 * BOX_KAPPA / vals[0])
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
