"""Extremal invariant reproducing kernels and their parameter space.

A kernel parameter is a pair (x, chi): x must be admissible (the restriction
of g_x to P is positive semi-definite and its radical N_x is j-invariant and
sits inside ker g_x; ``subspaces.admissible_radical`` is the one predicate,
which ``derive_spaces`` applies), and chi is a real covector on S extended
complex-linearly.  The kernel value at ((z, v), (z', v')) with v = q + s,
v' = q' + s' split along V = P + S + jS is

    exp(i <x, z - conj(z') - 2i Q(v, v')>)
    * exp(h(s - conj(s'), A_x (conj(s) - s')))
    * exp(-i chi(s - conj(s')))

where conjugation is taken with respect to the real form S and
A_x = 2 p_x^* R_x p_x for the projection p_x onto S^x + jS^x along P; S^x
is any complement of N_x in S_x, the radical of omega_x = g_x(., j.) on W.

Points travel as stacks: one ``SiegelPoint`` whose z is m x N and whose v
is m x n holds m points, the convention of ``representation``, and a single
point with z of length N and v of length n is a stack of one.  ``qsiegel
kernels --points m`` draws its stack with three array calls on one
generator, ``default_rng([seed, 0x6B])``, in this order:

    v  = uniform(-2, 2, (m, 2n)) / sqrt(2n)   (real coordinates of v)
    t  = uniform(0.2, 5, m)
    x0 = standard_normal((m, N))

and sets z = x0 + i(Re Q(v, v) + t e), so every point lies in the domain.

``kernel_matrix`` evaluates all pairs of two point stacks at once.  With
h(a, b) = b^H a, <x, Q(v, v')> = v'^H (2 R_x) v and chi complex-linear, the
exponent of the pair (a, b) expands into a term of the row point, a term of
the column point and one bilinear pairing:

    row(a)    = i <x, z_a> + h(s_a, A_x conj(s_a)) - i chi(s_a)
    col(b)    = -i <x, conj(z_b)> + h(conj(s_b), A_x s_b) + i chi(conj(s_b))
    cross(a, b) = - h(conj(s_b), A_x conj(s_a)) - h(s_a, A_x s_b)
                  + 4 v_b^H R_x v_a

so each point stack is split once, and the cross terms of all pairs are one
matrix product of stacked per-point features.  The split is one
least-squares solve against [P | S | j S], with j applied to the orthonormal
basis s_k of S; V = P + S + jS is direct because derive_spaces has checked
V = P + S^x + jS^x.  Its coordinates a on S and b on jS give all four numbers
at once: with c = a + i b,

    s = sum c_k s_k,   conj(s) = sum conj(c_k) s_k,
    chi(s) = chi . c,  chi(conj(s)) = chi . conj(c).
"""
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import creal
from .errors import (
    FactorizationResidualTooLarge,
    FrameInvalid,
    NonFiniteValue,
    NotIdempotent,
    NotInLambda,
)
from .subspaces import RealSubspace, admissible_radical, basic_spaces, derive_spaces, span_bases
from .tolerances import TOL_PSD


def classify_lambda(q_map, w, x):
    """Complex dimension of N_x when x is admissible for W, else None.

    Checks positive semi-definiteness of g_x on P = W meet jW, j-invariance of
    the radical, and the containment N_x inside ker g_x.
    """
    n_x = admissible_radical(basic_spaces(q_map, w, x), q_map.n)
    return None if n_x is None else n_x.dim // 2


@dataclass
class KernelParams:
    """A point (x, chi) of the admissible set with its derived spaces."""

    q_map: object
    w: RealSubspace
    x: np.ndarray
    k: int
    chi: np.ndarray          # coefficients over the orthonormal basis of S
    spaces: object
    a_x: np.ndarray          # n x n complex, self-adjoint, supported on S + jS


def build_kernel_params(q_map, w, x, chi=None):
    """Assemble kernel parameters; raises NotInLambda for inadmissible x."""
    x = np.asarray(x, dtype=float)
    spaces = derive_spaces(q_map, w, x)
    pxc = creal.complexify(spaces.proj_sx, tol=1e-8)
    a_x = 2.0 * pxc.conj().T @ q_map.rep.r_op(x) @ pxc
    if chi is None:
        chi = np.zeros(spaces.s.dim)
    chi = np.asarray(chi, dtype=float)
    if chi.shape != (spaces.s.dim,):
        raise ValueError(f"chi must have length dim S = {spaces.s.dim}")
    return KernelParams(q_map, w, x, spaces.n_x.dim // 2, chi, spaces, a_x)


def invariant_kernel_raw(q_map, x, p1, p2):
    """First kernel factor exp(i <x, z - conj(z') - 2i Q(v, v')>).

    This is the full kernel when S = 0 (the group over W = V); it is also
    the only piece that remains defined for inadmissible x, which the
    negative PSD controls exploit.
    """
    zpart = p1.z - np.conj(p2.z) - 2j * q_map.q_eval(p1.v, p2.v)
    return np.exp(1j * np.dot(np.asarray(x, dtype=float), zpart))


def _point_terms(params, points):
    """Per-point pieces of the kernel exponent of a point stack: row and
    column terms and the left and right features whose products give the
    cross terms."""
    z = np.atleast_2d(points.z)
    v = np.atleast_2d(points.v)
    _, c = params.spaces.split_p_s(v)
    s_rows = creal.re_to_cx(params.spaces.s.basis.T)
    s = c @ s_rows
    sbar = c.conj() @ s_rows
    a_s = s @ params.a_x.T
    a_sbar = sbar @ params.a_x.T
    xz = z @ params.x
    row = 1j * xz + np.sum(a_sbar.conj() * s, axis=1) - 1j * (c @ params.chi)
    col = -1j * xz.conj() + np.sum(a_s.conj() * sbar, axis=1) + 1j * (c.conj() @ params.chi)
    rx = params.q_map.rep.r_op(params.x)
    left = np.hstack([a_sbar.conj(), s, 4.0 * v @ rx.T])
    right = np.hstack([-sbar, -a_s.conj(), v.conj()])
    return row, col, left, right


def kernel_matrix(params, pts_a, pts_b):
    """Kernel values L(a, b) for all a in pts_a (rows) and b in pts_b (columns).

    pts_a and pts_b are SiegelPoint stacks (z of shape (m, N), v of shape
    (m, n)); a single point is a stack of one.  Each stack is split along
    P + S + jS once; passing the same stack twice splits it once.
    """
    terms_a = _point_terms(params, pts_a)
    terms_b = terms_a if pts_b is pts_a else _point_terms(params, pts_b)
    row, _, left, _ = terms_a
    _, col, _, right = terms_b
    g = left @ right.T
    g += row[:, None]
    g += col[None, :]
    return np.exp(g, out=g)


def eval_kernel(params, p1, p2):
    """Value of the extremal invariant kernel at a pair of points, each a
    stack of one."""
    return complex(kernel_matrix(params, p1, p2)[0, 0])


def fock_kernel(q_map, x, q, qp, p_space=None):
    """Coherent-state kernel exp(2 <x, Q(q, q')>) on the complex part P."""
    if p_space is not None:
        for vec in (q, qp):
            if not p_space.contains_vector(creal.cx_to_re(vec), tol=1e-7):
                raise ValueError("Fock kernel arguments must lie in P")
    return complex(np.exp(2.0 * np.dot(np.asarray(x, dtype=float), q_map.q_eval(q, qp))))


@dataclass
class GramReport:
    n_points: int
    min_eigenvalue: float
    matrix_norm: float
    psd: bool
    gram: Optional[np.ndarray] = None


def gram_psd_report(params, points, keep_matrix=False, tol=TOL_PSD):
    """Gram matrix of kernel values on a SiegelPoint stack, with a relative
    PSD verdict.

    The stack holds the m points as rows of z and v, as ``qsiegel kernels``
    draws them (see the module docstring); a single point is a stack of one.
    Raises NonFiniteValue when a kernel value overflows to inf or NaN, as a
    large chi makes it do.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        g = kernel_matrix(params, points, points)
    m = g.shape[0]
    if not np.all(np.isfinite(g)):
        raise NonFiniteValue(f"kernel values overflow: the {m} x {m} Gram matrix has non-finite entries")
    # exactly Hermitian: the lower triangle mirrors the upper, the diagonal is real
    lower = np.tril_indices(m, -1)
    g[lower] = g.T[lower].conj()
    g[np.diag_indices(m)] = g.diagonal().real
    vals = np.linalg.eigvalsh(g)
    norm = float(np.max(np.abs(vals)))
    mn = float(vals[0])
    return GramReport(
        n_points=m,
        min_eigenvalue=mn,
        matrix_norm=norm,
        psd=bool(mn >= -tol * max(1.0, norm)),
        gram=g if keep_matrix else None,
    )


@dataclass
class FrameScalarReport:
    scalar: float
    solve_residual: float
    scalar_deviation: float
    y: np.ndarray


def frame_scalar_check(alg, q_map, e1, x, n_samples=100, seed=0):
    """Scalar form of A_x for the frame-based W = P + S construction.

    Solves x_half = 2 T_y x_0 for y in the half eigenspace of e1 by least
    squares and returns c = <x_1 - 2 T_{e1} T_y^2 x_0, e1> together with the
    maximal deviation |h(s, A_x conj(s)) - c h(s, conj(s))| over random
    s in S + jS.
    """
    e1 = np.asarray(e1, dtype=float)
    if abs(np.dot(e1, e1) - 1.0) > 1e-8:
        raise FrameInvalid("e1 must satisfy <e1, e1> = 1")
    try:
        peirce = alg.peirce_system(e1)
    except NotIdempotent as exc:
        raise FrameInvalid(f"e1 is not an idempotent: {exc}") from exc
    if int(round(np.trace(peirce.p1))) != 1:
        raise FrameInvalid("e1 is not primitive (dim U(e1, 1) != 1)")
    x = alg.check_element(x)
    x1, x_half, x0 = peirce.split(x)

    # a projector's rank is its trace: p_half and p0 of an idempotent accepted
    # to 1e-8 carry dust of that size, which the relative cutoff alone keeps
    # when their Peirce space is 0
    basis_half, basis_zero = (span_bases(p)[:, : int(round(np.trace(p)))] for p in (peirce.p_half, peirce.p0))
    if basis_zero.shape[1]:
        t0 = basis_zero.T @ alg.left_mult(x0) @ basis_zero
        if np.linalg.eigvalsh(0.5 * (t0 + t0.T))[0] < -TOL_PSD * max(1.0, np.linalg.norm(t0, 2)):
            raise NotInLambda("T_{x_0} is not PSD on U(e1, 0)")

    if basis_half.shape[1]:
        cols = np.column_stack([2.0 * alg.mult(b, x0) for b in basis_half.T])
        coeff, _, _, _ = np.linalg.lstsq(cols, x_half, rcond=None)
        y = basis_half @ coeff
    else:
        y = np.zeros(alg.dim)
    resid = float(np.linalg.norm(2.0 * alg.mult(y, x0) - x_half))
    if resid > 1e-8 * max(1.0, np.linalg.norm(x)):
        raise FactorizationResidualTooLarge(
            f"x_half = 2 T_y x_0 has no solution (residual {resid:.3e})", residual=resid
        )

    ty = alg.left_mult(y)
    c = float(np.dot(x1 - 2.0 * alg.mult(e1, ty @ (ty @ x0)), e1))

    params = frame_kernel_params(alg, q_map, e1, x)
    rng = np.random.default_rng(seed)
    b = params.spaces.s.basis
    span = np.hstack([b, creal.j_matrix(q_map.n) @ b])
    # s = S a + jS b has the conjugate S a - jS b over the real form S
    flip = np.repeat([1.0, -1.0], params.spaces.s.dim)
    coeffs = rng.standard_normal((n_samples, 2 * params.spaces.s.dim))
    s = creal.re_to_cx(coeffs @ span.T)
    sbar = creal.re_to_cx((flip * coeffs) @ span.T)
    lhs = np.sum(np.conj(sbar @ params.a_x.T) * s, axis=-1)
    rhs = c * np.sum(np.conj(sbar) * s, axis=-1)
    dev = np.max(np.abs(lhs - rhs), initial=0.0)
    return FrameScalarReport(scalar=c, solve_residual=resid, scalar_deviation=float(dev), y=y)


def frame_w_subspace(alg, q_map, e1):
    """W = P + S built from a primitive idempotent: P the range of R on
    e - e1, S the real points of the range of R on e1."""
    n = q_map.n
    r_e1 = creal.realify(q_map.rep.r_op(e1))
    r_rest = creal.realify(q_map.rep.r_op(alg.unit - e1))
    s_full = RealSubspace.from_spanning(r_e1)
    reals = RealSubspace(np.vstack([np.eye(n), np.zeros((n, n))]))
    s = s_full.intersect(reals)
    if 2 * s.dim != s_full.dim:
        raise FrameInvalid("range of R_{e1} has no real form among real vectors")
    p = RealSubspace.from_spanning(r_rest)
    return p.add(s), p, s


def frame_kernel_params(alg, q_map, e1, x):
    w, _, _ = frame_w_subspace(alg, q_map, e1)
    return build_kernel_params(q_map, w, x)
