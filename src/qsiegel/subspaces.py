"""Real-subspace arithmetic in the realified space V_R.

Subspaces are kept in canonical form as orthonormal basis matrices.  Every
subspace rank decision runs in one of three functions, with one cutoff
(TOL_RANK relative to the largest singular value): ``span_bases`` decides
the rank of a span, ``complement_bases`` that of a form complement, and
``kernel_bases`` that of ker g_x, from the eigenvalues of 2R_x (g_x is its
realification, so its singular values are their absolute values); each
matrix is factored once.  ``RealSubspace.from_spanning``,
``complement_wrt``, ``kernel_of_form`` and ``RealSubspace.intersect`` (a
complement for the identity form) are the one-matrix case of the first two.
(``kernels.frame_scalar_check`` spans the Peirce projectors here but takes
their ranks from their traces.)

A kernel parameter x takes these decisions, each on the one matrix that
defines its space, and re-spans no product of orthonormal bases: jW
(``span_bases`` of J W; S = (jW)^perp takes its dimension), P = W meet jW
(``intersect``), ker g_x (``kernel_bases``), N_x (``radical_on``, whose
cutoff is TOL_RANK of the spectrum of g_x on P, floored at the roundoff of
g_x), S_x, the radical of omega_x = g_x(., j.) on W (``complement_bases``
of W^T g_x J W at the cutoff |g_x|_2), S^x = S_x meet N_x^perp
(``complement_bases`` of N_x^T S_x, no decision when N_x = 0), and the
split V = P + S^x + jS^x (smallest singular value above the absolute 1e-10).

The rank decisions run on stacks: the three functions take a leading stack
axis and decide every rank of the stack at once, ``span_bases`` and
``complement_bases`` in one stacked SVD.  Their bases have a fixed width
across the stack, and a column that a member's own rank drops is zero
(masked), so projectors B B^T and residual 2-norms are exact even when
ranks differ inside the stack.  A stack of equal ranks carries no masked
column.
"""
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import creal
from .errors import DecompositionFailure, NotALinearSpace, NotInLambda
from .tolerances import TOL_PSD, TOL_RANK, TOL_SUB


class RealSubspace:
    """Column space of an orthonormal basis matrix in R^m."""

    def __init__(self, basis):
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 2:
            raise ValueError("basis must be an m x d matrix")
        if basis.shape[1]:
            gram = basis.T @ basis
            if np.max(np.abs(gram - np.eye(basis.shape[1]))) > 1e-12:
                raise ValueError("basis columns must be orthonormal to 1e-12")
        self.basis = basis
        self.ambient = basis.shape[0]
        self.dim = basis.shape[1]

    @classmethod
    def from_spanning(cls, vectors):
        """Rank-revealing orthogonalization of an m x k spanning set."""
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim == 1:
            vectors = vectors[:, None]
        return cls(span_bases(vectors))

    @classmethod
    def zero(cls, m):
        return cls(np.zeros((m, 0)))

    @classmethod
    def full(cls, m):
        return cls(np.eye(m))

    def projector(self):
        return self.basis @ self.basis.T

    def perp(self):
        """Orthogonal complement for the standard inner product."""
        if self.dim == 0:
            return RealSubspace.full(self.ambient)
        u, _, _ = np.linalg.svd(self.basis, full_matrices=True)
        return RealSubspace(u[:, self.dim :])

    def apply(self, matrix):
        return RealSubspace.from_spanning(matrix @ self.basis)

    def j_image(self, n=None):
        n = self.ambient // 2 if n is None else n
        return self.apply(creal.j_matrix(n))

    def add(self, other):
        return RealSubspace.from_spanning(np.hstack([self.basis, other.basis]))

    def intersect(self, other):
        """Intersection via the null space of [B1 | -B2]: its complement for the
        identity form, whose 2-norm is 1.  Its orthonormal vectors (c, d) are
        right singular vectors with C d = mu c and C^T c = mu d, C = B1^T B2,
        so c_k . c_l = d_k . d_l = delta_kl / 2 and sqrt(2) B1 c is orthonormal
        without a re-span."""
        if self.dim == 0 or other.dim == 0:
            return RealSubspace.zero(self.ambient)
        stacked = np.hstack([self.basis, -other.basis])
        coeffs = complement_bases(np.eye(stacked.shape[1]), stacked.T, 1.0)[: self.dim]
        return RealSubspace(np.sqrt(2.0) * (self.basis @ coeffs))

    def contains_vector(self, v, tol=TOL_SUB):
        v = np.asarray(v, dtype=float)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return True
        return np.linalg.norm(v - self.projector() @ v) <= tol * max(1.0, nv)

    def contains(self, other, tol=TOL_SUB):
        if other.dim == 0:
            return True
        resid = other.basis - self.projector() @ other.basis
        return np.linalg.norm(resid, ord=2) <= tol

    def distance(self, other):
        """Frobenius distance of orthogonal projectors."""
        return float(np.linalg.norm(self.projector() - other.projector()))

    def equals(self, other, tol=TOL_SUB):
        return self.distance(other) <= tol

    def __repr__(self):
        return f"RealSubspace(dim={self.dim}, ambient={self.ambient})"


def span_bases(vectors):
    """Orthonormal bases of the column spans of a stack of m x k matrices.

    One stacked SVD; a singular value counts when it exceeds TOL_RANK times
    the largest one of its own matrix.  The width is the largest rank in the
    stack, each basis is the leading left singular vectors of its matrix, and
    the columns beyond its own rank are zero.
    """
    u, s, _ = np.linalg.svd(np.asarray(vectors, dtype=float), full_matrices=False)
    keep = s > TOL_RANK * s[..., :1]
    width = int(np.max(np.sum(keep, axis=-1), initial=0))
    return u[..., :width] * keep[..., None, :width]


def complement_bases(b, bases, b_norm=None):
    """{v : b(v, w) = 0 for all w in span(bases)} for each member of a stack.

    ``b`` is a symmetric or alternating m x m form or a stack of them (either
    way b(v, .) and b(., v) vanish together), ``bases`` a stack of m x d
    bases (masked zero columns allowed) and ``b_norm`` the 2-norm of each
    form, computed here when not given.  A singular value of B^T b counts
    when it exceeds TOL_RANK * max(s[0], |b|_2).  The width is m minus the
    smallest rank in the stack, each basis is the trailing right singular
    vectors of its B^T b, and the columns within its own rank are zero.
    """
    b = np.asarray(b, dtype=float)
    m = b.shape[-1]
    bases = np.asarray(bases, dtype=float)
    if bases.shape[-1] == 0:
        stack = np.broadcast_shapes(b.shape[:-2], bases.shape[:-2])
        return np.broadcast_to(np.eye(m), stack + (m, m)).copy()
    if b_norm is None:
        b_norm = np.linalg.norm(b, ord=2, axis=(-2, -1))
    _, s, vt = np.linalg.svd(np.swapaxes(bases, -1, -2) @ b, full_matrices=True)
    scale = np.maximum(np.maximum(s[..., 0], b_norm), 1e-300)
    rank = np.sum(s > TOL_RANK * scale[..., None], axis=-1)
    low = int(np.min(rank))
    mask = np.arange(low, m) >= rank[..., None]
    return np.swapaxes(vt, -1, -2)[..., low:] * mask[..., None, :]


def kernel_bases(vals, vecs, norm):
    """Bases of ker g for a stack of forms g = realify(A), A Hermitian n x n.

    ``vals`` and ``vecs`` are the stacked ``eigh`` of A and ``norm`` the
    2-norm of each g, max |vals|.  An eigenvalue counts as zero when
    |lam| <= TOL_RANK * norm: the cutoff ``complement_bases(g, I, norm)``
    applies to g's singular values, which are the |lam|, each twice.  The
    null eigenvectors U, in ascending order of lam, give the columns
    realify(U) = [(Re U, Im U) | j (Re U, Im U)].  The width is twice the
    largest null count in the stack, and the columns beyond a member's own
    null count are zero.
    """
    null = np.abs(vals) <= TOL_RANK * np.asarray(norm)[..., None]
    width = int(np.max(np.sum(null, axis=-1), initial=0))
    order = np.argsort(~null, axis=-1, kind="stable")[..., :width]
    u = np.take_along_axis(vecs, order[..., None, :], axis=-1)
    return creal.realify(u * np.take_along_axis(null, order, axis=-1)[..., None, :])


def complement_wrt(b, w):
    """{v : b(v, w) = 0 for all w in W} for a symmetric bilinear form b.

    Degenerate forms are allowed; for nondegenerate b the dimensions of W and
    its complement add up to the ambient dimension.
    """
    return RealSubspace(complement_bases(b, w.basis))


def kernel_of_form(b):
    """ker b, from one SVD of b: the largest singular value of I b is |b|_2."""
    b = np.asarray(b, dtype=float)
    return RealSubspace(complement_bases(b, np.eye(b.shape[-1]), 0.0))


@dataclass
class DerivedSpaces:
    """All subspaces of V_R derived from (Q, W) at a parameter x."""

    w: RealSubspace
    jw: RealSubspace                     # j W
    p: RealSubspace                      # W meet jW
    g_x: np.ndarray = field(repr=False)  # the form g_x on V (real 2n x 2n)
    g_x_norm: float                      # |g_x|_2 = max |eigenvalue of 2R_x|, for S_x and N_x
    ker_gx: RealSubspace
    s: Optional[RealSubspace] = None     # re-h complement of jW
    n_x: Optional[RealSubspace] = None   # radical of g_x on P (when PSD)
    s_x: Optional[RealSubspace] = None   # radical of omega_x = g_x(., j.) on W
    s_x_complement: Optional[RealSubspace] = None  # S^x, re-h complement of N_x in S_x
    proj_sx: Optional[np.ndarray] = None  # p^x on V, along P onto S^x + jS^x (real 2n x 2n)
    split_matrix: Optional[np.ndarray] = field(default=None, repr=False)

    def split_p_s(self, v):
        """v = q + s with q in P and s in S + jS; raises on residual.

        ``v`` is one vector (n,) or a batch of rows (m, n); one least-squares
        solve covers the batch and every row must split within tolerance.
        Returns q and the complex coordinates c of s over the basis s_k of S,
        s = sum_k c_k s_k: the split matrix holds j s_k beside s_k, so
        c = a + i b for the coefficients a on S and b on jS.
        """
        vre = creal.cx_to_re(v).T
        coeff, _, _, _ = np.linalg.lstsq(self.split_matrix, vre, rcond=None)
        resid = np.linalg.norm(self.split_matrix @ coeff - vre, axis=0)
        if np.any(resid > TOL_SUB * np.maximum(1.0, np.linalg.norm(vre, axis=0))):
            raise DecompositionFailure("v does not decompose as P + (S + jS)")
        dp, ds = self.p.dim, self.s.dim
        q = self.p.basis @ coeff[:dp]
        c = coeff[dp : dp + ds] + 1j * coeff[dp + ds :]
        return creal.re_to_cx(q.T), c.T


def basic_spaces(q_map, w, x):
    """jW, P and ker g_x for arbitrary x (no admissibility required).

    S = (jW)^perp is left to ``kernel_coordinates``: a classification never reads it.
    """
    jw = w.j_image(q_map.n)
    p = w.intersect(jw)
    gx, vals, vecs = q_map.g_matrix_eigh(x)
    gx_norm = float(np.max(np.abs(vals)))
    ker = RealSubspace(kernel_bases(vals, vecs, gx_norm))
    return DerivedSpaces(w=w, jw=jw, p=p, g_x=gx, g_x_norm=gx_norm, ker_gx=ker)


def radical_on(form, sub, form_norm):
    """Radical of a PSD form restricted to a subspace.

    Raises NotALinearSpace when the restriction is indefinite, since the
    isotropic vectors then fail to form a subspace.  The zero cutoff is
    relative to the restricted spectrum but floored at roundoff scale of the
    ambient form (``form_norm`` is its 2-norm), so a restriction that is zero
    up to dust is the whole subspace.
    """
    if sub.dim == 0:
        return RealSubspace.zero(sub.ambient)
    form = np.asarray(form)
    g = sub.basis.T @ form @ sub.basis
    g = 0.5 * (g + g.T)
    vals, vecs = np.linalg.eigh(g)
    top = max(float(vals[-1]), 0.0)
    if vals[0] < -TOL_PSD * max(1.0, top):
        raise NotALinearSpace("form is indefinite on the subspace")
    floor = 1e-12 * max(1.0, form_norm)
    null = vecs[:, np.abs(vals) <= max(TOL_RANK * top, floor)]
    if null.shape[1] == sub.dim:
        return sub
    return RealSubspace(sub.basis @ null)


def admissible_radical(d, n):
    """N_x, the radical of g_x on P, when x is admissible for W; else None.

    x is admissible when g_x is positive semi-definite on P = W meet jW and
    its radical N_x is even-dimensional, j-invariant and inside ker g_x.
    ``d`` holds the basic spaces of x.
    """
    try:
        n_x = radical_on(d.g_x, d.p, d.g_x_norm)
    except NotALinearSpace:
        return None
    jn_x = RealSubspace(creal.j_matrix(n) @ n_x.basis)
    if n_x.dim % 2 or not n_x.equals(jn_x, tol=TOL_SUB) or not d.ker_gx.contains(n_x, tol=TOL_SUB):
        return None
    return n_x


def derive_spaces(q_map, w, x):
    """Full derived data at an admissible x: N_x, S_x, S^x and the projection p^x.

    Raises NotInLambda unless x is admissible (see ``admissible_radical``)
    and V = P + S^x + jS^x.  S_x = {w in W : g_x(w, jW) = 0} is the radical
    of omega_x = g_x(., j.) on W, and S^x the re-h complement of N_x in S_x.
    """
    d = basic_spaces(q_map, w, x)
    n = q_map.n
    n_x = admissible_radical(d, n)
    if n_x is None:
        raise NotInLambda("g_x on P is not PSD with radical inside ker g_x")
    d.n_x = n_x
    jmat = creal.j_matrix(n)
    omega_w = w.basis.T @ d.g_x @ jmat @ w.basis
    d.s_x = RealSubspace(w.basis @ complement_bases(omega_w, np.eye(w.dim), d.g_x_norm))
    # N_x lies in S_x; with N_x = 0 the complement is I, taken without an SVD
    coeffs = complement_bases(np.eye(d.s_x.dim), d.s_x.basis.T @ n_x.basis, 1.0)
    sx = d.s_x_complement = RealSubspace(d.s_x.basis @ coeffs)

    blocks = np.hstack([d.p.basis, sx.basis, jmat @ sx.basis])
    # one SVD decides the split (square, every singular value above the
    # absolute 1e-10) and inverts it: p^x keeps the S^x + jS^x coordinates,
    # the rows of blocks^-1 = V diag(1/s) U^T past P
    u, sv, vt = np.linalg.svd(blocks)
    if blocks.shape[1] != 2 * n or sv[-1] <= 1e-10:
        raise NotInLambda("V does not split as P + S^x + jS^x for this x")
    dp = d.p.dim
    d.proj_sx = blocks[:, dp:] @ ((vt.T[dp:] / sv) @ u.T)

    d.s, d.split_matrix = kernel_coordinates(d, jmat)
    return d


def kernel_coordinates(d, jmat):
    """S = (jW)^perp and the split matrix [P | S | jS] of the kernel coordinates.

    The split is V = P + S + jS, with j applied to the basis of S itself,
    whose columns fix the coordinates of ``--chi``.  P is orthogonal to
    S + jS, and S meets jS only in (W + jW)^perp, which is 0 once
    V = P + S^x + jS^x, since S^x lies in W.
    """
    s = d.jw.perp()
    return s, np.hstack([d.p.basis, s.basis, jmat @ s.basis])
