"""Euclidean Jordan algebra arithmetic and spectral calculus.

Elements are plain numpy vectors of coordinates x over a basis of matrices
B_k that is orthonormal for the ambient inner product, so the left
multiplications T_x are symmetric matrices.  Every operation is written once
on the matrix X = sum_k x_k B_k: products are matrix products, and the
spectral calculus is the Hermitian eigenproblem of X.  The basis is kept in
index form, one index pair and one weight per B_k, so ``to_matrix`` is a
scatter and ``from_matrix`` a gather, both O(n^2) per element.

A simple algebra and its symmetric cone are described by three numbers: the
rank r, the dimension N and the Peirce constant d, the common dimension of
the off-diagonal Peirce spaces, so that N = r + d r (r - 1) / 2.  Every
built-in kind is a space of n x n Hermitian matrices over a basis of
matrices, with x o y = (xy + yx)/2 and <A, B> = Re tr(A B^H):

* ``diagonal`` -- d = 0, the diagonal matrices, i.e. R^r with the
  componentwise product (``rank1`` is r = 1),
* ``sym_real`` -- d = 1, real symmetric n x n matrices,
* ``herm_complex`` -- d = 2, complex Hermitian n x n matrices.
"""
from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    EigSolverFailure,
    NotIdempotent,
    Singular,
)
from .tolerances import TOL_CONE, TOL_EIG, TOL_RANK


@dataclass(frozen=True)
class SpectralDecomposition:
    """x = sum_k lambda_k c_k over a complete orthogonal idempotent system.

    Eigenvalues are sorted descending; numerically close eigenvalues are
    grouped, so idempotents need not be primitive.  ``multiplicities[k]``
    is the size of the k-th group, the Jordan rank of c_k, so
    sum(multiplicities) equals the algebra rank and det x = prod lambda_k ** m_k.
    """

    eigenvalues: np.ndarray
    idempotents: List[np.ndarray]
    multiplicities: np.ndarray

    def reconstruct(self):
        return sum(l * c for l, c in zip(self.eigenvalues, self.idempotents))


@dataclass(frozen=True)
class PeirceSystem:
    """Projectors onto the 1, 1/2 and 0 eigenspaces of T_c for an idempotent c."""

    idempotent: np.ndarray
    p1: np.ndarray
    p_half: np.ndarray
    p0: np.ndarray

    def split(self, x):
        return self.p1 @ x, self.p_half @ x, self.p0 @ x


class EuclideanJordanAlgebra:
    """Finite-dimensional Euclidean Jordan algebra with its symmetric cone.

    The n x n Hermitian matrices with entries in R (d = 1) or C (d = 2), or
    the diagonal ones (d = 0); the rank r is n.  The orthonormal basis is
    E_ii, then for each i < j in row-major order the symmetric
    (E_ij + E_ji)/sqrt 2 and, for d = 2, the antisymmetric
    i (E_ij - E_ji)/sqrt 2.  It is held in index form,
    B_k = w_k E_(a_k b_k) + conj(w_k) E_(b_k a_k), with w_k = 1/2 on the
    diagonal (a_k = b_k) and 1/sqrt 2 or i/sqrt 2 above it.  Instances are
    never mutated after construction and every operation is a pure function
    of its inputs, so they are safe to share across threads.
    """

    def __init__(self, kind, n, d):
        self.kind, self.rank, self.d = kind, n, d
        self._upper = np.triu_indices(n, 1)
        # the d units of the off-diagonal basis matrices of one pair i < j
        self._units = np.array([1.0, 1.0j][:d]) / np.sqrt(2.0)
        pairs = len(self._upper[0])
        self._a = np.concatenate([np.arange(n), np.repeat(self._upper[0], d)])
        self._b = np.concatenate([np.arange(n), np.repeat(self._upper[1], d)])
        self._w = np.concatenate([np.full(n, 0.5), np.tile(self._units, pairs)])
        self.dim = n + d * pairs
        self.unit = self.from_matrix(np.eye(n))

    # -- basic arithmetic ---------------------------------------------------

    def check_element(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatch(f"expected vector of length {self.dim}, got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("element has non-finite entries")
        return x

    def mult(self, x, y):
        """Jordan product x o y = (XY + YX) / 2."""
        xm, ym = self.to_matrix(x), self.to_matrix(y)
        return self.from_matrix(xm @ ym + ym @ xm) / 2.0

    def left_mult(self, x):
        """Matrix of T_x, the unique symmetric operator with T_x e = x.

        Column j holds the coordinates of X o B_j = (X B_j + B_j X) / 2.
        Coordinates only see the Hermitian part of a matrix, and that of
        X B_j is X o B_j, so the products X B_j suffice.
        """
        return self._sandwich(self.to_matrix(x), np.eye(self.rank))

    def quad_rep(self, x):
        """Quadratic representation P(x), with columns the coordinates of X B_j X.

        Leading axes of x are a stack, giving a stack of N x N matrices.
        """
        xm = self.to_matrix(x)
        return self._sandwich(xm, xm)

    def _sandwich(self, xm, ym):
        """The N x N matrix with columns the coordinates of X B_j Y, X and Y Hermitian.

        X B_j Y = w_j X_a Y_b^H + conj(w_j) X_b Y_a^H for the columns X_a, Y_b
        of X and Y, so every column is two rank-one coordinate reads.  Leading
        axes of X and Y are a stack.
        """
        a, b, w = self._a, self._b, self._w[:, None]
        xt, yt = np.swapaxes(xm, -1, -2), np.swapaxes(ym, -1, -2)
        cols = w * self.outer_coords(xt[..., a, :], yt[..., b, :])
        cols = cols + w.conj() * self.outer_coords(xt[..., b, :], yt[..., a, :])
        return np.swapaxes(np.real(cols), -1, -2)

    def trace(self, x):
        """Jordan trace <e, x> = tr X (sum of spectral eigenvalues with multiplicity)."""
        return float(np.dot(self.unit, x))

    def invert(self, x):
        """Jordan inverse from_matrix(V Lambda^-1 V^H); singular when min lambda^2,
        the smallest singular value of P(x), is at most TOL_RANK * max lambda^2."""
        x = self.check_element(x)
        vals, vecs = self._eigh(x)
        sq = vals * vals
        if sq.min() <= TOL_RANK * sq.max():
            raise Singular(
                f"element is not invertible (smallest singular value of P(x): {sq.min():.3e})",
                smallest_singular_value=float(sq.min()),
            )
        return self.from_matrix((vecs / vals) @ vecs.conj().T)

    # -- spectral calculus --------------------------------------------------

    def _eigh(self, x):
        """Eigenvalues (ascending) and eigenvectors of X, or of each X in a stack."""
        try:
            return np.linalg.eigh(self.to_matrix(x))
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise EigSolverFailure(str(exc)) from exc

    def spectral_decompose(self, x):
        """Spectral decomposition from the Hermitian eigenproblem of X.

        Eigenvalues closer than TOL_EIG * max(1, |x|) form one group; its
        idempotent is the spectral projector V_g V_g^H and its multiplicity
        the group size.
        """
        x = self.check_element(x)
        vals, vecs = self._eigh(x)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        gap = TOL_EIG * max(1.0, float(np.linalg.norm(x)))
        groups = np.split(np.arange(self.rank), np.flatnonzero(vals[:-1] - vals[1:] > gap) + 1)
        return SpectralDecomposition(
            np.array([np.mean(vals[g]) for g in groups]),
            [self.from_matrix(vecs[:, g] @ vecs[:, g].conj().T) for g in groups],
            np.array([len(g) for g in groups]),
        )

    def det(self, x):
        dec = self.spectral_decompose(x)
        return float(np.prod(dec.eigenvalues ** dec.multiplicities))

    def spectral_map(self, x, f, proof_convention=False):
        """f applied to the eigenvalues of X: from_matrix(V f(Lambda) V^H).

        f is a name or a callable of one eigenvalue.  Names: exp, log,
        pseudo_inverse, abs, step.  Zero eigenvalues are detected at
        TOL_EIG * max(1, |x|); pseudo_inverse maps them to 0, or to 1 under
        ``proof_convention`` (the choice needed to solve P(x) y = x for
        singular x).  Leading axes of x are a stack, mapped by one stacked eigh.
        """
        x = np.asarray(x, dtype=float)
        vals, vecs = self._eigh(x)
        zero = np.abs(vals) <= TOL_EIG * np.maximum(1.0, np.linalg.norm(x, axis=-1, keepdims=True))
        if callable(f):
            fvals = np.array([float(f(lam)) for lam in vals.ravel()]).reshape(vals.shape)
        elif f == "exp":
            fvals = np.exp(vals)
        elif f == "log":
            if np.any(vals[..., 0] <= 0.0):
                raise DomainError("log requires all spectral eigenvalues > 0")
            fvals = np.log(vals)
        elif f == "abs":
            fvals = np.abs(vals)
        elif f == "step":
            fvals = ((vals > 0.0) & ~zero).astype(float)
        elif f == "pseudo_inverse":
            fill = np.full(vals.shape, 1.0 if proof_convention else 0.0)
            fvals = np.divide(1.0, vals, out=fill, where=~zero)
        else:
            raise ValueError(f"unknown spectral function {f!r}")
        return self.from_matrix((vecs * fvals[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2))

    def exp(self, x):
        return self.spectral_map(x, "exp")

    def log(self, x):
        return self.spectral_map(x, "log")

    def cone_contains(self, x, mode="open"):
        """Membership of x in the symmetric cone (open) or its closure."""
        mn = float(np.linalg.eigvalsh(self.to_matrix(self.check_element(x)))[0])
        if mode == "open":
            return mn > TOL_CONE
        if mode == "closed":
            return mn >= -TOL_CONE
        raise ValueError("mode must be 'open' or 'closed'")

    def peirce_system(self, c):
        """Projectors of T_c onto its eigenvalues 1, 1/2, 0 for an idempotent c:
        P(c), I - P(c) - P(e - c) and P(e - c)."""
        c = self.check_element(c)
        if np.linalg.norm(self.mult(c, c) - c) > 1e-8 * max(1.0, np.dot(c, c)):
            raise NotIdempotent("c o c differs from c beyond tolerance")
        p1, p0 = self.quad_rep(c), self.quad_rep(self.unit - c)
        return PeirceSystem(c, p1, np.eye(self.dim) - p1 - p0, p0)

    def mult_exp(self, u, t=1.0):
        """e^{t T_u} = P(exp(t u / 2)).

        On the joint Peirce space of the eigenvalues lambda_k, lambda_l of u,
        T_u acts by (lambda_k + lambda_l) / 2 and P(exp(t u / 2)) by
        e^{t lambda_k / 2} e^{t lambda_l / 2}.
        """
        return self.quad_rep(self.exp(0.5 * t * self.check_element(u)))

    # -- frames and matrix coordinates --------------------------------------

    def standard_frame(self):
        """The built-in Jordan frame: the diagonal matrix units E_11, ..., E_rr."""
        return [self.from_matrix(np.diag(row)) for row in np.eye(self.rank)]

    def to_matrix(self, x):
        """X = sum_k x_k B_k for real or complex x; leading axes of x are a stack."""
        x = np.asarray(x)
        if x.shape[-1:] != (self.dim,):
            raise DimensionMismatch(f"expected vector of length {self.dim}, got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("element has non-finite entries")
        n, (i, j) = self.rank, self._upper
        off = x[..., n:].reshape(*x.shape[:-1], len(i), self.d)
        m = np.zeros(x.shape[:-1] + (n, n), dtype=np.result_type(x, self._w))
        m[..., np.arange(n), np.arange(n)] = x[..., :n]
        m[..., i, j] = off @ self._units
        m[..., j, i] = off @ self._units.conj()
        return m

    def from_matrix(self, m):
        """Coordinates <B_k, M> = Re tr(B_k M) of an n x n matrix, or of each one in a stack."""
        m = np.asarray(m)
        a, b, w = self._a, self._b, self._w
        return np.real(w.conj() * m[..., a, b] + w * m[..., b, a])

    def outer_coords(self, v, vp):
        """v'^H B_k v = tr(B_k v v'^H): ``from_matrix`` extended C-linearly to v v'^H,
        read off the entries it touches without forming v v'^H.  Leading axes broadcast."""
        v, vpc = np.asarray(v), np.conj(vp)
        a, b, w = self._a, self._b, self._w
        return w.conj() * v[..., a] * vpc[..., b] + w * v[..., b] * vpc[..., a]


def diagonal_algebra(r):
    return EuclideanJordanAlgebra("diagonal", r, 0)


def sym_real_algebra(n):
    return EuclideanJordanAlgebra("sym_real", n, 1)


def herm_complex_algebra(n):
    return EuclideanJordanAlgebra("herm_complex", n, 2)


_PEIRCE_D = {"rank1": 0, "diagonal": 0, "sym_real": 1, "herm_complex": 2}


def algebra_dim(kind, param=None):
    """Dimension N = r + d r (r - 1) / 2 of make_algebra(kind, param), without building it."""
    r = 1 if kind == "rank1" else int(param)
    return r + _PEIRCE_D[kind] * r * (r - 1) // 2


def make_algebra(kind, param=None):
    """Factory for the algebra kinds accepted in spec files."""
    if kind not in _PEIRCE_D:
        raise ValueError(f"unknown algebra kind {kind!r}")
    if kind == "rank1":
        return diagonal_algebra(1)
    return EuclideanJordanAlgebra(kind, int(param), _PEIRCE_D[kind])
