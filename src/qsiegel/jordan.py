"""Euclidean Jordan algebra arithmetic and spectral calculus.

Elements are plain numpy vectors of coordinates x over a basis of matrices
B_k that is orthonormal for the ambient inner product, so the left
multiplications T_x are symmetric matrices.  Every operation is written once
on the matrix X = sum_k x_k B_k: products and the quadratic representation
are matrix products, and the spectral calculus is the Hermitian
eigenproblem of X.

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
from typing import Callable, List

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

    ``matrix_basis`` is an N x n x n stack of Hermitian matrices B_k,
    orthonormal for <A, B> = Re tr(A B^H); the rank r is n.  Instances are
    never mutated after construction and every operation is a pure function
    of its inputs, so they are safe to share across threads.
    """

    def __init__(self, kind, matrix_basis):
        self.kind = kind
        self.matrix_basis = matrix_basis
        self.dim, self.rank = matrix_basis.shape[:2]
        self._dual = matrix_basis.conj().reshape(self.dim, -1)
        self.inner = np.eye(self.dim)  # basis is orthonormal by construction
        self.unit = self.from_matrix(np.eye(self.rank))

    @property
    def d(self):
        """Peirce constant, from N = r + d r (r - 1) / 2; 0 for rank one."""
        if self.rank == 1:
            return 0
        return round(2 * (self.dim - self.rank) / (self.rank * (self.rank - 1)))

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
        xm = np.tensordot(x, self.matrix_basis, axes=1)
        ym = np.tensordot(y, self.matrix_basis, axes=1)
        return self.from_matrix(xm @ ym + ym @ xm) / 2.0

    def left_mult(self, x):
        """Matrix of T_x, the unique symmetric operator with T_x e = x.

        Column j holds the coordinates of X o B_j = (X B_j + B_j X) / 2.
        Coordinates only see the Hermitian part of a matrix, and that of
        X B_j is X o B_j, so the products X B_j suffice.
        """
        return self.from_matrix(self.to_matrix(x) @ self.matrix_basis).T

    def quad_rep(self, x):
        """Quadratic representation P(x), with columns the coordinates of X B_j X."""
        xm = self.to_matrix(x)
        return self.from_matrix(xm @ self.matrix_basis @ xm).T

    def box_operator(self, u, up):
        """u box u' = T_{u o u'} + [T_u, T_{u'}]."""
        tu = self.left_mult(u)
        tup = self.left_mult(up)
        return self.left_mult(self.mult(u, up)) + tu @ tup - tup @ tu

    def norm(self, x):
        return float(np.linalg.norm(x))

    def inner_product(self, x, y):
        return float(np.dot(x, y))

    def trace(self, x):
        """Jordan trace <e, x> = tr X (sum of spectral eigenvalues with multiplicity)."""
        return float(np.dot(self.unit, x))

    def invert(self, x):
        """Jordan inverse x^{-1} = P(x)^{-1} x."""
        x = self.check_element(x)
        p = self.quad_rep(x)
        u, s, vt = np.linalg.svd(p)
        if s[0] == 0.0 or s[-1] <= TOL_RANK * s[0]:
            raise Singular(
                f"element is not invertible (smallest singular value of P(x): {s[-1]:.3e})",
                smallest_singular_value=float(s[-1]),
            )
        return vt.T @ ((u.T @ x) / s)

    # -- spectral calculus --------------------------------------------------

    def spectral_decompose(self, x):
        """Spectral decomposition from the Hermitian eigenproblem of X.

        Eigenvalues closer than TOL_EIG * max(1, |x|) form one group; its
        idempotent is the spectral projector V_g V_g^H and its multiplicity
        the group size.
        """
        x = self.check_element(x)
        try:
            vals, vecs = np.linalg.eigh(self.to_matrix(x))
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise EigSolverFailure(str(exc)) from exc
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
        """Apply f eigenvalue-wise; f is a name or a callable.

        Names: exp, log, pseudo_inverse, abs, step.  Zero eigenvalues are
        detected at TOL_EIG * max(1, |x|); pseudo_inverse maps them to 0, or
        to 1 under ``proof_convention`` (the choice needed to solve
        P(x) y = x for singular x).
        """
        dec = self.spectral_decompose(x)
        zero_tol = TOL_EIG * max(1.0, float(np.linalg.norm(x)))

        if callable(f):
            func: Callable[[float], float] = f
        elif f == "exp":
            func = np.exp
        elif f == "log":
            if np.min(dec.eigenvalues) <= 0.0:
                raise DomainError("log requires all spectral eigenvalues > 0")
            func = np.log
        elif f == "abs":
            func = abs
        elif f == "step":
            func = lambda l: 0.0 if abs(l) <= zero_tol else (1.0 if l > 0 else 0.0)
        elif f == "pseudo_inverse":
            fill = 1.0 if proof_convention else 0.0
            func = lambda l: fill if abs(l) <= zero_tol else 1.0 / l
        else:
            raise ValueError(f"unknown spectral function {f!r}")

        out = np.zeros(self.dim)
        for lam, c in zip(dec.eigenvalues, dec.idempotents):
            out += float(func(lam)) * c
        return out

    def exp(self, x):
        return self.spectral_map(x, "exp")

    def log(self, x):
        return self.spectral_map(x, "log")

    def cone_contains(self, x, mode="open"):
        """Membership of x in the symmetric cone (open) or its closure."""
        dec = self.spectral_decompose(x)
        mn = float(np.min(dec.eigenvalues))
        if mode == "open":
            return mn > TOL_CONE
        if mode == "closed":
            return mn >= -TOL_CONE
        raise ValueError("mode must be 'open' or 'closed'")

    def peirce_system(self, c, tol=1e-8):
        """Eigenprojectors of T_c onto eigenvalues 1, 1/2, 0."""
        c = self.check_element(c)
        if np.linalg.norm(self.mult(c, c) - c) > tol * max(1.0, np.dot(c, c)):
            raise NotIdempotent("c o c differs from c beyond tolerance")
        vals, vecs = np.linalg.eigh(self.left_mult(c))
        projs = {1.0: np.zeros((self.dim, self.dim)), 0.5: np.zeros((self.dim, self.dim)), 0.0: np.zeros((self.dim, self.dim))}
        for lam, v in zip(vals, vecs.T):
            targets = [t for t in (0.0, 0.5, 1.0) if abs(lam - t) <= 1e-7]
            if not targets:
                raise NotIdempotent(f"T_c eigenvalue {lam} is not near 0, 1/2 or 1")
            projs[targets[0]] += np.outer(v, v)
        return PeirceSystem(c, projs[1.0], projs[0.5], projs[0.0])

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
        x = self.check_element(x)
        return np.tensordot(x, self.matrix_basis, axes=1)

    def from_matrix(self, m):
        """Coordinates <B_k, M> of an n x n matrix, or of each one in a stack."""
        m = np.asarray(m)
        return np.real(m.reshape(*m.shape[:-2], -1) @ self._dual.T)


def _matrix_algebra(kind, n, d):
    """Hermitian n x n matrices with entries in R (d = 1) or C (d = 2).

    d = 0 keeps only the diagonal matrices.  The basis is E_ii, then for each
    i < j the symmetric (E_ij + E_ji)/sqrt 2 and, for d = 2, the
    antisymmetric i (E_ij - E_ji)/sqrt 2.
    """
    units = np.eye(n)
    basis = [np.outer(units[i], units[i]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            off = np.outer(units[i], units[j]) / np.sqrt(2.0)
            if d >= 1:
                basis.append(off + off.T)
            if d == 2:
                basis.append(1j * (off - off.T))
    return EuclideanJordanAlgebra(kind, np.array(basis, dtype=complex if d == 2 else float))


def diagonal_algebra(r):
    return _matrix_algebra("diagonal", r, 0)


def sym_real_algebra(n):
    return _matrix_algebra("sym_real", n, 1)


def herm_complex_algebra(n):
    return _matrix_algebra("herm_complex", n, 2)


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
    return _matrix_algebra(kind, int(param), _PEIRCE_D[kind])
