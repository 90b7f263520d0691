"""Euclidean Jordan algebra arithmetic and spectral calculus.

An algebra is encoded by its structure tensor over a basis that is
orthonormal for the ambient inner product, so the left multiplications T_x
are symmetric matrices and every rank decision reduces to symmetric
eigenproblems.  Elements are plain numpy vectors of coordinates.

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
    is the Jordan rank of c_k, so sum(multiplicities) equals the algebra
    rank and det x = prod lambda_k ** m_k.
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

    Instances are never mutated after construction and every operation is a
    pure function of its inputs, so they are safe to share across threads.
    """

    def __init__(self, kind, dim, rank, structure, unit, matrix_basis=None):
        structure = np.array(structure, dtype=float)
        if structure.shape != (dim, dim, dim):
            raise DimensionMismatch("structure tensor must be N x N x N")
        if np.max(np.abs(structure - structure.transpose(1, 0, 2))) > 1e-12:
            raise ValueError("structure tensor must define a commutative product")
        # compatibility of the unit with the inner product: <x o y, z> = <y, x o z>,
        # which over an orthonormal basis is symmetry in the last two slots
        if np.max(np.abs(structure - structure.transpose(0, 2, 1))) > 1e-10:
            raise ValueError("inner product is not associative for this product")
        self.kind = kind
        self.dim = dim
        self.rank = rank
        self.structure = structure
        self.unit = np.asarray(unit, dtype=float)
        self.inner = np.eye(dim)  # basis is orthonormal by construction
        self.matrix_basis = matrix_basis
        # linear functional giving the Jordan trace: tr_J(x) = (r/N) tr T_x
        self._trace_vec = np.einsum("ijj->i", structure) * (rank / dim)

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
        return np.einsum("ijk,i,j->k", self.structure, x, y)

    def left_mult(self, x):
        """Matrix of T_x, the unique symmetric operator with T_x e = x."""
        x = self.check_element(x)
        return np.einsum("ijk,i->kj", self.structure, x)

    def quad_rep(self, x):
        """Quadratic representation P(x) = 2 T_x^2 - T_{x^2}."""
        t = self.left_mult(x)
        return 2.0 * (t @ t) - self.left_mult(self.mult(x, x))

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
        """Jordan trace (sum of spectral eigenvalues with multiplicity)."""
        return float(np.dot(self._trace_vec, x))

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
        """Spectral decomposition through the associative subalgebra of powers.

        T_x leaves R[x] = span{e, x, x^2, ...} invariant and acts on it with
        the spectral eigenvalues of x; expanding e in the eigenbasis yields
        the idempotents directly.
        """
        x = self.check_element(x)
        scale = max(1.0, float(np.linalg.norm(x)))
        xs = x / scale

        powers = [self.unit.copy()]
        for _ in range(self.rank):
            powers.append(self.mult(xs, powers[-1]))
        k = np.column_stack(powers)
        uu, ss, _ = np.linalg.svd(k, full_matrices=False)
        m = int(np.sum(ss > TOL_RANK * ss[0]))
        basis = uu[:, :m]

        t_restr = basis.T @ self.left_mult(xs) @ basis
        t_restr = 0.5 * (t_restr + t_restr.T)
        try:
            vals, vecs = np.linalg.eigh(t_restr)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise EigSolverFailure(str(exc)) from exc
        vals = vals * scale
        y = basis @ vecs
        alpha = y.T @ self.unit

        order = np.argsort(vals)[::-1]
        vals, alpha, y = vals[order], alpha[order], y[:, order]

        gap = TOL_EIG * max(1.0, float(np.linalg.norm(x)))
        groups = []
        start = 0
        for i in range(1, m + 1):
            if i == m or vals[i - 1] - vals[i] > gap:
                groups.append(slice(start, i))
                start = i

        eigenvalues, idempotents, mults = [], [], []
        for g in groups:
            c = y[:, g] @ alpha[g]
            lam = float(np.mean(vals[g]))
            mult = self.trace(c)
            mult_int = int(round(mult))
            if abs(mult - mult_int) > 1e-6 or mult_int < 1:
                raise EigSolverFailure(
                    f"idempotent rank {mult:.6f} is not a positive integer"
                )
            eigenvalues.append(lam)
            idempotents.append(c)
            mults.append(mult_int)
        return SpectralDecomposition(
            np.array(eigenvalues), idempotents, np.array(mults, dtype=int)
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
        """e^{t T_u} through spectral calculus on u.

        Uses the joint Peirce projectors of the idempotent system of u, on
        which T_u acts by (lambda_k + lambda_l)/2, so e^{t T_u} e equals the
        spectral exponential of t u exactly.
        """
        dec = self.spectral_decompose(u)
        cs, ls = dec.idempotents, dec.eigenvalues
        out = np.zeros((self.dim, self.dim))
        total = np.zeros((self.dim, self.dim))
        for k, ck in enumerate(cs):
            ekk = self.quad_rep(ck)
            out += np.exp(t * ls[k]) * ekk
            total += ekk
            for l in range(k + 1, len(cs)):
                ekl = 4.0 * self.left_mult(ck) @ self.left_mult(cs[l])
                out += np.exp(t * (ls[k] + ls[l]) / 2.0) * ekl
                total += ekl
        if np.linalg.norm(total - np.eye(self.dim)) > 1e-7:
            raise EigSolverFailure("Peirce projectors do not resolve the identity")
        return out

    # -- frames and matrix coordinates --------------------------------------

    def standard_frame(self):
        """The built-in Jordan frame: the diagonal matrix units E_11, ..., E_rr."""
        return [self.from_matrix(np.diag(row)) for row in np.eye(self.rank)]

    def to_matrix(self, x):
        x = self.check_element(x)
        return np.tensordot(x, self.matrix_basis, axes=1)

    def from_matrix(self, m):
        return np.real(np.einsum("ab,kab->k", m, self.matrix_basis.conj()))


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
    basis = np.array(basis, dtype=complex if d == 2 else float)
    # <B_i o B_j, B_k> = Re tr(B_i B_j B_k) for Hermitian B_k: the real part
    # is already symmetric in i and j
    structure = np.real(np.einsum("iab,jbc,kca->ijk", basis, basis, basis))
    unit = np.real(np.einsum("kaa->k", basis))
    return EuclideanJordanAlgebra(kind, len(basis), n, structure, unit, basis)


def diagonal_algebra(r):
    return _matrix_algebra("diagonal", r, 0)


def sym_real_algebra(n):
    return _matrix_algebra("sym_real", n, 1)


def herm_complex_algebra(n):
    return _matrix_algebra("herm_complex", n, 2)


def make_algebra(kind, param=None):
    """Factory for the algebra kinds accepted in spec files."""
    if kind == "rank1":
        return diagonal_algebra(1)
    if kind == "diagonal":
        return diagonal_algebra(int(param))
    if kind == "sym_real":
        return sym_real_algebra(int(param))
    if kind == "herm_complex":
        return herm_complex_algebra(int(param))
    raise ValueError(f"unknown algebra kind {kind!r}")
