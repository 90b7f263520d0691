"""Jordan algebra representations on (V, h) and the Siegel-domain geometry.

The representation supplies the family x -> R_x of self-adjoint operators;
everything downstream (the Hermitian map Q, the forms g_x and omega_x, the
domain, the generalized Heisenberg group and its orbits) is derived from it.

Real coordinates on V follow creal's convention (Re v, Im v); tangent
vectors to the domain live in R^{2N + 2n} ordered as (Re z, Im z, Re v, Im v).

Everything here is immutable after validation and all operations are pure,
so instances can be used concurrently without locks.
"""
from dataclasses import dataclass

import numpy as np

from . import creal
from .errors import DimensionMismatch, NotInDomain
from .subspaces import RealSubspace


class JordanRepresentation:
    """Family x -> R_x of self-adjoint operators with 2 R_e = Id.

    ``r_basis[k]`` is the matrix of R on the k-th algebra basis vector.
    User-supplied families are validated at load time: each matrix must be
    Hermitian, R_e must equal Id/2, and x -> 2 R_x must be a unital Jordan
    algebra homomorphism; violations are hard failures.
    """

    def __init__(self, algebra, r_basis, validate=True, tol=1e-8):
        r_basis = np.asarray(r_basis, dtype=complex)
        if r_basis.ndim != 3 or r_basis.shape[0] != algebra.dim or r_basis.shape[1] != r_basis.shape[2]:
            raise DimensionMismatch("r_basis must have shape (N, n, n)")
        self.algebra = algebra
        self.r_basis = r_basis
        self.n = r_basis.shape[1]
        if validate:
            self._validate(tol)

    def _validate(self, tol):
        alg = self.algebra
        for k in range(alg.dim):
            if np.linalg.norm(self.r_basis[k] - self.r_basis[k].conj().T) > tol:
                raise ValueError(f"R on basis vector {k} is not self-adjoint")
        r_e = self.r_op(alg.unit)
        if np.linalg.norm(r_e - 0.5 * np.eye(self.n)) > tol:
            raise ValueError("representation is not unital (R_e != Id/2)")
        eye = np.eye(alg.dim)
        for k in range(alg.dim):
            for l in range(k, alg.dim):
                lhs = self.r_op(alg.mult(eye[k], eye[l]))
                rhs = self.r_basis[k] @ self.r_basis[l] + self.r_basis[l] @ self.r_basis[k]
                if np.linalg.norm(lhs - rhs) > tol:
                    raise ValueError("x -> 2 R_x is not a Jordan algebra homomorphism")

    @classmethod
    def standard(cls, algebra):
        """Built-in representation R_x v = (1/2) x . v on V = C^rank."""
        n = algebra.rank
        r_basis = np.empty((algebra.dim, n, n), dtype=complex)
        for k, e in enumerate(np.eye(algebra.dim)):
            r_basis[k] = 0.5 * np.asarray(algebra.to_matrix(e), dtype=complex)
        return cls(algebra, r_basis, validate=False)

    def r_op(self, x):
        return np.einsum("k,kab->ab", np.asarray(x, dtype=float), self.r_basis)

    def beta_box(self, u, up):
        """beta(u box u') = R_{u o u'} + [R_u, R_{u'}]."""
        ru, rup = self.r_op(u), self.r_op(up)
        return self.r_op(self.algebra.mult(u, up)) + ru @ rup - rup @ ru


class HermitianMapQ:
    """The Hermitian map Q: V x V -> U_C with <x, Q(v, v')> = 2 h(R_x v, v')."""

    def __init__(self, rep):
        self.rep = rep
        self.algebra = rep.algebra
        self.n = rep.n
        self.dim_u = rep.algebra.dim
        # q_tensor[k] = 2 R_k, so Q(v, v')_k = v'^H (2 R_k) v
        self.q_tensor = 2.0 * rep.r_basis

    def q_eval(self, v, vp):
        v = np.asarray(v, dtype=complex)
        vp = np.asarray(vp, dtype=complex)
        return np.einsum("kab,a,b->k", self.q_tensor, vp.conj(), v)

    def g_matrix(self, x):
        """Real symmetric 2n x 2n matrix of g_x(v, v') = <x, Re Q(v, v')>."""
        return 2.0 * creal.realify(self.rep.r_op(x))

    def omega_matrix(self, x):
        """Alternating matrix of omega_x(v, v') = g_x(v, j v')."""
        return self.g_matrix(x) @ creal.j_matrix(self.n)

    # -- Siegel domain -------------------------------------------------------

    def domain_contains(self, point):
        y = np.imag(point.z) - np.real(self.q_eval(point.v, point.v))
        return self.algebra.cone_contains(y, mode="open")

    def cone_part(self, point):
        """Im z - Q(v, v), the cone-valued invariant of the group action."""
        return np.imag(point.z) - np.real(self.q_eval(point.v, point.v))

    # -- generalized Heisenberg group ---------------------------------------

    def group_bracket(self, v1, v2):
        return 4.0 * np.imag(self.q_eval(v1, v2))

    def group_mul(self, g1, g2):
        br = self.group_bracket(g1.v0, g2.v0)
        return GroupElement(g1.x0 + g2.x0 + 0.5 * br, g1.v0 + g2.v0)

    def group_inv(self, g):
        return GroupElement(-g.x0, -g.v0)

    def group_act(self, g, point):
        z = point.z + g.x0 + 2j * self.q_eval(point.v, g.v0) + 1j * self.q_eval(g.v0, g.v0)
        return SiegelPoint(z, point.v + g.v0)

    def base_point(self):
        return SiegelPoint(1j * self.algebra.unit.astype(complex), np.zeros(self.n, dtype=complex))

    # -- orbits and transport ------------------------------------------------

    def orbit_tangent(self, w, point):
        """Tangent space at ``point`` of its orbit under the group over w.

        Spanned by (x0, 0) for x0 in U and (2i Q(v, w), w) for w in a basis
        of the subspace; returned in (Re z, Im z, Re v, Im v) coordinates.
        """
        nn, nu = self.n, self.dim_u
        cols = []
        for x0 in np.eye(nu):
            cols.append(np.concatenate([x0, np.zeros(nu + 2 * nn)]))
        for wcol in w.basis.T:
            wc = creal.re_to_cx(wcol)
            zeta = 2j * self.q_eval(point.v, wc)
            cols.append(np.concatenate([zeta.real, zeta.imag, wcol]))
        return RealSubspace.from_spanning(np.column_stack(cols) if cols else np.zeros((2 * (nu + nn), 0)))

    def affine_derivative(self, v0):
        """Derivative of n(x0, v0): (zeta, gamma) -> (zeta + 2i Q(gamma, v0), gamma)."""
        nn, nu = self.n, self.dim_u
        d = np.eye(2 * (nu + nn))
        for idx, gcol in enumerate(np.eye(2 * nn)):
            gc = creal.re_to_cx(gcol)
            zeta = 2j * self.q_eval(gc, v0)
            d[: 2 * nu, 2 * nu + idx] = np.concatenate([zeta.real, zeta.imag])
        return d

    def scaling_derivative(self, u, t=1.0):
        """Derivative of t(A) = (e^{tT_u}, e^{t R_u}), block-diagonal and invertible."""
        eu = self.algebra.mult_exp(u, t)
        vals, vecs = np.linalg.eigh(self.rep.r_op(u))
        ev = (vecs * np.exp(t * vals)) @ vecs.conj().T
        top = np.kron(np.eye(2), eu)  # e^{tT_u} acting C-linearly on U_C
        return _block_diag(top, creal.realify(ev))

    def transport_to_base(self, point):
        """Composite group motion sending ``point`` to (ie, 0).

        Returns (image point, derivative matrix).  The image is exact by
        construction; the derivative composes the two affine moves with the
        spectral scaling by u = log(Im z - Q(v, v)).
        """
        alg = self.algebra
        y = self.cone_part(point)
        if not alg.cone_contains(y, mode="open"):
            raise NotInDomain("point is not in the Siegel domain")
        u = alg.log(y)

        d1 = self.affine_derivative(-point.v)
        p1 = self.group_act(GroupElement(np.zeros(alg.dim), -point.v), point)
        p2 = SiegelPoint(p1.z - np.real(p1.z), p1.v)
        d3 = self.scaling_derivative(u, t=-1.0)
        image = SiegelPoint(1j * (alg.mult_exp(u, -1.0) @ np.imag(p2.z)).astype(complex), p2.v)
        return image, d3 @ d1

    def sample_domain_point(self, rng, spread=0.7):
        """In-domain point by construction: z = x0 + i(Q(v,v) + exp(spread*g))."""
        alg = self.algebra
        v = rng.standard_normal(self.n) + 1j * rng.standard_normal(self.n)
        x0 = rng.standard_normal(alg.dim)
        cone = alg.exp(spread * rng.standard_normal(alg.dim))
        y = np.real(self.q_eval(v, v)) + cone
        return SiegelPoint(x0 + 1j * y, v)


@dataclass(frozen=True)
class SiegelPoint:
    """Point (z, v) of U_C x V; domain membership is a separate predicate."""

    z: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z", np.asarray(self.z, dtype=complex))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=complex))

    def coords(self):
        return np.concatenate([self.z.real, self.z.imag, self.v.real, self.v.imag])


@dataclass(frozen=True)
class GroupElement:
    """n(x0, v0); v0 must lie in W for elements of the group over W."""

    x0: np.ndarray
    v0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "v0", np.asarray(self.v0, dtype=complex))


def _block_diag(a, b):
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


def standard_model(kind, param=None):
    """Algebra + standard representation + Q for a built-in kind."""
    from .jordan import make_algebra

    alg = make_algebra(kind, param)
    rep = JordanRepresentation.standard(alg)
    return alg, rep, HermitianMapQ(rep)
