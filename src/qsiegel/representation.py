"""The standard representation of a Jordan algebra on (V, h) and the Siegel-domain geometry.

``JordanRepresentation`` is the one place that decides V: ``n`` = dim_C V,
``two_r`` gives 2R_x on V and ``q_coords`` the Q it defines by
<x, Q(v, v')> = v'^H (2R_x) v; everything downstream reads them.  For the
built-in algebras V = C^n, 2R_x = X and Q(v, v')_k = v'^H B_k v, the algebra's
own ``to_matrix`` and ``from_matrix`` extended C-linearly.  One eigh of
Y = 2R_y, y = Im z - Q(v, v), transports a point to the base point (ie, 0) in
closed form: it gives P(y^(-1/2)) on U_C and Y^(-1/2) on V.

Real coordinates on V follow creal's convention (Re v, Im v); tangent
vectors to the domain live in R^{2N + 2n} ordered as (Re z, Im z, Re v, Im v).

Everything here is immutable and all operations are pure, so instances can
be used concurrently without locks.
"""
from dataclasses import dataclass

import numpy as np

from . import creal
from .errors import NotInDomain
from .subspaces import RealSubspace, span_bases
from .tolerances import TOL_CONE


class JordanRepresentation:
    """The standard representation R_x v = X v / 2 on V = C^rank: x -> 2R_x = X is a
    unital Jordan algebra homomorphism into the Hermitian operators on V."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.n = algebra.rank

    def two_r(self, x):
        """The matrix of 2R_x on V, for one x or each one of a stack: X itself."""
        return self.algebra.to_matrix(x)

    def q_coords(self, v, vp):
        """Coordinates v'^H B_k v of Q(v, v'), read off <x, Q(v, v')> = v'^H (2R_x) v; leading axes broadcast."""
        return self.algebra.outer_coords(v, vp)

    def r_op(self, x):
        return self.two_r(x) / 2.0


class HermitianMapQ:
    """The Hermitian map Q: V x V -> U_C with <x, Q(v, v')> = 2 h(R_x v, v')."""

    def __init__(self, rep):
        self.rep = rep
        self.algebra = rep.algebra
        self.n = rep.n
        self.dim_u = rep.algebra.dim

    def q_eval(self, v, vp):
        """Q(v, v') from the representation's ``q_coords``; leading axes broadcast over a stack of pairs."""
        return self.rep.q_coords(np.asarray(v, dtype=complex), vp)

    def g_matrix(self, x):
        """Real symmetric 2n x 2n matrix of g_x(v, v') = <x, Re Q(v, v')>."""
        return creal.realify(self.rep.two_r(x))

    def g_matrix_eigh(self, x):
        """g_x, and the eigenvalues (ascending) and complex eigenvectors of 2R_x, for
        one x or a stack, from one 2R_x.

        g_x = realify(2R_x), so each eigenpair (lam, u) gives g_x the double eigenvalue
        lam with real eigenvectors (Re u, Im u) and j (Re u, Im u): one n x n eigh
        holds the spectrum, |g_x|_2 = max |lam| and ker g_x.
        """
        two_r = self.rep.two_r(x)
        return (creal.realify(two_r), *np.linalg.eigh(two_r))

    def omega_matrix(self, x):
        """Alternating matrix of omega_x(v, v') = g_x(v, j v')."""
        return self.g_matrix(x) @ creal.j_matrix(self.n)

    # -- Siegel domain -------------------------------------------------------

    def domain_contains(self, point):
        # a cone part that overflowed is not in the cone
        with np.errstate(over="ignore", invalid="ignore"):
            y = self.cone_part(point)
        return bool(np.all(np.isfinite(y))) and self.algebra.cone_contains(y, mode="open")

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
    #
    # A point whose z and v carry leading axes is a stack of points; the
    # functions below then return stacks, one member per point.

    def orbit_tangent(self, w, point):
        """Tangent space at ``point`` of its orbit under the group over w.

        Spanned by (x0, 0) for x0 in U and (2i Q(v, w), w) for w in a basis
        of the subspace; returned in (Re z, Im z, Re v, Im v) coordinates.
        ``w`` is a ``RealSubspace`` or a stack of 2n x d bases, one per point.
        For a stack it returns the stack of bases from ``span_bases``.
        """
        nn, nu = self.n, self.dim_u
        v = np.asarray(point.v)
        basis = w.basis if isinstance(w, RealSubspace) else np.asarray(w, dtype=float)
        zeta = 2j * self.q_eval(v[..., None, :], creal.re_to_cx(np.swapaxes(basis, -1, -2)))
        span = np.zeros(zeta.shape[:-2] + (2 * (nu + nn), nu + zeta.shape[-2]))
        span[..., :nu, :nu] = np.eye(nu)
        span[..., : 2 * nu, nu:] = np.swapaxes(creal.cx_to_re(zeta), -1, -2)
        span[..., 2 * nu :, nu:] = basis
        if span.ndim == 2:
            return RealSubspace.from_spanning(span)
        return span_bases(span)

    def affine_derivative(self, v0):
        """Derivative of n(x0, v0): (zeta, gamma) -> (zeta + 2i Q(gamma, v0), gamma).

        Leading axes of v0 give a stack of derivatives.
        """
        nn, nu = self.n, self.dim_u
        v0 = np.asarray(v0)
        d = np.broadcast_to(np.eye(2 * (nu + nn)), v0.shape[:-1] + (2 * (nu + nn),) * 2).copy()
        zeta = 2j * self.q_eval(creal.re_to_cx(np.eye(2 * nn)), v0[..., None, :])
        d[..., : 2 * nu, 2 * nu :] = np.swapaxes(creal.cx_to_re(zeta), -1, -2)
        return d

    def transport_to_base(self, point):
        """Group motion sending ``point`` to the base point (ie, 0), in closed form.

        Returns (image point, derivative matrix).  The translation n(0, -v)
        moves the point to (x + iy, 0) with y = Im z - Q(v, v), and the
        scaling by y^(-1/2) then takes iy to ie: it acts as
        P(y^(-1/2)) = e^{-T_u} on U_C and as Y^(-1/2) = e^{-R_u} on V, for
        u = log y.  One eigh of Y gives both, and every point must lie in
        the domain.
        """
        alg, nu = self.algebra, self.dim_u
        y = self.cone_part(point)
        vals, vecs = np.linalg.eigh(self.rep.two_r(y))
        if np.any(vals[..., 0] <= TOL_CONE):
            raise NotInDomain("point is not in the Siegel domain")
        m = (vecs / np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
        p = alg.quad_rep(alg.from_matrix(m))
        scaling = np.zeros(y.shape[:-1] + (2 * (nu + self.n),) * 2)
        scaling[..., :nu, :nu] = p
        scaling[..., nu : 2 * nu, nu : 2 * nu] = p
        scaling[..., 2 * nu :, 2 * nu :] = creal.realify(m)
        image = SiegelPoint(1j * (p @ y[..., None])[..., 0], np.zeros(y.shape[:-1] + (self.n,)))
        return image, scaling @ self.affine_derivative(-point.v)


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


def standard_model(kind, param=None):
    """Algebra + standard representation + Q for a built-in kind."""
    from .jordan import make_algebra

    alg = make_algebra(kind, param)
    rep = JordanRepresentation(alg)
    return alg, rep, HermitianMapQ(rep)
