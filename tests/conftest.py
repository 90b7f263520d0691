import numpy as np
import pytest

from qsiegel import creal, standard_model
from qsiegel.tolerances import TOL_EIG, TOL_RANK


MODEL_KINDS = [("rank1", None), ("diagonal", 2), ("sym_real", 2), ("herm_complex", 2)]


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


class StructureTensorOracle:
    """The structure-tensor calculus that the matrix-native algebra replaced.

    The product is read off the N x N x N tensor <B_i o B_j, B_k>, and the
    spectral decomposition goes through the associative subalgebra of powers
    R[x] = span{e, x, x^2, ...}, on which T_x acts with the spectral
    eigenvalues of x.  It shares no code path with ``EuclideanJordanAlgebra``
    beyond the matrix basis, and serves as its reference.
    """

    def __init__(self, alg):
        b = alg.matrix_basis
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
