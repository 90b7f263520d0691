import numpy as np
import pytest

from qsiegel import creal, standard_model


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
