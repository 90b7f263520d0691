"""Q and the verdicts under the structure group.

A unitary map g of V whose adjoint action Ad(g) X = g X g^H is an algebra
automorphism moves Q by it: Q(gv, gv') = Ad(g) Q(v, v').  Such maps are
O(n) for ``sym_real``, U(n) for ``herm_complex`` and coordinate phases
times permutations for ``diagonal``.  They carry W to gW, S to gS and Im Q
on S to its image, so the multiplicity-free verdict of gW is that of W.
"""
import numpy as np
import pytest

from qsiegel import RealSubspace, certify_all, creal, standard_model
from qsiegel.catalog import catalog_get, catalog_list


def structure_group_element(alg, rng):
    """A random unitary g of V = C^n with Ad(g) an automorphism of the algebra."""
    n = alg.rank
    if alg.kind == "diagonal":
        return np.eye(n)[rng.permutation(n)] * np.exp(2j * np.pi * rng.random(n))
    z = rng.standard_normal((n, n))
    if alg.d == 2:
        z = z + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(z)
    return q


SIZES = (
    [("rank1", None)]
    + [("diagonal", n) for n in (2, 3, 5)]
    + [("sym_real", n) for n in range(2, 6)]
    + [("herm_complex", n) for n in range(2, 5)]
)


@pytest.mark.parametrize("kind,param", SIZES, ids=lambda v: str(v))
def test_q_is_equivariant_under_the_structure_group(kind, param):
    alg, _, q_map = standard_model(kind, param)
    n = q_map.n
    rng = np.random.default_rng(18)
    for _ in range(3):
        g = structure_group_element(alg, rng)
        assert np.allclose(g.conj().T @ g, np.eye(n), atol=1e-12)
        for _ in range(5):
            v, vp = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
            moved = alg.to_matrix(q_map.q_eval(g @ v, g @ vp))
            want = g @ alg.to_matrix(q_map.q_eval(v, vp)) @ g.conj().T
            assert np.linalg.norm(moved - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


CATALOG_VARIANTS = [(name, var.name) for name in catalog_list() for var in catalog_get(name).variants]


@pytest.mark.parametrize("name,variant", CATALOG_VARIANTS)
def test_verdict_invariant_under_the_structure_group(name, variant):
    entry = catalog_get(name)
    alg, _, q_map = entry.model()
    var = entry.variant(variant)
    w = var.subspace(q_map.n)
    rng = np.random.default_rng(2025)
    for _ in range(3):
        g = creal.realify(structure_group_element(alg, rng))
        moved = RealSubspace.from_spanning(g @ w.basis) if w.dim else w
        report = certify_all(alg, q_map, moved, samples=12, seed=0)
        assert report.consistent and report.mf == var.expected_mf
