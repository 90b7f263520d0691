import json

import numpy as np
import pytest

from qsiegel import classify_lambda
from qsiegel.catalog import catalog_get, catalog_list
from qsiegel.errors import UnknownEntry

from conftest import oracle_expected_mf, r_stack, validate_representation


def test_listing_is_deterministic():
    assert catalog_list() == sorted(catalog_list())
    assert "heisenberg-rank1" in catalog_list()
    assert "sym2" in catalog_list()


def test_unknown_entry():
    with pytest.raises(UnknownEntry):
        catalog_get("nope")
    with pytest.raises(UnknownEntry):
        catalog_get("diag2").variant("nope")


def test_entries_load_and_validate():
    for name in catalog_list():
        entry = catalog_get(name)
        alg, rep, q_map = entry.model()
        validate_representation(alg, r_stack(rep))
        for var in entry.variants:
            w = var.subspace(q_map.n)
            assert w.ambient == 2 * q_map.n


def test_expected_verdicts_match_oracle():
    for name in catalog_list():
        entry = catalog_get(name)
        _, _, q_map = entry.model()
        for var in entry.variants:
            assert oracle_expected_mf(q_map, var.subspace(q_map.n)) == var.expected_mf, (
                f"{name}/{var.name}"
            )


def test_coverage_requirements():
    names = catalog_list()
    total_variants = 0
    mf_values = set()
    has_k_positive = False
    has_p_zero = False
    has_s_zero = False
    has_half_space = False
    for name in names:
        entry = catalog_get(name)
        alg, _, q_map = entry.model()
        if alg.rank >= 2 and alg.kind in ("sym_real", "herm_complex"):
            e1 = alg.standard_frame()[0]
            if np.trace(alg.peirce_system(e1).p_half) > 0.5:
                has_half_space = True
        for var in entry.variants:
            total_variants += 1
            mf_values.add(var.expected_mf)
            w = var.subspace(q_map.n)
            p = w.intersect(w.j_image(q_map.n))
            s = w.j_image(q_map.n).perp()
            if p.dim == 0:
                has_p_zero = True
            if s.dim == 0:
                has_s_zero = True
            if var.expected_mf and p.dim > 0:
                frame = alg.standard_frame()
                k = classify_lambda(q_map, w, frame[0])
                if k is not None and k >= 1:
                    has_k_positive = True
    assert total_variants >= 6
    assert mf_values == {True, False}
    assert has_k_positive and has_p_zero and has_s_zero and has_half_space


def test_spec_export_round_trip(tmp_path):
    from qsiegel.cli import load_spec

    for name in catalog_list():
        entry = catalog_get(name)
        for var in entry.variants:
            spec = entry.spec_dict(var.name, samples=5, seed=1)
            path = tmp_path / f"{name}-{var.name}.json"
            path.write_text(json.dumps(spec))
            alg, q_map, w, sampling = load_spec(str(path))
            expected_kind = "diagonal" if entry.algebra_kind == "rank1" else entry.algebra_kind
            assert alg.kind == expected_kind
            assert w.equals(var.subspace(q_map.n))
            assert sampling["samples"] == 5 and sampling["seed"] == 1
