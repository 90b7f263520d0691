"""Tests of the benchmark itself, on the three-request smoke stream.

    python3 -m pytest -q perfbench/test_smoke.py

They run one check, one kernels and one bergman request at sym2 through the
untraced and traced paths and the oracles, in a few seconds.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from qsiegel.catalog import catalog_get, catalog_list  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(trace, seed=3, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=150,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(res):
    return {name: m["unit"] for name, m in res["metrics"].items()}


def test_untraced_smoke_is_correct_and_repeatable():
    first, second = run(0), run(0)
    for proc in (first, second):
        res = result(proc)
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 3
        assert units(res) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert all(m["value"] > 0 for name, m in res["metrics"].items() if name != "large_p50_ms")
    digests = [line for proc in (first, second) for line in proc.stdout.splitlines() if line.startswith("output digest")]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_traced_smoke_reports_every_layer_metric():
    res = result(run(1))
    assert res["correct"] and res["failed"] == 0
    assert units(res) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = {name: m["value"] for name, m in res["metrics"].items()}
    assert values["kernels.eval_kernel.calls"] == 20 * 21 // 2
    assert values["subspaces.split_p_s.calls"] == 20 * 21
    assert values["kernels.split_useful_ratio"] == 20 / (20 * 21)
    assert values["certify.base_metric_useful_ratio"] == 0.5
    assert values["integrals.sample_invariant_measure.calls"] == 1
    assert values["integrals.sample_cone_exponential.calls"] == 1
    assert 0.0 <= values["trace.uncovered_share"] < 0.5


def test_fails_without_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_imq_scan_matches_frozen_catalog_verdicts():
    for name in catalog_list():
        entry = catalog_get(name)
        kind = entry.algebra_kind
        n = entry.model()[2].n
        for v in entry.variants:
            if v.basis:
                assert workloads.imq_vanishes(kind, n, v.basis) == v.expected_mf, (name, v.name)


def test_gamma_ratio_of_the_diagonal_weight():
    # f = prod 4 u_i^2 / pi with u_i exponential: E[u^4] / E[u^2]^2 = 6 per coordinate
    assert abs(workloads.cone_gamma_ratio("diagonal", 4) - 6.0**4) < 1e-9
