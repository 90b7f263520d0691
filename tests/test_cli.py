import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import SVDCounter
from qsiegel import SiegelPoint, build_kernel_params, cli, gram_psd_report
from qsiegel.catalog import catalog_get
from qsiegel.cli import main
from qsiegel.errors import NonFiniteValue


def write_spec(tmp_path, entry_name, variant, samples=6, seed=0):
    spec = catalog_get(entry_name).spec_dict(variant, samples=samples, seed=seed)
    path = tmp_path / f"{entry_name}-{variant}.json"
    path.write_text(json.dumps(spec))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_check_consistent_true(tmp_path, capsys):
    spec = write_spec(tmp_path, "heisenberg-rank1", "real")
    code, out = run_cli(["check", spec, "--no-scale"], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["consistent"] is True and report["mf"] is True
    assert len(report["certificates"]) == 3


def test_check_consistent_false_has_witness(tmp_path, capsys):
    spec = write_spec(tmp_path, "heisenberg-rank1", "zero")
    code, out = run_cli(["check", spec, "--no-scale"], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["consistent"] is True and report["mf"] is False
    imq = [c for c in report["certificates"] if c["condition"] == "imq_vanishes"][0]
    assert imq["witness"] is not None


def test_check_reports_metric_scale(tmp_path, capsys):
    spec = write_spec(tmp_path, "heisenberg-rank1", "real")
    code, out = run_cli(["check", spec, "--samples", "4"], capsys)
    report = json.loads(out)
    coiso = [c for c in report["certificates"] if c["condition"] == "coisotropic"][0]
    assert coiso["metric_scale"] == pytest.approx(1.0, abs=0.05)


def test_check_malformed_spec(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"algebra": {"kind": "diagonal", "param": 2}}))
    assert main(["check", str(path)]) == 1
    path.write_text("{not json")
    assert main(["check", str(path)]) == 1
    path.write_text(json.dumps({"algebra": {"kind": "nope"}, "W": {"basis": []}}))
    assert main(["check", str(path)]) == 1


def test_check_dependent_basis_rejected(tmp_path, capsys):
    path = tmp_path / "dep.json"
    path.write_text(
        json.dumps(
            {
                "algebra": {"kind": "diagonal", "param": 2},
                "W": {"basis": [[1, 0, 0, 0], [1, 0, 0, 0]]},
            }
        )
    )
    assert main(["check", str(path)]) == 1
    # more rows than the dimension 2n = 4 are dependent too
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1]]
    path.write_text(json.dumps({"algebra": {"kind": "diagonal", "param": 2}, "W": {"basis": rows}}))
    assert main(["check", str(path)]) == 1


@pytest.mark.parametrize("ratio,dim", [(0.5e-9, None), (2e-9, 2)])
def test_dependence_of_w_is_decided_at_the_rank_cutoff(tmp_path, capsys, ratio, dim):
    # two rows with singular values 1 and ratio, on both sides of TOL_RANK = 1e-9
    q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((4, 4)))
    rows = (q[:, :2] * [1.0, ratio]).T.tolist()
    path = tmp_path / "cutoff.json"
    path.write_text(json.dumps({"algebra": {"kind": "diagonal", "param": 2}, "W": {"basis": rows}}))
    if dim is None:
        assert main(["check", str(path), "--no-scale"]) == 1
        assert capsys.readouterr().err == "error: W basis vectors are linearly dependent at tolerance\n"
    else:
        assert cli.load_spec(str(path))[2].dim == dim


def test_load_spec_factors_w_once(tmp_path, monkeypatch):
    # one span of the rows both decides their independence and gives W's basis
    spec = write_spec(tmp_path, "sym3", "frame")
    counter = SVDCounter(monkeypatch)
    cli.load_spec(spec)
    assert counter.calls == 1


def test_kernels_psd_and_not_in_lambda(tmp_path, capsys):
    spec = write_spec(tmp_path, "heisenberg-rank1", "real")
    code, out = run_cli(["kernels", spec, "--x", "1", "--points", "12", "--seed", "7"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "PSD"
    assert rep["min_eigenvalue"] >= -1e-8 * max(1.0, rep["matrix_norm"])

    spec2 = write_spec(tmp_path, "diag2", "full")
    code2, _ = run_cli(["kernels", spec2, "--x", "1,-1"], capsys)
    assert code2 == 1


def test_kernels_on_w_with_w_plus_jw_short_of_v_is_one_line(tmp_path, capsys):
    # W + jW = C e1 in V = C^2: V is not P + S^x + jS^x, so S meets jS and the
    # kernel coordinates are undefined
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"algebra": {"kind": "diagonal", "param": 2}, "W": {"basis": [[1.0, 0.0, 0.0, 0.0]]}}))
    assert main(["kernels", str(path), "--x", "1,1", "--points", "3"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "does not split as P + S^x + jS^x" in err


def test_kernels_large_chi_still_psd(tmp_path, capsys):
    spec = write_spec(tmp_path, "heisenberg-rank1", "real")
    code, out = run_cli(
        ["kernels", spec, "--x", "1", "--chi", "10", "--points", "12", "--seed", "3"], capsys
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "PSD"


def test_bergman_cli_value(tmp_path, capsys):
    spec = write_spec(tmp_path, "heisenberg-rank1", "real")
    code, out = run_cli(["bergman", spec, "--p1", "i,0", "--p2", "i,0"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["value"][0] == pytest.approx(0.05066059, abs=1e-6)
    assert rep["method"] == "closed"


def test_orbit_cli(tmp_path, capsys):
    spec = write_spec(tmp_path, "heisenberg-rank1", "real")
    code, out = run_cli(["orbit", spec, "--x", "1"], capsys)
    assert code == 0
    assert json.loads(out)["multiplicity_one"] is True


def test_catalog_cli(tmp_path, capsys):
    code, out = run_cli(["catalog"], capsys)
    assert code == 0
    listing = json.loads(out)
    assert "sym2" in listing
    code, out = run_cli(["catalog", "--export", "sym2", "--variant", "frame"], capsys)
    spec = json.loads(out)
    assert spec["algebra"]["kind"] == "sym_real"


def test_catalog_variant_without_export_is_a_usage_error(capsys):
    assert main(["catalog", "--variant", "nope"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: catalog: --variant needs --export\n"


@pytest.mark.parametrize("command,samples", [("bergman", "0"), ("bergman", "-3"), ("check", "-5")])
def test_nonpositive_samples_rejected(tmp_path, capsys, command, samples):
    spec = write_spec(tmp_path, "sym2", "frame")
    point = ["--p1", "1.2i,i,0.1i,0,0", "--p2", "i,i,0,0,0"] if command == "bergman" else []
    assert main([command, spec, *point, "--samples", samples]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--samples" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["kernels", "SPEC", "--x", "1,0,1", "--samples", "3"],
        ["bergman", "SPEC", "--p1", "i,i,0,0,0", "--p2", "i,i,0,0,0", "--tol", "1e-8"],
        ["orbit", "SPEC", "--x", "1,0,1", "--seed", "3"],
        ["orbit", "SPEC", "--x", "1,0,1", "--samples", "3"],
        ["catalog", "--seed", "3"],
        ["catalog", "--samples", "3"],
        ["catalog", "--tol", "1e-8"],
    ],
    ids=lambda argv: f"{argv[0]} {argv[-2]}",
)
def test_flags_a_command_does_not_read_are_rejected(tmp_path, capsys, argv):
    spec = write_spec(tmp_path, "sym2", "frame")
    argv = [spec if arg == "SPEC" else arg for arg in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"unrecognized arguments: {argv[-2]}" in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["check", "SPEC", "--no-scale", "--samples", str(cli.MAX_CHECK_SAMPLES + 1)], "--samples"),
        (["bergman", "SPEC", "--p1", "i,i,0,0,0", "--p2", "i,i,0,0,0", "--method", "mc", "--samples", "1000000000"],
         "--samples"),
        (["kernels", "SPEC", "--x", "1,0,1", "--points", str(cli.MAX_POINTS + 1)], "--points"),
        (["kernels", "SPEC", "--x", "1,0,1", "--points", "100000"], "--points"),
    ],
)
def test_sample_and_point_counts_above_their_bounds_rejected(tmp_path, capsys, monkeypatch, argv, flag):
    def build(*args):
        raise AssertionError("the algebra was built")

    spec = write_spec(tmp_path, "sym2", "frame")
    monkeypatch.setattr(cli, "standard_model", build)
    assert main([spec if arg == "SPEC" else arg for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err


def test_check_sample_default_above_its_bound_rejected(tmp_path, capsys):
    # check's bound is below the spec's: a sampling.samples that bergman takes
    # is an error for check unless --samples overrides it
    spec = write_spec(tmp_path, "heisenberg-rank1", "real", samples=cli.MAX_CHECK_SAMPLES + 1)
    assert main(["check", spec, "--no-scale"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "sampling.samples" in err and str(cli.MAX_CHECK_SAMPLES) in err
    code, out = run_cli(["check", spec, "--no-scale", "--samples", "3"], capsys)
    assert code == 0 and json.loads(out)["certificates"][1]["samples"] == 3
    code, out = run_cli(["bergman", spec, "--p1", "i,0", "--p2", "i,0", "--method", "mc"], capsys)
    assert code == 0 and json.loads(out)["samples"] == cli.MAX_CHECK_SAMPLES + 1


@pytest.mark.parametrize(
    "argv",
    [
        ["bergman", "s.json", "--p1", "i", "--p2", "i", "--samples", "200000"],
        ["check", "s.json", "--samples", "60"],
        ["check", "s.json", "--samples", str(cli.MAX_CHECK_SAMPLES)],
        ["kernels", "s.json", "--x", "1", "--points", "120"],
        ["kernels", "s.json", "--x", "1", "--points", str(cli.MAX_POINTS)],
    ],
)
def test_sample_and_point_counts_at_their_bounds_parse(argv):
    args = cli.build_parser().parse_args(argv)
    assert str(getattr(args, argv[-2].lstrip("-"))) == argv[-1]
    cli.validate_spec({"algebra": {"kind": "rank1"}, "W": {"basis": []}, "sampling": {"samples": cli.MAX_SAMPLES}})


@pytest.mark.parametrize(
    "extra,flag",
    [
        (["--points", "0"], "--points"),
        (["--points", "-3"], "--points"),
        (["--x", "1,1"], "--x"),
        (["--x", "1,nan,0"], "--x"),
        (["--chi", "1,2"], "--chi"),
        # a chi this large overflows e^{-i chi(s - conj s')} in every kernel value
        (["--x", "1,0,0", "--points", "3", "--chi", "1e300"], "overflow"),
        (["--x", "1,0,0", "--points", "3", "--chi", "1e150"], "overflow"),
    ],
)
def test_kernels_bad_arguments_rejected(tmp_path, capsys, extra, flag):
    spec = write_spec(tmp_path, "sym2", "frame")
    assert main(["kernels", spec, "--x", "1,0,1", *extra]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err


@pytest.mark.parametrize("argv", [["check"], ["frobnicate"]])
def test_usage_errors_exit_1_not_the_alarm_code(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: qsiegel")


def test_cli_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qsiegel.cli; print('scipy' in sys.modules, 'jsonschema' in sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "False False"


def _set(spec, path, value):
    *parents, key = path.split(".")
    for name in parents:
        spec = spec.setdefault(name, {})
    spec[key] = value


@pytest.mark.parametrize(
    "path,value,named",
    [
        ("algebra.param", "3", "algebra.param"),
        ("algebra.param", True, "algebra.param"),
        ("algebra.param", 0, "algebra.param"),
        ("algebra.kind", "nope", "algebra.kind"),
        ("representation.kind", "spin", "representation.kind"),
        ("W.basis", [[1.0, 0.0, float("nan"), 0.0]], "W.basis"),
        ("W.basis", [[1.0, 0.0, float("inf"), 0.0]], "W.basis"),
        ("W.basis", [1.0, 0.0, 0.0, 0.0], "W.basis"),
        ("W.basis", [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "length 4"),
        ("tolerances.subspace", "abc", "tolerances.subspace"),
        ("tolerances.gram_psd", -1e-8, "tolerances.gram_psd"),
        ("tolerances.subspce", 1e-6, "subspce"),
        ("tolerances", [1e-6], "tolerances"),
        ("sampling.samples", 0, "sampling.samples"),
        ("sampling.seed", -1, "sampling.seed"),
        ("sampling", 5, "sampling"),
        ("extra", {}, "extra"),
        ("algebra.size", 2, "size"),
        ("algebra.n", 5, "algebra size keys param / n / r disagree"),
        ("tolerances.subspace", 1.0, "tolerances.subspace must be a number in (0, 0.001]"),
        ("tolerances.subspace", 0.5, "tolerances.subspace must be a number in (0, 0.001]"),
        ("sampling.samples", cli.MAX_SAMPLES + 1, f"sampling.samples must be an integer in [1, {cli.MAX_SAMPLES}]"),
    ],
)
def test_invalid_spec_rejected_in_one_line(tmp_path, capsys, path, value, named):
    spec = catalog_get("sym2").spec_dict("frame")
    _set(spec, path, value)
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(spec))
    assert main(["check", str(target), "--no-scale"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err


@pytest.mark.parametrize(
    "kind,param",
    [("sym_real", 40), ("sym_real", 10**6), ("diagonal", 65), ("sym_real", 11), ("herm_complex", 9)],
)
def test_spec_above_size_cap_rejected_before_building(tmp_path, capsys, monkeypatch, kind, param):
    def build(*args):
        raise AssertionError("the algebra was built")

    monkeypatch.setattr(cli, "standard_model", build)
    target = tmp_path / "big.json"
    target.write_text(json.dumps({"algebra": {"kind": kind, "param": param}, "W": {"basis": []}}))
    assert main(["check", str(target), "--no-scale"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"above the bound {cli.MAX_ALGEBRA_DIM}" in err


@pytest.mark.parametrize("kind,param", [("rank1", 10**6), ("diagonal", 64), ("sym_real", 10), ("herm_complex", 8)])
def test_largest_specs_under_size_cap_are_valid(kind, param):
    cli.validate_spec({"algebra": {"kind": kind, "param": param}, "W": {"basis": []}})


@pytest.mark.parametrize(
    "spec",
    [[], {"W": {"basis": []}}, {"algebra": {"param": 2}, "W": {"basis": []}}, {"algebra": {"kind": "sym_real"}, "W": {}}],
)
def test_spec_structure_rejected_in_one_line(tmp_path, capsys, spec):
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(spec))
    assert main(["check", str(target), "--no-scale"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: invalid spec")


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000])
def test_unreadable_spec_rejected_in_one_line(tmp_path, capsys, content):
    target = tmp_path / "bad.json"
    target.write_bytes(content)
    assert main(["check", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "cannot read spec file" in err


def test_integral_floats_count_as_integers(tmp_path, capsys):
    # JSON-Schema's meaning of "integer": 2.0 is one, and runs exactly like 2
    spec = catalog_get("sym2").spec_dict("frame", samples=4, seed=3)
    reports = []
    for kind in (int, float):
        _set(spec, "algebra.param", kind(2))
        _set(spec, "sampling.samples", kind(4))
        _set(spec, "sampling.seed", kind(3))
        target = tmp_path / f"{kind.__name__}.json"
        target.write_text(json.dumps(spec))
        reports.append(run_cli(["check", str(target), "--no-scale"], capsys))
    assert reports[0][0] == 0 and reports[0] == reports[1]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["kernels", "--x", "1,0,1", "--tol", "nan"], "--tol"),
        (["orbit", "--x", "1,0,1", "--tol", "-1"], "--tol"),
        (["check", "--no-scale", "--tol", "0"], "--tol"),
        (["check", "--no-scale", "--tol", "inf"], "--tol"),
        (["kernels", "--x", "1,0,1", "--seed", "-1"], "--seed"),
        (["bergman", "--p1", "1+,i,0,0,0", "--p2", "i,i,0,0,0"], "--p1"),
        (["bergman", "--p1", "i,i,0,0,0", "--p2", "nan,i,0,0,0"], "--p2"),
        (["bergman", "--p1", "i,i,0,0", "--p2", "i,i,0,0,0"], "--p1"),
        (["bergman", "--p1", "i,i,0,0,0", "--p2", "i,i,0,0,0", "--method", "quadrature"], "closed"),
        (["bergman", "--p1", "i,i,0,0,0", "--p2", "i,i,0,0,0", "--method", "auto"], "--method"),
        # a subspace tolerance is a rounding allowance, at most MAX_SUBSPACE_TOL
        (["check", "--no-scale", "--tol", "1"], "(0, 0.001]"),
        (["check", "--no-scale", "--tol", "0.5"], "(0, 0.001]"),
        (["orbit", "--x", "1,0,1", "--tol", "2"], "(0, 0.001]"),
        # finite points whose cone part Im z - Q(v, v) is -inf, or whose w = z1 - conj(z2) is inf
        (["bergman", "--p1", "i,i,0,1e200,0", "--p2", "i,i,0,1e200,0"], "domain"),
        (["bergman", "--p1=1e308+1e308i,1e308+1e308i,0,0,0", "--p2=-1e308+1e308i,-1e308+1e308i,0,0,0"], "overflows"),
        (["bergman", "--p1=1e308+1e308i,1e308+1e308i,0,0,0", "--p2=-1e308+1e308i,-1e308+1e308i,0,0,0",
          "--method", "mc", "--samples", "100"], "overflows"),
    ],
)
def test_bad_flags_rejected_in_one_line(tmp_path, capsys, argv, flag):
    spec = write_spec(tmp_path, "sym2", "frame")
    command, *rest = argv
    assert main([command, spec, *rest]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    spec = write_spec(tmp_path, "diag2", "phase")
    for flags in (["--no-scale"], []):  # without and with the metric scale
        _, out1 = run_cli(["check", spec, "--seed", "3", *flags], capsys)
        _, out2 = run_cli(["check", spec, "--seed", "3", *flags], capsys)
        assert out1 == out2
    assert json.loads(out1)["certificates"][1]["metric_scale"] is not None


def test_reports_identical_across_thread_counts(tmp_path):
    spec = write_spec(tmp_path, "sym2", "frame")
    for flags in (["--no-scale"], []):  # without and with the metric scale
        outs = []
        for threads in ("1", "4"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "qsiegel.cli", "check", spec, "--seed", "5", *flags],
                capture_output=True,
                env=env,
                check=True,
            )
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
    assert json.loads(outs[0])["certificates"][1]["metric_scale"] is not None


def test_kernels_reports_identical_across_thread_counts(tmp_path):
    # boundary x (k = 1) with a nonzero chi, so every term of the exponent is live
    spec = write_spec(tmp_path, "sym3", "frame")
    alg = catalog_get("sym3").model()[0]
    x = ",".join(repr(float(t)) for t in alg.standard_frame()[1])
    outs = []
    for threads in ("1", "4"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "qsiegel.cli", "kernels", spec, "--x", x, "--chi", "1.5",
             "--points", "120", "--seed", "5"],
            capture_output=True,
            env=env,
            check=True,
        )
        outs.append(proc.stdout)
    assert json.loads(outs[0])["k"] == 1
    assert outs[0] == outs[1]


def test_kernels_points_are_the_three_documented_draws(tmp_path, capsys):
    # the case of the thread-count test; the stack rebuilt from the three
    # draws of the kernels module docstring gives the CLI's figures bit for bit
    spec = write_spec(tmp_path, "sym3", "frame")
    alg, q_map, w, _ = cli.load_spec(spec)
    x = alg.standard_frame()[1]
    code, out = run_cli(
        ["kernels", spec, "--x", ",".join(repr(float(t)) for t in x), "--chi", "1.5", "--points", "120", "--seed", "5"],
        capsys,
    )
    assert code == 0
    m, n = 120, q_map.n
    rng = np.random.default_rng([5, 0x6B])
    v = rng.uniform(-2.0, 2.0, size=(m, 2 * n)) / np.sqrt(2 * n)
    t = rng.uniform(0.2, 5.0, size=m)
    x0 = rng.standard_normal((m, alg.dim))
    vc = v[:, :n] + 1j * v[:, n:]
    points = SiegelPoint(x0 + 1j * (np.real(q_map.q_eval(vc, vc)) + t[:, None] * alg.unit), vc)
    rep = gram_psd_report(build_kernel_params(q_map, w, x, chi=np.array([1.5])), points)
    report = json.loads(out)
    assert report["points"] == rep.n_points == m
    assert report["min_eigenvalue"] == rep.min_eigenvalue
    assert report["matrix_norm"] == rep.matrix_norm


def test_non_finite_report_is_a_one_line_error(tmp_path, capsys):
    # on diagonal 64 at z = 1e-9 i e, Delta(-i w) is about 1e-551, below the
    # smallest double, and the Bergman kernel about 1e1645, above the largest,
    # which JSON cannot hold: exit 1 with one line, and no report is written.
    # The MC's prefactor e^L(2 y0) is past the largest double too; it reads
    # inf, not an OverflowError
    spec = tmp_path / "diag64.json"
    spec.write_text(json.dumps({"algebra": {"kind": "diagonal", "param": 64}, "W": {"basis": []}}))
    point = ",".join(["1e-9i"] * 64 + ["0"] * 64)
    target = tmp_path / "report.json"
    for method in ([], ["--method", "mc", "--samples", "1000"]):
        assert main(["bergman", str(spec), "--p1", point, "--p2", point, "--out", str(target), *method]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1 and "not a finite number" in captured.err
        assert not target.exists()
    with pytest.raises(NonFiniteValue):
        cli.emit({"value": [float("inf"), 0.0]}, None)


def test_bergman_far_out_reports_zero_on_both_routes(tmp_path, capsys):
    # the kernel is about 1e-601 at Im z = 1e200: both routes report it
    # rounded to 0.0, and neither overflows on the way
    spec = write_spec(tmp_path, "heisenberg-rank1", "real")
    for method in ("closed", "mc"):
        code, out = run_cli(["bergman", spec, "--p1", "1e200i,0", "--p2", "1e200i,0", "--method", method,
                             "--samples", "1000"], capsys)
        assert code == 0 and json.loads(out)["value"] == [0.0, 0.0]


def test_bergman_mc_reports_identical_across_thread_counts(tmp_path):
    # the sampler contracts the Bartlett weights with Re w, a one-column
    # product BLAS may route to gemv, and each chunk of samples with the
    # contracted weights; herm2 off the diagonal, herm3 on and off it
    herm2 = write_spec(tmp_path, "herm2", "frame")
    herm3 = tmp_path / "herm3.json"
    herm3.write_text(json.dumps({"algebra": {"kind": "herm_complex", "param": 3}, "W": {"basis": []}}))
    p1 = "0.3+1.2i,1.1i,-0.1+1.3i,0.2i,-0.1i,0.1+0.1i,0.05i,0.2,-0.1i,0.2+0.1i,-0.3i,0.1"
    p2 = "-0.2+i,0.4+1.4i,1.1i,-0.1i,0.3i,0.2,0.1i,-0.1+0.05i,0.1i,0.1,0.2-0.2i,-0.1i"
    cases = [
        (herm2, "0.3+1.2i,1.1i,0.2i,-0.1i,0.2+0.1i,-0.3i", "-0.2+i,1.3i,0.1i,0.3i,0.1,0.2-0.2i"),
        (str(herm3), p1, p1),
        (str(herm3), p1, p2),
    ]
    for spec, q1, q2 in cases:
        outs = []
        for threads in ("1", "4"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "qsiegel.cli", "bergman", spec, f"--p1={q1}", f"--p2={q2}", "--method", "mc",
                 "--samples", "100000", "--seed", "5"],
                capture_output=True,
                env=env,
                check=True,
            )
            outs.append(proc.stdout)
        assert json.loads(outs[0])["method"] == "mc"
        assert outs[0] == outs[1]


def test_parser_built_once_keeps_nothing_between_requests(tmp_path, capsys):
    # one process serves a check, a usage error that sets flags before it
    # fails, and a check with none of those flags: each must read as a fresh
    # process's run of the same command
    spec = write_spec(tmp_path, "sym2", "skew")
    requests = [
        ["check", spec, "--no-scale"],
        ["check", spec, "--no-scale", "--seed", "9", "--samples", "0"],
        ["check", spec],
    ]
    for argv in requests:
        code, out = run_cli(argv, capsys)
        proc = subprocess.run([sys.executable, "-m", "qsiegel.cli", *argv], capture_output=True, text=True)
        assert (code, out) == (proc.returncode, proc.stdout), argv
    assert code == 0 and json.loads(out)["certificates"][1]["metric_scale"] is not None
    assert cli.build_parser() is cli.build_parser()


def test_out_flag_writes_file(tmp_path, capsys):
    spec = write_spec(tmp_path, "heisenberg-rank1", "real")
    target = tmp_path / "report.json"
    code, _ = run_cli(["orbit", spec, "--x", "2", "--out", str(target)], capsys)
    assert code == 0
    assert json.loads(target.read_text())["multiplicity_one"] is True


def test_tol_flag_and_file_override(tmp_path, capsys):
    # at x = (1, 1, 1e-4) the orbit residual of sym2/skew is 1e-4 / sqrt 2, so
    # a tolerance of 1e-4 turns the failing subspace test into a (reported)
    # pass, demonstrating the knob reaches the verdict; defaults stay strict
    spec = write_spec(tmp_path, "sym2", "skew")
    code, out = run_cli(["orbit", spec, "--x", "1,1,1e-4"], capsys)
    rep = json.loads(out)
    assert rep["multiplicity_one"] is False and rep["residual"] == pytest.approx(1e-4 / 2**0.5)
    code, out = run_cli(["orbit", spec, "--x", "1,1,1e-4", "--tol", "1e-4"], capsys)
    rep = json.loads(out)
    assert rep["multiplicity_one"] is True and rep["tol"] == 1e-4

    spec_obj = catalog_get("sym2").spec_dict("skew")
    spec_obj["tolerances"] = {"subspace": 1e-4}
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(spec_obj))
    code, out = run_cli(["orbit", str(path), "--x", "1,1,1e-4"], capsys)
    assert json.loads(out)["multiplicity_one"] is True

    # kernels --tol is the Gram positivity tolerance and keeps its range
    spec = write_spec(tmp_path, "sym2", "frame")
    assert run_cli(["kernels", spec, "--x", "1,1,0", "--points", "3", "--tol", "2"], capsys)[0] == 0
