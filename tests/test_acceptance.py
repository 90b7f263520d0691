"""Acceptance suite: one test per criterion, each printing a PASS line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""
import json
import math

import numpy as np
import pytest

from qsiegel import (
    RealSubspace,
    SiegelPoint,
    bergman_kernel,
    bergman_metric_scale,
    build_kernel_params,
    certify_all,
    check_orthocomplement_identity,
    classify_lambda,
    complement_wrt,
    gram_psd_report,
    invariant_kernel_raw,
    frame_scalar_check,
    make_algebra,
    standard_model,
)
from qsiegel import creal
from qsiegel.catalog import catalog_get, catalog_list
from qsiegel.kernels import frame_w_subspace

from conftest import distinguished_points, sample_points, unstack

ALGS = [("diagonal", 2), ("diagonal", 3), ("sym_real", 2), ("sym_real", 3), ("herm_complex", 2)]

MF_VARIANTS = []
ALL_VARIANTS = []
for _name in catalog_list():
    _entry = catalog_get(_name)
    for _var in _entry.variants:
        ALL_VARIANTS.append((_name, _var.name))
        if _var.expected_mf:
            MF_VARIANTS.append((_name, _var.name))


def _model_and_w(name, var):
    entry = catalog_get(name)
    alg, _, q_map = entry.model()
    return alg, q_map, entry.variant(var).subspace(q_map.n)


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_jordan_axioms():
    for kind, param in ALGS:
        alg = make_algebra(kind, param)
        rng = np.random.default_rng(100)
        for _ in range(100):
            a, b, c = (rng.standard_normal(alg.dim) for _ in range(3))
            scale = math.prod(1.0 + np.linalg.norm(t) for t in (a, b, c))
            assert np.linalg.norm(alg.mult(a, b) - alg.mult(b, a)) <= 1e-9 * scale
            a2 = alg.mult(a, a)
            jordan = alg.mult(a, alg.mult(a2, b)) - alg.mult(a2, alg.mult(a, b))
            assert np.linalg.norm(jordan) <= 1e-9 * scale * (1 + np.linalg.norm(a) ** 2)
            assoc = np.dot(alg.mult(a, b), c) - np.dot(b, alg.mult(a, c))
            assert abs(assoc) <= 1e-9 * scale
            ta, tb, tc = alg.left_mult(a), alg.left_mult(b), alg.left_mult(c)
            tbc = alg.left_mult(alg.mult(b, c))
            tca = alg.left_mult(alg.mult(c, a))
            tab = alg.left_mult(alg.mult(a, b))
            comm = (
                ta @ tbc - tbc @ ta + tb @ tca - tca @ tb + tc @ tab - tab @ tc
            )
            assert np.linalg.norm(comm) <= 1e-9 * scale
    _report(1, "Jordan axioms on 100 samples per built-in algebra at 1e-9")


def test_criterion_2_spectral_suite():
    for kind, param in ALGS:
        alg = make_algebra(kind, param)
        rng = np.random.default_rng(200)
        for _ in range(100):
            x = rng.standard_normal(alg.dim)
            dec = alg.spectral_decompose(x)
            assert np.linalg.norm(dec.reconstruct() - x) <= 1e-8 * (1 + np.linalg.norm(x))
            assert np.linalg.norm(sum(dec.idempotents) - alg.unit) <= 1e-8
            for i, ci in enumerate(dec.idempotents):
                assert np.linalg.norm(alg.mult(ci, ci) - ci) <= 1e-8
                for cj in dec.idempotents[i + 1 :]:
                    assert np.linalg.norm(alg.mult(ci, cj)) <= 1e-8
            det_spec = float(np.prod(dec.eigenvalues**dec.multiplicities))
            if alg.kind == "diagonal":
                det_mat = float(np.prod(x))
            else:
                det_mat = float(np.real(np.linalg.det(np.asarray(alg.to_matrix(x)))))
            assert det_spec == pytest.approx(det_mat, abs=1e-8 * (1 + abs(det_mat)))
            p = alg.quad_rep(x)
            s = np.linalg.svd(p, compute_uv=False)
            if s[-1] > 1e-7 * s[0]:
                cond = s[0] / s[-1]
                xinv = alg.invert(x)
                assert np.linalg.norm(alg.mult(x, xinv) - alg.unit) <= 1e-8 * cond
    _report(2, "spectral reconstruction, idempotents, determinant and inversion at 1e-8")


def test_criterion_3_triple_complement():
    for kind, param in [("rank1", None)] + ALGS[:4]:
        alg, _, q_map = standard_model(kind, param)
        rng = np.random.default_rng(300)
        n2 = 2 * q_map.n
        for _ in range(100):
            w = RealSubspace.from_spanning(rng.standard_normal((n2, int(rng.integers(0, n2 + 1)))))
            x = rng.standard_normal(alg.dim)
            base = rng.standard_normal(alg.dim)
            dec = alg.spectral_decompose(base)
            signs = rng.choice([-1.0, 1.0], size=len(dec.idempotents))
            y = sum(
                s * np.exp(np.clip(l, -1.0, 1.0)) * c
                for s, l, c in zip(signs, dec.eigenvalues, dec.idempotents)
            )
            gx = q_map.g_matrix(x)
            lhs = complement_wrt(gx, complement_wrt(q_map.g_matrix(y), complement_wrt(gx, w)))
            rhs = complement_wrt(q_map.g_matrix(alg.quad_rep(x) @ alg.invert(y)), w)
            assert lhs.distance(rhs) <= 1e-7
    _report(3, "triple complement identity on 100 random (W, x, y) per model at 1e-7")


def test_criterion_4_propagation():
    for name, var in MF_VARIANTS:
        alg, q_map, w = _model_and_w(name, var)
        rng = np.random.default_rng(400)
        for _ in range(50):
            x = rng.standard_normal(alg.dim)
            comp = complement_wrt(q_map.g_matrix(x), w)
            for i in range(comp.dim):
                a = creal.re_to_cx(comp.basis[:, i])
                for j in range(i, comp.dim):
                    b = creal.re_to_cx(comp.basis[:, j])
                    assert abs(np.dot(x, np.imag(q_map.q_eval(a, b)))) <= 1e-8
    _report(4, "vanishing propagates to all parameters on MF entries at 1e-8")


def test_criterion_5_certifier_equivalence():
    assert len(ALL_VARIANTS) >= 6
    seen = set()
    for name, var in ALL_VARIANTS:
        alg, q_map, w = _model_and_w(name, var)
        report = certify_all(alg, q_map, w, samples=50, seed=11)
        assert report.consistent, f"certifiers disagree on {name}/{var}"
        expected = catalog_get(name).variant(var).expected_mf
        assert report.mf == expected, f"{name}/{var}"
        seen.add(report.mf)
    assert seen == {True, False}
    _report(5, f"all three certifiers agree on {len(ALL_VARIANTS)} catalog variants")


def test_criterion_5_inconsistency_raises_alarm_exit_code(tmp_path, capsys, monkeypatch):
    # the exit-2 wiring: a (synthetic) disagreement must map to exit code 2
    import qsiegel.cli as cli
    from qsiegel.certify import Certificate, CombinedReport

    fake = CombinedReport(
        [Certificate("imq_vanishes", True, 0.0, 1e-10)], consistent=False, mf=None
    )
    monkeypatch.setattr(cli, "certify_all", lambda *a, **k: fake)
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps(catalog_get("heisenberg-rank1").spec_dict("real")))
    assert cli.main(["check", str(spec), "--no-scale"]) == 2
    capsys.readouterr()
    _report(5, "synthetic certifier disagreement maps to exit code 2")


def test_criterion_6_orthocomplement_identity():
    for name, var in MF_VARIANTS:
        alg, q_map, w = _model_and_w(name, var)
        for points in (distinguished_points(alg, q_map, w, 20, 6), sample_points(q_map, alg, 20, 6)):
            cert = check_orthocomplement_identity(alg, q_map, w, points)
            assert cert.residual <= 1e-7, f"{name}/{var}: {cert.residual:.2e}"
    _report(6, "orthocomplement equality at 20 distinguished and 20 general points per MF entry at 1e-7")


def _sample_admissible(alg, q_map, w, rng, count):
    xs = []
    frame = alg.standard_frame()
    while len(xs) < count:
        roll = rng.random()
        if roll < 0.7:
            x = alg.exp(0.6 * rng.standard_normal(alg.dim))
        else:
            weights = np.abs(rng.standard_normal(len(frame)))
            weights[rng.integers(0, len(frame))] = 0.0
            x = sum(wi * ci for wi, ci in zip(weights, frame))
        if classify_lambda(q_map, w, x) is not None:
            xs.append(x)
    return xs


def test_criterion_7_kernel_positivity():
    for name, var in MF_VARIANTS:
        alg, q_map, w = _model_and_w(name, var)
        rng = np.random.default_rng(700)
        s_dim = w.j_image(q_map.n).perp().dim
        for i, x in enumerate(_sample_admissible(alg, q_map, w, rng, 20)):
            chi = 2.0 * rng.standard_normal(s_dim) if s_dim else np.zeros(0)
            params = build_kernel_params(q_map, w, x, chi=chi)
            rep = gram_psd_report(params, sample_points(q_map, alg, 20, seed=1000 + i))
            assert rep.min_eigenvalue >= -1e-8 * max(1.0, rep.matrix_norm), f"{name}/{var}"

    # negative control: an inadmissible parameter defeats positivity
    alg, _, q_map = standard_model("diagonal", 2)
    x_bad = np.array([1.0, -1.0])
    assert classify_lambda(q_map, RealSubspace.full(4), x_bad) is None
    found = False
    for trial in range(100):
        pts = unstack(sample_points(q_map, alg, 5, seed=2000 + trial))
        g = np.array([[invariant_kernel_raw(q_map, x_bad, a, b) for b in pts] for a in pts])
        vals = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
        if vals[0] < -1e-8 * max(1.0, np.max(np.abs(vals))):
            found = True
            break
    assert found
    _report(7, "20x20 Gram matrices PSD on MF entries; negative control found")


def test_criterion_8_frame_scalar_reduction():
    alg, _, q_map = standard_model("sym_real", 2)
    e1 = alg.standard_frame()[0]
    worked = frame_scalar_check(
        alg, q_map, e1, alg.from_matrix(np.array([[2.0, 1.0], [1.0, 1.0]])), n_samples=100, seed=8
    )
    assert worked.scalar == pytest.approx(1.0, abs=1e-10)
    assert worked.scalar_deviation <= 1e-8

    rng = np.random.default_rng(800)
    peirce = alg.peirce_system(e1)
    checked = 0
    while checked < 20:
        if rng.random() < 0.6:
            x = alg.exp(0.6 * rng.standard_normal(alg.dim))
        else:
            z = peirce.p0 @ rng.standard_normal(alg.dim)
            x0 = alg.mult(z, z)
            x1 = abs(rng.standard_normal()) * e1
            y = peirce.p_half @ rng.standard_normal(alg.dim)
            x = x1 + 2.0 * alg.mult(y, x0) + x0
        try:
            rep = frame_scalar_check(alg, q_map, e1, x, n_samples=100, seed=9)
        except Exception:
            continue
        assert rep.scalar_deviation <= 1e-8
        checked += 1
    _report(8, "scalar reduction |h(s, A_x conj s) - c h(s, conj s)| <= 1e-8 on 20 parameters")


def test_criterion_9_bergman_oracle_and_metric_scale():
    alg, _, q_map = standard_model("rank1")
    p = SiegelPoint([1j], [0j])
    exact = 1.0 / (2.0 * math.pi**2)
    mc = bergman_kernel(alg, q_map, p, p, samples=1_000_000, seed=9, method="mc")
    assert abs(mc.value - exact) <= 0.02 * exact
    assert abs(mc.value - exact) <= 3.0 * mc.se
    closed = bergman_kernel(alg, q_map, p, p, method="closed")
    assert closed.value.real == pytest.approx(exact, rel=1e-8)

    scales = [bergman_metric_scale(alg, q_map, seed=s, samples=400_000)[0] for s in range(5)]
    spread = (max(scales) - min(scales)) / np.mean(scales)
    assert spread <= 0.01, f"metric scale spread {spread:.3%}"
    _report(
        9,
        f"Bergman MC {mc.value.real:.6f} vs 1/(2*pi^2) = {exact:.6f} "
        f"(se {mc.se:.2e}); metric scale spread {spread:.3%} over 5 seeds",
    )


def test_criterion_10_determinism(tmp_path):
    import subprocess
    import sys
    import os

    # sym2 frame, and herm4 frame with the metric scale: its verdict path runs
    # through eigh of complex Hermitian matrices.  The geometry path: a random,
    # not multiplicity-free W at sym4 without the scale, whose 60 samples per
    # certifier run through the stacked transports, spans and complements
    alg, _, q_map = standard_model("herm_complex", 4)
    w_herm4, _, _ = frame_w_subspace(alg, q_map, alg.standard_frame()[0])
    w_sym4 = np.random.default_rng(1010).standard_normal((5, 8))
    specs = {
        "sym2": (catalog_get("sym2").spec_dict("frame", samples=8, seed=3), []),
        "herm4": (
            {
                "algebra": {"kind": "herm_complex", "param": 4},
                "W": {"basis": w_herm4.basis.T.tolist()},
                "sampling": {"samples": 8, "seed": 3},
            },
            [],
        ),
        "sym4": (
            {"algebra": {"kind": "sym_real", "param": 4}, "W": {"basis": w_sym4.tolist()}},
            ["--no-scale", "--samples", "60"],
        ),
    }
    for name, (spec, flags) in specs.items():
        spec_path = tmp_path / f"{name}.json"
        spec_path.write_text(json.dumps(spec))
        outs = []
        for threads in ("1", "4"):
            env = dict(
                os.environ,
                OMP_NUM_THREADS=threads,
                OPENBLAS_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads,
            )
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "qsiegel.cli", "check", str(spec_path), "--seed", "3", *flags],
                    capture_output=True,
                    env=env,
                    check=True,
                )
                outs.append(proc.stdout)
        assert all(o == outs[0] for o in outs[1:]), name
        report = json.loads(outs[0])
        if flags:
            assert report["mf"] is False and report["certificates"][1]["samples"] == 60
        else:
            assert report["certificates"][1]["metric_scale"] is not None
    _report(10, "byte-identical certificates across repeated runs and thread counts (sym2, herm4, sym4)")
