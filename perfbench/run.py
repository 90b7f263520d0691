"""Benchmark of the qsiegel CLI: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload mc --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Workloads: ``mc``, ``geometry``, ``gram`` (see
``perfbench/README.md``) and ``smoke``, a three-request configuration for the
benchmark's own tests.

With ``--trace 0`` the run measures end-to-end metrics: set-up time over
cold interpreters, then closed-loop cycles over the request stream in a
worker process, for as many whole cycles as fit in ``--seconds``.  With
``--trace 1`` the worker runs one untraced and one traced cycle, and the
run reports per-layer metrics.  Every output is checked by an oracle and
hashed; the last stdout line is one JSON object with the result.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
DEADLINE_S = 170.0
SETUP_RUNS = {"mc": 5, "geometry": 5, "gram": 5, "smoke": 2}
BLAS_THREADS = 1

END_TO_END = {
    "latency_p50_ms": "ms",
    "small_p50_ms": "ms",
    "large_p50_ms": "ms",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SMALL_DIM, LARGE_DIM = 6, 9

SETUP_CODE = """
import sys
import qsiegel.cli
from qsiegel.representation import standard_model
for kind, param in {models!r}:
    standard_model(kind, param)
sys.stdout.write(qsiegel.cli.__file__)
"""


def child_env():
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS=str(BLAS_THREADS),
        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
        MKL_NUM_THREADS=str(BLAS_THREADS),
    )
    return env


def setup_time(models, runs, env):
    """Median wall time of fresh interpreters that import the CLI and build the models."""
    code = SETUP_CODE.format(models=[list(m) for m in models])
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or not proc.stdout.startswith(str(ROOT / "src")):
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip() or proc.stdout}")
    return statistics.median(times), times


def source_digest():
    """Hash of the program's and the benchmark's sources: outputs are
    compared across runs only when both are unchanged."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digest_store(key, value):
    """Compare with an earlier run of the same workload, seed and source; record ours."""
    store = WORK / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    previous = known.get(key)
    known[key] = value
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return previous is None or previous == value, previous


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def median_ms(values):
    """Harrell-Davis estimate of the median, in ms; 0 for an empty size class
    (only the smoke stream has one).

    A weighted mean of all order statistics with Beta((n+1)/2, (n+1)/2)
    weights.  It moves continuously when requests of different types swap
    places, where the sample median jumps across the gap between the types.
    """
    if not values:
        return 0.0
    import numpy as np
    from scipy.special import betainc

    x = np.sort(values)
    a = (x.size + 1) / 2.0
    weights = np.diff(betainc(a, a, np.arange(x.size + 1) / x.size))
    return 1000.0 * float(np.dot(weights, x))


def bergman_figures(requests, texts, latencies, reasons):
    """bergman_s_to_1pct for one cycle and the largest |z| in reported se."""
    from oracles import bergman_stats

    total, zmax = 0.0, 0.0
    for req, text, lat, reason in zip(requests, texts, latencies, reasons):
        if req["command"] != "bergman" or "se_closed" not in req["expect"] or reason:
            continue
        rel, z = bergman_stats(req, text)
        total += lat * (rel / 0.01) ** 2
        if z is not None:
            zmax = max(zmax, abs(z))
    return total, zmax


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["mc", "geometry", "gram", "smoke"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    t_begin = time.perf_counter()

    if not (ROOT / "src" / "qsiegel" / "cli.py").is_file():
        print(f"error: no qsiegel source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads
    from oracles import verify

    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        stream = workloads.build(args.workload, args.seed, str(run_dir))
        requests = stream.requests
        env = child_env()
        setup = None
        if not args.trace:
            setup, setup_all = setup_time(stream.models(), SETUP_RUNS[args.workload], env)

        mode = "trace" if args.trace else "loop"
        spans_path = WORK / f"spans-{args.workload}-s{args.seed}.npz"
        job = {"root": str(ROOT), "mode": mode, "seconds": args.seconds,
               "requests": [{"argv": r["argv"]} for r in requests], "spans": str(spans_path)}
        job_path, result_path = run_dir / "job.json", run_dir / "result.json"
        job_path.write_text(json.dumps(job))
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
                                env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            _, worker_err = proc.communicate(timeout=max(1.0, DEADLINE_S - (time.perf_counter() - t_begin)))
        except subprocess.TimeoutExpired:
            print("error: worker exceeded the run deadline", file=sys.stderr)
            return 1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}: {worker_err.strip()}", file=sys.stderr)
            return 1
        res = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # oracles: outputs are deterministic, so each request is judged once
    reasons = [verify(req, rc, text, err) for req, rc, text, err
               in zip(requests, res["rcs"], res["texts"], res["errors"])]
    executions = list(res["cycles"]) + ([res["traced"]] if "traced" in res else [])
    bad = {(c, i) for c, i in res["mismatches"]}
    if res["warmup_hash"] != res["hashes"][0]:
        bad.add((0, 0))
    attempted = failed = 0
    for c, cyc in enumerate(executions):
        tag = -1 if "traced" in res and c == len(executions) - 1 else c
        for i, rc in enumerate(cyc["rc"]):
            attempted += 1
            ok = rc == 0 and reasons[i] is None and (tag, i) not in bad
            failed += not ok
            cyc.setdefault("ok", []).append(ok)

    digest = hashlib.sha256("".join(res["hashes"]).encode()).hexdigest()
    store_ok, previous = check_digest_store(f"{args.workload}:{args.seed}:{source_digest()}", digest)
    correct = failed == 0 and store_ok

    cyc0 = res["cycles"][0]
    s_to_1pct, zmax = bergman_figures(requests, res["texts"], cyc0["latency"], reasons)
    env_info = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(requests)} requests per cycle, "
          f"{len(res['cycles'])} untraced cycle(s), closed loop, 1 client")
    print("environment " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    print("cycle walls " + " ".join(f"{c['wall']:.3f}" for c in executions) + " s")
    print(f"output digest {digest}" + ("" if store_ok else f" DIFFERS from earlier run {previous}"))
    boundary = sum(1 for r in requests if r["command"] == "kernels" and r["expect"]["k"] > 0)
    if boundary:
        print(f"{boundary} kernels request(s) with a boundary x (k > 0)")
    for i, reason in enumerate(reasons):
        if reason:
            print(f"FAILED request {i} ({requests[i]['command']} {requests[i]['size']}): {reason}")
    for i, req in enumerate(requests):
        lats = [cyc["latency"][i] for cyc in res["cycles"]]
        print(f"  request {i:3d} {req['command']:8s} {req['size']:6s} N={req['dim']:<3d} "
              f"median {median_ms(lats):10.2f} ms")
    for c, i in sorted(bad):
        print(f"NONDETERMINISTIC output of request {i} in cycle {c}")

    if args.trace:
        tr = res["trace"]
        tr["trace.overhead_ratio"] = res["traced"]["wall"] / cyc0["wall"] - 1.0
        tr["integrals.bergman_s_to_1pct"] = s_to_1pct
        tr["integrals.bergman_max_z_reported"] = zmax
        print(f"traced cycle {res['traced']['wall']:.3f} s vs untraced {cyc0['wall']:.3f} s, "
              f"{tr['trace.spans']} spans, {res['rebound']} rebindings")
        units = tracing.metric_units()
        metrics = {name: {"value": tr[name], "unit": units[name][0]} for name in tracing.metric_names()}
    else:
        # medians over cycles, so that one cycle in a slow phase of the host
        # does not decide the run: each request's latency is its median over
        # the cycles in which it succeeded, and throughput is the median rate
        per_request = []
        for i, req in enumerate(requests):
            lats = [cyc["latency"][i] for cyc in res["cycles"] if cyc["ok"][i]]
            if lats:
                per_request.append((statistics.median(lats), req["dim"]))
        values = {
            "latency_p50_ms": median_ms([lat for lat, _ in per_request]),
            "small_p50_ms": median_ms([lat for lat, d in per_request if d <= SMALL_DIM]),
            "large_p50_ms": median_ms([lat for lat, d in per_request if d >= LARGE_DIM]),
            "requests_per_s": statistics.median(sum(cyc["ok"]) / cyc["wall"] for cyc in res["cycles"]),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
            "setup_s": setup,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        samples = sum(sum(cyc["ok"]) for cyc in res["cycles"])
        print(f"latency samples {samples} over {len(per_request)} requests; "
              f"set-up runs {', '.join(f'{t:.3f}' for t in setup_all)} s")
        if s_to_1pct:
            print(f"bergman_s_to_1pct {s_to_1pct:.6g} s (cycle 1); largest |z| in reported se {zmax:.3f}")
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted})")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, allow_nan=False))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the cleanup that stops the worker


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
