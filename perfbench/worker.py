"""Closed-loop client for one workload, run in its own process.

Replays a request list through ``qsiegel.cli.main(argv)`` in-process, one
request at a time, and writes latencies, output digests and the first
output of every request to a JSON result file.

    python3 perfbench/worker.py REQUESTS.json RESULT.json

In ``loop`` mode it runs whole passes over the list ("cycles") while another
cycle still fits in the time budget.  In ``trace`` mode it runs one untraced
cycle, installs the span wrappers, and runs one traced cycle.
"""
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def call(cli, argv):
    """One CLI request; returns (latency s, exit code or None, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a failed request is recorded, not fatal
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    error = None if rc == 0 else err.getvalue().strip()
    return time.perf_counter() - t0, rc, out.getvalue(), error


def run_cycle(cli, requests, tracer=None):
    lat, rcs, texts, errors = [], [], [], []
    t0 = time.perf_counter()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        dt, rc, text, error = call(cli, req["argv"])
        lat.append(dt)
        rcs.append(rc)
        texts.append(text)
        errors.append(error)
    return time.perf_counter() - t0, lat, rcs, texts, errors


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv):
    with open(argv[0]) as fh:
        job = json.load(fh)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import qsiegel.cli as cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"qsiegel was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    requests = job["requests"]
    trace = job["mode"] == "trace"
    budget = float(job["seconds"])

    # warm-up: lazy imports and first-call paths of request 0, untimed
    warm = call(cli, requests[0]["argv"])
    result = {"warmup_hash": digest(warm[2]), "cycles": []}

    first = None
    mismatches = []
    start = time.perf_counter()
    while True:
        wall, lat, rcs, texts, errors = run_cycle(cli, requests)
        hashes = [digest(t) for t in texts]
        if first is None:
            first = {"texts": texts, "hashes": hashes, "rcs": rcs, "errors": errors}
        else:
            mismatches += [[len(result["cycles"]), i] for i, h in enumerate(hashes) if h != first["hashes"][i]]
        result["cycles"].append({"wall": wall, "latency": lat, "rc": rcs, "error": errors})
        # one untraced cycle when tracing; else whole cycles while another fits
        if trace or time.perf_counter() - start + wall > budget:
            break

    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer

        tracer = Tracer()
        result["rebound"] = tracer.install()
        wall, lat, rcs, texts, errors = run_cycle(cli, requests, tracer)
        hashes = [digest(t) for t in texts]
        mismatches += [[-1, i] for i, h in enumerate(hashes) if h != first["hashes"][i]]
        result["traced"] = {"wall": wall, "latency": lat, "rc": rcs, "error": errors}
        result["trace"] = tracer.summary(wall)
        tracer.save(job["spans"])

    result.update(first)
    result["mismatches"] = mismatches
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(argv[1], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
