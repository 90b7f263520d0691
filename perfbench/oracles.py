"""Correctness oracles for CLI outputs.

None of them uses ``catalog.oracle_expected_mf``: check verdicts are compared
with the catalog's frozen ``expected_mf``, with the known MF families, or
with the benchmark's own Im Q scan (``workloads.imq_vanishes``).
"""
import json
import math


def verify(request, rc, text, error):
    """Reason the request failed, or None when its output is correct."""
    if rc != 0:
        return f"exit code {rc}: {error}"
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    expect = request["expect"]
    command = request["command"]
    if command == "check":
        if out["consistent"] is not True:
            return "certifiers disagree"
        if out["mf"] != expect["mf"]:
            return f"mf = {out['mf']}, expected {expect['mf']} ({expect['source']})"
    elif command == "kernels":
        if out["verdict"] != "PSD":
            return f"Gram verdict {out['verdict']} for an admissible parameter"
        if out["points"] != expect["points"]:
            return f"{out['points']} points, expected {expect['points']}"
    elif command == "bergman":
        value = complex(*out["value"])
        if "closed_form" in expect:
            exact = complex(*expect["closed_form"])
            if abs(value - exact) > 1e-8 * abs(exact):
                return f"rank-one value {value} differs from 4/(pi^2 (-i w)^3) = {exact}"
            return None
        tol = 4.0 * max(out["se"], expect["se_closed"])
        if expect["diagonal"]:
            if abs(value - expect["k11"]) > tol:
                return f"K(p, p) = {value}, closed form {expect['k11']}, 4 se = {tol}"
        elif abs(value) > math.sqrt(expect["k11"] * expect["k22"]) + tol:
            return f"|K(p1, p2)| = {abs(value)} above sqrt(K11 K22) + 4 se"
    return None


def bergman_stats(request, text):
    """(relative se, z of the estimate in reported se) for an MC Bergman output.

    The relative se is taken against sqrt(K(p1,p1) K(p2,p2)) from the closed
    form, so a near-zero off-diagonal value does not blow it up; z is None
    off the diagonal.
    """
    out = json.loads(text)
    expect = request["expect"]
    rel = out["se"] / math.sqrt(expect["k11"] * expect["k22"])
    z = (out["value"][0] - expect["k11"]) / out["se"] if expect["diagonal"] else None
    return rel, z
