"""Fuzz test of the CLI boundary: any spec file and any argv ends in exit 0 or
1, never in an exception escaping ``main`` and never in exit 2, the
certifier-disagreement alarm, which valid input must not raise.

Specs start well-formed (so that most draws reach the certifiers, the kernel
and the Bergman code) and then take a few random mutations: a deleted or extra
key, a value of the wrong type, NaN or inf, a short row.  Algebra sizes stay
at most 3 so that a draw runs fast, except that one spec in ten asks for a
size far above the cap of ``validate_spec``, which must reject it before
building anything.  Fixed examples pin kernel overflow, and sample and point
counts above ``MAX_SAMPLES`` and ``MAX_POINTS`` (a Bergman MC of 1e9 samples,
about 32 GB, and a 100000 x 100000 Gram matrix), to a one-line error.  A run
that exits 0 prints strict JSON: a NaN or an infinity in it is a failure, and
fixed examples pin the closed-form Bergman kernel at Im z of 1e200 and 1e150,
where its value underflows, to exit 0 with a report of 0.0, and points whose
cone part or w overflows, or whose MC prefactor does, to a one-line error.
"""
import contextlib
import io
import json
import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qsiegel.cli import main

KINDS = ("rank1", "diagonal", "sym_real", "herm_complex")

SMALL_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.floats(-4, 4),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=3),
    st.lists(st.integers(-1, 1), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 1), max_size=1),
)
# any float or a JSON integer beyond float range; only placed inside lists,
# never where it could become an algebra size
NUMBER_JUNK = st.one_of(st.floats(), st.integers(-(10**400), 10**400))

FLAG_NUMBERS = ["1", "0", "-1", "0.5", "2", "1e-3", "nan", "inf", "1e300", "abc", ""]
POINT_ENTRIES = ["i", "2i", "1+2i", "0", "0.1", "0.3-0.2i", "1+", "nan", "infj", "x"]


def _reject_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


def _containers(obj):
    yield obj
    children = obj.values() if isinstance(obj, dict) else obj
    for child in children:
        if isinstance(child, (dict, list)):
            yield from _containers(child)


@st.composite
def requests(draw):
    kind = draw(st.sampled_from(KINDS))
    r = 1 if kind == "rank1" else draw(st.integers(1, 3))
    dim = {"rank1": 1, "diagonal": r, "sym_real": r * (r + 1) // 2, "herm_complex": r * r}[kind]
    n = r
    row = st.lists(st.floats(-3, 3), min_size=2 * n, max_size=2 * n)
    spec = {
        "algebra": {"kind": kind, "param": r},
        "W": {"basis": draw(st.lists(row, max_size=2 * n))},
    }
    if draw(st.integers(0, 9)) == 0:
        spec["algebra"]["param"] = draw(st.one_of(st.integers(65, 10**12), st.just(10**400)))
    if draw(st.booleans()):
        spec["representation"] = {"kind": "standard"}
    if draw(st.booleans()):
        spec["tolerances"] = {"subspace": 1e-7, "gram_psd": 1e-8}
    if draw(st.booleans()):
        spec["sampling"] = {"samples": draw(st.integers(1, 4)), "seed": draw(st.integers(0, 2**40))}
    for _ in range(draw(st.integers(0, 2))):
        target = draw(st.sampled_from(list(_containers(spec))))
        if isinstance(target, dict):
            key = draw(st.sampled_from(sorted(target) + ["extra"]))
            if draw(st.booleans()):
                target.pop(key, None)
            else:
                target[key] = draw(SMALL_JUNK)
        elif target and draw(st.booleans()):
            del target[draw(st.integers(0, len(target) - 1))]
        else:
            target.insert(draw(st.integers(0, len(target))), draw(st.one_of(SMALL_JUNK, NUMBER_JUNK)))
    if draw(st.integers(0, 9)) == 0:
        spec = draw(SMALL_JUNK)

    def edited(entries, pool):
        if entries and draw(st.booleans()):
            entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from(pool))
        if entries and draw(st.integers(0, 4)) == 0:
            entries.pop()
        return ",".join(entries)

    def reals(length):
        entries = draw(st.lists(st.sampled_from(FLAG_NUMBERS[:5]), min_size=length, max_size=length))
        return edited(entries, FLAG_NUMBERS)

    def point():
        return edited(["1.5i"] * dim + ["0.1"] * n, POINT_ENTRIES)

    command = draw(st.sampled_from(["check", "kernels", "bergman", "orbit"]))
    argv = {
        "check": ["--no-scale", "--samples", "2"] if draw(st.booleans()) else ["--samples", "2"],
        "kernels": ["--x", reals(dim), "--points", "3"],
        "bergman": ["--p1", point(), "--p2", point(), "--samples", "50"],
        "orbit": ["--x", reals(dim)],
    }[command]
    if command in ("kernels", "bergman") and draw(st.booleans()):
        argv += ["--seed", draw(st.sampled_from(["0", "7", "-1", "x", str(2**70)]))]
    if command != "bergman" and draw(st.booleans()):
        argv += ["--tol", draw(st.sampled_from(FLAG_NUMBERS))]
    if command == "kernels" and draw(st.booleans()):
        argv += ["--chi", reals(draw(st.integers(1, 2 * n)))]
    return spec, command, argv


RANK1_IMAGINARY_LINE = {"algebra": {"kind": "rank1", "param": 1}, "W": {"basis": [[0.0, 1.0]]}}
RANK1_ZERO = {"algebra": {"kind": "rank1"}, "W": {"basis": []}}
DIAG2_ZERO = {"algebra": {"kind": "diagonal", "param": 2}, "W": {"basis": []}}
DIAG64_ZERO = {"algebra": {"kind": "diagonal", "param": 64}, "W": {"basis": []}}
DIAG64_LOW = ",".join(["1e-9i"] * 64 + ["0"] * 64)
SYM2_ZERO = {"algebra": {"kind": "sym_real", "param": 2}, "W": {"basis": []}}
HERM3_ZERO = {"algebra": {"kind": "herm_complex", "param": 3}, "W": {"basis": []}}
DIAG2_LOW_RESIDUALS = {
    "algebra": {"kind": "diagonal", "param": 2},
    "W": {"basis": [[0.0, -0.5204285612664057, -0.04425315390597895, 1.0452748730982826],
                    [0.0, -0.04924808369553002, -0.6447101807898186, 0.0]]},
    "sampling": {"samples": 2, "seed": 3907},
}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(requests())
@example((RANK1_IMAGINARY_LINE, "kernels", ["--x", "1", "--points", "3", "--chi", "1e300"]))
@example((RANK1_IMAGINARY_LINE, "kernels", ["--x", "1", "--points", "3", "--chi", "1e150"]))
# a --tol above the subspace residuals of a W that is not multiplicity-free
# once turned the sampled certifiers to True and not Im Q: exit 2
@example((HERM3_ZERO, "check", ["--no-scale", "--samples", "2", "--tol", "2"]))
@example((DIAG2_LOW_RESIDUALS, "check", ["--samples", "2", "--tol", "0.5"]))
# far out in the domain the closed-form Bergman kernel underflows: it must
# report 0.0, not overflow to NaN
@example((RANK1_IMAGINARY_LINE, "bergman", ["--p1", "1e200i,0", "--p2", "1e200i,0"]))
@example((DIAG2_ZERO, "bergman", ["--p1", "1e150i,1e150i,0,0", "--p2", "1e150i,1e150i,0,0"]))
@example((SYM2_ZERO, "bergman", ["--p1", "1e150i,1e150i,1e150i,0,0", "--p2", "1e150i,1e150i,1e150i,0,0"]))
# a cone part or a w that overflows is a one-line error, and so is a
# Bergman MC whose prefactor lies past the largest double
@example((RANK1_ZERO, "bergman", ["--p1", "1i,1e200", "--p2", "1i,1e200"]))
@example((RANK1_ZERO, "bergman", ["--p1=1e308+1e308i,0", "--p2=-1e308+1e308i,0"]))
@example((RANK1_ZERO, "bergman", ["--p1=1e308+1e308i,0", "--p2=-1e308+1e308i,0", "--method", "mc"]))
@example((DIAG64_ZERO, "bergman", ["--p1", DIAG64_LOW, "--p2", DIAG64_LOW, "--method", "mc", "--samples", "1000"]))
# counts above their bounds are rejected before anything is allocated
@example((RANK1_IMAGINARY_LINE, "kernels", ["--x", "1", "--points", "100000"]))
@example((RANK1_IMAGINARY_LINE, "bergman", ["--p1", "1.5i,0.1", "--p2", "1.5i,0.1", "--method", "mc",
                                            "--samples", "1000000000"]))
@example(({**RANK1_IMAGINARY_LINE, "sampling": {"samples": 10**9}}, "check", ["--no-scale"]))
def test_cli_ends_in_an_exit_code_never_an_exception(tmp_path_factory, case):
    spec, command, argv = case
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"
    path.write_text(json.dumps(spec))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path), *argv])
    assert code in (0, 1)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    if code == 1:
        assert err.getvalue().count("\n") == 1
