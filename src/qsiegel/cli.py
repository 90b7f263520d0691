"""Command-line front end producing JSON reports.

Commands: check | kernels | bergman | orbit | catalog.
Exit codes: 0 success (and consistent verdicts), 1 input error,
2 internal inconsistency between certifiers (certifier-disagreement alarm).
"""
import argparse
import functools
import json
import math
import reprlib
import sys

import numpy as np

from . import catalog as _catalog
from .certify import certify_all, check_orbit_multiplicity
from .creal import pairs, re_to_cx
from .errors import NonFiniteValue, QSiegelError, SpecFileError, UsageError
from .integrals import bergman_kernel
from .jordan import algebra_dim
from .kernels import build_kernel_params, gram_psd_report
from .representation import SiegelPoint, standard_model
from .subspaces import RealSubspace
from .tolerances import TOL_PSD, TOL_SUB


def _finite(value):
    """A JSON number that is a finite float; booleans and ints beyond float range are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _integer_in(low, high=math.inf):
    # JSON-Schema's "integer": an integral float such as 2.0 counts, a boolean does not
    def test(value):
        integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
        return integral and not isinstance(value, bool) and low <= value <= high

    return test, f"an integer >= {low}" if high == math.inf else f"an integer in [{low}, {high}]"


def _is_basis(value):
    return isinstance(value, list) and all(
        isinstance(row, list) and all(_finite(t) for t in row) for row in value
    )


_KINDS = ("rank1", "diagonal", "sym_real", "herm_complex")
# largest algebra dimension N a spec may ask for; see the README for its cost
MAX_ALGEBRA_DIM = 64
# largest sample count (--samples, sampling.samples) and number of Gram points
# (--points); the README gives what each costs at N = MAX_ALGEBRA_DIM
MAX_SAMPLES = 250_000
MAX_POINTS = 1000
# largest number of paired points of check (--samples, and sampling.samples
# as its default): one pair decides a verdict almost surely, more buy margin, and
# at N = MAX_ALGEBRA_DIM each costs milliseconds
MAX_CHECK_SAMPLES = 1000
_SAMPLES = _integer_in(1, MAX_SAMPLES)
_CHECK_SAMPLES = _integer_in(1, MAX_CHECK_SAMPLES)
_POINTS = _integer_in(1, MAX_POINTS)
_SEED = _integer_in(0)
_POSITIVE_FINITE = (lambda value: _finite(value) and value > 0, "a positive finite number")
# largest subspace tolerance (--tol of check and orbit, tolerances.subspace), a
# rounding allowance: one that reaches the residuals of a W that is not
# multiplicity-free raises the exit-2 alarm without a disagreement (see the README)
MAX_SUBSPACE_TOL = 1e-3
_SUBSPACE_TOL = (
    lambda value: _finite(value) and 0 < value <= MAX_SUBSPACE_TOL,
    f"a number in (0, {MAX_SUBSPACE_TOL:g}]",
)

# section -> ({key: (test, what the value must be)}, required keys); these
# sections are the only top-level keys of a spec, and "algebra" and "W" are required
_SPEC_FIELDS = {
    "algebra": (
        {
            "kind": (lambda value: value in _KINDS, "one of " + ", ".join(_KINDS)),
            "param": _integer_in(1),
            "r": _integer_in(1),
            "n": _integer_in(1),
        },
        ("kind",),
    ),
    "representation": ({"kind": (lambda value: value == "standard", "'standard'")}, ()),
    "W": ({"basis": (_is_basis, "a list of lists of finite numbers")}, ("basis",)),
    "tolerances": ({"subspace": _SUBSPACE_TOL, "gram_psd": _POSITIVE_FINITE}, ()),
    "sampling": ({"samples": _SAMPLES, "seed": _SEED}, ()),
}


def _check_object(obj, where, allowed, required):
    if not isinstance(obj, dict):
        raise SpecFileError(f"invalid spec: {where} must be an object, got {reprlib.repr(obj)}")
    for key in obj:
        if key not in allowed:
            raise SpecFileError(
                f"invalid spec: unknown key {key!r} in {where}; expected one of {', '.join(allowed)}"
            )
    for key in required:
        if key not in obj:
            raise SpecFileError(f"invalid spec: {where} needs the key {key!r}")


def validate_spec(spec):
    """Raise a one-line SpecFileError unless ``spec`` is a valid spec document.

    Checks types, ranges, finiteness and known keys at every level, and the
    algebra dimension against MAX_ALGEBRA_DIM; the lengths of the W basis
    rows need the algebra and are checked by load_spec.
    """
    _check_object(spec, "the spec", _SPEC_FIELDS, ("algebra", "W"))
    for section, (fields, required) in _SPEC_FIELDS.items():
        if section not in spec:
            continue
        _check_object(spec[section], section, fields, required)
        for key, value in spec[section].items():
            test, what = fields[key]
            if not test(value):
                raise SpecFileError(f"invalid spec: {section}.{key} must be {what}, got {reprlib.repr(value)}")
    algebra = spec["algebra"]
    sizes = {algebra[key] for key in ("param", "n", "r") if key in algebra}
    if algebra["kind"] != "rank1" and not sizes:
        raise SpecFileError("invalid spec: algebra needs a size parameter (param / n / r)")
    if len(sizes) > 1:
        raise SpecFileError(f"invalid spec: algebra size keys param / n / r disagree: {reprlib.repr(sorted(sizes))}")
    dim = algebra_dim(algebra["kind"], _size_param(algebra))
    if dim > MAX_ALGEBRA_DIM:
        raise SpecFileError(
            f"invalid spec: algebra {algebra['kind']} {reprlib.repr(_size_param(algebra))} has "
            f"dimension N = {reprlib.repr(dim)}, above the bound {MAX_ALGEBRA_DIM}"
        )


def _size_param(algebra):
    return algebra.get("param") or algebra.get("n") or algebra.get("r")


def load_spec(path):
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise SpecFileError(f"cannot read spec file {path}: {exc}") from exc
    validate_spec(spec)
    algebra = spec["algebra"]
    alg, rep, q_map = standard_model(algebra["kind"], _size_param(algebra))
    rows = spec["W"]["basis"]
    if not any(rows):  # no rows, or only empty ones: W = 0
        w = RealSubspace.zero(2 * q_map.n)
    else:
        if any(len(row) != 2 * q_map.n for row in rows):
            raise SpecFileError(f"W basis vectors must have length {2 * q_map.n}")
        w = RealSubspace.from_spanning(np.array(rows, dtype=float).T)
        if w.dim < len(rows):
            raise SpecFileError("W basis vectors are linearly dependent at tolerance")
    sampling = {key: int(value) for key, value in spec.get("sampling", {}).items()}
    sampling["tolerances"] = spec.get("tolerances", {})
    return alg, q_map, w, sampling


def _parse_reals(text, length, flag):
    """Comma-separated finite reals of the given length; raises UsageError."""
    try:
        values = np.array([float(t) for t in text.split(",")], dtype=float)
    except ValueError:
        raise UsageError(f"{flag} needs comma-separated numbers, got {text!r}") from None
    if values.shape != (length,):
        raise UsageError(f"{flag} needs {length} comma-separated entries, got {values.size}")
    if not np.all(np.isfinite(values)):
        raise UsageError(f"{flag} entries must be finite, got {text!r}")
    return values


def _parse_point(text, dim_u, n, flag):
    """Comma-separated finite complex entries (z then v, ``2+5i`` style); raises UsageError."""
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != dim_u + n:
        raise UsageError(f"{flag} needs {dim_u}+{n} comma-separated complex entries, got {len(parts)}")
    try:
        vals = np.array([complex(t.replace("i", "j")) for t in parts])
    except ValueError:
        raise UsageError(f"{flag} needs complex numbers like 2+5i, got {text!r}") from None
    if not np.all(np.isfinite(vals)):
        raise UsageError(f"{flag} entries must be finite, got {text!r}")
    return SiegelPoint(vals[:dim_u], vals[dim_u:])


def _flag(flag, rule, convert):
    """argparse type of a flag read by ``convert`` (int or float) under the
    (test, what) rule of the value it sets; raises UsageError, so main exits 1
    with one line."""
    test, what = rule

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not test(value):
            raise UsageError(f"{flag} must be {what}, got {text!r}")
        return value

    return parse


def emit(report, out):
    """Write the report as JSON; a NaN or inf in it, which JSON cannot hold,
    raises NonFiniteValue before anything is written."""
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise NonFiniteValue("the report has a value that is not a finite number (NaN or inf)") from None
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(args):
    alg, q_map, w, sampling = load_spec(args.spec)
    seed = args.seed if args.seed is not None else sampling.get("seed", 0)
    samples = args.samples if args.samples is not None else sampling.get("samples", 20)
    if samples > MAX_CHECK_SAMPLES:
        raise UsageError(f"sampling.samples of check must be at most {MAX_CHECK_SAMPLES}, got {samples}")
    tol = args.tol if args.tol is not None else sampling["tolerances"].get("subspace", TOL_SUB)
    report = certify_all(alg, q_map, w, samples=samples, seed=seed, compute_scale=not args.no_scale, tol=tol)
    emit(report.to_dict(), args.out)
    return 0 if report.consistent else 2


def cmd_kernels(args):
    alg, q_map, w, sampling = load_spec(args.spec)
    seed = args.seed if args.seed is not None else sampling.get("seed", 0)
    x = _parse_reals(args.x, alg.dim, "--x")
    # chi lives on S, the orthocomplement of jW: dim S = 2n - dim W
    chi = _parse_reals(args.chi, 2 * q_map.n - w.dim, "--chi") if args.chi else None
    params = build_kernel_params(q_map, w, x, chi=chi)
    # the point stack from three draws, in the order the kernels module documents
    rng = np.random.default_rng([seed, 0x6B])
    m = args.points
    v = re_to_cx(rng.uniform(-2.0, 2.0, size=(m, 2 * q_map.n)) / np.sqrt(2 * q_map.n))
    t = rng.uniform(0.2, 5.0, size=m)
    x0 = rng.standard_normal((m, alg.dim))
    points = SiegelPoint(x0 + 1j * (np.real(q_map.q_eval(v, v)) + t[:, None] * alg.unit), v)
    tol = args.tol if args.tol is not None else sampling["tolerances"].get("gram_psd", TOL_PSD)
    rep = gram_psd_report(params, points, tol=tol)
    emit(
        {
            "verdict": "PSD" if rep.psd else "NOT_PSD",
            "min_eigenvalue": rep.min_eigenvalue,
            "matrix_norm": rep.matrix_norm,
            "points": rep.n_points,
            "k": params.k,
            "x": [float(t) for t in x],
            "chi": [float(t) for t in params.chi],
            "seed": seed,
        },
        args.out,
    )
    return 0


def cmd_bergman(args):
    alg, q_map, w, sampling = load_spec(args.spec)
    seed = args.seed if args.seed is not None else sampling.get("seed", 0)
    samples = args.samples if args.samples is not None else sampling.get("samples", 200_000)
    p1 = _parse_point(args.p1, alg.dim, q_map.n, "--p1")
    p2 = _parse_point(args.p2, alg.dim, q_map.n, "--p2")
    est = bergman_kernel(alg, q_map, p1, p2, samples=samples, seed=seed, method=args.method)
    emit(
        {
            "value": [float(est.value.real), float(est.value.imag)],
            "se": est.se,
            "method": est.method,
            "samples": est.samples,
            "seed": seed,
            "p1": {"z": pairs(p1.z), "v": pairs(p1.v)},
            "p2": {"z": pairs(p2.z), "v": pairs(p2.v)},
        },
        args.out,
    )
    return 0


def cmd_orbit(args):
    alg, q_map, w, sampling = load_spec(args.spec)
    x = _parse_reals(args.x, alg.dim, "--x")
    tol = args.tol if args.tol is not None else sampling["tolerances"].get("subspace", TOL_SUB)
    cert = check_orbit_multiplicity(q_map, w, x, tol=tol)
    emit({"multiplicity_one": bool(cert.verdict), **cert.to_dict()}, args.out)
    return 0


def cmd_catalog(args):
    if args.variant is not None and not args.export:
        raise UsageError("catalog: --variant needs --export")
    if args.export:
        entry = _catalog.catalog_get(args.export)
        if args.variant:
            emit(entry.spec_dict(args.variant), args.out)
        else:
            emit(
                {
                    "name": entry.name,
                    "variants": {
                        v.name: {"expected_mf": v.expected_mf, "note": v.note, "basis": [list(b) for b in v.basis]}
                        for v in entry.variants
                    },
                },
                args.out,
            )
    else:
        emit(
            {
                name: [v.name for v in _catalog.catalog_get(name).variants]
                for name in _catalog.catalog_list()
            },
            args.out,
        )
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises UsageError on a usage error, so it exits 1 and not argparse's 2,
    the code of the certifier-disagreement alarm."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache  # built once per process: parse_args keeps no state in it
def build_parser():
    p = _Parser(prog="qsiegel", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def options(sp, *flags, tol_rule=None, samples_rule=_SAMPLES):
        # --out, and those of --seed, --samples and --tol that the command reads
        if "--seed" in flags:
            sp.add_argument("--seed", type=_flag("--seed", _SEED, int), default=None)
        if "--samples" in flags:
            sp.add_argument("--samples", type=_flag("--samples", samples_rule, int), default=None, help=samples_rule[1])
        if tol_rule is not None:
            sp.add_argument(
                "--tol", type=_flag("--tol", tol_rule, float), default=None, help=f"override the decision tolerance, {tol_rule[1]}"
            )
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("check", help="run and cross-validate all certifiers")
    sp.add_argument("spec")
    sp.add_argument("--no-scale", action="store_true", help="omit the metric-scale identity check")
    options(sp, "--seed", "--samples", tol_rule=_SUBSPACE_TOL, samples_rule=_CHECK_SAMPLES)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("kernels", help="Gram PSD report for a kernel parameter")
    sp.add_argument("spec")
    sp.add_argument("--x", required=True, help="comma-separated coordinates in U")
    sp.add_argument("--chi", default=None, help="comma-separated coefficients on S")
    sp.add_argument("--points", type=_flag("--points", _POINTS, int), default=20, help=_POINTS[1])
    options(sp, "--seed", tol_rule=_POSITIVE_FINITE)
    sp.set_defaults(func=cmd_kernels)

    sp = sub.add_parser("bergman", help="Bergman kernel estimate")
    sp.add_argument("spec")
    sp.add_argument("--p1", required=True, help="z,v entries, complex like 2+5i")
    sp.add_argument("--p2", required=True)
    sp.add_argument("--method", default="closed", choices=["closed", "mc"])
    options(sp, "--seed", "--samples")
    sp.set_defaults(func=cmd_bergman)

    sp = sub.add_parser("orbit", help="orbit multiplicity certificate at x")
    sp.add_argument("spec")
    sp.add_argument("--x", required=True)
    options(sp, tol_rule=_SUBSPACE_TOL)
    sp.set_defaults(func=cmd_orbit)

    sp = sub.add_parser("catalog", help="list or export built-in examples")
    sp.add_argument("--export", default=None)
    sp.add_argument("--variant", default=None)
    options(sp)
    sp.set_defaults(func=cmd_catalog)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except QSiegelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
