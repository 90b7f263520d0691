"""Command-line front end producing JSON reports.

Commands: check | kernels | bergman | orbit | catalog.
Exit codes: 0 success (and consistent verdicts), 1 input error,
2 internal inconsistency between certifiers (certifier-disagreement alarm).
"""
import argparse
import json
import sys

import numpy as np

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from . import catalog as _catalog
from .certify import certify_all, check_orbit_multiplicity
from .errors import QSiegelError, SpecFileError, UsageError
from .integrals import bergman_kernel
from .kernels import build_kernel_params, gram_psd_report
from .representation import SiegelPoint, standard_model
from .subspaces import RealSubspace
from .tolerances import TOL_PSD, TOL_RANK, TOL_SUB

SPEC_SCHEMA = {
    "type": "object",
    "required": ["algebra", "W"],
    "properties": {
        "algebra": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["rank1", "diagonal", "sym_real", "herm_complex"]},
                "param": {"type": "integer", "minimum": 1},
                "r": {"type": "integer", "minimum": 1},
                "n": {"type": "integer", "minimum": 1},
            },
        },
        "representation": {
            "type": "object",
            "properties": {"kind": {"enum": ["standard"]}},
        },
        "W": {
            "type": "object",
            "required": ["basis"],
            "properties": {
                "basis": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}}
            },
        },
        "tolerances": {"type": "object"},
        "sampling": {
            "type": "object",
            "properties": {
                "samples": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
    },
}


def load_spec(path):
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecFileError(f"cannot read spec file {path}: {exc}") from exc
    if jsonschema is not None:
        try:
            jsonschema.validate(spec, SPEC_SCHEMA)
        except jsonschema.ValidationError as exc:
            raise SpecFileError(f"spec file failed schema validation: {exc.message}") from exc
    kind = spec["algebra"]["kind"]
    param = spec["algebra"].get("param") or spec["algebra"].get("n") or spec["algebra"].get("r")
    if kind != "rank1" and param is None:
        raise SpecFileError("algebra needs a size parameter (param / n / r)")
    alg, rep, q_map = standard_model(kind, param)
    basis = np.asarray(spec["W"].get("basis", []), dtype=float)
    if basis.size == 0:
        w = RealSubspace.zero(2 * q_map.n)
    else:
        if basis.ndim != 2 or basis.shape[1] != 2 * q_map.n:
            raise SpecFileError(f"W basis vectors must have length {2 * q_map.n}")
        svals = np.linalg.svd(basis.T, compute_uv=False)
        if svals[-1] <= TOL_RANK * svals[0]:
            raise SpecFileError("W basis vectors are linearly dependent at tolerance")
        w = RealSubspace.from_spanning(basis.T)
    sampling = spec.get("sampling", {})
    sampling = dict(sampling)
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


def _parse_point(text, dim_u, n):
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != dim_u + n:
        raise SpecFileError(f"point needs {dim_u}+{n} comma-separated complex entries")
    vals = [complex(t.replace("i", "j")) for t in parts]
    return SiegelPoint(np.array(vals[:dim_u]), np.array(vals[dim_u:]))


def _positive_int(flag):
    """argparse type of a count flag; raises UsageError, so main exits 1 with one line."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = 0
        if value < 1:
            raise UsageError(f"{flag} must be a positive integer, got {text!r}")
        return value

    return parse


def _pairs(values):
    return [[float(np.real(v)), float(np.imag(v))] for v in np.atleast_1d(values)]


def emit(report, out):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(args):
    alg, q_map, w, sampling = load_spec(args.spec)
    seed = args.seed if args.seed is not None else sampling.get("seed", 0)
    samples = args.samples if args.samples is not None else sampling.get("samples", 20)
    tol = args.tol or sampling["tolerances"].get("subspace", TOL_SUB)
    report = certify_all(
        alg,
        q_map,
        w,
        n_coiso=max(1, samples),
        n_orbit=max(50, samples),
        seed=seed,
        compute_scale=not args.no_scale,
        tol=tol,
    )
    emit(report.to_dict(), args.out)
    return 0 if report.consistent else 2


def cmd_kernels(args):
    alg, q_map, w, sampling = load_spec(args.spec)
    seed = args.seed if args.seed is not None else sampling.get("seed", 0)
    x = _parse_reals(args.x, alg.dim, "--x")
    # chi lives on S, the orthocomplement of jW: dim S = 2n - dim W
    chi = _parse_reals(args.chi, 2 * q_map.n - w.dim, "--chi") if args.chi else None
    params = build_kernel_params(q_map, w, x, chi=chi)
    rng = np.random.default_rng([seed, 0x6B])
    points = []
    for _ in range(args.points):
        v = rng.uniform(-2.0, 2.0, size=2 * q_map.n) / np.sqrt(2 * q_map.n)
        vc = v[: q_map.n] + 1j * v[q_map.n :]
        t = rng.uniform(0.2, 5.0)
        x0 = rng.standard_normal(alg.dim)
        y = np.real(q_map.q_eval(vc, vc)) + t * alg.unit
        points.append(SiegelPoint(x0 + 1j * y, vc))
    tol = args.tol or sampling["tolerances"].get("gram_psd", TOL_PSD)
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
    p1 = _parse_point(args.p1, alg.dim, q_map.n)
    p2 = _parse_point(args.p2, alg.dim, q_map.n)
    est = bergman_kernel(alg, q_map, p1, p2, samples=samples, seed=seed, method=args.method)
    emit(
        {
            "value": [float(est.value.real), float(est.value.imag)],
            "se": est.se,
            "method": est.method,
            "samples": est.samples,
            "seed": seed,
            "p1": {"z": _pairs(p1.z), "v": _pairs(p1.v)},
            "p2": {"z": _pairs(p2.z), "v": _pairs(p2.v)},
        },
        args.out,
    )
    return 0


def cmd_orbit(args):
    alg, q_map, w, sampling = load_spec(args.spec)
    x = _parse_reals(args.x, alg.dim, "--x")
    tol = args.tol or sampling["tolerances"].get("subspace", TOL_SUB)
    cert = check_orbit_multiplicity(q_map, w, x, tol=tol)
    emit({"multiplicity_one": bool(cert.verdict), **cert.to_dict()}, args.out)
    return 0


def cmd_catalog(args):
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


def build_parser():
    p = _Parser(prog="qsiegel", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--samples", type=_positive_int("--samples"), default=None)
        sp.add_argument("--tol", type=float, default=None, help="override the decision tolerance")
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("check", help="run and cross-validate all certifiers")
    sp.add_argument("spec")
    sp.add_argument("--no-scale", action="store_true", help="skip the metric-scale estimate")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("kernels", help="Gram PSD report for a kernel parameter")
    sp.add_argument("spec")
    sp.add_argument("--x", required=True, help="comma-separated coordinates in U")
    sp.add_argument("--chi", default=None, help="comma-separated coefficients on S")
    sp.add_argument("--points", type=_positive_int("--points"), default=20)
    common(sp)
    sp.set_defaults(func=cmd_kernels)

    sp = sub.add_parser("bergman", help="Bergman kernel estimate")
    sp.add_argument("spec")
    sp.add_argument("--p1", required=True, help="z,v entries, complex like 2+5i")
    sp.add_argument("--p2", required=True)
    sp.add_argument("--method", default="auto", choices=["auto", "quadrature", "mc"])
    common(sp)
    sp.set_defaults(func=cmd_bergman)

    sp = sub.add_parser("orbit", help="orbit multiplicity certificate at x")
    sp.add_argument("spec")
    sp.add_argument("--x", required=True)
    common(sp)
    sp.set_defaults(func=cmd_orbit)

    sp = sub.add_parser("catalog", help="list or export built-in examples")
    sp.add_argument("--export", default=None)
    sp.add_argument("--variant", default=None)
    common(sp)
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
