"""In-memory span recorder and the wrappers that time calls into qsiegel.

Wrappers are installed from the benchmark's own files, so the program under
test carries no tracing code.  Functions are patched on their module, and
every other qsiegel module that imported them with ``from .x import f`` is
rebound to the wrapper; methods are patched on their class.

A span is (function, start, end, parent span, request id).  Spans are held
in flat arrays while the traced cycle runs and are written out at the end.
A span's self time is its duration minus the durations of its direct
children (calls are nested and single-threaded, so children never overlap).
"""
import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (layer, module, class or None, function); the order fixes the function ids
WRAPPED = [
    ("cli", "qsiegel.cli", None, "load_spec"),
    ("cli", "qsiegel.cli", None, "emit"),
    ("jordan", "qsiegel.jordan", None, "make_algebra"),
    ("jordan", "qsiegel.jordan", "EuclideanJordanAlgebra", "spectral_decompose"),
    ("jordan", "qsiegel.jordan", "EuclideanJordanAlgebra", "mult_exp"),
    ("jordan", "qsiegel.jordan", "EuclideanJordanAlgebra", "spectral_map"),
    ("jordan", "qsiegel.jordan", "EuclideanJordanAlgebra", "cone_contains"),
    ("representation", "qsiegel.representation", None, "standard_model"),
    ("representation", "qsiegel.representation", "HermitianMapQ", "transport_to_base"),
    ("representation", "qsiegel.representation", "HermitianMapQ", "orbit_tangent"),
    ("representation", "qsiegel.representation", "HermitianMapQ", "q_eval"),
    ("subspaces", "qsiegel.subspaces", "RealSubspace", "from_spanning"),
    ("subspaces", "qsiegel.subspaces", None, "complement_wrt"),
    ("subspaces", "qsiegel.subspaces", "RealSubspace", "intersect"),
    ("subspaces", "qsiegel.subspaces", None, "derive_spaces"),
    ("subspaces", "qsiegel.subspaces", "DerivedSpaces", "split_p_s"),
    ("kernels", "qsiegel.kernels", None, "classify_lambda"),
    ("kernels", "qsiegel.kernels", None, "build_kernel_params"),
    ("kernels", "qsiegel.kernels", None, "eval_kernel"),
    ("kernels", "qsiegel.kernels", None, "gram_psd_report"),
    ("integrals", "qsiegel.integrals", None, "sample_invariant_measure"),
    ("integrals", "qsiegel.integrals", None, "sample_cone_exponential"),
    ("integrals", "qsiegel.integrals", None, "base_measure_moments"),
    ("integrals", "qsiegel.integrals", None, "bergman_kernel"),
    ("integrals", "qsiegel.integrals", None, "cone_laplace"),
    ("certify", "qsiegel.certify", None, "certify_all"),
    ("certify", "qsiegel.certify", None, "check_imq_vanishes"),
    ("certify", "qsiegel.certify", None, "check_coisotropic"),
    ("certify", "qsiegel.certify", None, "check_orbit_multiplicity"),
    ("certify", "qsiegel.certify", None, "bergman_metric_scale"),
    ("certify", "qsiegel.certify", None, "base_metric"),
]

LAYERS = ["cli", "jordan", "representation", "subspaces", "kernels", "integrals", "certify"]
SAMPLERS = ("sample_invariant_measure", "sample_cone_exponential")


def label(entry):
    return f"{entry[0]}.{entry[3]}"


def metric_names():
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for entry in WRAPPED:
        names += [f"{label(entry)}.calls", f"{label(entry)}.self_s"]
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.share"]
    names += [
        "integrals.ns_per_sample",
        "integrals.bergman_s_to_1pct",
        "integrals.bergman_max_z_reported",
        "kernels.split_useful_ratio",
        "certify.base_metric_useful_ratio",
        "trace.overhead_ratio",
        "trace.uncovered_share",
    ]
    return names


def metric_units():
    """name -> (unit, better) for every per-layer metric."""
    special = {
        "integrals.ns_per_sample": ("ns", "lower"),
        "integrals.bergman_s_to_1pct": ("s", "lower"),
        "integrals.bergman_max_z_reported": ("se", "lower"),
        "kernels.split_useful_ratio": ("ratio", "higher"),
        "certify.base_metric_useful_ratio": ("ratio", "higher"),
    }
    suffix = {"calls": ("count", "lower"), "self_s": ("s", "lower")}
    return {name: special.get(name) or suffix.get(name.rsplit(".", 1)[1], ("ratio", "lower"))
            for name in metric_names()}


class Tracer:
    def __init__(self):
        self.request = -1
        self.fid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.req = array("i")
        self.stack = []
        self.samples = 0
        self.split_points = set()

    def wrap(self, fid, func, capture=None):
        fids, starts, ends, parents, reqs, stack = (
            self.fid, self.start, self.end, self.parent, self.req, self.stack)
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            reqs.append(self.request)
            ends.append(0.0)
            starts.append(0.0)
            stack.append(idx)
            if capture is not None:
                capture(args, kwargs)
            starts[idx] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _count_samples(self, args, kwargs):
        self.samples += int(args[2] if len(args) > 2 else kwargs["count"])

    def _note_split_point(self, args, kwargs):
        v = args[1] if len(args) > 1 else kwargs["v"]
        self.split_points.add((self.request, np.asarray(v).tobytes()))

    def install(self):
        """Patch every function in WRAPPED; returns the number of rebindings."""
        rebound = 0
        originals = []
        for fid, (_, modname, owner, name) in enumerate(WRAPPED):
            mod = importlib.import_module(modname)
            capture = None
            if name in SAMPLERS:
                capture = self._count_samples
            elif name == "split_p_s":
                capture = self._note_split_point
            if owner is not None:
                cls = getattr(mod, owner)
                raw = cls.__dict__[name]
                if isinstance(raw, classmethod):
                    originals.append(raw.__func__)
                    setattr(cls, name, classmethod(self.wrap(fid, raw.__func__, capture)))
                else:
                    originals.append(raw)
                    setattr(cls, name, self.wrap(fid, raw, capture))
                rebound += 1
                continue
            orig = getattr(mod, name)
            originals.append(orig)
            wrapped = self.wrap(fid, orig, capture)
            for m in _qsiegel_modules():
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
                        rebound += 1
        # no qsiegel module may keep a reference that bypasses the wrappers
        for m in _qsiegel_modules():
            for attr, val in vars(m).items():
                if any(val is o for o in originals):
                    raise RuntimeError(f"{m.__name__}.{attr} still refers to an unwrapped function")
        return rebound

    def spans(self):
        return {
            "fid": np.frombuffer(self.fid, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.req, dtype=np.int32).copy(),
        }

    def save(self, path):
        np.savez(path, functions=np.array([label(e) for e in WRAPPED]), **self.spans())

    def summary(self, traced_wall):
        """Calls, self times and layer shares from the recorded spans."""
        s = self.spans()
        nf = len(WRAPPED)
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child
        calls = np.bincount(s["fid"], minlength=nf)
        self_s = np.bincount(s["fid"], weights=self_t, minlength=nf)
        covered = float(np.sum(dur[~has_parent]))
        out = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for fid, entry in enumerate(WRAPPED):
            out[f"{label(entry)}.calls"] = int(calls[fid])
            out[f"{label(entry)}.self_s"] = float(self_s[fid])
            layer_self[entry[0]] += float(self_s[fid])
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
            out[f"{layer}.share"] = layer_self[layer] / traced_wall
        sampler_s = sum(out[f"integrals.{name}.self_s"] for name in SAMPLERS)
        out["integrals.ns_per_sample"] = 1e9 * sampler_s / self.samples if self.samples else 0.0
        split_calls = out["subspaces.split_p_s.calls"]
        out["kernels.split_useful_ratio"] = len(self.split_points) / split_calls if split_calls else 0.0
        bm_calls = out["certify.base_metric.calls"]
        out["certify.base_metric_useful_ratio"] = (
            out["certify.certify_all.calls"] / bm_calls if bm_calls else 0.0)
        out["trace.uncovered_share"] = 1.0 - covered / traced_wall
        out["trace.spans"] = int(dur.size)
        return out


def _qsiegel_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qsiegel" or name.startswith("qsiegel."))]
