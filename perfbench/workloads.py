"""Seeded request streams for the benchmark workloads.

Each workload is a fixed list of CLI requests (one "cycle").  The seed
changes the values inside the requests (points, random subspaces, kernel
parameters, the ``--seed`` the CLI gets) but never the mix of request
types and sizes, so cycles of different seeds cost about the same.

Every request carries the data its oracle needs (``expect``), computed here,
outside the timed region.  Spec files are written to the run's work
directory; the program sees only those files and the argv.
"""
import json
import math
import os

import numpy as np

from qsiegel.catalog import catalog_get, catalog_list
from qsiegel.integrals import measure_mass
from qsiegel.kernels import classify_lambda, frame_w_subspace
from qsiegel.representation import standard_model
from qsiegel.subspaces import RealSubspace

SIZES = {
    "rank1": ("rank1", None),
    "diag2": ("diagonal", 2),
    "diag4": ("diagonal", 4),
    "sym2": ("sym_real", 2),
    "sym3": ("sym_real", 3),
    "sym4": ("sym_real", 4),
    "sym5": ("sym_real", 5),
    "sym6": ("sym_real", 6),
    "herm2": ("herm_complex", 2),
    "herm3": ("herm_complex", 3),
    "herm4": ("herm_complex", 4),
}
CATALOG_SIZES = {"heisenberg-rank1": "rank1", "diag2": "diag2", "sym2": "sym2", "herm2": "herm2", "sym3": "sym3"}

BERGMAN_SAMPLES = 200_000
GRAM_POINTS = (20, 60, 120)
GENERATED_SIZES = ("sym4", "sym6", "herm3", "herm4")
W_FAMILIES = ("full", "realform", "frame", "codim1", "random")
WORKLOADS = ("mc", "geometry", "gram", "smoke")
_TAGS = {name: i for i, name in enumerate(WORKLOADS)}


def cone_gamma_ratio(kind, rank):
    """E[f^2] / E[f]^2 for the Bergman MC weight f under its proposal.

    The weight 1/(I(u) I_Q(u)) is a power det(u)^a; with the Gindikin gamma
    function Gamma_Omega(s) = c prod_j Gamma(s - (j-1) d/2) the moments are
    Laplace integrals, and the ratio depends only on (r, d, N/r, a).
    """
    if kind in ("rank1", "diagonal"):
        d, k, a = 0.0, 1.0, 2.0
    elif kind == "sym_real":
        d, k, a = 1.0, (rank + 1) / 2.0, (rank + 3) / 2.0
    else:
        d, k, a = 2.0, float(rank), rank + 1.0

    def lg(s):
        return sum(math.lgamma(s - j * d / 2.0) for j in range(rank))

    return math.exp(lg(2.0 * a + k) + lg(k) - 2.0 * lg(a + k))


def imq_vanishes(kind, n, rows, tol=1e-9):
    """Benchmark-local oracle: Im Q(s, s') = 0 on S = (jW)^perp.

    Q(v, v') pairs with every algebra element X as v'^H X v, so Im Q
    vanishes on S exactly when S^H X S is real for a spanning set of X.
    """
    w = np.array(rows, dtype=float).T
    jmat = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    u, s, _ = np.linalg.svd(jmat @ w, full_matrices=True)
    rank = int(np.sum(s > 1e-9 * s[0])) if s.size else 0
    sc = u[:n, rank:] + 1j * u[n:, rank:]
    if sc.shape[1] == 0:
        return True
    xs = []
    for i in range(n):
        for j in range(i, n if kind in ("sym_real", "herm_complex") else i + 1):
            x = np.zeros((n, n), dtype=complex)
            x[i, j] = x[j, i] = 1.0
            xs.append(x)
            if kind == "herm_complex" and i != j:
                y = np.zeros((n, n), dtype=complex)
                y[i, j], y[j, i] = 1j, -1j
                xs.append(y)
    worst = max(float(np.max(np.abs(np.imag(sc.conj().T @ x @ sc)))) for x in xs)
    return worst <= tol


def _csv(values):
    return ",".join(repr(float(t)) for t in values)


def _cx(values):
    return ",".join(f"{float(t.real)!r}{float(t.imag):+}i" for t in np.atleast_1d(values))


class Stream:
    def __init__(self, workdir, seed, workload):
        self.rng = np.random.default_rng([seed, _TAGS[workload]])
        self.workdir = workdir
        self.requests = []
        self._models = {}

    def model(self, size):
        if size not in self._models:
            self._models[size] = standard_model(*SIZES[size])
        return self._models[size]

    def models(self):
        return sorted({SIZES[r["size"]] for r in self.requests}, key=str)

    def seed(self):
        return int(self.rng.integers(0, 2**31))

    def spec(self, size, rows):
        kind, param = SIZES[size]
        path = os.path.join(self.workdir, f"spec{len(self.requests):03d}.json")
        doc = {"algebra": {"kind": kind, "param": param or 1}, "W": {"basis": [list(map(float, r)) for r in rows]}}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def add(self, command, size, argv, expect):
        alg = self.model(size)[0]
        self.requests.append({"command": command, "size": size, "dim": alg.dim, "argv": argv, "expect": expect})

    # -- subspaces W, as lists of basis rows in (Re v, Im v) coordinates

    def w_family(self, size, family):
        """Basis rows of W and the known verdict (None: ask the Im Q scan)."""
        alg, _, q_map = self.model(size)
        n = q_map.n
        eye = np.eye(2 * n)
        if family == "full":
            return eye, True
        if family == "realform":
            return eye[:n], SIZES[size][0] != "herm_complex"
        if family == "frame":
            frame = alg.standard_frame()
            w, _, _ = frame_w_subspace(alg, q_map, frame[int(self.rng.integers(len(frame)))])
            return w.basis.T, True
        if family == "codim1":
            normal = self.rng.standard_normal(2 * n)
            _, _, vt = np.linalg.svd(normal[None, :])
            return vt[1:], True
        if family == "random":
            q, _ = np.linalg.qr(self.rng.standard_normal((2 * n, n)))
            return q.T, None
        raise ValueError(family)

    def check(self, size, family, extra=()):
        rows, mf = self.w_family(size, family)
        if mf is None:
            mf = imq_vanishes(SIZES[size][0], self.model(size)[2].n, rows)
        path = self.spec(size, rows)
        self.add("check", size, ["check", path, *extra, f"--seed={self.seed()}"],
                 {"mf": bool(mf), "source": family})

    def catalog_check(self, name, variant, extra=()):
        entry = catalog_get(name)
        path = os.path.join(self.workdir, f"spec{len(self.requests):03d}.json")
        with open(path, "w") as fh:
            json.dump(entry.spec_dict(variant), fh)
        self.add("check", CATALOG_SIZES[name], ["check", path, *extra, f"--seed={self.seed()}"],
                 {"mf": bool(entry.variant(variant).expected_mf), "source": f"catalog {name}/{variant}"})

    # -- Bergman requests

    def domain_point(self, size):
        alg, _, q_map = self.model(size)
        v = 0.3 * (self.rng.standard_normal(q_map.n) + 1j * self.rng.standard_normal(q_map.n))
        cone = alg.exp(0.3 * self.rng.standard_normal(alg.dim))
        y = np.real(q_map.q_eval(v, v)) + cone
        return 0.5 * self.rng.standard_normal(alg.dim) + 1j * y, v

    def bergman(self, size, diagonal):
        alg, _, q_map = self.model(size)
        z1, v1 = self.domain_point(size)
        z2, v2 = (z1, v1) if diagonal else self.domain_point(size)
        w = z1 - np.conj(z2) - 2j * q_map.q_eval(v1, v2)
        norm = (2.0 * math.pi) ** alg.dim

        def k_diag(z, v):
            return measure_mass(alg, np.imag(z) - np.real(q_map.q_eval(v, v))) / norm

        expect = {"diagonal": diagonal, "k11": k_diag(z1, v1), "k22": k_diag(z2, v2)}
        argv = ["bergman", self.spec(size, []), f"--p1={_cx(np.concatenate([z1, v1]))}",
                f"--p2={_cx(np.concatenate([z2, v2]))}", f"--seed={self.seed()}"]
        if size == "rank1":
            exact = 4.0 / (math.pi**2 * (-1j * complex(w[0])) ** 3)
            expect["closed_form"] = [exact.real, exact.imag]
        else:
            argv += [f"--samples={BERGMAN_SAMPLES}", "--method=mc"]
            ratio = cone_gamma_ratio(SIZES[size][0], alg.rank)
            k_mid = measure_mass(alg, np.imag(w) / 2.0) / norm
            # closed-form standard error of this estimator (an upper bound off the diagonal)
            expect["se_closed"] = (
                expect["k11"] * math.sqrt((ratio - 1.0) / BERGMAN_SAMPLES) if diagonal
                else k_mid * math.sqrt(ratio / BERGMAN_SAMPLES))
        self.add("bergman", size, argv, expect)

    # -- Gram requests

    def admissible_x(self, size, w_rows):
        """x like criterion 7 of the acceptance suite: interior, or frame
        weights with one weight zero (a boundary point, k > 0 when admissible)."""
        alg, _, q_map = self.model(size)
        w = RealSubspace.from_spanning(np.asarray(w_rows, dtype=float).T)
        frame = alg.standard_frame()
        while True:
            if self.rng.random() < 0.5:
                x = alg.exp(0.6 * self.rng.standard_normal(alg.dim))
            else:
                weights = np.abs(self.rng.standard_normal(len(frame)))
                weights[self.rng.integers(0, len(frame))] = 0.0
                x = sum(wi * ci for wi, ci in zip(weights, frame))
            k = classify_lambda(q_map, w, x)
            if k is not None:
                return x, k, w

    def kernels(self, size, rows, points):
        x, k, w = self.admissible_x(size, rows)
        n = self.model(size)[2].n
        s_dim = 2 * n - w.j_image(n).dim
        argv = ["kernels", self.spec(size, rows), f"--x={_csv(x)}", f"--points={points}", f"--seed={self.seed()}"]
        if s_dim:
            argv.insert(3, f"--chi={_csv(2.0 * self.rng.standard_normal(s_dim))}")
        self.add("kernels", size, argv, {"points": points, "k": k})


def _interleave(a, b):
    out = []
    for i in range(max(len(a), len(b))):
        out += a[i:i + 1] + b[i:i + 1]
    return out


def build(workload, seed, workdir):
    st = Stream(workdir, seed, workload)
    if workload == "mc":
        # A cycle of about 13 s, so a run measures two or three of them.
        # sym5 and sym6 checks (4 s and 10 s) would be single samples that
        # decide a run's figures; MC Bergman stops at herm3, since at sym4
        # and herm4 its true relative error at 2e5 samples is 81% and 917%.
        checks = [("check", s) for s in ("diag4", "sym2", "sym3", "herm2", "sym4", "herm3", "herm4")]
        pairs = [(s, d) for s in ("rank1", "diag4", "sym2", "sym3", "herm2", "herm3") for d in (True, False)]
        for item in _interleave([("bergman", p) for p in pairs], checks):
            if item[0] == "check":
                st.check(item[1], "codim1")
            else:
                st.bergman(*item[1])
    elif workload == "geometry":
        extra = ("--no-scale", "--samples=60")
        catalog = [(name, v.name) for name in catalog_list() for v in catalog_get(name).variants]
        generated = [(size, fam) for fam in W_FAMILIES for size in GENERATED_SIZES]
        for kind, item in _interleave([("c", c) for c in catalog], [("g", g) for g in generated]):
            if kind == "c":
                st.catalog_check(*item, extra=extra)
            else:
                st.check(*item, extra=extra)
    elif workload == "gram":
        specs = [(CATALOG_SIZES[name], [list(b) for b in v.basis])
                 for name in catalog_list() for v in catalog_get(name).variants if v.expected_mf]
        specs += [(size, st.w_family(size, "frame")[0]) for size in GENERATED_SIZES]
        # each spec gets one point count, so a cycle is short enough to repeat
        for i, (size, rows) in enumerate(specs):
            st.kernels(size, rows, GRAM_POINTS[i % len(GRAM_POINTS)])
    elif workload == "smoke":
        st.catalog_check("sym2", "frame")
        st.kernels("sym2", [list(b) for b in catalog_get("sym2").variant("frame").basis], 20)
        st.bergman("sym2", True)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return st
