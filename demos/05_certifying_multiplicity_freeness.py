"""Cross-validated certificates for the multiplicity-freeness conditions.

For every built-in example domain and every subspace variant, three
independent procedures are run and compared:

  1. the algebraic scan of Im Q on S,
  2. coisotropy of group orbits for the invariant metric at sampled cone points,
  3. the coadjoint-orbit multiplicity condition at the inverses of those points.

The three conditions are provably equivalent; any
disagreement would be an alarm (exit code 2 in the CLI).
"""
import numpy as np

from qsiegel import SiegelPoint, certify_all, check_orthocomplement_identity
from qsiegel.catalog import catalog_get, catalog_list

print(f"{'entry':20s} {'variant':12s} {'imq':>6s} {'coiso':>6s} {'orbit':>6s} {'mf':>6s}")
print("-" * 64)
for name in catalog_list():
    entry = catalog_get(name)
    alg, rep, q_map = entry.model()
    for var in entry.variants:
        w = var.subspace(q_map.n)
        report = certify_all(alg, q_map, w, samples=25, seed=0)
        imq, coiso, orbit = (c.verdict for c in report.certificates)
        flag = "" if report.consistent and report.mf == var.expected_mf else "  <-- ALARM"
        print(
            f"{name:20s} {var.name:12s} {str(imq):>6s} {str(coiso):>6s} "
            f"{str(orbit):>6s} {str(report.mf):>6s}{flag}"
        )

print()
print("orthocomplement identity at 10 domain points (multiplicity-free entries):")
rng = np.random.default_rng(1)
for name, var in [("heisenberg-rank1", "real"), ("diag2", "phase"), ("sym2", "frame"), ("herm2", "frame")]:
    entry = catalog_get(name)
    alg, rep, q_map = entry.model()
    w = entry.variant(var).subspace(q_map.n)
    # (x0 + i(Q(v, v) + y), v) with y in the cone lies in the domain
    v = rng.standard_normal((10, q_map.n)) + 1j * rng.standard_normal((10, q_map.n))
    y = np.real(q_map.q_eval(v, v)) + alg.exp(0.7 * rng.standard_normal((10, alg.dim)))
    points = SiegelPoint(rng.standard_normal((10, alg.dim)) + 1j * y, v)
    cert = check_orthocomplement_identity(alg, q_map, w, points)
    print(f"  {name}/{var}: max subspace distance {cert.residual:.2e}")

print()
print("witness for a failing entry (herm2, real form):")
entry = catalog_get("herm2")
alg, rep, q_map = entry.model()
report = certify_all(alg, q_map, entry.variant("realform").subspace(2), samples=16, seed=0)
imq_cert = report.certificates[0]
print("  residual:", imq_cert.residual)
print("  witness pair s1, s2 with Im Q(s1, s2) != 0:")
print("   s1 =", imq_cert.witness["s1"])
print("   s2 =", imq_cert.witness["s2"])
