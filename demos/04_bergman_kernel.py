"""Cone integrals and the Bergman kernel, closed forms vs Monte Carlo.

Covers: I(u) and I_Q(u) in closed form against exact values, the Bergman
kernel in closed form (the Gindikin integral) against its importance-sampled
MC estimate, at the base point and at diagonal and off-diagonal pairs (off
the diagonal the MC draws only the Gamma rows of its Bartlett samples and
integrates the normals below them out in closed form), and the closed-form
invariant metric against its MC moment oracle.
"""
import math

import numpy as np

from qsiegel import SiegelPoint, bergman_kernel, bergman_metric_scale, cone_integrals, standard_model

np.set_printoptions(precision=6, suppress=True)

print("=== rank one ===")
alg, rep, q_map = standard_model("rank1")
ci = cone_integrals(alg, q_map, np.array([1.0]))
print(f"I(1) = {ci.i_value}  (exact 1/2);  I_Q(1) = {ci.iq_value}  (exact pi/2 = {math.pi/2:.6f})")

p = SiegelPoint([1j], [0j])
closed = bergman_kernel(alg, q_map, p, p, method="closed")
mc = bergman_kernel(alg, q_map, p, p, samples=200_000, seed=1, method="mc")
print(f"Bergman kernel at ((i,0),(i,0)):")
print(f"  closed form: {closed.value.real:.8f}   exact 1/(2 pi^2) = {1/(2*math.pi**2):.8f}")
print(f"  monte carlo: {mc.value.real:.8f} +- {mc.se:.2e}")

print()
print("=== symmetric 2x2 matrices ===")
alg, rep, q_map = standard_model("sym_real", 2)
ci = cone_integrals(alg, q_map, alg.unit)
print(f"I(e) = {ci.i_value:.6f}  (exact sqrt(2) pi/16 = {math.sqrt(2) * math.pi / 16:.6f})")
print(f"I_Q(e) = {ci.iq_value:.6f}  (exact (pi/2)^2 = {(math.pi / 2) ** 2:.6f})")

base = SiegelPoint(1j * alg.unit, np.zeros(2, dtype=complex))
closed = bergman_kernel(alg, q_map, base, base)
est = bergman_kernel(alg, q_map, base, base, samples=200_000, seed=2, method="mc")
print(f"Bergman kernel at the base point: closed {closed.value.real:.6e}   MC {est.value.real:.6e} +- {est.se:.1e}")

v = np.array([0.2 + 0.1j, -0.3 + 0.4j])
y = np.real(q_map.q_eval(v, v)) + alg.unit
pt = SiegelPoint(1j * y, v)
closed = bergman_kernel(alg, q_map, pt, pt)
est = bergman_kernel(alg, q_map, pt, pt, samples=200_000, seed=3, method="mc")
print(f"Bergman kernel at a diagonal pair: closed {closed.value.real:.6e}   MC {est.value.real:.6e} +- {est.se:.1e}")
pt2 = SiegelPoint(0.3 + 1j * (y + 0.2 * alg.unit), 0.5 * v)
closed = bergman_kernel(alg, q_map, pt, pt2)
est = bergman_kernel(alg, q_map, pt, pt2, samples=200_000, seed=3, method="mc")
print(f"Bergman kernel off the diagonal: closed {closed.value:.6e}   MC (normals integrated out) {est.value:.6e} +- {est.se:.1e}")

print()
print("=== invariant metric at the base point ===")
for kind, param in [("rank1", None), ("sym_real", 2)]:
    alg, rep, q_map = standard_model(kind, param)
    scale, ratios = bergman_metric_scale(alg, q_map, seed=0, samples=150_000)
    print(f"{kind}: closed-form/metric-oracle ratio = {scale:.4f} (per direction: {np.round(ratios, 4)})")
