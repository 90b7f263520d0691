"""Extremal invariant reproducing kernels and their positivity.

Covers: admissibility classification of parameters, kernel evaluation and
its invariance, Gram matrix positivity, the coherent-state kernel on P, and
the scalar reduction of A_x for the frame-based subspace.
"""
import numpy as np

from qsiegel import (
    GroupElement,
    SiegelPoint,
    build_kernel_params,
    classify_lambda,
    eval_kernel,
    fock_kernel,
    gram_psd_report,
    frame_scalar_check,
    standard_model,
)
from qsiegel.catalog import catalog_get

np.set_printoptions(precision=6, suppress=True)

print("=== rank one: U = R, V = C, W = R ===")
alg, rep, q_map = standard_model("rank1")
w = catalog_get("heisenberg-rank1").variant("real").subspace(1)
params = build_kernel_params(q_map, w, np.array([1.0]))
p0 = SiegelPoint([1j], [0j])
print("L((i,0),(i,0)) =", eval_kernel(params, p0, p0), "= exp(-2) =", np.exp(-2))

p1 = SiegelPoint([2j], [1j])
print("L((2i,i),(2i,i)) =", eval_kernel(params, p1, p1), "= exp(-6) =", np.exp(-6))

g = GroupElement([0.4], [0.7 + 0j])
print(
    "invariance under the group over W:",
    np.isclose(eval_kernel(params, q_map.group_act(g, p0), q_map.group_act(g, p1)),
               eval_kernel(params, p0, p1)),
)

print()
print("=== admissibility strata on the diagonal algebra, W = V ===")
alg, rep, q_map = standard_model("diagonal", 2)
from qsiegel import RealSubspace

wv = RealSubspace.full(4)
for x in ([2.0, 3.0], [1.0, 0.0], [0.0, 0.0], [1.0, -1.0]):
    print(f"  x = {x}: k = {classify_lambda(q_map, wv, np.array(x))}")

print()
print("=== Gram positivity for the frame-based subspace on Sym(2, R) ===")
entry = catalog_get("sym2")
alg, rep, q_map = entry.model()
w = entry.variant("frame").subspace(2)
rng = np.random.default_rng(0)
x = alg.exp(0.5 * rng.standard_normal(3))
params = build_kernel_params(q_map, w, x, chi=np.array([0.8]))
# one SiegelPoint holds the 15 points as a stack: z is 15 x 3 and v is 15 x 2
v = 0.7 * (rng.standard_normal((15, 2)) + 1j * rng.standard_normal((15, 2)))
y = np.real(q_map.q_eval(v, v)) + alg.exp(0.4 * rng.standard_normal((15, 3)))
points = SiegelPoint(rng.standard_normal((15, 3)) + 1j * y, v)
report = gram_psd_report(params, points)
print(f"  15x15 Gram: min eigenvalue {report.min_eigenvalue:.3e}, PSD = {report.psd}")

print()
print("=== the coherent-state kernel on P and the scalar form of A_x ===")
print("Fock kernel value exp(2<x,Q(q,q')>) at q = q' = e1, x = e:",
      fock_kernel(q_map, alg.unit, [1.0 + 0j, 0j], [1.0 + 0j, 0j]))
e1 = alg.standard_frame()[0]
xw = alg.from_matrix(np.array([[2.0, 1.0], [1.0, 1.0]]))
rep8 = frame_scalar_check(alg, q_map, e1, xw)
print(f"worked parameter: scalar c = {rep8.scalar:.6f} "
      f"(solve residual {rep8.solve_residual:.1e}, deviation {rep8.scalar_deviation:.1e})")
