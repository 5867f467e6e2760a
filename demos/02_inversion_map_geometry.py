#!/usr/bin/env python3
"""Geometry of the anisotropic inversion map T(x) = gradH(x)/H(x).

Shows the inverse being the dual norm's own inversion map, the Jacobian
determinant law H^(2N) |det DT| = det M for quadratic-form norms, and the
quartic norm breaking that law with a factor-of-two swing.
"""

import numpy as np

from finslerkelvin import (
    EuclideanNorm,
    KelvinContext,
    QuarticNorm,
    RiemannianNorm,
    det_invariant,
    jacobian_det,
    jacobian_matrix,
    kelvin_inverse,
    kelvin_map,
    random_spd_matrix,
    run_counterexample_scan,
)

print("=== classical inversion is the euclidean special case ===")
ce = KelvinContext(EuclideanNorm(2))
x = np.array([3.0, 4.0])
print(f"T({x.tolist()}) = {kelvin_map(ce, x).tolist()}   (x/|x|^2 = [0.12, 0.16])")
print(f"T^-1(T(x))    = {kelvin_inverse(ce, kelvin_map(ce, x)).tolist()}")

print()
print("=== riemannian norms: closed-form jacobian and constant invariant ===")
spec = RiemannianNorm(random_spd_matrix(3, seed=1))
ctx = KelvinContext(spec)
print(f"matrix M (det {spec.matrix.det:.6f}):")
print(np.array2string(spec.matrix.entries, precision=4))
for radius in (0.3, 1.0, 5.0):
    y = radius * np.array([0.6, -0.7, 0.4])
    print(f"  H^(2N) |det DT| at |scale| {radius:>4}: "
          f"{det_invariant(ctx, y):.12f}")
y = np.array([0.9, 0.2, -0.5])
dt = jacobian_matrix(ctx, y)
print(f"  |det DT| = {jacobian_det(ctx, y):.3e}, "
      f"signed = {np.linalg.det(dt):.3e} "
      f"(the map reverses orientation radially)")
print(f"  round trip error: "
      f"{np.max(np.abs(kelvin_inverse(ctx, kelvin_map(ctx, y)) - y)):.2e}")

print()
print("=== the quartic norm: same construction, non-constant invariant ===")
cq = KelvinContext(QuarticNorm())
for theta_deg in (0, 15, 30, 45, 60, 90):
    theta = np.radians(theta_deg)
    d = np.array([np.cos(theta), np.sin(theta)])
    print(f"  direction {theta_deg:>2} deg: H^4 |det DT| = "
          f"{det_invariant(cq, d):.9f}")
print("  (3/2 on the axes, 3/4 on the diagonals)")

print()
print("=== the scan that separates the two worlds ===")
rep = run_counterexample_scan()
print(f"quartic sweep: spread = {rep.details['spread']:.6f} "
      f">= floor {rep.details['spread_floor']}  -> pass={rep.passed}")
rep = run_counterexample_scan(RiemannianNorm([[4.0, 0.0], [0.0, 1.0]]))
print(f"riemannian sweep: spread = {rep.details['spread']:.2e} "
      f"-> pass={rep.passed} ({rep.details['message']})")
