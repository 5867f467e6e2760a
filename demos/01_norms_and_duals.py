#!/usr/bin/env python3
"""Norms, dual norms, and the first-order identity battery.

Walks through the three built-in norm families, evaluates their duals (in
closed form where one exists, by Newton support maximization otherwise),
and tabulates the identities every uniformly elliptic norm must satisfy.
"""

import numpy as np

from finslerkelvin import (
    EuclideanNorm,
    QuarticNorm,
    RiemannianNorm,
    SamplePlan,
    check_ellipticity,
    equivalence_constants,
    run_identity_suite,
)

specs = [
    ("euclidean, N=3", EuclideanNorm(3)),
    ("riemannian diag(4,1)", RiemannianNorm([[4.0, 0.0], [0.0, 1.0]])),
    ("quartic plane norm", QuarticNorm()),
]

print("=== values, gradients, duals ===")
for name, spec in specs:
    x = np.array([1.0, 0.0, 0.0][: spec.dim])
    x[-1] = 0.5
    j = spec.jet(x)
    print(f"{name}:")
    print(f"  H({x.tolist()})  = {j.value:.12f}")
    print(f"  gradH         = {np.array2string(j.gradient, precision=6)}")
    print(f"  H°({x.tolist()}) = {spec.dual_value(x):.12f}")
    c1, c2 = equivalence_constants(spec)
    print(f"  c1 |x| <= H <= c2 |x| with (c1, c2) = ({c1:.6f}, {c2:.6f})")
    print(f"  uniform-convexity constant (sampled): "
          f"{check_ellipticity(spec, 128):.6f}")

print()
print("=== the quartic dual has no closed form: Newton does the work ===")
q = QuarticNorm()
for x in ([1.0, 0.0], [1.0, 1.0], [0.3, -0.7]):
    print(f"  H°({x}) = {q.dual_value(x):.12f}")
print(f"  (H°((1,1)) should equal 2/5^0.25 = {2 * 5**-0.25:.12f})")

print()
print("=== identity suite: worst relative residual per identity ===")
plan = SamplePlan(count=100)
for name, spec in specs:
    rep = run_identity_suite(spec, plan)
    print(f"{name}: pass={rep.passed} (tolerance {rep.tolerance:g})")
    for key, val in rep.details.items():
        if isinstance(val, float):
            print(f"    {key:<28} {val:.3e}")

print()
print("=== biduality: the dual of the dual is the norm again ===")
for name, spec in specs:
    dual = spec.dual()
    x = np.full(spec.dim, 0.8)
    h, hdd = spec.value(x), dual.dual_value(x)
    print(f"{name}: H = {h:.12f}, (H°)° = {hdd:.12f}, "
          f"diff = {abs(h - hdd):.2e}")
