#!/usr/bin/env python3
"""Manufactured solutions and the two transform theorems as residual checks.

Picks smooth fields u, derives their sources exactly from the analytic
jets, pushes everything through the inversion map, and verifies that the
transformed field solves the dual equation pointwise:

  weighted pullback:  -div(H°(grad û) gradH°(grad û)) = (f o T) / H^(N+2)
  plain pullback:     -div(H°^(N-1)(grad u*) gradH°(grad u*)) = (g o T) / H^(2N)
"""

from dataclasses import replace

from finslerkelvin import (
    EuclideanNorm,
    KelvinContext,
    RiemannianNorm,
    SamplePlan,
    ScalarField,
    check_fundamental_solution,
    check_theorem_nlaplace,
    check_theorem_semilinear,
    manufacture_nlaplace,
    manufacture_semilinear,
    random_spd_matrix,
    run_semilinear_suite,
    weak_form_crosscheck,
)

plan = SamplePlan(annulus=(0.5, 2.0), count=100)

print("=== semilinear transform theorem ===")
for label, spec in [("euclidean N=3", EuclideanNorm(3)),
                    ("riemannian N=3", RiemannianNorm(random_spd_matrix(3, seed=1))),
                    ("riemannian N=4", RiemannianNorm(random_spd_matrix(4, seed=2)))]:
    ctx = KelvinContext(spec)
    for family in ("quadratic", "gaussian-bump"):
        rep = check_theorem_semilinear(ctx, manufacture_semilinear(spec, family),
                                       plan)
        print(f"  {label:<15} {family:<14} max rel residual "
              f"{rep.max_rel_residual():.3e}  (analytic jets)")

print()
print("=== the same residual through finite-difference jets ===")
# a u with values only has no analytic jet, so the check takes FD jets
spec = RiemannianNorm(random_spd_matrix(3, seed=1))
ctx = KelvinContext(spec)
prob = manufacture_semilinear(spec, "quadratic")
rep = check_theorem_semilinear(ctx, replace(prob, u=ScalarField(3, prob.u)), plan)
print(f"  max rel residual {rep.max_rel_residual():.3e} with Richardson jets "
      f"(jet path: {rep.details['jet_path']})")
convergence = run_semilinear_suite(spec, plan).convergence
print(f"  step-refinement study: steps {convergence['steps']}")
print(f"  residuals {[f'{r:.2e}' for r in convergence['max_residuals']]}")
print(f"  fitted order {convergence['order']:.3f} (second-order stencils)")

print()
print("=== independent route: midpoint quadrature of the weak identity ===")
out = weak_form_crosscheck(ctx, manufacture_semilinear(spec, "gaussian-bump"))
print(f"  {out['boxes']} bump test functions on a {out['grid']}^3 grid: "
      f"worst mismatch {out['worst']:.2e}")

print()
print("=== quasilinear (dimension-tied) transform theorem ===")
for label, spec in [("euclidean N=3", EuclideanNorm(3)),
                    ("riemannian N=3", RiemannianNorm(random_spd_matrix(3, seed=3)))]:
    ctx = KelvinContext(spec)
    prob = manufacture_nlaplace(spec, "quadratic")
    rep = check_theorem_nlaplace(ctx, replace(prob, u=ScalarField(3, prob.u)), plan)
    print(f"  {label:<15} quadratic u: max rel residual "
          f"{rep.max_rel_residual():.3e} (FD jets), "
          f"flagged points {rep.flagged_count()}")
    rep0 = check_theorem_nlaplace(ctx, manufacture_nlaplace(spec, "affine"), plan)
    print(f"  {label:<15} affine u:    max residual "
          f"{rep0.max_rel_residual():.3e} (both sides exactly zero)")

print()
print("=== the weight that makes it all work: H^(2-N) is dual-harmonic ===")
for dim in (3, 4):
    spec = RiemannianNorm(random_spd_matrix(dim, seed=dim))
    rep = check_fundamental_solution(KelvinContext(spec), plan)
    print(f"  N={dim}: max |dual operator of H^(2-N)| = "
          f"{rep.max_rel_residual():.3e}")
