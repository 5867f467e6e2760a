"""Acceptance gate: every criterion at its pinned tolerance.

Each test prints a single [PASS]/[FAIL] line (visible with `pytest -s` or on
failure) and asserts the same condition, so the suite doubles as a
machine-checked checklist of the package's external guarantees.
"""

from dataclasses import replace

import numpy as np

from finslerkelvin import (
    EuclideanNorm,
    KelvinContext,
    QuarticNorm,
    RiemannianNorm,
    SamplePlan,
    ScalarField,
    check_fundamental_solution,
    check_proof_identities,
    check_theorem_nlaplace,
    check_theorem_semilinear,
    det_invariant,
    kelvin_inverse,
    kelvin_map,
    manufacture_nlaplace,
    manufacture_semilinear,
    random_spd_matrix,
    reflection_determinant,
    run_counterexample_scan,
    run_identity_suite,
    run_semilinear_suite,
    weak_form_crosscheck,
)
from finslerkelvin.cli import EXIT_PASS, RunConfig, run
from finslerkelvin.verify import QUARTIC_SPREAD_MIN

PLAN = SamplePlan(annulus=(0.5, 2.0), count=100, seed=0)
WIDE_PLAN = SamplePlan(annulus=(0.1, 10.0), count=100, seed=0)


def gate(name: str, worst: float, bound: float, larger_is_better=False) -> None:
    ok = worst >= bound if larger_is_better else worst <= bound
    sign = ">=" if larger_is_better else "<="
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {worst:.3e} {sign} {bound:g}")
    assert ok, f"{name}: {worst!r} violates bound {bound!r}"


def pinned_riemannian(dim: int, seed: int) -> RiemannianNorm:
    return RiemannianNorm(random_spd_matrix(dim, seed=seed))


def identity_specs():
    specs = [(EuclideanNorm(d), 1e-8) for d in (2, 3, 4)]
    for k in range(10):
        specs.append((pinned_riemannian(2 + k % 3, seed=200 + k), 1e-8))
    specs.append((QuarticNorm(), 1e-6))
    return specs


def test_criterion_1_identity_suite():
    worst_closed, worst_numeric = 0.0, 0.0
    for spec, tol in identity_specs():
        rep = run_identity_suite(spec, PLAN)
        assert rep.passed, spec.canonical()
        if tol == 1e-8:
            worst_closed = max(worst_closed, rep.max_rel_residual())
        else:
            worst_numeric = max(worst_numeric, rep.max_rel_residual())
    gate("criterion 1a: identity suite, closed-form norms", worst_closed, 1e-8)
    gate("criterion 1b: identity suite, numeric-dual norm", worst_numeric, 1e-6)


def test_criterion_2_inversion_roundtrip():
    worst_closed, worst_numeric = 0.0, 0.0
    specs = [EuclideanNorm(2), EuclideanNorm(3), pinned_riemannian(3, 210),
             pinned_riemannian(4, 211), QuarticNorm()]
    for spec in specs:
        ctx = KelvinContext(spec)
        pts = WIDE_PLAN.points(spec)
        fwd = kelvin_inverse(ctx, kelvin_map(ctx, pts))
        bwd = kelvin_map(ctx, kelvin_inverse(ctx, pts))
        scale = np.maximum(np.max(np.abs(pts), axis=1), 1.0)
        err = float(max(np.max(np.max(np.abs(fwd - pts), axis=1) / scale),
                        np.max(np.max(np.abs(bwd - pts), axis=1) / scale)))
        if spec.matrix is not None:
            worst_closed = max(worst_closed, err)
        else:
            worst_numeric = max(worst_numeric, err)
    gate("criterion 2a: round trips, closed-form norms", worst_closed, 1e-8)
    gate("criterion 2b: round trips, quartic norm", worst_numeric, 1e-6)


def test_criterion_3_determinant_lemma():
    worst = 0.0
    for dim in (2, 3, 4):
        for k in range(10):
            spec = pinned_riemannian(dim, seed=300 + 10 * dim + k)
            ctx = KelvinContext(spec)
            detm = spec.matrix.det
            for x in PLAN.points(spec):
                worst = max(worst, abs(det_invariant(ctx, x) - detm) / detm)
    gate("criterion 3a: determinant invariant equals det M", worst, 1e-8)

    worst_refl = 0.0
    rng = np.random.default_rng(3)
    for dim in (2, 3, 4):
        for x in rng.standard_normal((34, dim)):
            worst_refl = max(worst_refl,
                             abs(abs(reflection_determinant(x)) - 1.0))
    gate("criterion 3b: reflection-determinant helper", worst_refl, 1e-12)


def test_criterion_4_counterexample():
    rep = run_counterexample_scan()
    gate("criterion 4a: quartic invariant spread", rep.details["spread"],
         QUARTIC_SPREAD_MIN, larger_is_better=True)
    gate("criterion 4b: riemannian control spread",
         rep.details["control_spread"], 1e-8)
    gate("criterion 4c: invariant scale invariance",
         rep.details["scale_invariance_defect"], 1e-10)
    assert rep.passed


def test_criterion_5_semilinear_theorem():
    specs = [EuclideanNorm(3), pinned_riemannian(3, 500),
             pinned_riemannian(3, 501), pinned_riemannian(4, 502)]
    worst = 0.0
    for spec in specs:
        ctx = KelvinContext(spec)
        for family in ("quadratic", "gaussian-bump"):
            prob = manufacture_semilinear(spec, family)
            rep = check_theorem_semilinear(ctx, prob, PLAN)
            worst = max(worst, rep.max_rel_residual())
    gate("criterion 5a: semilinear residual, analytic jets", worst, 1e-5)

    worst_order = np.inf
    for spec in (EuclideanNorm(3), pinned_riemannian(3, 500)):
        rep = run_semilinear_suite(spec, PLAN)
        worst_order = min(worst_order, rep.convergence["order"])
    gate("criterion 5b: numeric-jet convergence order", worst_order, 1.8,
         larger_is_better=True)

    worst_quad = 0.0
    for spec in (EuclideanNorm(3), pinned_riemannian(3, 500)):
        ctx = KelvinContext(spec)
        prob = manufacture_semilinear(spec, "gaussian-bump")
        out = weak_form_crosscheck(ctx, prob)
        worst_quad = max(worst_quad, out["worst"])
    gate("criterion 5c: weak-form quadrature cross-check", worst_quad, 1e-2)


def test_criterion_6_quasilinear_theorem():
    worst_zero = 0.0
    for spec in (EuclideanNorm(3), pinned_riemannian(3, 600)):
        ctx = KelvinContext(spec)
        rep = check_theorem_nlaplace(ctx, manufacture_nlaplace(spec, "affine"), PLAN,
                                     tolerance=1e-5)
        worst_zero = max(worst_zero, rep.max_rel_residual())
    gate("criterion 6a: quasilinear affine zero case", worst_zero, 1e-5)

    worst = 0.0
    for spec in (EuclideanNorm(3), pinned_riemannian(3, 601)):
        ctx = KelvinContext(spec)
        prob = manufacture_nlaplace(spec, "quadratic")
        for p in (prob, replace(prob, u=ScalarField(3, prob.u))):  # analytic, FD
            rep = check_theorem_nlaplace(ctx, p, PLAN)
            worst = max(worst, rep.max_rel_residual())
    gate("criterion 6b: quasilinear quadratic residual", worst, 1e-4)


def test_criterion_7_fundamental_solution():
    worst = 0.0
    for dim in (3, 4):
        for k in range(5):
            spec = pinned_riemannian(dim, seed=700 + 10 * dim + k)
            rep = check_fundamental_solution(KelvinContext(spec), PLAN)
            worst = max(worst, rep.max_rel_residual())
    gate("criterion 7: dual-harmonicity of H^(2-N)", worst, 1e-6)


def test_criterion_8_proof_identities():
    worst = 0.0
    for dim, seed in ((2, 800), (3, 801), (4, 802)):
        rep = check_proof_identities(KelvinContext(pinned_riemannian(dim, seed)),
                                     PLAN)
        worst = max(worst, rep.details["norm_transport"],
                    rep.details["gradient_transport"])
    gate("criterion 8: proof transport identities", worst, 1e-8)


def test_criterion_9_byte_identical_reports(tmp_path):
    paths = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
    for path, threads in zip(paths, (1, 1, 4)):
        config = RunConfig(norm="euclidean:3", suite="all", out=str(path),
                           threads=threads)
        assert run(config) == EXIT_PASS
    blobs = [p.read_bytes() for p in paths]
    same = blobs[0] == blobs[1] == blobs[2]
    print(f"[{'PASS' if same else 'FAIL'}] criterion 9: byte-identical reports "
          f"across runs and thread counts")
    assert same
