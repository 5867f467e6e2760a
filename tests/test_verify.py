"""Sample plans, manufactured problems, and the residual suites."""

import math

import numpy as np
import pytest

from finslerkelvin import (
    EuclideanNorm,
    KelvinContext,
    ManufacturedProblem,
    QuarticNorm,
    RiemannianNorm,
    SamplePlan,
    ScalarField,
    anisotropic_laplacian,
    check_fundamental_solution,
    check_proof_identities,
    check_theorem_nlaplace,
    check_theorem_semilinear,
    constant_field,
    dual_norm,
    dual_spec,
    equivalence_constants,
    eval_norm,
    finsler_n_laplacian,
    kelvin_map,
    manufacture_nlaplace,
    manufacture_semilinear,
    quadratic_field,
    random_spd_matrix,
    run_counterexample_scan,
    run_identity_suite,
    run_kelvin_suite,
    run_nlaplace_suite,
    run_semilinear_suite,
    weak_form_crosscheck,
)
from finslerkelvin import verify
from finslerkelvin.report import render_json
from finslerkelvin.verify import QUARTIC_SPREAD_MIN

from conftest import fd_divergence, row_tuples


# ---------------------------------------------------------------------------
# sample plans


def test_plan_is_bit_deterministic():
    spec = RiemannianNorm(random_spd_matrix(3, seed=0))
    a = SamplePlan(count=64, seed=5).points(spec)
    b = SamplePlan(count=64, seed=5).points(spec)
    assert a.tobytes() == b.tobytes()


def test_plan_seeds_are_disjoint():
    spec = EuclideanNorm(2)
    a = SamplePlan(count=32, seed=0).points(spec)
    b = SamplePlan(count=32, seed=1).points(spec)
    assert not np.allclose(a, b)


def test_plan_points_live_in_annulus():
    for spec in (EuclideanNorm(3), QuarticNorm(),
                 RiemannianNorm(random_spd_matrix(4, seed=2))):
        pts = SamplePlan(annulus=(0.5, 2.0), count=100).points(spec)
        h = np.asarray(spec.value(pts))
        assert pts.shape == (100, spec.dim)
        assert np.all(h >= 0.5 - 1e-12)
        assert np.all(h <= 2.0 + 1e-12)


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(annulus=(2.0, 0.5))
    with pytest.raises(ValueError):
        SamplePlan(count=0)
    with pytest.raises(ValueError):
        SamplePlan(seed=-1)


def test_random_spd_is_seed_pinned():
    a = random_spd_matrix(3, seed=42)
    b = random_spd_matrix(3, seed=42)
    assert np.array_equal(a.entries, b.entries)
    assert a.eig_min >= 0.5 - 1e-12 and a.eig_max <= 4.0 + 1e-12


def test_counterexample_control_is_the_drawn_matrix():
    drawn = random_spd_matrix(2, seed=0).entries
    assert np.array(verify._CONTROL_ENTRIES).tobytes() == drawn.tobytes()


# ---------------------------------------------------------------------------
# manufactured problems


def test_manufacture_quadratic_constant_source(rng):
    spec = RiemannianNorm([[2.0, 0.0], [0.0, 1.0]])
    prob = manufacture_semilinear(spec, "quadratic")  # u = <x, x>
    for x in rng.standard_normal((10, 2)):
        assert prob.f(x) == pytest.approx(-6.0, rel=1e-14)


def test_manufacture_affine_zero_source(rng):
    prob = manufacture_semilinear(EuclideanNorm(3), "affine")
    for x in rng.standard_normal((5, 3)):
        assert prob.f(x) == 0.0


def test_manufacture_source_matches_operator(rng):
    # the defining invariant: f == -(divergence-form operator of u's jet)
    specs = [EuclideanNorm(3), RiemannianNorm(random_spd_matrix(3, seed=6)),
             QuarticNorm()]
    for spec in specs:
        for family in ("quadratic", "gaussian-bump", "poly3"):
            prob = manufacture_semilinear(spec, family)
            for x in rng.uniform(0.4, 1.5, size=(8, spec.dim)):
                direct = -anisotropic_laplacian(spec, prob.u.jet(x))
                assert prob.f(x) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_manufacture_gaussian_fd_divergence(rng):
    spec = RiemannianNorm(random_spd_matrix(3, seed=14))
    prob = manufacture_semilinear(spec, "gaussian-bump")
    m = spec.matrix.entries

    def flux(x):
        g = prob.u.jet(x).gradient
        return m @ g  # H gradH at a quadratic-form norm is Mx

    for x in rng.uniform(0.5, 1.4, size=(20, 3)):
        oracle = -fd_divergence(flux, x)
        assert prob.f(x) == pytest.approx(oracle, abs=1e-6)


def test_manufacture_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown manufactured family"):
        manufacture_semilinear(EuclideanNorm(2), "sinusoid")
    with pytest.raises(ValueError, match="unknown manufactured family"):
        manufacture_nlaplace(EuclideanNorm(3), "sinusoid")


def test_manufacture_nlaplace_source_values(rng):
    # Euclidean N=3, u = |x|^2/2: operator div(|x| x) = 4|x|, so g = -4|x|
    u, g = manufacture_nlaplace(EuclideanNorm(3), "quadratic")
    for x in rng.uniform(-1.5, 1.5, size=(10, 3)):
        assert g(x) == pytest.approx(-4.0 * np.linalg.norm(x), rel=1e-12)


# ---------------------------------------------------------------------------
# semilinear theorem


def test_semilinear_constant_u_euclidean3():
    # u = 1 has zero source; the weighted pullback is 1/|y|, annihilated by
    # the plain laplacian
    spec = EuclideanNorm(3)
    ctx = KelvinContext(spec)
    prob = ManufacturedProblem(constant_field(3, 1.0),
                               constant_field(3, 0.0), "constant")
    rep = check_theorem_semilinear(ctx, prob, SamplePlan())
    assert rep.max_rel_residual() <= 1e-6
    assert rep.passed


def test_semilinear_riemannian_quadratic():
    spec = RiemannianNorm(random_spd_matrix(3, seed=1))
    ctx = KelvinContext(spec)
    rep = check_theorem_semilinear(ctx, manufacture_semilinear(spec, "quadratic"),
                                   SamplePlan())
    assert rep.max_rel_residual() <= 1e-5
    assert rep.passed


def test_semilinear_numeric_jets_and_order():
    spec = RiemannianNorm(random_spd_matrix(3, seed=1))
    ctx = KelvinContext(spec)
    rep = check_theorem_semilinear(ctx, manufacture_semilinear(spec, "quadratic"),
                                   SamplePlan(), jet_mode="numeric",
                                   convergence=True)
    assert rep.max_rel_residual() <= 1e-5
    assert rep.convergence["order"] >= 1.8
    res = rep.convergence["max_residuals"]
    assert res[0] > res[1] > res[2]


def test_semilinear_source_scaling_linearity():
    # scaling the problem by c scales both sides of every row by c
    spec = EuclideanNorm(3)
    ctx = KelvinContext(spec)
    prob = manufacture_semilinear(spec, "gaussian-bump")
    scaled = ManufacturedProblem(prob.u * 2.5, prob.f * 2.5, prob.family)
    plan = SamplePlan(count=20)
    r1 = check_theorem_semilinear(ctx, prob, plan)
    r2 = check_theorem_semilinear(ctx, scaled, plan)
    sides = ("lhs", "rhs")
    for (lhs1, rhs1), (lhs2, rhs2) in zip(row_tuples(r1.rows, sides),
                                          row_tuples(r2.rows, sides)):
        assert lhs2 == pytest.approx(2.5 * lhs1, rel=1e-10, abs=1e-12)
        assert rhs2 == pytest.approx(2.5 * rhs1, rel=1e-10, abs=1e-12)


def test_semilinear_requires_quadratic_form_norm():
    ctx = KelvinContext(QuarticNorm())
    prob = manufacture_semilinear(QuarticNorm(), "quadratic")
    with pytest.raises(ValueError, match="quadratic-form"):
        check_theorem_semilinear(ctx, prob, SamplePlan())


# ---------------------------------------------------------------------------
# quasilinear theorem


def test_nlaplace_affine_zero_case():
    spec = RiemannianNorm(random_spd_matrix(3, seed=3))
    ctx = KelvinContext(spec)
    u, g = manufacture_nlaplace(spec, "affine")
    rep = check_theorem_nlaplace(ctx, u, g, SamplePlan(), tolerance=1e-5)
    assert rep.max_rel_residual() <= 1e-5
    assert rep.passed


def test_nlaplace_euclidean_halfsquare_values():
    # lhs and rhs both equal -4 |y|^(-7) pointwise
    spec = EuclideanNorm(3)
    ctx = KelvinContext(spec)
    u, g = manufacture_nlaplace(spec, "quadratic")
    plan = SamplePlan(count=25)
    rep = check_theorem_nlaplace(ctx, u, g, plan, jet_mode="numeric")
    assert rep.max_rel_residual() <= 1e-4
    for point, lhs, rhs in row_tuples(rep.rows, ("points", "lhs", "rhs")):
        expected = -4.0 * np.linalg.norm(point) ** -7
        assert rhs == pytest.approx(expected, rel=1e-10)
        assert lhs == pytest.approx(expected, rel=1e-5)


def test_nlaplace_riemannian_quadratic():
    spec = RiemannianNorm(random_spd_matrix(3, seed=17))
    ctx = KelvinContext(spec)
    u, g = manufacture_nlaplace(spec, "quadratic")
    for mode in ("auto", "numeric"):
        rep = check_theorem_nlaplace(ctx, u, g, SamplePlan(), jet_mode=mode)
        assert rep.max_rel_residual() <= 1e-4, mode
        assert rep.passed


def test_nlaplace_flags_degenerate_gradient():
    # place the pullback critical point exactly on a plan point
    spec = EuclideanNorm(3)
    ctx = KelvinContext(spec)
    plan = SamplePlan(count=10)
    y0 = plan.points(spec)[0]
    b = -kelvin_map(ctx, y0)  # grad u = x + b vanishes at T(y0)
    u = quadratic_field(0.5 * np.eye(3), b)

    def source(pts):
        flat = np.asarray(pts, dtype=float).reshape(-1, 3)
        out = [-finsler_n_laplacian(spec, u.jet(x), 3).value for x in flat]
        return np.array(out).reshape(np.shape(pts)[:-1])

    g = ScalarField(3, source)
    rep = check_theorem_nlaplace(ctx, u, g, plan)
    assert rep.rows.flags[0]
    assert rep.flagged_count() == 1
    assert rep.max_rel_residual() <= 1e-4  # flagged row excluded


def test_nlaplace_requires_dim_at_least_3():
    spec = EuclideanNorm(2)
    ctx = KelvinContext(spec)
    u, g = manufacture_nlaplace(spec, "affine")
    with pytest.raises(ValueError, match="dimension >= 3"):
        check_theorem_nlaplace(ctx, u, g, SamplePlan())


# ---------------------------------------------------------------------------
# fundamental solution and proof identities


def test_fundamental_solution_random_spd():
    for dim in (3, 4):
        for seed in (0, 1):
            spec = RiemannianNorm(random_spd_matrix(dim, seed=seed))
            rep = check_fundamental_solution(spec, SamplePlan())
            assert rep.max_rel_residual() <= 1e-6
            assert rep.passed


def test_proof_identities_random_spd():
    for dim, seed in ((2, 0), (3, 1), (4, 2)):
        spec = RiemannianNorm(random_spd_matrix(dim, seed=seed))
        rep = check_proof_identities(spec, SamplePlan())
        assert rep.details["norm_transport"] <= 1e-8
        assert rep.details["gradient_transport"] <= 1e-8
        assert rep.passed


# ---------------------------------------------------------------------------
# suites


def test_identity_suite_closed_form():
    for spec in (EuclideanNorm(3), RiemannianNorm(random_spd_matrix(4, seed=5))):
        rep = run_identity_suite(spec, SamplePlan())
        assert rep.passed
        assert rep.tolerance == 1e-8
        assert rep.max_rel_residual() <= 1e-8
        for key in ("euler", "homogeneity", "unit_duality", "inverse_duality",
                    "equivalence", "bidual", "gradient_zero_homogeneity"):
            assert key in rep.details


def reference_identity_rows(spec, plan):
    """The per-point loop that `run_identity_suite` evaluates by column:
    rows (point, lhs, rhs, rel) and the per-identity worst residuals."""
    scales = (-3.5, -1.25, -0.5, 0.75, 2.0, 7.5)
    dual = dual_spec(spec)
    c1, c2 = equivalence_constants(spec)
    worst, rows = {}, []
    for idx, x in enumerate(plan.points(spec)):
        j, jd = spec.jet(x), dual.jet(x)
        h = j.value
        s, t = scales[idx % 6], scales[(idx + 3) % 6]
        entries = [("euler", float(j.gradient @ x), h),
                   ("homogeneity", eval_norm(spec, s * x), abs(s) * h)]
        gt, expected = spec.jet(t * x).gradient, np.copysign(1.0, t) * j.gradient
        k = int(np.argmax(np.abs(gt - expected)))
        entries.append(("gradient_zero_homogeneity", gt[k], expected[k]))
        entries.append(("unit_duality", eval_norm(spec, jd.gradient), 1.0))
        entries.append(("unit_duality", dual_norm(spec, j.gradient), 1.0))
        for v in (h * dual.jet(j.gradient).gradient,
                  jd.value * spec.jet(jd.gradient).gradient):
            k = int(np.argmax(np.abs(v - x)))
            entries.append(("inverse_duality", v[k], x[k]))
        ratio = h / float(np.sqrt(x @ x))
        entries.append(("equivalence", ratio, float(np.clip(ratio, c1, c2))))
        entries.append(("bidual", dual_norm(dual, x), h))
        best = None
        for name, lhs, rhs in entries:
            rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
            worst[name] = max(worst.get(name, 0.0), rel)
            if best is None or rel > best[2]:
                best = (lhs, rhs, rel)
        rows.append((tuple(x), *best))
    return rows, worst


@pytest.mark.parametrize("spec", [
    EuclideanNorm(3),
    RiemannianNorm(random_spd_matrix(2, seed=7)),
    RiemannianNorm(random_spd_matrix(4, seed=5)),
])
def test_identity_suite_columns_reproduce_the_point_loop_bitwise(spec):
    plan = SamplePlan(count=150, seed=3)
    rep = run_identity_suite(spec, plan)
    rows, worst = reference_identity_rows(spec, plan)
    assert row_tuples(rep.rows, ("points", "lhs", "rhs", "rel_residual")) == rows
    assert {k: rep.details[k] for k in worst} == worst


def test_identity_suite_columns_match_the_point_loop_on_quartic():
    plan = SamplePlan(count=60, seed=3)
    rep = run_identity_suite(QuarticNorm(), plan)
    rows, worst = reference_identity_rows(QuarticNorm(), plan)
    # last-bit differences of the batched Newton dual can move a row's worst
    # identity among near-ties, so rows compare by their residual size
    got = row_tuples(rep.rows, ("points", "rel_residual"))
    assert [point for point, _ in got] == [row[0] for row in rows]
    assert max(abs(rel - row[3]) for (_, rel), row in zip(got, rows)) <= 1e-14
    for k, v in worst.items():
        assert abs(rep.details[k] - v) <= 1e-14


def test_identity_suite_quartic():
    rep = run_identity_suite(QuarticNorm(), SamplePlan())
    assert rep.passed
    assert rep.tolerance == 1e-6
    # analytic paths stay far tighter than the numeric-dual tolerance
    assert rep.details["euler"] <= 1e-10
    assert rep.details["homogeneity"] <= 1e-10


def test_kelvin_suite_riemannian():
    rep = run_kelvin_suite(RiemannianNorm(random_spd_matrix(3, seed=19)),
                           SamplePlan())
    assert rep.passed
    assert rep.details["det_invariant"] <= 1e-8
    assert rep.details["fundamental_solution"] <= 1e-6


def test_kelvin_suite_quartic():
    rep = run_kelvin_suite(QuarticNorm(), SamplePlan())
    assert rep.passed
    assert "det_invariant" not in rep.details  # the constancy law is not claimed


def test_counterexample_scan_quartic():
    rep = run_counterexample_scan()
    assert rep.passed
    assert rep.details["spread"] >= QUARTIC_SPREAD_MIN
    assert rep.details["control_spread"] <= 1e-8
    assert rep.details["scale_invariance_defect"] <= 1e-10
    assert rep.details["invariant_min"] == pytest.approx(0.75, rel=1e-9)
    assert rep.details["invariant_max"] == pytest.approx(1.5, rel=1e-9)


def test_counterexample_scan_riemannian_fails_by_design():
    rep = run_counterexample_scan(RiemannianNorm([[4.0, 0.0], [0.0, 1.0]]))
    assert not rep.passed
    assert rep.details["spread"] <= 1e-8
    assert rep.details["message"] == "spread below threshold: norm is Riemannian"


def test_semilinear_suite_euclidean():
    rep = run_semilinear_suite(EuclideanNorm(3), SamplePlan())
    assert rep.passed
    assert rep.details["weak_form_worst"] <= 1e-2
    assert rep.details["source_roundtrip"] <= 1e-5
    assert rep.convergence["order"] >= 1.8


def test_nlaplace_suite_riemannian():
    rep = run_nlaplace_suite(RiemannianNorm(random_spd_matrix(3, seed=23)),
                             SamplePlan())
    assert rep.passed
    assert rep.details["max_rel[affine]"] <= 1e-5
    assert rep.details["max_rel[quadratic,numeric]"] <= 1e-4


# ---------------------------------------------------------------------------
# weak-form quadrature cross-check


def test_weak_form_crosscheck():
    for spec in (EuclideanNorm(3), RiemannianNorm(random_spd_matrix(3, seed=2))):
        ctx = KelvinContext(spec)
        prob = manufacture_semilinear(spec, "gaussian-bump")
        out = weak_form_crosscheck(ctx, prob)
        assert len(out["box_errors"]) == 5
        assert out["worst"] <= 1e-2


def test_double_kelvin_source_roundtrip():
    # the dual problem's source, pulled back through the dual map, is f again
    spec = RiemannianNorm(random_spd_matrix(3, seed=9))
    ctx = KelvinContext(spec)
    dual_ctx = KelvinContext(ctx.dual)
    prob = manufacture_semilinear(spec, "gaussian-bump")
    n = ctx.dim
    pts = SamplePlan().points(spec)

    def fhat(points):
        return (np.asarray(prob.f(kelvin_map(ctx, points)))
                / np.asarray(spec.value(points)) ** (n + 2))

    back = (np.asarray(fhat(kelvin_map(dual_ctx, pts)))
            / np.asarray(ctx.dual.value(pts)) ** (n + 2))
    f_vals = np.asarray(prob.f(pts))
    err = np.max(np.abs(back - f_vals)
                 / np.maximum(np.maximum(np.abs(back), np.abs(f_vals)), 1.0))
    assert err <= 1e-5


def test_reports_are_deterministic():
    spec = RiemannianNorm(random_spd_matrix(3, seed=31))
    a = run_identity_suite(spec, SamplePlan()).to_dict()
    b = run_identity_suite(spec, SamplePlan()).to_dict()
    assert render_json({"suites": [a]}) == render_json({"suites": [b]})


# ---------------------------------------------------------------------------
# a NaN past the first row or box fails the gate (Python's max skipped it)


def test_a_nan_identity_fails_the_identity_suite():
    class NanDual(EuclideanNorm):
        def dual_value(self, x):
            out = np.array(super().dual_value(x), dtype=float)
            out[1] = np.nan
            return out

    assert run_identity_suite(EuclideanNorm(3), SamplePlan(count=10)).passed
    rep = run_identity_suite(NanDual(3), SamplePlan(count=10))
    assert math.isnan(rep.details["unit_duality"])
    assert math.isnan(rep.rows.rel_residual[1])
    assert math.isnan(rep.max_rel_residual())
    assert not rep.passed


def test_a_nan_gradient_transport_fails_the_proof_identities(monkeypatch):
    spec = RiemannianNorm(random_spd_matrix(3, seed=8))
    plan = SamplePlan(count=10)
    assert check_proof_identities(spec, plan).passed
    jacobian_matrix = verify.jacobian_matrix

    def planted(ctx, x):
        out = jacobian_matrix(ctx, x)
        if ctx.spec != spec:  # the dual map enters identity (b) only
            out[1] = np.nan
        return out

    monkeypatch.setattr(verify, "jacobian_matrix", planted)
    rep = check_proof_identities(spec, plan)
    assert math.isnan(rep.details["gradient_transport"])
    assert not math.isnan(rep.details["norm_transport"])
    assert math.isnan(rep.rows.rel_residual[1])
    assert not rep.passed
    assert not run_kelvin_suite(spec, plan).passed


def test_a_nan_box_fails_the_weak_form_crosscheck():
    spec = EuclideanNorm(3)
    prob = manufacture_semilinear(spec, "gaussian-bump")
    calls = []

    def source(pts):
        calls.append(len(pts))
        out = np.array(prob.f(pts), dtype=float)
        return out * np.nan if len(calls) == 4 else out  # box 3 of 0..4

    bad = ManufacturedProblem(prob.u, ScalarField(3, source), prob.family)
    quad = weak_form_crosscheck(KelvinContext(spec), bad)
    assert not any(map(math.isnan, quad["box_errors"][:3]))
    assert math.isnan(quad["box_errors"][3])
    assert math.isnan(quad["worst"])
