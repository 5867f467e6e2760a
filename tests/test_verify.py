"""Sample plans, manufactured problems, and the residual suites."""

import math
from dataclasses import replace

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
    equivalence_constants,
    finsler_n_laplacian,
    kelvin_map,
    linear_field,
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
    SamplePlan.points.cache_clear()  # sample again rather than recall
    b = SamplePlan(count=64, seed=5).points(spec)
    assert a is not b and a.tobytes() == b.tobytes()


def test_plan_points_are_sampled_once_and_read_only():
    spec = RiemannianNorm(random_spd_matrix(3, seed=0))
    a = SamplePlan(count=64, seed=5).points(spec)
    # an equal plan and an equal norm built anew recall the same array
    b = SamplePlan(count=64, seed=5).points(
        RiemannianNorm(random_spd_matrix(3, seed=0)))
    assert b is a and b.tobytes() == a.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        a[0, 0] = 1.0
    assert SamplePlan(count=64, seed=6).points(spec) is not a
    assert SamplePlan(count=64, seed=5).points(EuclideanNorm(3)) is not a


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


SEMILINEAR_FAMILIES = ("quadratic", "gaussian-bump", "affine")


def test_manufacture_source_matches_operator(rng):
    # the defining invariant: f == -(divergence-form operator of u's jet),
    # with f closed-form: an analytic jet, not the operator evaluated pointwise
    specs = [EuclideanNorm(3), RiemannianNorm(random_spd_matrix(3, seed=6)),
             RiemannianNorm(random_spd_matrix(4, 0))]
    for spec in specs:
        for family in SEMILINEAR_FAMILIES:
            prob = manufacture_semilinear(spec, family)
            assert prob.u.has_jet and prob.f.has_jet, (spec.canonical(), family)
            for x in rng.uniform(0.4, 1.5, size=(8, spec.dim)):
                direct = -anisotropic_laplacian(spec, prob.u.jet(x))
                assert prob.f(x) == pytest.approx(direct, rel=1e-12, abs=1e-12)
                assert prob.f.jet(x).value == pytest.approx(direct, rel=1e-12, abs=1e-12)


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
    g = manufacture_nlaplace(EuclideanNorm(3), "quadratic").f
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
    prob = manufacture_semilinear(spec, "quadratic")
    value_only = replace(prob, u=ScalarField(3, prob.u))
    rep = check_theorem_semilinear(ctx, value_only, SamplePlan())
    assert rep.details == {"family": "quadratic", "jet_path": "fd"}
    assert rep.max_rel_residual() <= 1e-5
    convergence = run_semilinear_suite(spec, SamplePlan()).convergence
    assert convergence["order"] >= 1.8
    res = convergence["max_residuals"]
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
    for family in SEMILINEAR_FAMILIES:
        with pytest.raises(ValueError, match="^a manufactured semilinear source "
                                             "assumes a quadratic-form .* got quartic$"):
            manufacture_semilinear(QuarticNorm(), family)
    prob = ManufacturedProblem(quadratic_field(np.eye(2)), constant_field(2, -4.0),
                               "quadratic")
    with pytest.raises(ValueError, match="quadratic-form"):
        check_theorem_semilinear(KelvinContext(QuarticNorm()), prob, SamplePlan())


@pytest.mark.parametrize("spec", [
    EuclideanNorm(3), RiemannianNorm(random_spd_matrix(4, 0))],
    ids=["euclidean:3", "random_spd_matrix(4,0)"])
def test_the_shared_semilinear_pass_gives_the_per_family_rows(spec):
    # 2,500 points cross the analytic jets' 1,024-row blocks
    plan = SamplePlan(count=2500, seed=100)
    ctx = KelvinContext(spec)
    suite = run_semilinear_suite(spec, plan)
    single = [check_theorem_semilinear(ctx, manufacture_semilinear(spec, family), plan)
              for family in ("quadratic", "gaussian-bump")]
    for column in ("points", "lhs", "rhs", "abs_residual", "rel_residual", "flags"):
        joined = np.concatenate([getattr(rep.rows, column) for rep in single])
        assert getattr(suite.rows, column).tobytes() == joined.tobytes(), column
    # the suite runs the step study itself and tags its gate after the
    # quadratic family's max_rel
    assert all(rep.convergence is None for rep in single)
    assert [g.name for g in suite.gates][:3] == [
        "max_rel[quadratic]", "fd_order[quadratic]", "max_rel[gaussian-bump]"]
    assert suite.gates[1].value == suite.convergence["order"]


# ---------------------------------------------------------------------------
# quasilinear theorem


def test_nlaplace_affine_zero_case():
    spec = RiemannianNorm(random_spd_matrix(3, seed=3))
    ctx = KelvinContext(spec)
    rep = check_theorem_nlaplace(ctx, manufacture_nlaplace(spec, "affine"),
                                 SamplePlan(), tolerance=1e-5)
    assert rep.max_rel_residual() <= 1e-5
    assert rep.passed


def test_nlaplace_euclidean_halfsquare_values():
    # lhs and rhs both equal -4 |y|^(-7) pointwise
    spec = EuclideanNorm(3)
    ctx = KelvinContext(spec)
    prob = manufacture_nlaplace(spec, "quadratic")
    plan = SamplePlan(count=25)
    rep = check_theorem_nlaplace(ctx, replace(prob, u=ScalarField(3, prob.u)), plan)
    assert rep.max_rel_residual() <= 1e-4
    for point, lhs, rhs in row_tuples(rep.rows, ("points", "lhs", "rhs")):
        expected = -4.0 * np.linalg.norm(point) ** -7
        assert rhs == pytest.approx(expected, rel=1e-10)
        assert lhs == pytest.approx(expected, rel=1e-5)


def test_nlaplace_riemannian_quadratic():
    spec = RiemannianNorm(random_spd_matrix(3, seed=17))
    ctx = KelvinContext(spec)
    prob = manufacture_nlaplace(spec, "quadratic")
    for p in (prob, replace(prob, u=ScalarField(3, prob.u))):
        rep = check_theorem_nlaplace(ctx, p, SamplePlan())
        assert rep.max_rel_residual() <= 1e-4, rep.details
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
        out = [-finsler_n_laplacian(spec, u.jet(x), 3) for x in flat]
        return np.array(out).reshape(np.shape(pts)[:-1])

    prob = ManufacturedProblem(u, ScalarField(3, source), "critical")
    rep = check_theorem_nlaplace(ctx, prob, plan)
    assert rep.rows.flags[0]
    assert rep.flagged_count() == 1
    assert rep.max_rel_residual() <= 1e-4  # flagged row excluded


def test_nlaplace_requires_dim_at_least_3():
    ctx = KelvinContext(EuclideanNorm(2))
    prob = ManufacturedProblem(linear_field(np.array([1.0, 2.0])),
                               constant_field(2, 0.0), "affine")
    with pytest.raises(ValueError, match="dimension >= 3"):
        check_theorem_nlaplace(ctx, prob, SamplePlan())


@pytest.mark.parametrize("spec, message", [
    (QuarticNorm(), "^a manufactured quasilinear source assumes a quadratic-form "
                    r"\(riemannian or euclidean\) norm, got quartic$"),
    (EuclideanNorm(2), "^the quasilinear transform theorem needs dimension >= 3$"),
    (RiemannianNorm(random_spd_matrix(2, 0)),
     "^the quasilinear transform theorem needs dimension >= 3$"),
], ids=["quartic", "euclidean:2", "random_spd_matrix(2,0)"])
def test_manufacture_nlaplace_refuses_what_the_check_refuses(spec, message):
    for family in ("quadratic", "affine", "sinusoid"):
        with pytest.raises(ValueError, match=message):
            manufacture_nlaplace(spec, family)


# ---------------------------------------------------------------------------
# fundamental solution and proof identities


def test_fundamental_solution_random_spd():
    for dim in (3, 4):
        for seed in (0, 1):
            spec = RiemannianNorm(random_spd_matrix(dim, seed=seed))
            rep = check_fundamental_solution(KelvinContext(spec), SamplePlan())
            assert rep.max_rel_residual() <= 1e-6
            assert rep.passed


@pytest.mark.parametrize("spec", [
    EuclideanNorm(2), RiemannianNorm(random_spd_matrix(2, 0))],
    ids=["euclidean:2", "random_spd_matrix(2,0)"])
def test_fundamental_solution_refuses_the_plane(spec):
    # H^(2-N) is the constant 1 at N = 2, which every operator annihilates
    with pytest.raises(ValueError, match="^the fundamental-solution check needs "
                                         "dimension >= 3$"):
        check_fundamental_solution(KelvinContext(spec), SamplePlan(count=50))


def test_proof_identities_random_spd():
    for dim, seed in ((2, 0), (3, 1), (4, 2)):
        spec = RiemannianNorm(random_spd_matrix(dim, seed=seed))
        rep = check_proof_identities(KelvinContext(spec), SamplePlan())
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
    dual = spec.dual()
    c1, c2 = equivalence_constants(spec)
    worst, rows = {}, []
    for idx, x in enumerate(plan.points(spec)):
        j, jd = spec.jet(x), dual.jet(x)
        h = j.value
        s, t = scales[idx % 6], scales[(idx + 3) % 6]
        entries = [("euler", float(j.gradient @ x), h),
                   ("homogeneity", spec.value(s * x), abs(s) * h)]
        gt, expected = spec.jet(t * x).gradient, np.copysign(1.0, t) * j.gradient
        k = int(np.argmax(np.abs(gt - expected)))
        entries.append(("gradient_zero_homogeneity", gt[k], expected[k]))
        entries.append(("unit_duality", spec.value(jd.gradient), 1.0))
        entries.append(("unit_duality", spec.dual_value(j.gradient), 1.0))
        for v in (h * dual.jet(j.gradient).gradient,
                  jd.value * spec.jet(jd.gradient).gradient):
            k = int(np.argmax(np.abs(v - x)))
            entries.append(("inverse_duality", v[k], x[k]))
        ratio = h / float(np.sqrt(x @ x))
        entries.append(("equivalence", ratio, float(np.clip(ratio, c1, c2))))
        entries.append(("bidual", dual.dual_value(x), h))
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
    assert rep.tolerance == 1e-8
    # analytic paths stay far tighter than the duality tolerance
    assert rep.details["euler"] <= 1e-10
    assert rep.details["homogeneity"] <= 1e-10


def test_kelvin_suite_riemannian():
    rep = run_kelvin_suite(RiemannianNorm(random_spd_matrix(3, seed=19)),
                           SamplePlan())
    assert rep.passed
    assert rep.details["det_invariant"] <= 1e-8
    assert rep.details["fundamental_solution"] <= 1e-6


def test_kelvin_suite_builds_the_dual_context_once(monkeypatch):
    # the pullback involution and the proof identities share one dual context
    built = []
    init = KelvinContext.__init__

    def counting(self, spec):
        built.append(spec.canonical())
        init(self, spec)

    monkeypatch.setattr(KelvinContext, "__init__", counting)
    spec = RiemannianNorm(random_spd_matrix(4, 0))
    assert run_kelvin_suite(spec, SamplePlan(count=50)).passed
    assert built == [spec.canonical(), spec.dual().canonical()]


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


@pytest.mark.parametrize("spec", [EuclideanNorm(3), RiemannianNorm(random_spd_matrix(4, 0))],
                         ids=["euclidean:3", "random_spd_matrix(4,0)"])
def test_weak_form_crosscheck_refuses_a_vanishing_source(spec):
    # a zero rhs would saturate every box error at 1 (the affine family), and a
    # constant u would give 0/0 in the dual gradient before that
    n = spec.dim
    constant = ManufacturedProblem(constant_field(n, 1.0), constant_field(n, 0.0),
                                   "constant")
    for prob in (manufacture_semilinear(spec, "affine"), constant):
        with pytest.raises(ValueError, match=r"^the weak-form cross-check needs a source "
                                             r"whose integral is nonzero: box 0 at \[.*\] "
                                             r"integrates to exactly 0$"):
            weak_form_crosscheck(KelvinContext(spec), prob)


def test_weak_form_crosscheck_refuses_a_mesh_above_its_limit(monkeypatch):
    # the limit is lowered so that a broken check builds a small mesh only
    monkeypatch.setattr(verify, "_WEAK_FORM_MAX_DIM", 2)
    spec = EuclideanNorm(3)
    prob = manufacture_semilinear(spec, "gaussian-bump")
    with pytest.raises(ValueError, match="only up to N = 2, got N = 3"):
        weak_form_crosscheck(KelvinContext(spec), prob)


@pytest.mark.parametrize("spec", [
    EuclideanNorm(3), EuclideanNorm(4),
    RiemannianNorm(random_spd_matrix(3, 2)), RiemannianNorm(random_spd_matrix(4, 0)),
], ids=["euclidean:3", "euclidean:4", "random_spd_matrix(3,2)",
        "random_spd_matrix(4,0)"])
def test_the_weak_form_support_gives_the_full_box_bit_for_bit(spec, monkeypatch):
    ctx = KelvinContext(spec)
    prob = manufacture_semilinear(spec, "gaussian-bump")
    support = weak_form_crosscheck(ctx, prob)["box_errors"]

    def full_box(points, center, radius):
        # the bump at every mesh point, exactly 0 off its support
        d = points - center
        s = np.sum(d * d, axis=-1) / radius**2
        base = np.where(s < 1.0, 1.0 - s, 0.0)
        dpsi = (-6.0 / radius**2) * base[:, None] ** 2 * d
        dpsi[s >= 1.0] = 0.0
        return points, base**3, dpsi

    monkeypatch.setattr(verify, "_bump", full_box)
    full = weak_form_crosscheck(ctx, prob)["box_errors"]
    assert [x.hex() for x in support] == [x.hex() for x in full]


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
    assert [g.name for g in rep.gates if not g.ok] == ["unit_duality"]


def test_a_nan_gradient_transport_fails_the_proof_identities(monkeypatch):
    spec = RiemannianNorm(random_spd_matrix(3, seed=8))
    plan = SamplePlan(count=10)
    ctx = KelvinContext(spec)
    assert check_proof_identities(ctx, plan).passed
    jacobian_matrix = verify.jacobian_matrix

    def planted(ctx, x):
        out = jacobian_matrix(ctx, x)
        if ctx.spec != spec:  # the dual map enters identity (b) only
            out[1] = np.nan
        return out

    monkeypatch.setattr(verify, "jacobian_matrix", planted)
    rep = check_proof_identities(ctx, plan)
    assert math.isnan(rep.details["gradient_transport"])
    assert not math.isnan(rep.details["norm_transport"])
    assert math.isnan(rep.rows.rel_residual[1])
    assert not rep.passed
    assert [g.name for g in rep.gates if not g.ok] == ["gradient_transport"]
    kelvin = run_kelvin_suite(spec, plan)
    assert not kelvin.passed
    assert [g.name for g in kelvin.gates if not g.ok] == ["gradient_transport"]


def test_a_nan_box_fails_the_weak_form_crosscheck(monkeypatch):
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
    # the semilinear suite names the gate the NaN fails
    crosscheck = verify.weak_form_crosscheck

    def planted(ctx, _):
        calls.clear()
        return crosscheck(ctx, bad)

    monkeypatch.setattr(verify, "weak_form_crosscheck", planted)
    rep = run_semilinear_suite(spec, SamplePlan(count=10))
    assert math.isnan(rep.details["weak_form_worst"])
    assert [g.name for g in rep.gates if not g.ok] == ["weak_form_worst"]


# ±inf source terms (math.fsum raises ValueError) and an overflowing total
# (math.fsum raises OverflowError) give np.sum's NaN or inf, as a NaN does
NONFINITE_SOURCES = {
    "inf-and-minus-inf": lambda out: np.where(np.arange(len(out)) % 2,
                                              np.inf, -np.inf),
    "overflowing-total": lambda out: np.full_like(out, 1e308),
}


@pytest.mark.parametrize("plant", NONFINITE_SOURCES)
def test_a_box_without_a_finite_sum_fails_the_weak_form_crosscheck(plant,
                                                                   monkeypatch):
    spec = EuclideanNorm(3)
    prob = manufacture_semilinear(spec, "gaussian-bump")
    calls = []

    def source(pts):
        calls.append(len(pts))
        out = np.array(prob.f(pts), dtype=float)
        return NONFINITE_SOURCES[plant](out) if len(calls) == 4 else out

    bad = ManufacturedProblem(prob.u, ScalarField(3, source), prob.family)
    quad = weak_form_crosscheck(KelvinContext(spec), bad)
    assert not any(map(math.isnan, quad["box_errors"][:3]))
    assert math.isnan(quad["box_errors"][3])
    crosscheck = verify.weak_form_crosscheck

    def planted(ctx, _):
        calls.clear()
        return crosscheck(ctx, bad)

    monkeypatch.setattr(verify, "weak_form_crosscheck", planted)
    rep = run_semilinear_suite(spec, SamplePlan(count=10))
    assert math.isnan(rep.details["weak_form_worst"])
    assert [g.name for g in rep.gates if not g.ok] == ["weak_form_worst"]
