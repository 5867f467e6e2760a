"""Kelvin-suite checks as array calls against the point-by-point loops.

The reference functions below are the one-point loops that the batched
``det_invariant``, ``reflection_determinant``, ``check_proof_identities``
and ``run_kelvin_suite`` replaced.  The batched versions must reproduce
their numbers byte for byte.
"""

import numpy as np
import pytest

from finslerkelvin import (
    KelvinContext,
    QuarticNorm,
    RiemannianNorm,
    SamplePlan,
    check_proof_identities,
    det_invariant,
    jacobian_matrix,
    kelvin_map,
    parse_norm,
    reflection_determinant,
    run_kelvin_suite,
)
from finslerkelvin import verify
from finslerkelvin.sampling import cube_directions
from finslerkelvin.verify import random_spd_matrix

from conftest import annulus_points, row_tuples
from test_norms import QUADRATIC_BATCH_SPECS

SPECS = QUADRATIC_BATCH_SPECS + [RiemannianNorm(random_spd_matrix(4, seed=0))]
PLAN = SamplePlan(count=200, seed=6)
ROW_CELLS = ("points", "lhs", "rhs", "abs_residual", "rel_residual")


def reference_det_invariant(ctx, x):
    h = ctx.spec.value(x)
    return h ** (2 * ctx.dim) * abs(float(np.linalg.det(jacobian_matrix(ctx, x))))


def reference_reflection_determinant(y):
    v = np.asarray(y, dtype=float)
    n2 = float(v @ v)
    return float(np.linalg.det(np.eye(v.shape[0]) - 2.0 * np.outer(v, v) / n2))


def reference_proof_identities(spec, plan):
    """Rows (point, lhs, rhs, abs, rel) and the two worst residuals."""
    ctx = KelvinContext(spec)
    dual_ctx = KelvinContext(ctx.dual)
    pts = plan.points(spec)
    count, dim = pts.shape
    xis = cube_directions(count, dim, skip=41) * 1.7
    ps = cube_directions(count, dim, skip=57) * 2.3
    rows = []
    worst_a = worst_b = 0.0
    for y, xi, p in zip(pts, xis, ps):
        hy = spec.value(y)
        dt = jacobian_matrix(ctx, y)
        lhs_a = spec.dual_value(dt @ xi) * hy**2
        rhs_a = spec.value(xi)
        rel_a = abs(lhs_a - rhs_a) / max(abs(lhs_a), abs(rhs_a), 1.0)
        worst_a = max(worst_a, rel_a)
        jp = spec.jet(p)
        left = jp.value * (jacobian_matrix(dual_ctx, kelvin_map(ctx, y))
                           @ jp.gradient)
        jq = ctx.dual.jet(dt @ p)
        right = hy**4 * jq.value * jq.gradient
        k = int(np.argmax(np.abs(left - right)))
        rel_b = abs(left[k] - right[k]) / max(
            float(np.max(np.abs(left))), float(np.max(np.abs(right))), 1.0)
        worst_b = max(worst_b, rel_b)
        if rel_b >= rel_a:
            rows.append((tuple(y.tolist()), float(left[k]), float(right[k]),
                         float(abs(left[k] - right[k])), rel_b))
        else:
            rows.append((tuple(y.tolist()), float(lhs_a), float(rhs_a),
                         float(abs(lhs_a - rhs_a)), rel_a))
    return rows, {"norm_transport": worst_a, "gradient_transport": worst_b}


def reference_kelvin_details(spec, plan):
    """The three kelvin-suite details that were per-point loops."""
    ctx = KelvinContext(spec)
    pts = plan.points(spec)
    detm = spec.matrix.det
    inv = np.array([reference_det_invariant(ctx, y) for y in pts])
    jac_scale = 0.0
    for y in pts[:20]:
        d1 = jacobian_matrix(ctx, y)
        d2 = jacobian_matrix(ctx, 2.0 * y)
        jac_scale = max(jac_scale, float(np.max(np.abs(d2 - d1 / 4.0))
                                         / np.max(np.abs(d1))))
    return {
        "reflection_determinant": max(
            abs(abs(reference_reflection_determinant(y)) - 1.0) for y in pts),
        "det_invariant": float(np.max(np.abs(inv - detm) / detm)),
        "jacobian_scaling": jac_scale,
    }


@pytest.mark.parametrize("spec", SPECS)
def test_det_invariant_and_reflection_rows_equal_the_point_loop(spec, rng):
    ctx = KelvinContext(spec)
    pts = annulus_points(rng, spec.dim, count=300)
    inv = det_invariant(ctx, pts)
    refl = reflection_determinant(pts)
    assert inv.shape == refl.shape == (300,)
    assert inv.tobytes() == np.array(
        [reference_det_invariant(ctx, y) for y in pts]).tobytes()
    assert refl.tobytes() == np.array(
        [reference_reflection_determinant(y) for y in pts]).tobytes()
    one, alone = det_invariant(ctx, pts[0]), reflection_determinant(pts[0])
    assert type(one) is float and type(alone) is float
    assert (one, alone) == (inv[0], refl[0])


@pytest.mark.parametrize("spec", [SPECS[1], SPECS[-1]])
def test_batched_determinants_refuse_a_zero_row(spec, rng):
    pts = annulus_points(rng, spec.dim, count=5)
    pts[3] = 0.0
    with pytest.raises(ValueError, match="nonzero"):
        reflection_determinant(pts)
    with pytest.raises(ValueError, match="origin"):
        det_invariant(KelvinContext(spec), pts)


def test_quartic_det_invariant_rows_stay_close_to_points(rng):
    ctx = KelvinContext(QuarticNorm())
    pts = annulus_points(rng, 2, count=200)
    want = np.array([reference_det_invariant(ctx, y) for y in pts])
    assert det_invariant(ctx, pts).tobytes() == want.tobytes()


def reference_counterexample_scan(spec):
    """Rows and details of the scan as one direction at a time."""
    ctx = KelvinContext(spec)
    n = verify._SCAN_DIRECTIONS
    if spec.dim == 2:
        theta = 2.0 * np.pi * np.arange(n) / n
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    else:
        dirs = cube_directions(n, spec.dim, skip=7)
        dirs /= np.sqrt(np.sum(dirs * dirs, axis=-1))[:, None]
    vals = np.array([reference_det_invariant(ctx, d) for d in dirs])
    mean = float(vals.mean())
    rows = [(tuple(d.tolist()), float(v), mean, abs(float(v) - mean),
             abs(float(v) - mean) / max(abs(float(v)), abs(mean), 1.0))
            for d, v in zip(dirs, vals)]
    details = {
        "invariant_min": float(vals.min()),
        "invariant_max": float(vals.max()),
        "spread": float((vals.max() - vals.min()) / vals.min()),
        "scale_invariance_defect": max(
            abs(reference_det_invariant(ctx, 2.0 * d) - v) / v
            for d, v in zip(dirs, vals)),
    }
    if isinstance(spec, QuarticNorm):
        cctx = KelvinContext(RiemannianNorm(random_spd_matrix(2, seed=0)))
        cvals = np.array([reference_det_invariant(cctx, d) for d in dirs])
        details["control_spread"] = float(
            (cvals.max() - cvals.min()) / cvals.min())
    return rows, details


@pytest.mark.parametrize("text", ["quartic", "euclidean:3"])
def test_counterexample_scan_equals_the_direction_loop(text):
    spec = parse_norm(text)
    rep = verify.run_counterexample_scan(spec)
    rows, details = reference_counterexample_scan(spec)
    assert row_tuples(rep.rows, ROW_CELLS) == rows
    assert {k: rep.details[k] for k in details} == details


@pytest.mark.parametrize("spec", SPECS)
def test_proof_identity_rows_equal_the_point_loop(spec):
    rep = check_proof_identities(KelvinContext(spec), PLAN)
    rows, details = reference_proof_identities(spec, PLAN)
    assert row_tuples(rep.rows, ROW_CELLS) == rows
    assert all(getattr(rep.rows, c).dtype == np.float64 for c in ROW_CELLS)
    assert rep.details == details


@pytest.mark.parametrize("spec", SPECS)
def test_kelvin_suite_details_equal_the_point_loops(spec):
    rep = run_kelvin_suite(spec, PLAN)
    want = reference_kelvin_details(spec, PLAN)
    assert {k: rep.details[k] for k in want} == want
    assert all(type(rep.details[k]) is float for k in want)


def test_proof_identities_call_the_jacobian_a_fixed_number_of_times(monkeypatch):
    spec = RiemannianNorm(random_spd_matrix(3, seed=8))
    calls = []

    def counted(ctx, x):
        calls.append(np.shape(x))
        return jacobian_matrix(ctx, x)

    monkeypatch.setattr(verify, "jacobian_matrix", counted)
    counts = []
    ctx = KelvinContext(spec)
    for count in (10, 300):
        calls.clear()
        assert check_proof_identities(ctx, SamplePlan(count=count)).passed
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2
