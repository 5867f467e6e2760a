"""The batched Newton dual against a per-point reference solve.

`reference_support_point` is the one-direction-at-a-time loop that
`norms._support_points` replaced: same warm start, KKT tolerance, 20-halving
damping, final full polishing step and failure message, with the Newton
step of `norms._newton_step` taken on a one-row batch.  The batched solve
must take exactly as many iterations per direction and land on the same
maximum, bit for bit.
"""

import re

import numpy as np
import pytest

from finslerkelvin import norms
from finslerkelvin.norms import (ConvergenceError, EuclideanNorm,
                                 NumericDualNorm, QuarticNorm)
from finslerkelvin.verify import SamplePlan, run_kelvin_suite

from conftest import StretchedQuartic

# plan of the quartic benchmark run `all --norm quartic --count 1000 --seed 100`
QUARTIC_PLAN = SamplePlan(count=1000, seed=100)


def reference_support_point(spec, x):
    """Maximize <xi, x> over {H(xi) = 1} for one direction; (lam, xi, its)
    after the stop and one undamped polishing step, which `its` counts."""
    scale = float(np.sqrt(x @ x))
    xh = x / scale
    xi = xh / float(spec.value(xh))
    lam = float(xi @ xh)

    def residual(xi_, lam_, jet):
        return np.concatenate([xh - lam_ * jet.gradient, [1.0 - jet.value]])

    j = spec.jet(xi)
    resid = residual(xi, lam, j)
    for it in range(norms.NEWTON_MAX_ITER):
        rnorm = float(np.max(np.abs(resid)))
        d_xi, d_lam = norms._newton_step(np.array([lam]), j.gradient[None],
                                         j.hessian[None], resid[None])
        d_xi, d_lam = d_xi[0], d_lam[0]
        if rnorm <= norms.NEWTON_KKT_TOL:
            return (lam + d_lam) * scale, xi + d_xi, it + 1
        t = 1.0
        for _ in range(20):
            xi_try = xi + t * d_xi
            lam_try = lam + t * d_lam
            if np.any(xi_try != 0.0):
                j_try = spec.jet(xi_try)
                r_try = residual(xi_try, lam_try, j_try)
                if float(np.max(np.abs(r_try))) < rnorm:
                    xi, lam, j, resid = xi_try, lam_try, j_try, r_try
                    break
            t *= 0.5
        else:
            break
    raise ConvergenceError(f"no convergence for direction {x.tolist()}")


def _compare_with_reference(spec, pts):
    lam, xi, its, _ = norms._support_points(spec, pts)
    assert lam.shape == its.shape == (len(pts),) and xi.shape == pts.shape
    ref = [reference_support_point(spec, p) for p in pts]
    ref_lam = np.array([r[0] for r in ref])
    ref_xi = np.array([r[1] for r in ref])
    assert np.array_equal(its, [r[2] for r in ref])
    assert np.array_equal(lam, ref_lam)
    assert np.array_equal(xi, ref_xi)
    return its


def test_batched_newton_matches_reference_on_quartic_plan():
    pts = QUARTIC_PLAN.points(QuarticNorm())
    its = _compare_with_reference(QuarticNorm(), pts)
    assert its.max() <= 4


def test_batched_bidual_matches_reference():
    # the bidual is a batched solve whose jets are batched solves themselves;
    # every 10th plan point keeps the per-point reference affordable
    pts = QUARTIC_PLAN.points(QuarticNorm())[::10]
    _compare_with_reference(NumericDualNorm(QuarticNorm()), pts)


@pytest.mark.parametrize("spec", [QuarticNorm(), NumericDualNorm(QuarticNorm())])
def test_a_permuted_batch_returns_the_permuted_rows(spec):
    # converged rows leave the active set at different iterations, so every
    # row must round alike wherever it sits in the batch
    pts = QUARTIC_PLAN.points(QuarticNorm())[:300]
    perm = np.random.default_rng(5).permutation(len(pts))
    lam, xi, its, _ = norms._support_points(spec, pts)
    lam_p, xi_p, its_p, _ = norms._support_points(spec, pts[perm])
    assert len(set(its.tolist())) > 1
    assert np.array_equal(lam_p, lam[perm])
    assert np.array_equal(xi_p, xi[perm])
    assert np.array_equal(its_p, its[perm])


def test_damped_steps_match_reference():
    # some rows take the full step and others halve it in the same iteration
    theta = np.linspace(0.0, 2.0 * np.pi, 400, endpoint=False)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    its = _compare_with_reference(StretchedQuartic(30.0), pts)
    assert its.max() > 20


def test_stalled_rows_fail_like_the_reference(monkeypatch):
    # below the rounding floor no halving shrinks most residuals, while
    # rows that reach an exactly zero residual converge beside them
    monkeypatch.setattr(norms, "NEWTON_KKT_TOL", 0.0)
    pts = np.vstack([[1.0, 0.0], QUARTIC_PLAN.points(QuarticNorm())[:40]])
    stalled = []
    for k, p in enumerate(pts):
        try:
            reference_support_point(QuarticNorm(), p)
        except ConvergenceError:
            stalled.append(k)
    assert 0 < len(stalled) < len(pts) - 1 and stalled[0] > 1
    kept = np.delete(pts, stalled, axis=0)
    _compare_with_reference(QuarticNorm(), kept)
    with pytest.raises(ConvergenceError,
                       match=re.escape(str(pts[stalled[0]].tolist()))):
        norms._support_points(QuarticNorm(), pts)


def test_non_convergence_names_the_first_failing_direction(monkeypatch):
    monkeypatch.setattr(norms, "NEWTON_MAX_ITER", 1)
    # an axis direction meets the tolerance at the warm start
    pts = np.vstack([[1.0, 0.0], QUARTIC_PLAN.points(QuarticNorm())[:5]])
    reference_support_point(QuarticNorm(), pts[0])
    with pytest.raises(ConvergenceError):
        reference_support_point(QuarticNorm(), pts[1])
    with pytest.raises(ConvergenceError, match=re.escape(str(pts[1].tolist()))):
        norms._support_points(QuarticNorm(), pts)


def test_zero_direction_is_refused():
    with pytest.raises(ValueError, match="nonzero direction"):
        norms._support_points(QuarticNorm(), np.array([[1.0, 2.0], [0.0, 0.0]]))


def test_kelvin_suite_solves_each_point_set_once(monkeypatch):
    # the round trips and the pullback involution need H and T at three
    # 50-point sets; one solve each gives both
    sizes = []
    solve = norms._support_points

    def counting(spec, x):
        sizes.append(len(x))
        return solve(spec, x)

    monkeypatch.setattr(norms, "_support_points", counting)
    run_kelvin_suite(QuarticNorm(), SamplePlan(count=50))
    assert sizes.count(50) == 3


def test_dual_jet_value_and_gradient_are_the_solve_bits():
    # one solve on the rows as given: the jet rounds H° and grad H° exactly
    # as value and value_gradient do
    pts = QUARTIC_PLAN.points(QuarticNorm())
    dual = NumericDualNorm(QuarticNorm())
    jet = dual.jet(pts)
    assert np.array_equal(jet.value, dual.value(pts))
    assert np.array_equal(jet.gradient, dual.value_gradient(pts)[1])
    assert np.array_equal(jet.hessian, np.swapaxes(jet.hessian, 1, 2))


def test_dual_jet_takes_the_primal_jet_from_its_one_solve(monkeypatch):
    pts = QUARTIC_PLAN.points(QuarticNorm())[:20]
    _, xi, _, pj = norms._support_points(QuarticNorm(), pts)
    # the returned jet is H's at each row's polished point
    final = QuarticNorm().jet(xi)
    for got, want in zip((pj.value, pj.gradient, pj.hessian),
                         (final.value, final.gradient, final.hessian)):
        assert np.array_equal(got, want)

    # the dual jet makes one solve and evaluates no primal jet beyond the
    # solve's own
    calls = []
    solve, primal_jet = norms._support_points, QuarticNorm.jet

    def counting_solve(spec, x):
        calls.append("solve")
        return solve(spec, x)

    def counting_jet(self, x):
        calls.append("jet")
        return primal_jet(self, x)

    monkeypatch.setattr(norms, "_support_points", counting_solve)
    monkeypatch.setattr(QuarticNorm, "jet", counting_jet)
    norms._support_points(QuarticNorm(), pts)
    alone = calls[:]
    calls.clear()
    NumericDualNorm(QuarticNorm()).jet(pts)
    assert calls == alone and calls.count("solve") == 1


@pytest.mark.parametrize("dim", [3, 4])
def test_numeric_dual_refuses_a_primal_outside_the_plane(dim):
    with pytest.raises(ValueError, match="dim 2"):
        NumericDualNorm(EuclideanNorm(dim))
