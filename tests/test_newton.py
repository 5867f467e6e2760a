"""The batched Newton dual against a per-point reference solve.

`reference_support_point` is the one-direction-at-a-time loop that
`norms._support_points` replaced: same warm start, KKT tolerance, 20-halving
damping and failure message.  The batched solve must take exactly as many
iterations per direction and land on the same maximum.
"""

import re

import numpy as np
import pytest

from finslerkelvin import norms
from finslerkelvin.norms import ConvergenceError, NumericDualNorm, QuarticNorm
from finslerkelvin.verify import SamplePlan

# plan of the quartic benchmark run `all --norm quartic --count 1000 --seed 100`
QUARTIC_PLAN = SamplePlan(count=1000, seed=100)


def reference_support_point(spec, x):
    """Maximize <xi, x> over {H(xi) = 1} for one direction; (lam, xi, its)."""
    scale = float(np.sqrt(x @ x))
    xh = x / scale
    n = spec.dim
    xi = xh / float(spec.value(xh))
    lam = float(xi @ xh)

    def residual(xi_, lam_, jet):
        return np.concatenate([xh - lam_ * jet.gradient, [1.0 - jet.value]])

    j = spec.jet(xi)
    resid = residual(xi, lam, j)
    for it in range(norms.NEWTON_MAX_ITER):
        rnorm = float(np.max(np.abs(resid)))
        if rnorm <= norms.NEWTON_KKT_TOL:
            return lam * scale, xi, it
        kkt = np.zeros((n + 1, n + 1))
        kkt[:n, :n] = lam * j.hessian
        kkt[:n, n] = j.gradient
        kkt[n, :n] = j.gradient
        step = np.linalg.solve(kkt, resid)
        t = 1.0
        for _ in range(20):
            xi_try = xi + t * step[:n]
            lam_try = lam + t * step[n]
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
    lam, xi, its = norms._support_points(spec, pts)
    assert lam.shape == its.shape == (len(pts),) and xi.shape == pts.shape
    ref = [reference_support_point(spec, p) for p in pts]
    ref_lam = np.array([r[0] for r in ref])
    ref_xi = np.array([r[1] for r in ref])
    assert np.array_equal(its, [r[2] for r in ref])
    assert np.max(np.abs(lam - ref_lam) / ref_lam) <= 1e-15
    assert np.max(np.abs(xi - ref_xi)) <= 1e-15
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
