"""The batched Newton dual against a per-point reference solve.

`reference_support_point` is the solve of `norms._support_points` one
direction at a time, in Python floats: the same power-of-two scaling,
scalar Newton on the tangent line with its bracket and bisection, step
stop, taken last step and failure message, and the polishing KKT step of
`norms._newton_step` on a one-row batch.  The batched solve must take
exactly as many iterations per direction and land on the same maximum,
bit for bit.
"""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

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
    """Maximize <xi, x> over {H(xi) = 1} for one direction; (lam, xi, its,
    bisected), where `its` counts the jets evaluated and `bisected` says whether a Newton step left the bracket."""
    k = math.frexp(max(abs(x[0]), abs(x[1])))[1]
    d0, d1 = math.ldexp(x[0], -k), math.ldexp(x[1], -k)
    p0, p1 = -d1, d0
    s, lo, hi, bisected = 0.0, -math.inf, math.inf, False
    for it in range(norms.NEWTON_MAX_ITER):
        j = spec.jet(np.array([d0 + s * p0, d1 + s * p1]))
        (g0, g1), ((h00, h01), (h10, h11)) = j.gradient.tolist(), j.hessian.tolist()
        f = g0 * p0 + g1 * p1
        if f < 0.0:
            lo = s
        elif f > 0.0:
            hi = s
        step = f / ((h00 * p0 + h01 * p1) * p0 + (h10 * p0 + h11 * p1) * p1)
        s -= step
        if abs(step) <= norms.NEWTON_STEP_TOL:
            break
        if not lo < s < hi:
            s, bisected = 0.5 * (lo + hi), True
    else:
        raise ConvergenceError(f"no convergence for direction {x.tolist()}")
    xi = np.array([d0 + s * p0, d1 + s * p1]) / j.value
    j = spec.jet(xi)
    lam = float(xi[0] * d0 + xi[1] * d1)
    r = [d0 - lam * j.gradient[0], d1 - lam * j.gradient[1], 1.0 - j.value]
    d_xi, d_lam = norms._newton_step(np.array([lam]), j.gradient[None],
                                     j.hessian[None], np.array([r]))
    return math.ldexp(lam + d_lam[0], k), xi + d_xi[0], it + 2, bisected


def _compare_with_reference(spec, pts):
    lam, xi, its = norms._support_points(spec, pts)
    assert lam.shape == its.shape == (len(pts),) and xi.shape == pts.shape
    ref = [reference_support_point(spec, p) for p in pts]
    ref_lam = np.array([r[0] for r in ref])
    ref_xi = np.array([r[1] for r in ref])
    assert np.array_equal(its, [r[2] for r in ref])
    assert np.array_equal(lam, ref_lam)
    assert np.array_equal(xi, ref_xi)
    return its, [r[3] for r in ref]


def test_batched_newton_matches_reference_on_quartic_plan():
    pts = QUARTIC_PLAN.points(QuarticNorm())
    its = _compare_with_reference(QuarticNorm(), pts)[0]
    assert its.max() <= 5


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
    lam, xi, its = norms._support_points(spec, pts)
    lam_p, xi_p, its_p = norms._support_points(spec, pts[perm])
    assert len(set(its.tolist())) > 1
    assert np.array_equal(lam_p, lam[perm])
    assert np.array_equal(xi_p, xi[perm])
    assert np.array_equal(its_p, its[perm])


def test_bisecting_rows_match_reference():
    # a far-from-round ball sends some Newton steps out of the bracket, so
    # some rows bisect while others step
    theta = np.linspace(0.0, 2.0 * np.pi, 400, endpoint=False)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    its, bisected = _compare_with_reference(StretchedQuartic(30.0), pts)
    assert 0 < sum(bisected) < len(pts)
    assert its.max() <= 19


def test_a_far_from_round_ball_converges_to_the_rounding_floor():
    # at stretch 1000 the damped KKT solve this one replaced stalled at
    # [0.9238795325112867, 0.3826834323650898]
    spec = StretchedQuartic(1000.0)
    theta = np.linspace(0.0, 2.0 * np.pi, 400, endpoint=False)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    xi = norms._support_points(spec, pts)[1]
    eps = np.finfo(float).eps
    assert np.abs(spec.value(xi) - 1.0).max() <= eps
    bidual = NumericDualNorm(spec).dual_value(pts)
    assert np.abs(bidual / spec.value(pts) - 1.0).max() <= 2 * eps


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
    calls, jet_points = [], []
    solve, primal_jet = norms._support_points, QuarticNorm.jet

    def counting_solve(spec, x):
        calls.append("solve")
        return solve(spec, x)

    def counting_jet(self, x):
        calls.append("jet")
        jet_points.append(x)
        return primal_jet(self, x)

    monkeypatch.setattr(norms, "_support_points", counting_solve)
    monkeypatch.setattr(QuarticNorm, "jet", counting_jet)
    _, xi, its = norms._support_points(QuarticNorm(), pts)
    alone = calls[:]
    # the iterations count every primal jet the solve evaluates
    assert alone.count("solve") == 1 and alone.count("jet") == its.max()

    # value and gradient evaluate no primal jet beyond the solve's own
    dual = NumericDualNorm(QuarticNorm())
    calls.clear()
    dual.value_gradient(pts)
    assert calls == alone

    # the dual jet makes one solve, then one primal jet at the solve's xi
    calls.clear()
    dual.jet(pts)
    assert calls == alone + ["jet"]
    assert np.array_equal(jet_points[-1], xi)


_DUAL_DIGESTS = """
import hashlib
from finslerkelvin.norms import NumericDualNorm, QuarticNorm
from finslerkelvin.verify import SamplePlan
pts = SamplePlan(count=1000, seed=100).points(QuarticNorm())
dual = NumericDualNorm(QuarticNorm())
jet = dual.jet(pts)
for a in (pts, jet.value, jet.gradient, jet.hessian, dual.dual_value(pts)):
    print(hashlib.sha256(a.tobytes()).hexdigest())
"""


def test_the_numeric_dual_does_not_depend_on_the_blas_kernel():
    # OpenBLAS picks its kernel per CPU when it loads; Prescott, its oldest
    # x86-64 kernel, has no FMA, so a BLAS call in the dual moves its bits
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(norms.__file__).resolve().parents[1])

    def digests(**extra):
        return subprocess.run([sys.executable, "-c", _DUAL_DIGESTS],
                              env={**env, **extra}, capture_output=True,
                              text=True, check=True).stdout.split()

    assert digests(OPENBLAS_CORETYPE="Prescott") == digests()


@pytest.mark.parametrize("dim", [3, 4])
def test_numeric_dual_refuses_a_primal_outside_the_plane(dim):
    with pytest.raises(ValueError, match="dim 2"):
        NumericDualNorm(EuclideanNorm(dim))
