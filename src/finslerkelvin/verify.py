"""Residual verification suites for the inversion-map calculus.

Everything here turns a mathematical statement into a table of pointwise
residuals over a deterministic sample plan:

* the first-order norm identities (Euler relation, homogeneity, gradient
  dualities, equivalence bounds, biduality);
* the inversion map being an involution-like diffeomorphism (round trips);
* the constant-determinant property H^(2N) |det DT| = det M of
  quadratic-form norms, and the quartic counterexample where the same
  scalar swings by a factor of two over the unit circle;
* the two transform theorems: for quadratic-form H and the weighted
  pullback u_hat = H^(2-N) u(T), the dual-norm divergence-form operator
  satisfies  -div(H°(grad u_hat) gradH°(grad u_hat)) = (f o T) / H^(N+2);
  and for the plain pullback u* = u(T), the dimension-tied quasilinear
  operator satisfies  -div(H°^(N-1)(grad u*) gradH°(grad u*))
  = (g o T) / H^(2N);
* the harmonicity of H^(2-N) for the dual operator, and the two matrix
  transport identities the theorem proofs pivot on.

Manufactured problems make the theorems checkable: pick a smooth u with an
analytic jet, define the source as minus the operator value of that jet,
and every identity above becomes a computable residual with no unknowns.
Every check takes a ``KelvinContext``, a ``ManufacturedProblem`` where it
needs one, and a ``SamplePlan``.  A theorem check takes finite-difference
jets exactly when u has no analytic jet and names the path it took in
``details["jet_path"]``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import (
    ScalarField,
    constant_field,
    gaussian_field,
    linear_field,
    norm_power_field,
    quadratic_field,
)
from .kelvin import (
    TOL_DUALITY,
    KelvinContext,
    _hat_jets,
    _inversion,
    det_invariant,
    hat_transform,
    jacobian_matrix,
    kelvin_inverse,
    kelvin_map,
    reflection_determinant,
    star_transform,
)
from .norms import (
    NormSpec,
    QuarticNorm,
    RiemannianNorm,
    SpdMatrix,
    equivalence_constants,
    row_dot,
    row_matvec,
    row_sum,
)
from .operators import (
    anisotropic_laplacian,
    finsler_n_laplacian,
    numeric_jet,
)
from .report import Gate, ResidualReport, ResidualRows, residual_rows, residuals
from .sampling import MAX_INDEX, cube_directions, halton

__all__ = [
    "SamplePlan",
    "ManufacturedProblem",
    "random_spd_matrix",
    "manufacture_semilinear",
    "manufacture_nlaplace",
    "check_theorem_semilinear",
    "check_theorem_nlaplace",
    "check_fundamental_solution",
    "check_proof_identities",
    "run_identity_suite",
    "run_kelvin_suite",
    "run_counterexample_scan",
    "run_semilinear_suite",
    "run_nlaplace_suite",
    "weak_form_crosscheck",
    "QUARTIC_SPREAD_MIN",
]

TOL_LEMMA_DET = 1e-8
TOL_REFLECTION_DET = 1e-12
TOL_SPREAD_CONTROL = 1e-8
TOL_SCALE_INVARIANCE = 1e-10
TOL_SEMILINEAR = 1e-5
TOL_NLAPLACE = 1e-4
TOL_FUNDAMENTAL = 1e-6
TOL_PROOF_IDENTITY = 1e-8
TOL_QUADRATURE = 1e-2
MIN_FD_ORDER = 1.8
# Rows whose pullback gradient is below this size are flagged (a report's only
# degenerate-gradient flag): their relative residual means nothing.
# operators._DEGENERATE_GRADIENT (1e-140) only guards a division by zero.
DEGENERATE_GRADIENT_TOL = 1e-8

# Regression floor for the quartic-norm determinant-invariant spread over a
# 64-direction sweep.  Measured before the build with an independent
# finite-difference Jacobian oracle (scripts/measure_quartic_spread.py):
# the invariant runs from 3/4 on the diagonals to 3/2 on the axes, i.e. a
# relative spread of 1.0; 0.999 leaves room for stencil noise only.
QUARTIC_SPREAD_MIN = 0.999

# random_spd_matrix(2, seed=0), written out so that no run imports numpy.random
_CONTROL_ENTRIES = ((3.313201679780849, -0.11786280425524709),
                    (-0.11786280425524709, 2.735991979704807))
_HOMOG_SCALES = (-3.5, -1.25, -0.5, 0.75, 2.0, 7.5)
# Plain central-difference steps of the semilinear convergence fit.
_FD_STEPS = (0.08, 0.04, 0.02)
# Directions in the determinant-invariant sweep of the counterexample scan.
_SCAN_DIRECTIONS = 64
# Rows per analytic-jet call in the theorem checks.  The chain rule holds a
# few (rows, N, N, N) arrays per call; on 10,000-point `semilinear` runs at
# N = 4, peak RSS read 64.3 MB with blocks of 256 or 1,024 rows, 66.9 MB
# with 4,096 and 69.8 MB unblocked (63.9 MB one point at a time).  Report
# bytes do not depend on the block size.
_JET_BLOCK = 1024
# Rows per finite-difference jet call.  A row's stencil is 54 points at
# N = 3 (refinement 3, auto step); a 1,000-point `nlaplace` run there read
# 34.9 MB peak RSS with blocks of 128 rows, 35.0 MB one row at a time and
# 38.9 MB with 1,024.  Report bytes do not depend on the block size.
_FD_BLOCK = 128
# Weak-form cross-check: number of bump test functions, their radius
# (Euclidean) and the difference step of their value-only gradients.
_BUMP_BOXES = 5
_BUMP_RADIUS = 0.22
_WEAK_FD_STEP = 1e-5
# The largest N whose product rule is built: it has 108,864 nodes per box at
# N = 6, where `semilinear --count 5` took 1.5 s and 101 MB peak RSS on a
# 2-vCPU VM, and 653,184 at N = 7.
_WEAK_FORM_MAX_DIM = 6


def _jets(field: ScalarField, pts: np.ndarray):
    """Jets of `field` over row blocks of `pts`: analytic in `_JET_BLOCK`-row
    blocks, or finite-difference in `_FD_BLOCK`-row blocks exactly when the
    field has no (analytic) jet; the one place FD is chosen."""
    numeric = not field.has_jet
    size = _FD_BLOCK if numeric else _JET_BLOCK
    for k in range(0, len(pts), size):
        block = pts[k:k + size]
        yield numeric_jet(field, block) if numeric else field.jet(block)


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic annulus sample: identical plans give identical points.

    The annulus bounds are in units of the norm being sampled.  Points come
    from an unscrambled Halton sequence (radius plus cube direction), so the
    set is reproducible bit for bit from run to run on one host; across
    hosts the points follow the norm's value, which goes through BLAS.  The
    seed selects a disjoint subsequence.
    """

    annulus: tuple[float, float] = (0.5, 2.0)
    count: int = 100
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.annulus
        if not (0.0 < lo < hi < np.inf):
            raise ValueError(f"bad annulus {self.annulus}")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        last = 1 + (self.seed + 1) * self.count  # the plan's last Halton index
        if last > MAX_INDEX:
            raise ValueError(f"seed {self.seed} with count {self.count} reaches Halton "
                             f"index {last}, past the last one, {MAX_INDEX}")

    @functools.lru_cache(maxsize=4)
    def points(self, spec: NormSpec) -> np.ndarray:
        """The points, read-only: a memo keyed by (plan, norm) serves repeats.
        A point whose H over- or underflows (not finite and > 0) is refused."""
        lo, hi = self.annulus
        u = halton(self.count, spec.dim + 1, skip=1 + self.seed * self.count)
        radii = lo + (hi - lo) * u[:, 0]
        dirs = 2.0 * u[:, 1:] - 1.0
        pts = dirs * (radii / spec.value(dirs))[:, None]
        with np.errstate(all="ignore"):
            h = spec.value(pts)
        bad = ~(np.isfinite(h) & (h > 0.0))
        if bad.any():
            i = np.argmax(bad)
            raise ValueError(f"annulus {lo:g},{hi:g} is outside floating-point range "
                             f"for {spec.canonical()}: H = {h[i]:g} at {pts[i].tolist()}")
        pts.flags.writeable = False
        return pts


def random_spd_matrix(dim: int, seed: int | None = None) -> SpdMatrix:
    """Seed-pinned SPD matrix with eigenvalues in [0.5, 4]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = np.exp(rng.uniform(np.log(0.5), np.log(4.0), size=dim))
    return SpdMatrix((q * eigs) @ q.T)


# ---------------------------------------------------------------------------
# manufactured problems


@dataclass(frozen=True)
class ManufacturedProblem:
    """Smooth u and its exactly matching source term (g of the quasilinear
    theorem is held in `f`); the checks take FD jets of a u without one."""

    u: ScalarField
    f: ScalarField
    family: str


def _default_center(dim: int) -> np.ndarray:
    return np.array(([0.3, -0.2, 0.15, -0.1] + [0.0] * dim)[:dim])


def manufacture_semilinear(spec: NormSpec,
                           family: str = "quadratic") -> ManufacturedProblem:
    """Pick u from a fixed family and derive f = -div(H gradH)(grad u).

    The source is closed-form with an analytic jet: for H = sqrt(<Mx, x>)
    the operator is trace(M D^2 u).  A norm without a matrix is refused, as
    the theorem checks that take the problem refuse it.
    """
    _require_quadratic_form(spec, "a manufactured semilinear source")
    dim = spec.dim
    m = spec.matrix.entries
    if family == "quadratic":
        u = quadratic_field(np.eye(dim), name="u-quadratic")
        f = constant_field(dim, -2.0 * float(np.vdot(m, np.eye(dim))),
                           name="f-quadratic")
    elif family == "gaussian-bump":
        center, width = _default_center(dim), 1.2
        u = gaussian_field(center, width, name="u-gaussian")
        w2 = width**2
        # -trace(M D^2 u) = u * (2 tr M / w^2 - 4 (x-c)^T M (x-c) / w^4)
        f = u * quadratic_field(
            -4.0 * m / w2**2,
            8.0 * (m @ center) / w2**2,
            2.0 * float(np.trace(m)) / w2
            - 4.0 * float(center @ m @ center) / w2**2,
        )
        f.name = "f-gaussian"
    elif family == "affine":
        u = linear_field(np.arange(1.0, dim + 1.0), name="u-affine")
        f = constant_field(dim, 0.0, name="f-zero")
    else:
        raise ValueError(f"unknown manufactured family {family!r}")
    return ManufacturedProblem(u, f, family)


def manufacture_nlaplace(spec: NormSpec,
                         family: str = "quadratic") -> ManufacturedProblem:
    """u and g = -(quasilinear operator of u) for the dimension-tied case,
    with g held in `f`.

    The quadratic family is u = |x|^2 / 2 and `g` is evaluated pointwise
    from u's analytic jet; the affine family has an exactly zero source.  A
    norm without a matrix, or N < 3, is refused, as the theorem check that
    takes the problem refuses it.
    """
    _require_quasilinear(spec, "a manufactured quasilinear source")
    dim = spec.dim
    if family == "affine":
        u = linear_field(np.arange(1.0, dim + 1.0), name="u-affine")
        return ManufacturedProblem(u, constant_field(dim, 0.0, name="g-zero"), family)
    if family != "quadratic":
        raise ValueError(f"unknown manufactured family {family!r}")
    u = quadratic_field(0.5 * np.eye(dim), name="u-quadratic")
    g = ScalarField(dim, lambda pts: -finsler_n_laplacian(spec, u.jet(pts), dim),
                    name="g-quadratic-pointwise")
    return ManufacturedProblem(u, g, family)


# ---------------------------------------------------------------------------
# theorem residual checks


def _require_quadratic_form(spec: NormSpec, what: str) -> None:
    if spec.matrix is None:
        raise ValueError(f"{what} assumes a quadratic-form (riemannian or "
                         f"euclidean) norm, got {spec.canonical()}")


def _require_quasilinear(spec: NormSpec, what: str) -> None:
    _require_quadratic_form(spec, what)
    if spec.dim < 3:
        raise ValueError("the quasilinear transform theorem needs dimension >= 3")


def _tagged(gates, tag: str) -> list[Gate]:
    """A sub-check's gates as its suite reports them: `name[tag]`."""
    return [replace(g, name=f"{g.name}[{tag}]") for g in gates]


def _fit_order(steps, residuals) -> float:
    logs = np.log(np.asarray(steps, dtype=float))
    logr = np.log(np.maximum(np.asarray(residuals, dtype=float), 1e-300))
    return float(np.polyfit(logs, logr, 1)[0])


def _convergence_study(ctx: KelvinContext, u: ScalarField, rhs_values,
                       points) -> dict:
    """Semilinear residual vs plain central-difference step of u's weighted
    pullback, with a fitted order.  One jet call per step over all `points`;
    refinement=1 keeps the truncation term visible (the Richardson default
    would sit on the extrapolation floor immediately).
    """
    uhat = hat_transform(ctx, u)
    maxres = []
    for h in _FD_STEPS:
        jet = numeric_jet(uhat, points, step=h, refinement=1)
        lhs = -anisotropic_laplacian(ctx.dual, jet)
        maxres.append(float(np.max(np.abs(lhs - rhs_values))))
    return {
        "steps": list(_FD_STEPS),
        "max_residuals": maxres,
        "order": _fit_order(_FD_STEPS, maxres),
    }


def _sub_report(suite: str, tolerance: float, prob: ManufacturedProblem,
                rows: ResidualRows) -> ResidualReport:
    """A theorem check's report: its rows, one `max_rel` gate, and the family
    and jet path (FD exactly when u has no analytic jet) in `details`."""
    report = ResidualReport(suite=suite, tolerance=tolerance, rows=rows, details={
        "family": prob.family, "jet_path": "analytic" if prob.u.has_jet else "fd"})
    report.gates.append(Gate("max_rel", report.max_rel_residual(), tolerance))
    return report


def check_theorem_semilinear(ctx: KelvinContext, prob: ManufacturedProblem,
                             plan: SamplePlan) -> ResidualReport:
    """Residuals of the weighted-pullback transform theorem.

    At each plan point y, the left side applies the dual-norm divergence
    operator to the jet of u_hat = H^(2-N) u(T) and the right side evaluates
    (f o T)(y) / H(y)^(N+2).  Jets are analytic chain-rule jets, or
    finite-difference jets exactly when u has no analytic jet (a value-only
    ``ScalarField(u.dim, u)``).
    """
    return _check_semilinear(ctx, [prob], plan)[0]


def _check_semilinear(ctx: KelvinContext, probs, plan: SamplePlan):
    """``check_theorem_semilinear`` of each problem; when every u has an
    analytic jet they share one ``kelvin._hat_jets`` pass per `_JET_BLOCK` rows."""
    _require_quadratic_form(ctx.spec, "the semilinear transform theorem")
    pts = plan.points(ctx.spec)
    h, t = _inversion(ctx.spec, pts)
    if all(prob.u.has_jet for prob in probs):
        us = [prob.u for prob in probs]
        blocks = (pts[k:k + _JET_BLOCK] for k in range(0, len(pts), _JET_BLOCK))
        columns = zip(*([-anisotropic_laplacian(ctx.dual, jet)
                         for jet in _hat_jets(ctx, us, b)] for b in blocks))
    else:
        columns = [[-anisotropic_laplacian(ctx.dual, jet) for jet in
                    _jets(hat_transform(ctx, prob.u), pts)] for prob in probs]
    h_power = h ** (ctx.dim + 2)
    return [_sub_report("theorem-semilinear", TOL_SEMILINEAR, prob, residual_rows(
        pts, np.hstack(column), np.asarray(prob.f(t)) / h_power))
        for prob, column in zip(probs, columns)]


def check_theorem_nlaplace(ctx: KelvinContext, prob: ManufacturedProblem,
                           plan: SamplePlan,
                           tolerance: float = TOL_NLAPLACE) -> ResidualReport:
    """Residuals of the plain-pullback quasilinear transform theorem.

    Jets are chosen as in ``check_theorem_semilinear``.  Points whose
    pullback gradient is numerically degenerate (below
    ``DEGENERATE_GRADIENT_TOL``) are flagged and excluded from aggregates;
    the quasilinear coefficient loses meaning there.
    """
    _require_quasilinear(ctx.spec, "the quasilinear transform theorem")
    n = ctx.dim
    pts = plan.points(ctx.spec)
    h, t = _inversion(ctx.spec, pts)
    lhs, flags = [], []
    for jet in _jets(star_transform(ctx, prob.u), pts):
        lhs.append(-finsler_n_laplacian(ctx.dual, jet, n))
        flags.append(np.sqrt(row_dot(jet.gradient, jet.gradient))
                     < DEGENERATE_GRADIENT_TOL)
    rows = residual_rows(pts, np.hstack(lhs), np.asarray(prob.f(t)) / h ** (2 * n),
                         flags=np.hstack(flags))
    return _sub_report("theorem-nlaplace", tolerance, prob, rows)


def check_fundamental_solution(ctx: KelvinContext, plan: SamplePlan) -> ResidualReport:
    """H^(2-N) is annihilated by the dual-norm divergence operator, for
    N >= 3 (in the plane the fundamental solution is log H, not H^0 = 1)."""
    _require_quadratic_form(ctx.spec, "the fundamental-solution check")
    if ctx.dim < 3:
        raise ValueError("the fundamental-solution check needs dimension >= 3")
    w = norm_power_field(ctx.spec, 2.0 - ctx.dim)
    pts = plan.points(ctx.spec)
    lhs = np.hstack([anisotropic_laplacian(ctx.dual, jet) for jet in _jets(w, pts)])
    rows = residual_rows(pts, lhs, np.zeros(len(pts)))
    report = ResidualReport(suite="fundamental-solution",
                            tolerance=TOL_FUNDAMENTAL, rows=rows)
    report.gates.append(Gate("fundamental_solution", report.max_rel_residual(),
                             TOL_FUNDAMENTAL))
    return report


def check_proof_identities(ctx: KelvinContext, plan: SamplePlan) -> ResidualReport:
    """The two matrix transport identities behind the transform theorems.

    For quadratic-form norms and every y, xi, p (p standing in for a field
    gradient at T(y)):

      (a)  H°(DT(y) xi) = H(xi) / H(y)^2
      (b)  H(p) DT_dual(T(y)) gradH(p)
              = H(y)^4 H°(q) gradH°(q),  q = DT(y) p.
    """
    spec = ctx.spec
    _require_quadratic_form(spec, "the proof transport identities")
    pts = plan.points(spec)
    count, dim = pts.shape
    xis = cube_directions(count, dim, skip=41) * 1.7
    ps = cube_directions(count, dim, skip=57) * 2.3

    hy, t = _inversion(spec, pts)
    dt = jacobian_matrix(ctx, pts)
    lhs_a = np.asarray(spec.dual_value(row_matvec(dt, xis))) * np.float_power(hy, 2)
    rhs_a = np.asarray(spec.value(xis))
    abs_a, rel_a = residuals(lhs_a, rhs_a)

    jp = spec.jet(ps)
    left = jp.value[:, None] * row_matvec(jacobian_matrix(ctx.dual_context, t),
                                          jp.gradient)
    jq = ctx.dual.jet(row_matvec(dt, ps))
    right = (np.float_power(hy, 4) * jq.value)[:, None] * jq.gradient
    left_k, right_k = _worst_component(left, right)
    abs_b = np.abs(left_k - right_k)
    rel_b = abs_b / np.maximum(np.maximum(np.max(np.abs(left), axis=1),
                                          np.max(np.abs(right), axis=1)), 1.0)
    gates = [Gate("norm_transport", float(np.max(rel_a)), TOL_PROOF_IDENTITY),
             Gate("gradient_transport", float(np.max(rel_b)), TOL_PROOF_IDENTITY)]

    # each row shows the identity with the larger residual, (b) on a tie,
    # and a NaN residual before any number
    pick_b = (rel_b >= rel_a) | np.isnan(rel_b)
    rows = ResidualRows(pts, *(np.where(pick_b, b, a) for b, a in (
        (left_k, lhs_a), (right_k, rhs_a), (abs_b, abs_a), (rel_b, rel_a))))
    return ResidualReport(suite="proof-identities", tolerance=TOL_PROOF_IDENTITY,
                          rows=rows, details={g.name: g.value for g in gates},
                          gates=gates)


def _worst_component(got: np.ndarray, want: np.ndarray):
    """(got, want) per row at the component where they differ most, the
    first such component on a tie."""
    idx = np.arange(len(got))
    k = np.argmax(np.abs(got - want), axis=1)
    return got[idx, k], want[idx, k]


# ---------------------------------------------------------------------------
# identity suite


def run_identity_suite(spec: NormSpec, plan: SamplePlan) -> ResidualReport:
    """Worst-case residuals of the first-order norm identities.

    Per point: Euler relation, absolute homogeneity, gradient
    zero-homogeneity, the unit dualities H(gradH°) = H°(gradH) = 1, the
    inversion dualities H(x) gradH°(gradH(x)) = x (and its mirror), the
    Euclidean equivalence bounds, and biduality.  The report keeps the worst
    identity per point as its row and the per-identity worst cases in
    `details`.
    """
    dual = spec.dual()
    c1, c2 = equivalence_constants(spec)
    pts = plan.points(spec)
    idx = np.arange(len(pts))
    scales = np.array(_HOMOG_SCALES)
    j = spec.jet(pts)
    jd = dual.jet(pts)
    h = j.value
    s = scales[idx % len(scales)]
    t = scales[(idx + 3) % len(scales)]
    ratio = h / np.sqrt(row_dot(pts, pts))
    ones = np.ones(len(pts))
    # one (lhs, rhs) column pair per identity; in a tie, the row keeps the
    # first listed (np.argmax takes the first maximum)
    entries = [
        ("euler", row_dot(j.gradient, pts), h),
        ("homogeneity", spec.value(s[:, None] * pts), np.abs(s) * h),
        ("gradient_zero_homogeneity",
         *_worst_component(spec.jet(t[:, None] * pts).gradient,
                           np.copysign(1.0, t)[:, None] * j.gradient)),
        ("unit_duality", spec.value(jd.gradient), ones),
        ("unit_duality", spec.dual_value(j.gradient), ones),
        ("inverse_duality",
         *_worst_component(h[:, None] * dual.jet(j.gradient).gradient, pts)),
        ("inverse_duality",
         *_worst_component(jd.value[:, None] * spec.jet(jd.gradient).gradient, pts)),
        ("equivalence", ratio, np.clip(ratio, c1, c2)),
        ("bidual", dual.dual_value(pts), h),
    ]
    lhs = np.stack([e[1] for e in entries], axis=1)
    rhs = np.stack([e[2] for e in entries], axis=1)
    rel = residuals(lhs, rhs)[1]
    names = [e[0] for e in entries]
    worst = {name: float(np.max(rel[:, [nm == name for nm in names]]))
             for name in sorted(set(names))}
    best = np.argmax(rel, axis=1)
    return ResidualReport(suite="identities", tolerance=TOL_DUALITY,
                          rows=residual_rows(pts, lhs[idx, best], rhs[idx, best]),
                          details={**worst, "equivalence_constants": [c1, c2]},
                          gates=[Gate(n, worst[n], TOL_DUALITY) for n in worst])


# ---------------------------------------------------------------------------
# inversion-map suite


def run_kelvin_suite(spec: NormSpec, plan: SamplePlan) -> ResidualReport:
    """Round trips, determinant lemma, and transport identities in one go."""
    ctx = KelvinContext(spec)
    pts = plan.points(spec)

    fwd = kelvin_inverse(ctx, kelvin_map(ctx, pts))
    bwd = kelvin_map(ctx, kelvin_inverse(ctx, pts))
    scale = np.maximum(np.max(np.abs(pts), axis=1), 1.0)
    e_fwd = np.max(np.abs(fwd - pts), axis=1) / scale
    e_bwd = np.max(np.abs(bwd - pts), axis=1) / scale
    err = np.maximum(e_fwd, e_bwd)
    zeros = np.zeros(len(pts))
    rows = ResidualRows(pts, zeros, zeros, err, err)
    gates = [Gate("roundtrip", float(np.max(err)), TOL_DUALITY)]

    refl = float(np.max(np.abs(np.abs(reflection_determinant(pts)) - 1.0)))
    gates.append(Gate("reflection_determinant", refl, TOL_REFLECTION_DET))

    # pullback involution: transforming twice with the dual context
    # restores the original field values
    probe = quadratic_field(0.5 * np.eye(ctx.dim),
                            0.1 * np.arange(1.0, ctx.dim + 1.0), 1.0)
    double = hat_transform(ctx.dual_context, hat_transform(ctx, probe))
    e_inv = np.max(np.abs(np.asarray(double(pts)) - np.asarray(probe(pts)))
                   / np.maximum(np.abs(np.asarray(probe(pts))), 1.0))
    gates.append(Gate("pullback_involution", float(e_inv), TOL_DUALITY))

    if spec.matrix is not None:
        detm = spec.matrix.det
        inv = det_invariant(ctx, pts)
        gates.append(Gate("det_invariant", float(np.max(np.abs(inv - detm) / detm)),
                          TOL_LEMMA_DET))

        d1 = jacobian_matrix(ctx, pts[:20])
        d2 = jacobian_matrix(ctx, 2.0 * pts[:20])
        jac_scale = float(np.max(np.max(np.abs(d2 - d1 / 4.0), axis=(1, 2))
                                 / np.max(np.abs(d1), axis=(1, 2))))
        gates.append(Gate("jacobian_scaling", jac_scale, TOL_DUALITY))
        gates += check_proof_identities(ctx, plan).gates
        if ctx.dim >= 3:
            gates += check_fundamental_solution(ctx, plan).gates

    return ResidualReport(suite="kelvin", tolerance=TOL_DUALITY, rows=rows,
                          details={g.name: g.value for g in gates}, gates=gates)


# ---------------------------------------------------------------------------
# counterexample scan


def run_counterexample_scan(spec: NormSpec | None = None) -> ResidualReport:
    """Sweep of the determinant invariant H^(2N) |det DT| over directions.

    For the quartic norm (any norm without a matrix) the invariant must
    swing by at least the frozen regression spread ``QUARTIC_SPREAD_MIN``
    while a seed-pinned Riemannian control stays constant to ``TOL_SPREAD_CONTROL``.  Running the scan on a
    quadratic-form norm fails by design: constancy is the whole point there.
    """
    if spec is None:
        spec = QuarticNorm()
    ctx = KelvinContext(spec)
    if spec.dim == 2:
        theta = 2.0 * np.pi * np.arange(_SCAN_DIRECTIONS) / _SCAN_DIRECTIONS
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    else:
        dirs = cube_directions(_SCAN_DIRECTIONS, spec.dim, skip=7)
        dirs /= np.sqrt(row_sum(dirs * dirs))[:, None]
    vals = det_invariant(ctx, dirs)
    spread = float((vals.max() - vals.min()) / vals.min())
    scale_defect = float(np.max(np.abs(det_invariant(ctx, 2.0 * dirs) - vals) / vals))
    mean = float(vals.mean())
    rows = residual_rows(dirs, vals, np.full(_SCAN_DIRECTIONS, mean))
    details = {"invariant_min": float(vals.min()), "invariant_max": float(vals.max()),
               "spread_floor": QUARTIC_SPREAD_MIN}
    gates = [Gate("spread", spread, QUARTIC_SPREAD_MIN, ">="),
             Gate("scale_invariance_defect", scale_defect, TOL_SCALE_INVARIANCE)]
    if spec.matrix is None:
        control = RiemannianNorm(SpdMatrix(np.array(_CONTROL_ENTRIES)))
        cvals = det_invariant(KelvinContext(control), dirs)
        cspread = float((cvals.max() - cvals.min()) / cvals.min())
        gates.append(Gate("control_spread", cspread, TOL_SPREAD_CONTROL))
    elif spread < QUARTIC_SPREAD_MIN:
        details["message"] = "spread below threshold: norm is Riemannian"
    return ResidualReport(suite="counterexample", tolerance=QUARTIC_SPREAD_MIN,
                          rows=rows, gates=gates,
                          details={**details, **{g.name: g.value for g in gates}})


# ---------------------------------------------------------------------------
# brute-force weak-form cross-check


def _gauss_gegenbauer(m: int, lam: float):
    """The m-point Gauss rule for the weight (1 - t^2)^(lam - 1/2) on
    [-1, 1] (Legendre at lam = 1/2), by Golub & Welsch (Math. Comp. 23, 1969):
    the nodes are the eigenvalues of the Jacobi matrix, the weights the mass
    times the squared first components of its eigenvectors."""
    k = np.arange(1.0, m)
    off = np.sqrt(k * (k + 2 * lam - 1) / (4 * (k + lam) * (k + lam - 1)))
    nodes, vecs = np.linalg.eigh(np.diag(off, -1))
    mass = math.sqrt(math.pi) * math.gamma(lam + 0.5) / math.gamma(lam + 1)
    return nodes, mass * vecs[0] ** 2


def _ball_rule(n: int):
    """Nodes (rows) and weights of a product Gauss rule on the unit ball of
    R^n in polar coordinates (Stroud 1971, ch. 2-3): m_r Gauss-Legendre radii
    with r^(n-1) in the weights, m_s Gauss-Gegenbauer nodes in each polar
    angle (weight sin^k, lam = k/2) and 2 m_s equal steps in the last angle.
    (m_r, m_s) is (8, 8) up to N = 3, and (7, 6) from N = 4, where (7, 7)
    took 1.6 times as long."""
    m_r, m_s = (8, 8) if n <= 3 else (7, 6)
    phi = np.pi * np.arange(2 * m_s) / m_s
    sphere = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    weights = np.full(2 * m_s, np.pi / m_s)
    for k in range(1, n - 1):  # S^k from S^(k-1): (cos a, sin a * x), weight sin^k a
        t, w = _gauss_gegenbauer(m_s, k / 2)
        rest = np.sqrt(1 - t * t)[:, None, None] * sphere
        sphere = np.concatenate([np.repeat(t, len(sphere))[:, None],
                                 rest.reshape(-1, k + 1)], axis=-1)
        weights = np.outer(w, weights).ravel()
    t, w = _gauss_gegenbauer(m_r, 0.5)
    r = (1 + t) / 2
    return ((r[:, None, None] * sphere).reshape(-1, n),
            np.outer(w / 2 * r ** (n - 1), weights).ravel())


def _exact_sum(terms: np.ndarray) -> float:
    """``math.fsum``, or ``np.sum``'s NaN or inf where no finite sum exists."""
    try:
        return math.fsum(terms.tolist())
    except (ValueError, OverflowError):  # inf - inf, or an overflowing total
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sum(terms))


def weak_form_crosscheck(ctx: KelvinContext, prob: ManufacturedProblem) -> dict:
    """Gauss-quadrature check of the transformed weak identity.

    Integrates  H^(4-2N) H°(p) <gradH°(p), grad psi>  against
    H^(-2N) (f o T) psi  over small boxes, with p = grad(u o T) obtained by
    plain finite differences of composed *values*.  Nothing here touches the
    chain-rule jets, so it is an independent route to the same theorem.

    Each box is the ball {|y - c| < R} that supports the C^2 bump
    psi = (1 - |y-c|^2/R^2)^3, integrated by the product rule of
    `_ball_rule` (1,024 nodes at N = 3, 3,024 at N = 4).  The integrand is
    smooth on the ball, so the rule converges spectrally; what is left is
    mostly the FD step's error.  Each term carries its node's weight over the
    mean weight, and the exact sum (``math.fsum``) is scaled by the ball's
    volume per node, as a midpoint sum by its cell: a box whose terms have no
    finite sum gets a NaN error, as with ``np.sum``.  A box whose source
    integral is exactly 0 is refused: its relative error would read 1
    whatever the lhs, so the source is computed first.
    """
    _require_quadratic_form(ctx.spec, "the weak-form cross-check")
    n = ctx.dim
    if n > _WEAK_FORM_MAX_DIM:
        raise ValueError(f"the weak-form cross-check builds its product rule "
                         f"only up to N = {_WEAK_FORM_MAX_DIM}, got N = {n}")
    centers = cube_directions(_BUMP_BOXES, n, skip=29)
    centers = centers * (1.3 / np.asarray(ctx.spec.value(centers)))[:, None]

    unit, weights = _ball_rule(n)
    mean = float(np.mean(weights))
    cell = mean * _BUMP_RADIUS ** n  # the ball's volume per node
    base = 1.0 - row_sum(unit * unit)
    wpsi = weights / mean * base**3
    wdpsi = (weights / mean * (-6.0 / _BUMP_RADIUS) * base**2)[:, None] * unit
    ustar = star_transform(ctx, prob.u)

    errors = []
    for k, c in enumerate(centers):
        pts = c + _BUMP_RADIUS * unit
        hy, t = _inversion(ctx.spec, pts)
        rhs = _exact_sum(hy ** (-2 * n) * prob.f(t) * wpsi) * cell
        if rhs == 0.0:
            raise ValueError(f"the weak-form cross-check needs a source whose "
                             f"integral is nonzero: box {k} at {c.tolist()} "
                             f"integrates to exactly 0")
        p = np.stack([(ustar(pts + e) - ustar(pts - e)) / (2.0 * _WEAK_FD_STEP)
                      for e in _WEAK_FD_STEP * np.eye(n)], axis=-1)
        hdual, gdual = ctx.dual.value_gradient(p)
        lhs = _exact_sum(hy ** (4 - 2 * n) * hdual
                         * row_sum(gdual * wdpsi)) * cell
        errors.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    return {
        "box_errors": errors,
        "worst": float(np.max(errors)),
        "boxes": _BUMP_BOXES,
        "nodes": len(weights),
    }


# ---------------------------------------------------------------------------
# CLI-facing composite suites


def run_semilinear_suite(spec: NormSpec, plan: SamplePlan) -> ResidualReport:
    """Semilinear transform theorem: analytic residuals on two manufactured
    families, a numeric-jet convergence fit, the weak-form quadrature
    cross-check, and the transformed-source round trip."""
    ctx = KelvinContext(spec)
    probs = [manufacture_semilinear(spec, family)
             for family in ("quadratic", "gaussian-bump")]
    reps = _check_semilinear(ctx, probs, plan)
    # the step study of the quadratic family on its 5 outermost points
    pts = plan.points(spec)
    sel = np.argsort(-row_dot(pts, pts))[:5]
    convergence = _convergence_study(ctx, probs[0].u, reps[0].rows.rhs[sel], pts[sel])
    reps[0].gates.append(Gate("fd_order", convergence["order"], MIN_FD_ORDER, ">="))
    gates = [g for prob, rep in zip(probs, reps)
             for g in _tagged(rep.gates, prob.family)]
    prob = probs[-1]  # gaussian-bump
    gates.append(Gate("weak_form_worst", weak_form_crosscheck(ctx, prob)["worst"],
                      TOL_QUADRATURE))

    # transformed source pulled back through the dual map must restore f
    n = ctx.dim
    h_dual, t_dual = _inversion(ctx.dual, pts)
    h, t = _inversion(ctx.spec, t_dual)
    back = np.asarray(prob.f(t)) / h ** (n + 2) / h_dual ** (n + 2)
    f_vals = np.asarray(prob.f(pts))
    gates.append(Gate("source_roundtrip", float(np.max(residuals(back, f_vals)[1])),
                      TOL_SEMILINEAR))

    # the fitted order is reported under "convergence", every other gate in details
    details = {g.name: g.value for g in gates if not g.name.startswith("fd_order")}
    return ResidualReport(suite="semilinear", tolerance=TOL_SEMILINEAR,
                          rows=ResidualRows.concat([rep.rows for rep in reps]),
                          details=details, convergence=convergence, gates=gates)


def run_nlaplace_suite(spec: NormSpec, plan: SamplePlan) -> ResidualReport:
    """Quasilinear transform theorem: exact zero case plus quadratic case
    with both analytic and numeric jets (the numeric rows from the same
    problem with only u's values)."""
    ctx = KelvinContext(spec)
    details: dict = {}

    rep = check_theorem_nlaplace(ctx, manufacture_nlaplace(spec, "affine"), plan,
                                 tolerance=TOL_SEMILINEAR)
    blocks = [rep.rows]
    gates = _tagged(rep.gates, "affine")

    prob = manufacture_nlaplace(spec, "quadratic")
    value_only = replace(prob, u=ScalarField(spec.dim, prob.u, name=prob.u.name))
    for mode, p in (("auto", prob), ("numeric", value_only)):
        rep = check_theorem_nlaplace(ctx, p, plan)
        details[f"flagged[quadratic,{mode}]"] = rep.flagged_count()
        gates += _tagged(rep.gates, f"quadratic,{mode}")
    blocks.append(rep.rows)  # the numeric rows

    details.update((g.name, g.value) for g in gates)
    return ResidualReport(suite="nlaplace", tolerance=TOL_NLAPLACE,
                          rows=ResidualRows.concat(blocks), details=details,
                          gates=gates)
