"""Batched finite-difference jets against the one-point reference builder.

`reference_numeric_jet` is the one-point stencil builder that the batched
``numeric_jet`` replaced: same steps, offset table, Richardson levels, error
estimates and refusals.  A batch row must equal that point's reference jet
byte for byte, and the theorem checks on a value-only problem (u without
an analytic jet, so FD jets) must reproduce the rows of the point-by-point
loop they replaced.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from finslerkelvin import (
    EuclideanNorm,
    Jet2,
    KelvinContext,
    ManufacturedProblem,
    QuarticNorm,
    RiemannianNorm,
    SamplePlan,
    ScalarField,
    anisotropic_laplacian,
    check_theorem_nlaplace,
    check_theorem_semilinear,
    constant_field,
    finsler_n_laplacian,
    gaussian_field,
    hat_transform,
    kelvin_map,
    manufacture_nlaplace,
    manufacture_semilinear,
    numeric_jet,
    quadratic_field,
    run_semilinear_suite,
    star_transform,
)
from finslerkelvin import verify
from finslerkelvin.norms import row_dot
from finslerkelvin.verify import random_spd_matrix

from conftest import annulus_points, row_tuples
from test_norms import QUADRATIC_BATCH_SPECS

SPECS = QUADRATIC_BATCH_SPECS + [RiemannianNorm(random_spd_matrix(4, seed=0))]
THEOREM_SPECS = [s for s in SPECS if s.dim >= 3]
ROWS = 30
EPS = float(np.finfo(float).eps)


def _reference_offsets(n):
    eye = np.eye(n)
    rows = [eye[i] for i in range(n)] + [-eye[i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows += [eye[i] + eye[j], eye[i] - eye[j],
                     -eye[i] + eye[j], -eye[i] - eye[j]]
    return np.array(rows)


def _reference_richardson(values):
    r = [np.asarray(v, dtype=float) for v in values]
    L = len(r)
    for j in range(1, L):
        factor = 4.0**j
        for i in range(L - 1, j - 1, -1):
            r[i] = (factor * r[i] - r[i - 1]) / (factor - 1.0)
    if L < 2:
        return r[-1], float("nan")
    return r[-1], float(np.max(np.abs(r[-1] - r[-2])))


def reference_numeric_jet(field, point, step="auto", refinement=3):
    """One point: (value, gradient, hessian, gradient_error, hessian_error)."""
    x = np.asarray(point, dtype=float)
    n = field.dim
    levels = int(refinement)
    if step == "auto":
        hg = EPS ** (1.0 / 3.0) * max(1.0, float(np.sqrt(x @ x)))
        hh = EPS ** 0.25 * max(1.0, float(np.sqrt(x @ x)))
    else:
        hg = hh = float(step)
    reach = max(hg, hh) * 2.0 ** (levels - 1) * np.sqrt(2.0) * 1.000001
    if float(np.sqrt(x @ x)) <= reach:
        raise ValueError(f"stencil of reach {reach:.3g} would cross the origin")
    f0 = float(field(x))
    scale = 2.0 ** np.arange(levels - 1, -1, -1)[:, None]
    gs, hs = hg * scale, hh * scale
    hs2 = hs * hs
    table = _reference_offsets(n)
    rows = hs[:, :, None] * table
    if hg != hh:
        rows = np.concatenate([rows, gs[:, :, None] * table[: 2 * n]], axis=1)
    vals = np.asarray(field(x + rows.reshape(-1, n)), dtype=float)
    vals = vals.reshape(levels, -1)
    gvals = vals[:, -2 * n:] if hg != hh else vals
    grad = (gvals[:, :n] - gvals[:, n: 2 * n]) / (2.0 * gs)
    fp, fm = vals[:, :n], vals[:, n: 2 * n]
    hess = np.zeros((levels, n, n))
    idx = np.arange(n)
    hess[:, idx, idx] = (fp - 2.0 * f0 + fm) / hs2
    i, j = np.triu_indices(n, 1)
    q = vals[:, 2 * n: len(table)].reshape(levels, -1, 4)
    off = (q[..., 0] - q[..., 1] - q[..., 2] + q[..., 3]) / (4.0 * hs2)
    hess[:, i, j] = hess[:, j, i] = off
    grad, gerr = _reference_richardson(grad)
    hess, herr = _reference_richardson(hess)
    return f0, grad, 0.5 * (hess + hess.T), gerr, herr


def _same_bytes(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _transforms(spec):
    """Star and hat transforms of fields whose batch values round as points:
    the manufactured u of both theorem suites and a seeded Gaussian."""
    ctx = KelvinContext(spec)
    d = spec.dim
    rng = np.random.default_rng(11 + d)
    fields = [manufacture_semilinear(spec, "quadratic").u,
              manufacture_semilinear(spec, "gaussian-bump").u,
              gaussian_field(0.3 * rng.standard_normal(d), width=1.3,
                             amplitude=-0.8)]
    if d >= 3:
        fields.append(manufacture_nlaplace(spec, "quadratic").u)
    return [t(ctx, u) for u in fields for t in (star_transform, hat_transform)]


def _jet_parts(jet, k=None):
    parts = (jet.value, jet.gradient, jet.hessian, jet.gradient_error,
             jet.hessian_error)
    return parts if k is None else tuple(p[k] for p in parts)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("step", ["auto", 1e-3])
def test_batch_rows_equal_the_one_point_reference_bitwise(spec, step, rng):
    pts = annulus_points(rng, spec.dim, count=ROWS)
    d = spec.dim
    for field in _transforms(spec):
        for refinement in (1, 2, 3):
            batch = numeric_jet(field, pts, step=step, refinement=refinement)
            assert batch.value.shape == batch.gradient_error.shape == (ROWS,)
            assert batch.hessian_error.shape == (ROWS,)
            assert batch.gradient.shape == (ROWS, d)
            assert batch.hessian.shape == (ROWS, d, d)
            for k, x in enumerate(pts):
                want = reference_numeric_jet(field, x, step, refinement)
                for part, (g, w) in enumerate(zip(_jet_parts(batch, k), want)):
                    assert _same_bytes(g, w), (field.name, refinement, k, part)
            alone = numeric_jet(field, pts[0], step=step, refinement=refinement)
            assert type(alone.value) is float
            assert type(alone.gradient_error) is float
            assert type(alone.hessian_error) is float
            for g, w in zip(_jet_parts(alone), _jet_parts(batch, 0)):
                assert _same_bytes(g, w)


@pytest.mark.parametrize("spec", SPECS)
def test_one_point_equals_the_reference_and_rows_take_batch_values(spec, rng):
    # a general quadratic's `evaluate` (`pts @ b`, `einsum`) rounds a row of
    # a large batch otherwise than a point alone; a batch row's FD value is
    # then the field's batch value, and the stencil terms stay bitwise
    d = spec.dim
    field = star_transform(KelvinContext(spec), quadratic_field(
        rng.standard_normal((d, d)), rng.standard_normal(d), 0.4))
    pts = annulus_points(rng, d, count=ROWS)
    batch = numeric_jet(field, pts)
    assert _same_bytes(batch.value, field(pts))
    for k, x in enumerate(pts):
        want = reference_numeric_jet(field, x)
        assert _same_bytes(batch.gradient[k], want[1])
        assert _same_bytes(batch.gradient_error[k], want[3])
        for g, w in zip(_jet_parts(numeric_jet(field, x)), want):
            assert _same_bytes(g, w)


def test_batch_with_a_row_inside_the_stencil_reach_names_that_row(rng):
    field = ScalarField(3, lambda p: np.sum(p, axis=-1), name="sum")
    pts = annulus_points(rng, 3, count=6)
    pts[4] = [2e-5, 0.0, 1e-5]
    with pytest.raises(ValueError, match=re.escape(f"{pts[4].tolist()}")) as exc:
        numeric_jet(field, pts)
    assert "origin" in str(exc.value)
    # the first offending row is named when several are inside
    pts[2] = [0.0, 3e-5, 0.0]
    with pytest.raises(ValueError, match=re.escape(f"{pts[2].tolist()}")):
        numeric_jet(field, pts, step=1e-3)


def test_batch_nonfinite_values_name_the_first_offending_row():
    def evaluate(p):
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.log(p[..., 0])

    field = ScalarField(2, evaluate, name="log x")
    pts = np.array([[1.0, 1.0], [-0.5, 1.0], [-0.7, 1.0]])
    with pytest.raises(ValueError, match=re.escape("at [-0.5, 1.0]")):
        numeric_jet(field, pts, step=0.01, refinement=1)
    # finite at the points, but the stencil of the second row is not
    pts = np.array([[1.0, 1.0], [0.005, 1.0], [0.004, 1.0]])
    with pytest.raises(ValueError, match=re.escape("near [0.005, 1.0]")):
        numeric_jet(field, pts, step=0.01, refinement=1)


def test_quartic_transform_jets_take_a_batch(rng):
    ctx = KelvinContext(QuarticNorm())
    pts = annulus_points(rng, 2, count=40)
    for field in (hat_transform(ctx, quadratic_field(np.eye(2))),
                  star_transform(ctx, gaussian_field(np.array([0.3, -0.2]), 1.3))):
        # no analytic jet off quadratic forms: the FD jet is one call away
        assert not field.has_jet
        batch = numeric_jet(field, pts)
        assert batch.value.shape == (40,)
        assert batch.gradient.shape == (40, 2)
        assert batch.hessian.shape == (40, 2, 2)
        for k, y in enumerate(pts):
            alone = numeric_jet(field, y)
            gerr = max(batch.gradient_error[k], alone.gradient_error)
            herr = max(batch.hessian_error[k], alone.hessian_error)
            assert batch.value[k] == alone.value
            assert np.max(np.abs(batch.gradient[k] - alone.gradient)) <= gerr
            assert np.max(np.abs(batch.hessian[k] - alone.hessian)) <= herr


# ---------------------------------------------------------------------------
# theorem checks on value-only problems against the point-by-point loop

PLAN = SamplePlan(count=150, seed=4)  # more rows than one FD block


def _value_only(prob):
    """The problem with u's values only: the checks take FD jets of it."""
    return replace(prob, u=ScalarField(prob.u.dim, prob.u, name=prob.u.name))


@pytest.mark.parametrize("spec", THEOREM_SPECS)
def test_numeric_nlaplace_rows_equal_the_point_loop(spec):
    ctx = KelvinContext(spec)
    n = spec.dim
    prob = manufacture_nlaplace(spec, "quadratic")
    rep = check_theorem_nlaplace(ctx, _value_only(prob), PLAN)
    assert rep.details["jet_path"] == "fd"
    ustar = star_transform(ctx, prob.u)
    pts = PLAN.points(spec)
    h = np.asarray(spec.value(pts))
    rhs = np.asarray(prob.f(kelvin_map(ctx, pts))) / h ** (2 * n)
    assert len(rep.rows) == len(pts)
    for row, y, r in zip(row_tuples(rep.rows), pts, rhs):
        point, row_lhs, row_rhs, _, _, flag = row
        value, grad, hess, _, _ = reference_numeric_jet(ustar, y)
        lhs = -finsler_n_laplacian(ctx.dual, Jet2(value, grad, hess), n)
        gnorm = float(np.sqrt(row_dot(grad, grad)))
        assert point == tuple(y.tolist())
        assert (row_lhs, row_rhs) == (lhs, float(r))
        assert flag == (gnorm < verify.DEGENERATE_GRADIENT_TOL)


@pytest.mark.parametrize("spec", [SPECS[0], SPECS[4], SPECS[-1]])
def test_numeric_semilinear_rows_and_convergence_equal_the_point_loop(spec):
    ctx = KelvinContext(spec)
    n = spec.dim
    prob = manufacture_semilinear(spec, "quadratic")
    rep = check_theorem_semilinear(ctx, _value_only(prob), PLAN)
    assert rep.details["jet_path"] == "fd"
    convergence = run_semilinear_suite(spec, PLAN).convergence
    uhat = hat_transform(ctx, prob.u)
    pts = PLAN.points(spec)
    h = np.asarray(spec.value(pts))
    rhs = np.asarray(prob.f(kelvin_map(ctx, pts))) / h ** (n + 2)

    def lhs_of(y, **kw):
        value, grad, hess, _, _ = reference_numeric_jet(uhat, y, **kw)
        return -anisotropic_laplacian(ctx.dual, Jet2(value, grad, hess))

    assert row_tuples(rep.rows, ("lhs", "rhs")) == [
        (lhs_of(y), float(r)) for y, r in zip(pts, rhs)]
    sel = np.argsort([-float(p @ p) for p in pts])[:5]
    maxres = []
    for step in convergence["steps"]:
        worst = 0.0
        for y, r in zip(pts[sel], rhs[sel]):
            worst = max(worst, abs(lhs_of(y, step=step, refinement=1) - r))
        maxres.append(worst)
    assert convergence["max_residuals"] == maxres


def test_numeric_nlaplace_makes_two_field_calls_per_block():
    spec = RiemannianNorm(random_spd_matrix(3, seed=2))
    base = quadratic_field(0.5 * np.eye(3))
    calls = []

    def evaluate(p):
        calls.append(len(p))
        return base(p)

    prob = ManufacturedProblem(ScalarField(3, evaluate, name="counted"),
                               constant_field(3, 0.0), "counted")
    rep = check_theorem_nlaplace(KelvinContext(spec), prob, SamplePlan(count=300))
    assert len(rep.rows) == 300
    assert len(calls) <= 2 * math.ceil(300 / verify._FD_BLOCK)


# ---------------------------------------------------------------------------
# FD jets exactly when u has no analytic jet, and the report says which

JETLESS_PLAN = SamplePlan(count=1500)  # more rows than one block of either size


def _fd_lhs(field, pts, lhs_of_jet):
    """lhs from ``numeric_jet`` over `_FD_BLOCK`- and `_JET_BLOCK`-row blocks,
    which must agree: a row's FD jet does not depend on its block."""
    out = [np.hstack([lhs_of_jet(numeric_jet(field, pts[k:k + size]))
                      for k in range(0, len(pts), size)])
           for size in (verify._FD_BLOCK, verify._JET_BLOCK)]
    assert out[0].tobytes() == out[1].tobytes()
    return out[0]


def _column_bytes(rows):
    return [column.tobytes() for column in rows._columns()]


@pytest.mark.parametrize("spec", [EuclideanNorm(3), SPECS[-1]],
                         ids=["euclidean:3", "spd4"])
def test_a_value_only_problem_takes_fd_jets_and_says_so(spec):
    ctx = KelvinContext(spec)
    n = spec.dim
    pts = JETLESS_PLAN.points(spec)
    checks = [
        (check_theorem_semilinear, manufacture_semilinear, hat_transform,
         lambda j: -anisotropic_laplacian(ctx.dual, j)),
        (check_theorem_nlaplace, manufacture_nlaplace, star_transform,
         lambda j: -finsler_n_laplacian(ctx.dual, j, n)),
    ]
    for check, manufacture, transform, lhs_of_jet in checks:
        prob = manufacture(spec, "quadratic")
        bare = replace(prob, u=ScalarField(n, prob.u._evaluate))
        rep = check(ctx, bare, JETLESS_PLAN)
        assert rep.details == {"family": "quadratic", "jet_path": "fd"}
        lhs = _fd_lhs(transform(ctx, bare.u), pts, lhs_of_jet)
        assert rep.rows.lhs.tobytes() == lhs.tobytes()
        # u's values alone, through the field or its evaluate callable
        assert _column_bytes(rep.rows) == _column_bytes(
            check(ctx, _value_only(prob), JETLESS_PLAN).rows)
        assert check(ctx, prob, JETLESS_PLAN).details == {
            "family": "quadratic", "jet_path": "analytic"}
