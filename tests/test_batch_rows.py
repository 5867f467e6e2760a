"""Batched jets, chain rule and operators: every batch row rounds as the
point alone (the ``NormSpec`` contract, carried to fields, kelvin and
operators).  Rows are compared by their bytes, not within a tolerance."""

import numpy as np
import pytest

from finslerkelvin import (
    Jet2,
    KelvinContext,
    RiemannianNorm,
    anisotropic_laplacian,
    constant_field,
    finsler_n_laplacian,
    gaussian_field,
    hat_transform,
    jacobian_matrix,
    linear_field,
    map_second_derivative,
    norm_power_field,
    quadratic_field,
    star_transform,
)
from finslerkelvin.verify import random_spd_matrix

from conftest import annulus_points
from test_norms import QUADRATIC_BATCH_SPECS

SPECS = QUADRATIC_BATCH_SPECS + [RiemannianNorm(random_spd_matrix(4, seed=0))]
ROWS = 200


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _fields(spec):
    d = spec.dim
    rng = np.random.default_rng(7 + d)
    a = rng.standard_normal((d, d))
    quad = quadratic_field(a, rng.standard_normal(d), -0.3)
    gauss = gaussian_field(0.3 * rng.standard_normal(d), width=1.4, amplitude=2.0)
    return {
        "constant": constant_field(d, 2.5),
        "linear": linear_field(rng.standard_normal(d), 0.7),
        "quadratic": quad,
        "cubic": linear_field(rng.standard_normal(d)) * quadratic_field(a, rng.standard_normal(d)),
        "gaussian": gauss,
        "norm_power": norm_power_field(spec, 2.0 - d),
        "sum": quad + gauss,
        "scale": 3.0 * gauss,
        "product": quad * gauss,
    }


def _assert_jet_rows(field, pts):
    batch = field.jet(pts)
    n, d = pts.shape
    assert batch.value.shape == (n,)
    assert batch.gradient.shape == (n, d)
    assert batch.hessian.shape == (n, d, d)
    for k, x in enumerate(pts):
        j = field.jet(x)
        assert type(j.value) is float
        assert _same_bytes(batch.value[k], j.value), (field.name, k)
        assert _same_bytes(batch.gradient[k], j.gradient), (field.name, k)
        assert _same_bytes(batch.hessian[k], j.hessian), (field.name, k)


@pytest.mark.parametrize("spec", SPECS)
def test_field_jets_round_rows_as_points(spec, rng):
    pts = annulus_points(rng, spec.dim, count=ROWS)
    for field in _fields(spec).values():
        _assert_jet_rows(field, pts)


@pytest.mark.parametrize("spec", SPECS)
def test_transform_jets_round_rows_as_points(spec, rng):
    ctx = KelvinContext(spec)
    fields = _fields(spec)
    pts = annulus_points(rng, spec.dim, count=ROWS)
    for field in (hat_transform(ctx, fields["quadratic"]),
                  star_transform(ctx, fields["gaussian"]),
                  hat_transform(ctx, fields["product"])):
        _assert_jet_rows(field, pts)


@pytest.mark.parametrize("spec", SPECS)
def test_kelvin_calculus_rounds_rows_as_points(spec, rng):
    ctx = KelvinContext(spec)
    pts = annulus_points(rng, spec.dim, count=ROWS)
    d = spec.dim
    jac = jacobian_matrix(ctx, pts)
    d2t = map_second_derivative(ctx, pts)
    assert jac.shape == (ROWS, d, d)
    assert d2t.shape == (ROWS, d, d, d)
    for k, x in enumerate(pts):
        assert _same_bytes(jac[k], jacobian_matrix(ctx, x))
        assert _same_bytes(d2t[k], map_second_derivative(ctx, x))


@pytest.mark.parametrize("spec", SPECS)
def test_operators_round_rows_as_points(spec, rng):
    ctx = KelvinContext(spec)
    d = spec.dim
    pts = annulus_points(rng, d, count=ROWS)
    jet = hat_transform(ctx, _fields(spec)["gaussian"]).jet(pts)
    # one row with a zero gradient exercises the degenerate branch
    grad = jet.gradient.copy()
    grad[5] = 0.0
    jet = Jet2(jet.value, grad, jet.hessian)
    lap = anisotropic_laplacian(ctx.dual, jet)
    nlap = finsler_n_laplacian(ctx.dual, jet, d)
    assert lap.shape == nlap.shape == (ROWS,)
    # at a zero gradient B vanishes for d > 2; in the plane B = A
    if d > 2:
        assert nlap[5] == 0.0
    else:
        assert _same_bytes(nlap[5], lap[5])
    for k in range(ROWS):
        row = Jet2(float(jet.value[k]), jet.gradient[k], jet.hessian[k])
        alone = anisotropic_laplacian(ctx.dual, row)
        assert type(alone) is float
        assert _same_bytes(lap[k], alone)
        point = finsler_n_laplacian(ctx.dual, row, d)
        assert type(point) is float
        assert _same_bytes(nlap[k], point), k
