"""Field constructors, jet algebra, and vectorised evaluation."""

import numpy as np
import pytest

from finslerkelvin import (
    QuarticNorm,
    RiemannianNorm,
    ScalarField,
    constant_field,
    gaussian_field,
    linear_field,
    norm_power_field,
    quadratic_field,
)
from finslerkelvin.verify import random_spd_matrix

from conftest import annulus_points, fd_gradient, fd_hessian


def sample_fields(dim):
    rng = np.random.default_rng(99 + dim)
    a = rng.standard_normal((dim, dim))
    return [
        constant_field(dim, 2.5),
        linear_field(rng.standard_normal(dim), 0.7),
        quadratic_field(a, rng.standard_normal(dim), -0.3),
        linear_field(rng.standard_normal(dim)) * quadratic_field(a, rng.standard_normal(dim)),
        gaussian_field(0.3 * rng.standard_normal(dim), width=1.4, amplitude=2.0),
    ]


def assert_jet_consistent(field, x, gtol=5e-6, htol=5e-4):
    j = field.jet(x)
    assert j.value == pytest.approx(field(x), rel=1e-12, abs=1e-12)
    assert np.allclose(j.gradient, fd_gradient(field, x), atol=gtol)
    assert np.allclose(j.hessian, fd_hessian(field, x), atol=htol)
    assert np.allclose(j.hessian, j.hessian.T, atol=1e-12)


def test_constructor_jets_match_fd(rng):
    for dim in (2, 3):
        pts = annulus_points(rng, dim, count=5)
        for field in sample_fields(dim):
            for x in pts:
                assert_jet_consistent(field, x)


def test_algebra_jets_match_fd(rng):
    dim = 3
    f1, f2 = sample_fields(dim)[2], sample_fields(dim)[4]
    combos = [f1 + f2, f1 - f2, f1 * f2, 3.0 * f1, f1 * 0.5, -f2, f1 + 1.0]
    for field in combos:
        for x in annulus_points(rng, dim, count=4):
            assert_jet_consistent(field, x)


def test_vectorized_evaluation_shape(rng):
    field = gaussian_field(np.zeros(3))
    pts = rng.standard_normal((4, 5, 3))
    vals = field(pts)
    assert vals.shape == (4, 5)
    assert vals[2, 3] == pytest.approx(field(pts[2, 3]), rel=1e-15)


def test_field_without_jet_raises():
    bare = ScalarField(2, lambda pts: np.sum(pts, axis=-1), name="bare")
    assert not bare.has_jet
    with pytest.raises(ValueError, match="no jet"):
        bare.jet(np.array([1.0, 2.0]))


def test_dim_mismatch_raises():
    field = constant_field(2, 1.0)
    with pytest.raises(ValueError):
        field(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        field + constant_field(3, 1.0)


def test_norm_power_field_jets(rng):
    specs = [RiemannianNorm(random_spd_matrix(3, seed=21)), QuarticNorm()]
    for spec in specs:
        for p in (2.0 - spec.dim, 1.0, -2.0):
            field = norm_power_field(spec, p)
            for x in annulus_points(rng, spec.dim, count=4):
                assert_jet_consistent(field, x)


def test_quadratic_field_symmetrizes():
    asym = np.array([[1.0, 2.0], [0.0, 1.0]])
    field = quadratic_field(asym)
    j = field.jet(np.array([1.0, 1.0]))
    assert np.allclose(j.hessian, [[2.0, 2.0], [2.0, 2.0]])
