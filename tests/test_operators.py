"""Pointwise operators and the finite-difference jet builder."""

import numpy as np
import pytest

from finslerkelvin import (
    EuclideanNorm,
    Jet2,
    QuarticNorm,
    RiemannianNorm,
    ScalarField,
    anisotropic_laplacian,
    finsler_n_laplacian,
    gaussian_field,
    linear_field,
    numeric_jet,
    quadratic_field,
)
from finslerkelvin.verify import random_spd_matrix

from conftest import annulus_points, fd_divergence


def make_jet(value, gradient, hessian):
    return Jet2(float(value), np.asarray(gradient, float),
                np.asarray(hessian, float))


# ---------------------------------------------------------------------------
# anisotropic laplacian


def test_laplacian_quadratic_form_example():
    spec = RiemannianNorm([[2.0, 0.0], [0.0, 1.0]])
    jet = make_jet(0.0, [1.0, 1.0], 2.0 * np.eye(2))
    assert anisotropic_laplacian(spec, jet) == pytest.approx(6.0, abs=1e-14)


def test_laplacian_euclidean_is_trace(rng):
    spec = EuclideanNorm(3)
    for _ in range(20):
        h = rng.standard_normal((3, 3))
        h = h + h.T
        jet = make_jet(0.0, rng.standard_normal(3), h)
        assert anisotropic_laplacian(spec, jet) == pytest.approx(
            float(np.trace(h)), rel=1e-13, abs=1e-13
        )


def test_laplacian_affine_is_zero():
    jet = make_jet(1.0, [2.0, -1.0], np.zeros((2, 2)))
    for spec in (EuclideanNorm(2), RiemannianNorm([[4.0, 1.0], [1.0, 2.0]]),
                 QuarticNorm()):
        assert anisotropic_laplacian(spec, jet) == pytest.approx(0.0, abs=1e-14)


def test_laplacian_zero_gradient():
    jet = make_jet(0.0, [0.0, 0.0], np.eye(2))
    # quadratic-form coefficient is constant, so this is fine
    assert anisotropic_laplacian(RiemannianNorm([[2.0, 0.0], [0.0, 1.0]]), jet) \
        == pytest.approx(3.0)
    with pytest.raises(ValueError, match="zero gradient"):
        anisotropic_laplacian(QuarticNorm(), jet)


def test_laplacian_riemannian_identity_equals_euclidean(rng):
    ri = RiemannianNorm(np.eye(3))
    eu = EuclideanNorm(3)
    for _ in range(100):
        h = rng.standard_normal((3, 3))
        jet = make_jet(0.0, rng.standard_normal(3), h + h.T)
        a = anisotropic_laplacian(ri, jet)
        b = anisotropic_laplacian(eu, jet)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_laplacian_divergence_form_consistency(rng):
    # FD divergence of x -> H(grad u(x)) gradH(grad u(x)) is an independent
    # route to the same number
    for seed in range(4):
        spec = RiemannianNorm(random_spd_matrix(3, seed=30 + seed))
        for _ in range(5):
            u = linear_field(rng.standard_normal(3) * 0.5) * quadratic_field(
                rng.standard_normal((3, 3)) * 0.5, rng.standard_normal(3))

            def flux(x):
                g = u.jet(x).gradient
                j = spec.jet(g)
                return j.value * j.gradient

            x = rng.uniform(0.6, 1.4, size=3)
            direct = anisotropic_laplacian(spec, u.jet(x))
            oracle = fd_divergence(flux, x)
            assert abs(direct - oracle) <= 1e-6 * max(1.0, abs(direct))


# ---------------------------------------------------------------------------
# dimension-tied quasilinear operator


def test_nlaplace_affine_zero():
    jet = make_jet(0.0, [1.0, 2.0, 0.5], np.zeros((3, 3)))
    for spec in (EuclideanNorm(3), RiemannianNorm(random_spd_matrix(3, seed=1))):
        assert finsler_n_laplacian(spec, jet, 3) == pytest.approx(0.0, abs=1e-14)


def test_nlaplace_euclidean_halfsquare(rng):
    # u = |x|^2/2: operator value is div(|x|^(N-2) x) = (2N-2) |x|^(N-2).
    spec = EuclideanNorm(3)
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, size=3)
        jet = make_jet(0.5 * float(x @ x), x, np.eye(3))
        expected = 4.0 * float(np.linalg.norm(x))
        assert finsler_n_laplacian(spec, jet, 3) == pytest.approx(
            expected, rel=1e-12
        )

        # FD-divergence cross-check of the same closed form
        def flux(p):
            g = p  # grad u = x
            j = spec.jet(g)
            return j.value**2 * j.gradient

        oracle = fd_divergence(flux, x)
        assert oracle == pytest.approx(expected, rel=1e-7)


def test_nlaplace_matches_laplacian_in_dim2(rng):
    specs = [EuclideanNorm(2), RiemannianNorm(random_spd_matrix(2, seed=3)),
             QuarticNorm()]
    for spec in specs:
        for _ in range(40):
            h = rng.standard_normal((2, 2))
            g = rng.standard_normal(2)
            jet = make_jet(0.0, g, h + h.T)
            a = finsler_n_laplacian(spec, jet, 2)
            b = anisotropic_laplacian(spec, jet)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_nlaplace_riemannian_identity_equals_euclidean(rng):
    ri = RiemannianNorm(np.eye(4))
    eu = EuclideanNorm(4)
    for _ in range(100):
        h = rng.standard_normal((4, 4))
        jet = make_jet(0.0, rng.standard_normal(4), h + h.T)
        a = finsler_n_laplacian(ri, jet, 4)
        b = finsler_n_laplacian(eu, jet, 4)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_nlaplace_degenerate_gradient_flagged():
    jet = make_jet(0.0, np.zeros(3), np.eye(3))
    assert finsler_n_laplacian(EuclideanNorm(3), jet, 3) == 0.0


def test_nlaplace_dimension_tied():
    jet = make_jet(0.0, [1.0, 0.0, 0.0], np.eye(3))
    with pytest.raises(ValueError, match="dimension-tied"):
        finsler_n_laplacian(EuclideanNorm(3), jet, 2)


# ---------------------------------------------------------------------------
# numeric jets


def test_numeric_jet_polynomial_example():
    field = ScalarField(2, lambda p: p[..., 0] ** 2 * p[..., 1], name="x^2 y")
    jet = numeric_jet(field, np.array([1.0, 2.0]))
    assert jet.value == pytest.approx(2.0, abs=1e-14)
    assert np.allclose(jet.gradient, [4.0, 1.0], atol=1e-8)
    assert np.allclose(jet.hessian, [[4.0, 2.0], [2.0, 0.0]], atol=1e-8)


def test_numeric_jet_constant_exact():
    field = ScalarField(3, lambda p: np.full(p.shape[:-1], 7.5), name="const")
    jet = numeric_jet(field, np.array([0.4, -0.6, 1.0]))
    assert np.all(jet.gradient == 0.0)
    assert np.all(jet.hessian == 0.0)


def test_numeric_jet_matches_analytic_within_estimate(rng):
    fields = [
        quadratic_field(rng.standard_normal((3, 3)), rng.standard_normal(3)),
        gaussian_field(np.array([0.2, -0.1, 0.3]), width=1.3),
    ]
    for field in fields:
        for x in annulus_points(rng, 3, count=50):
            nj = numeric_jet(field, x)
            aj = field.jet(x)
            gerr = float(np.max(np.abs(nj.gradient - aj.gradient)))
            herr = float(np.max(np.abs(nj.hessian - aj.hessian)))
            assert gerr <= max(10.0 * nj.gradient_error, 1e-9)
            assert herr <= max(10.0 * nj.hessian_error, 1e-7)
            assert herr <= 1e-6  # the refinement default keeps Hessians tight


def test_numeric_jet_origin_stencil_rejected():
    field = ScalarField(2, lambda p: np.sum(p, axis=-1), name="sum")
    with pytest.raises(ValueError, match="origin"):
        numeric_jet(field, np.array([1e-5, 0.0]))
    # explicit large step pushes the stencil across the origin too
    with pytest.raises(ValueError, match="origin"):
        numeric_jet(field, np.array([0.1, 0.0]), step=0.2)


def test_numeric_jet_nonfinite_rejected():
    def evaluate(p):
        with np.errstate(invalid="ignore"):
            return np.log(p[..., 0])

    field = ScalarField(2, evaluate, name="log x")
    with pytest.raises(ValueError, match="non-finite"):
        numeric_jet(field, np.array([0.001, 1.0]), step=0.01,
                    refinement=1)


def test_numeric_jet_single_level():
    field = quadratic_field(np.eye(2))
    jet = numeric_jet(field, np.array([1.0, 1.0]), step=1e-4,
                      refinement=1)
    assert np.allclose(jet.gradient, [2.0, 2.0], atol=1e-7)
    assert np.isnan(jet.gradient_error)


def test_numeric_jet_evaluates_the_whole_stencil_in_one_call():
    calls = []

    def evaluate(p):
        calls.append(p.reshape(-1, 3).shape[0])
        return np.sum(p**2, axis=-1)

    field = ScalarField(3, evaluate, name="counted")
    x = np.array([0.7, -0.4, 1.1])
    # f0, then 3 levels of 6 axis rows at the gradient step and 18 full
    # rows at the Hessian step
    numeric_jet(field, x)
    assert calls == [1, 72]
    calls.clear()
    # one step for both derivatives: the full rows alone
    numeric_jet(field, x, step=1e-3, refinement=1)
    assert calls == [1, 18]
    calls.clear()
    # a batch of k points: the points, then every row's stencil
    numeric_jet(field, np.stack([x, 1.5 * x, -x]))
    assert calls == [3, 3 * 72]


def test_quartic_coefficient_route(rng):
    # non-quadratic norms go through the jet-built coefficient matrix
    q = QuarticNorm()
    for _ in range(10):
        g = rng.standard_normal(2)
        h = rng.standard_normal((2, 2))
        jet = make_jet(0.0, g, h + h.T)
        j = q.jet(g)
        a = j.value * j.hessian + np.outer(j.gradient, j.gradient)
        expected = float(np.tensordot(a, jet.hessian))
        assert anisotropic_laplacian(q, jet) == pytest.approx(expected, rel=1e-13)
