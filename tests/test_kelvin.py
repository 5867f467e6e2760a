"""The inversion map, its Jacobian calculus, and the pullback transforms."""

import warnings

import numpy as np
import pytest

from finslerkelvin import (
    EuclideanNorm,
    KelvinContext,
    QuarticNorm,
    RiemannianNorm,
    constant_field,
    det_invariant,
    hat_transform,
    jacobian_det,
    jacobian_matrix,
    kelvin_inverse,
    kelvin_map,
    linear_field,
    map_second_derivative,
    norm_power_field,
    numeric_jet,
    quadratic_field,
    reflection_determinant,
    star_transform,
)
from finslerkelvin.verify import random_spd_matrix

from conftest import annulus_points, fd_gradient, fd_hessian, fd_jacobian

DIAG41 = RiemannianNorm([[4.0, 0.0], [0.0, 1.0]])


def contexts():
    return [
        KelvinContext(EuclideanNorm(2)),
        KelvinContext(EuclideanNorm(3)),
        KelvinContext(DIAG41),
        KelvinContext(RiemannianNorm(random_spd_matrix(3, seed=13))),
        KelvinContext(QuarticNorm()),
    ]


# closed-form and Newton-dual paths share one round-trip bound
ROUNDTRIP_TOL = 1e-8


# ---------------------------------------------------------------------------
# map and inverse


def test_map_examples():
    assert np.allclose(
        kelvin_map(KelvinContext(EuclideanNorm(2)), [3.0, 4.0]),
        [0.12, 0.16], atol=1e-15,
    )
    assert np.allclose(
        kelvin_map(KelvinContext(DIAG41), [1.0, 0.0]), [1.0, 0.0], atol=1e-15
    )
    assert np.allclose(
        kelvin_map(KelvinContext(QuarticNorm()), [1.0, 0.0]), [1.0, 0.0],
        atol=1e-13,
    )


def test_map_dual_norm_is_reciprocal(rng):
    for ctx in contexts():
        for x in annulus_points(rng, ctx.dim, count=25):
            y = kelvin_map(ctx, x)
            h = ctx.spec.value(x)
            assert abs(ctx.spec.dual_value(y) - 1.0 / h) <= 1e-10 / h


def test_map_rejects_origin():
    ctx = KelvinContext(EuclideanNorm(2))
    with pytest.raises(ValueError, match="origin"):
        kelvin_map(ctx, [0.0, 0.0])
    with pytest.raises(ValueError, match="origin"):
        kelvin_inverse(ctx, [0.0, 0.0])


def test_context_refuses_a_nan_dual():
    # NaN > tol is False, so a defect gate written that way lets NaN through
    class NanDual(EuclideanNorm):
        def value(self, x):
            return np.full(np.shape(x)[:-1], np.nan)

    class Planted(EuclideanNorm):
        def dual(self):
            return NanDual(self.dim)

    with pytest.raises(ValueError, match="duality defect nan"):
        KelvinContext(Planted(3))


@pytest.mark.parametrize("point, underflow", [
    ([0.0, 0.0], False),
    ([[1.0, 2.0], [0.0, 0.0]], False),
    ([[1.0, 2.0], [1e-200, 0.0]], True),
])
def test_map_and_inverse_refuse_the_origin_without_warnings(point, underflow):
    # an underflow row is nonzero, but its H rounds to 0
    for ctx in (KelvinContext(EuclideanNorm(2)), KelvinContext(DIAG41),
                KelvinContext(QuarticNorm())):
        for transform in (kelvin_map, kelvin_inverse):
            if underflow and ctx.dual.matrix is None and transform is kelvin_inverse:
                continue  # the numeric dual's Newton solve refuses that row
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError,
                                   match="inversion map is undefined at the origin"):
                    transform(ctx, point)


def test_inverse_examples():
    assert np.allclose(
        kelvin_inverse(KelvinContext(EuclideanNorm(2)), [0.12, 0.16]),
        [3.0, 4.0], atol=1e-12,
    )
    assert np.allclose(
        kelvin_inverse(KelvinContext(DIAG41), [1.0, 0.0]), [1.0, 0.0],
        atol=1e-14,
    )


def test_roundtrip_on_wide_annulus(rng):
    # diffeomorphism property on 0.1 <= H <= 10
    for ctx in contexts():
        pts = annulus_points(rng, ctx.dim, count=60, lo=1.0, hi=1.0)
        radii = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=60))
        pts = pts * (radii / np.asarray(ctx.spec.value(pts)))[:, None]
        fwd = kelvin_inverse(ctx, kelvin_map(ctx, pts))
        bwd = kelvin_map(ctx, kelvin_inverse(ctx, pts))
        scale = np.maximum(np.max(np.abs(pts), axis=1), 1.0)
        assert np.max(np.max(np.abs(fwd - pts), axis=1) / scale) <= ROUNDTRIP_TOL
        assert np.max(np.max(np.abs(bwd - pts), axis=1) / scale) <= ROUNDTRIP_TOL


# ---------------------------------------------------------------------------
# jacobians


def test_jacobian_examples():
    assert np.allclose(
        jacobian_matrix(KelvinContext(EuclideanNorm(2)), np.array([0.0, 1.0])),
        np.diag([1.0, -1.0]), atol=1e-15,
    )
    assert np.allclose(
        jacobian_matrix(KelvinContext(DIAG41), np.array([1.0, 0.0])),
        np.array([[-1.0, 0.0], [0.0, 0.25]]), atol=1e-15,
    )


def test_jacobian_matches_fd(rng):
    for ctx in contexts():
        for x in annulus_points(rng, ctx.dim, count=8):
            direct = jacobian_matrix(ctx, x)
            oracle = fd_jacobian(lambda p: kelvin_map(ctx, p), x)
            assert np.max(np.abs(direct - oracle)) <= 1e-6 * max(
                1.0, float(np.max(np.abs(direct)))
            )


def test_jacobian_minus_two_homogeneous(rng):
    for ctx in contexts():
        for x in annulus_points(rng, ctx.dim, count=10):
            d1 = jacobian_matrix(ctx, x)
            d2 = jacobian_matrix(ctx, 2.0 * x)
            assert np.max(np.abs(d2 - d1 / 4.0)) <= 1e-10 * np.max(np.abs(d1))


def test_jacobian_det_examples():
    assert jacobian_det(
        KelvinContext(EuclideanNorm(2)), np.array([3.0, 4.0])
    ) == pytest.approx(1.0 / 625.0, rel=1e-12)
    assert jacobian_det(
        KelvinContext(DIAG41), np.array([1.0, 0.0])
    ) == pytest.approx(0.25, rel=1e-14)
    # orientation information survives in the determinant of DT itself
    assert np.linalg.det(jacobian_matrix(
        KelvinContext(EuclideanNorm(2)), np.array([3.0, 4.0])
    )) == pytest.approx(-1.0 / 625.0, rel=1e-12)


def test_jacobian_always_invertible(rng):
    for ctx in contexts():
        for x in annulus_points(rng, ctx.dim, count=100):
            assert jacobian_det(ctx, x) > 0.0


def test_det_invariant_riemannian_is_det_m(rng):
    for seed in range(3):
        for dim in (2, 3, 4):
            spec = RiemannianNorm(random_spd_matrix(dim, seed=100 + seed))
            ctx = KelvinContext(spec)
            detm = spec.matrix.det
            for x in annulus_points(rng, dim, count=30):
                assert abs(det_invariant(ctx, x) - detm) <= 1e-8 * detm


def test_det_invariant_euclidean_is_one(rng):
    ctx = KelvinContext(EuclideanNorm(3))
    for x in annulus_points(rng, 3, count=20):
        assert det_invariant(ctx, x) == pytest.approx(1.0, rel=1e-12)


def test_det_invariant_quartic_frozen_values():
    # frozen pre-build oracle values: 3/2 on the axes, 3/4 on the diagonals
    ctx = KelvinContext(QuarticNorm())
    assert det_invariant(ctx, np.array([1.0, 0.0])) == pytest.approx(1.5, rel=1e-10)
    assert det_invariant(ctx, np.array([1.0, 1.0])) == pytest.approx(0.75, rel=1e-10)

    # FD-Jacobian oracle at an arbitrary direction
    x = np.array([0.8, -0.45])
    oracle = QuarticNorm().value(x) ** 4 * abs(
        np.linalg.det(fd_jacobian(lambda p: kelvin_map(ctx, p), x))
    )
    assert det_invariant(ctx, x) == pytest.approx(oracle, rel=1e-7)


def test_reflection_determinant(rng):
    for dim in (2, 3, 4):
        for x in annulus_points(rng, dim, count=100):
            signed = reflection_determinant(x)
            assert signed == pytest.approx(-1.0, abs=1e-12)
            assert abs(abs(signed) - 1.0) <= 1e-12


def test_map_second_derivative_matches_fd(rng):
    for ctx in contexts()[:4]:
        for x in annulus_points(rng, ctx.dim, count=4):
            d2 = map_second_derivative(ctx, x)
            for k in range(ctx.dim):
                oracle = fd_hessian(lambda p: kelvin_map(ctx, p)[k], x)
                assert np.max(np.abs(d2[k] - oracle)) <= 1e-4
            # symmetry in the two derivative slots
            assert np.max(np.abs(d2 - np.swapaxes(d2, 1, 2))) <= 1e-14


def test_map_second_derivative_quartic_not_closed_form():
    with pytest.raises(ValueError, match="quadratic-form"):
        map_second_derivative(KelvinContext(QuarticNorm()), np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# transforms


def test_hat_prefactor_only():
    ctx = KelvinContext(EuclideanNorm(3))
    uhat = hat_transform(ctx, constant_field(3, 1.0))
    for y in ([1.0, 2.0, 2.0], [0.5, 0.0, 0.0]):
        assert uhat(np.array(y)) == pytest.approx(
            1.0 / np.linalg.norm(y), rel=1e-14
        )


def test_hat_plane_coordinate_field():
    ctx = KelvinContext(EuclideanNorm(2))
    uhat = hat_transform(ctx, linear_field([1.0, 0.0]))
    for y in ([0.3, -1.2], [2.0, 1.0]):
        y = np.array(y)
        assert uhat(y) == pytest.approx(y[0] / float(y @ y), rel=1e-14)


def test_hat_double_transform_recovers(rng):
    u = quadratic_field(0.4 * np.eye(3), [0.2, -0.1, 0.3], 0.7)
    for spec in (EuclideanNorm(3), RiemannianNorm(random_spd_matrix(3, seed=4))):
        ctx = KelvinContext(spec)
        dual_ctx = KelvinContext(spec.dual())
        double = hat_transform(dual_ctx, hat_transform(ctx, u))
        for x in annulus_points(rng, 3, count=100):
            expected = u(x)
            assert abs(double(x) - expected) <= 1e-8 * max(1.0, abs(expected))


def test_star_constant_is_constant(rng):
    ctx = KelvinContext(DIAG41)
    ustar = star_transform(ctx, constant_field(2, 3.25))
    for x in annulus_points(rng, 2, count=10):
        assert ustar(x) == pytest.approx(3.25, rel=1e-15)


def test_star_of_dual_norm_field(rng):
    # H°(T(y)) = 1/H(y)
    for ctx in contexts():
        field = norm_power_field(ctx.spec.dual(), 1.0)
        ustar = star_transform(ctx, field)
        for y in annulus_points(rng, ctx.dim, count=10):
            assert abs(ustar(y) - 1.0 / ctx.spec.value(y)) <= 1e-10


def test_star_involution(rng):
    u = quadratic_field(0.3 * np.eye(2), [0.1, 0.4], -0.2)
    for spec in (DIAG41, QuarticNorm()):
        ctx = KelvinContext(spec)
        dual_ctx = KelvinContext(spec.dual())
        double = star_transform(dual_ctx, star_transform(ctx, u))
        for x in annulus_points(rng, 2, count=100):
            assert abs(double(x) - u(x)) <= ROUNDTRIP_TOL * max(1.0, abs(u(x)))


def test_transform_chain_rule_jets_match_fd(rng):
    u = quadratic_field(np.diag([0.5, 0.3, 0.8]), [0.2, 0.0, -0.4], 1.0)
    for spec in (EuclideanNorm(3), RiemannianNorm(random_spd_matrix(3, seed=8))):
        ctx = KelvinContext(spec)
        for field in (hat_transform(ctx, u), star_transform(ctx, u)):
            assert field.has_jet
            for y in annulus_points(rng, 3, count=6):
                j = field.jet(y)
                assert abs(j.value - field(y)) <= 1e-12 * max(1.0, abs(field(y)))
                assert np.max(np.abs(j.gradient - fd_gradient(field, y))) <= 5e-6
                assert np.max(np.abs(j.hessian - fd_hessian(field, y))) <= 5e-4


def test_quartic_transform_falls_back_to_numeric_jets(rng):
    ctx = KelvinContext(QuarticNorm())
    u = quadratic_field(0.5 * np.eye(2), [0.3, -0.1])
    field = hat_transform(ctx, u)
    assert not field.has_jet
    for y in annulus_points(rng, 2, count=3):
        j = numeric_jet(field, y)
        assert np.max(np.abs(j.gradient - fd_gradient(field, y))) <= 1e-5
        assert np.max(np.abs(j.hessian - fd_hessian(field, y, h=3e-3))) <= 1e-3


def test_context_attributes():
    ctx = KelvinContext(DIAG41)
    assert ctx.dim == 2
    assert ctx.dual == DIAG41.dual()
    assert "riemannian" in repr(ctx)
