"""Norm values, jets, duals, and the first-order identity battery."""

import numpy as np
import pytest

from finslerkelvin import (
    EuclideanNorm,
    NumericDualNorm,
    QuarticNorm,
    RiemannianNorm,
    SpdMatrix,
    check_ellipticity,
    equivalence_constants,
    parse_norm,
)
from finslerkelvin.verify import random_spd_matrix

from conftest import (
    StretchedQuartic,
    annulus_points,
    grid_search_dual,
    richardson_gradient,
    richardson_hessian,
)

DIAG41 = RiemannianNorm([[4.0, 0.0], [0.0, 1.0]])


def all_specs():
    return [
        EuclideanNorm(2),
        EuclideanNorm(3),
        DIAG41,
        RiemannianNorm(random_spd_matrix(3, seed=7)),
        QuarticNorm(),
        QuarticNorm().dual(),
        # a norm that defines only `_eval` and `canonical`
        StretchedQuartic(3.0),
    ]


# ---------------------------------------------------------------------------
# construction and validation


def test_spd_accepts_and_symmetrizes():
    m = SpdMatrix([[4.0, 1.0], [1.0, 2.0]])
    assert np.array_equal(m.entries, m.entries.T)
    assert m.dim == 2
    assert m.det == pytest.approx(7.0, rel=1e-14)


def test_spd_rejects_indefinite_with_minor_index():
    with pytest.raises(ValueError, match="leading minor 2"):
        SpdMatrix([[1.0, 2.0], [2.0, 1.0]])


def test_spd_rejects_negative_definite_first_minor():
    with pytest.raises(ValueError, match="leading minor 1"):
        SpdMatrix([[-1.0, 0.0], [0.0, 2.0]])


def test_spd_rejects_non_square_and_dim1():
    with pytest.raises(ValueError):
        SpdMatrix([[1.0, 0.0]])
    with pytest.raises(ValueError):
        SpdMatrix([[2.0]])


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        DIAG41.value([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        EuclideanNorm(3).jet([1.0, 0.0])


# ---------------------------------------------------------------------------
# values


def test_eval_norm_examples():
    assert DIAG41.value([1.0, 0.0]) == pytest.approx(2.0, abs=1e-15)
    assert EuclideanNorm(2).value([3.0, 4.0]) == pytest.approx(5.0, abs=1e-15)
    assert QuarticNorm().value([1.0, 1.0]) == pytest.approx(
        5.0**0.25, rel=1e-15
    )


def test_eval_norm_zero_is_zero():
    for spec in all_specs():
        assert spec.value(np.zeros(spec.dim)) == 0.0


def test_eval_norm_vectorized(rng):
    pts = rng.standard_normal((4, 6, 3))
    spec = RiemannianNorm(random_spd_matrix(3, seed=2))
    vals = spec.value(pts)
    assert vals.shape == (4, 6)
    assert vals[1, 2] == pytest.approx(spec.value(pts[1, 2]), rel=1e-15)


# ---------------------------------------------------------------------------
# jets


def test_norm_jet_examples():
    j = DIAG41.jet([1.0, 0.0])
    assert np.allclose(j.gradient, [2.0, 0.0], atol=1e-15)

    j = EuclideanNorm(2).jet([0.0, 1.0])
    assert np.allclose(j.gradient, [0.0, 1.0], atol=1e-15)
    assert np.allclose(j.hessian, np.diag([1.0, 0.0]), atol=1e-15)

    j = QuarticNorm().jet([1.0, 0.0])
    assert j.value == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(j.gradient, [1.0, 0.0], atol=1e-14)
    # step-refined central-difference oracle for the same gradient
    oracle = richardson_gradient(lambda p: QuarticNorm().value(p),
                                 np.array([1.0, 0.0]))
    assert np.allclose(j.gradient, oracle, atol=1e-9)


def test_norm_jet_rejects_origin():
    for spec in all_specs():
        with pytest.raises(ValueError, match="origin"):
            spec.jet(np.zeros(spec.dim))


QUADRATIC_BATCH_SPECS = [
    EuclideanNorm(2),
    EuclideanNorm(5),
    DIAG41,
    RiemannianNorm(random_spd_matrix(2, seed=7)),
    RiemannianNorm(random_spd_matrix(3, seed=7)),
    RiemannianNorm(random_spd_matrix(5, seed=3)),
]


def _jet_rows(spec, pts):
    return [spec.jet(x) for x in pts]


@pytest.mark.parametrize("spec", QUADRATIC_BATCH_SPECS)
def test_batched_quadratic_jets_equal_single_point_jets_bitwise(spec, rng):
    pts = annulus_points(rng, spec.dim, count=200)
    batch = spec.jet(pts)
    d = spec.dim
    assert batch.value.shape == (200,)
    assert batch.gradient.shape == (200, d)
    assert batch.hessian.shape == (200, d, d)
    for k, j in enumerate(_jet_rows(spec, pts)):
        assert type(j.value) is float
        assert j.value == batch.value[k]
        assert np.array_equal(j.gradient, batch.gradient[k])
        assert np.array_equal(j.hessian, batch.hessian[k])


@pytest.mark.parametrize("spec", [QuarticNorm(), QuarticNorm().dual()])
def test_batched_jets_match_single_point_jets(spec, rng):
    pts = annulus_points(rng, 2, count=200)
    batch = spec.jet(pts)
    assert batch.hessian.shape == (200, 2, 2)
    for k, j in enumerate(_jet_rows(spec, pts)):
        assert type(j.value) is float
        assert j.value == batch.value[k]
        assert np.array_equal(j.gradient, batch.gradient[k])
        assert np.array_equal(j.hessian, batch.hessian[k])


# every exponent the package raises to: integer powers of H up to H^(2N)
# at N = 11, the half-integers (N - 2)/2 of the n-Laplacian and the
# quartic norm's 0.25, -0.75 and -1.75
PACKAGE_EXPONENTS = ([float(k) for k in range(-11, 23)]
                     + [k / 2.0 for k in range(1, 10, 2)] + [0.25, -0.75, -1.75])


def test_float_power_rounds_as_python_float_pow():
    # a batch row rounds as the point alone only while float_power stays
    # the C library's pow per element; a SIMD kernel would round otherwise
    x = np.exp(np.random.default_rng(7).uniform(-7.0, 7.0, 5000))
    for p in PACKAGE_EXPONENTS:
        want = np.array([v ** p for v in x.tolist()])
        assert np.float_power(x, p).tobytes() == want.tobytes(), p


def test_quartic_value_and_gradient_equal_its_jet(rng):
    q = QuarticNorm()
    pts = annulus_points(rng, 2, count=200)
    for x in (pts, pts[0]):
        j = q.jet(x)
        assert np.array_equal(q.value(x), j.value)
        assert np.array_equal(q.value_gradient(x)[1], j.gradient)


@pytest.mark.parametrize("spec", QUADRATIC_BATCH_SPECS + [
    QuarticNorm(), NumericDualNorm(QuarticNorm()), StretchedQuartic(3.0)])
def test_value_gradient_equals_value_and_gradient_bitwise(spec, rng):
    pts = annulus_points(rng, spec.dim, count=50)
    for x in (pts, pts[0]):
        h, g = spec.value_gradient(x)
        want_h = spec.value(x)
        assert type(h) is type(want_h)
        assert np.asarray(h).tobytes() == np.asarray(want_h).tobytes()
        assert g.shape == x.shape


def test_batched_jet_rejects_a_zero_row(rng):
    for spec in all_specs():
        pts = annulus_points(rng, spec.dim, count=5)
        pts[3] = 0.0
        with pytest.raises(ValueError, match="origin"):
            spec.jet(pts)


@pytest.mark.parametrize("spec", QUADRATIC_BATCH_SPECS + [
    RiemannianNorm(random_spd_matrix(4, seed=5)),
    RiemannianNorm(random_spd_matrix(6, seed=5)),
])
def test_pointwise_values_round_like_single_points(spec, rng):
    # every row of a batch must round as that point alone; 1-D einsum
    # (d = 2) and gemv against gemm (d = 2, 4, 5) would not
    pts = annulus_points(rng, spec.dim, count=300)
    want = [spec.value(x) for x in pts]
    want_dual = [spec.dual_value(x) for x in pts]
    want_grad = [spec.value_gradient(x)[1] for x in pts]
    assert np.array_equal(spec.value(pts), want)
    assert np.array_equal(spec.dual_value(pts), want_dual)
    assert np.array_equal(spec.value_gradient(pts)[1], want_grad)


def test_support_values_map_zero_rows_to_zero(rng):
    q = QuarticNorm()
    pts = annulus_points(rng, 2, count=6)
    pts[[0, 4]] = 0.0
    for spec in (q, q.dual()):
        vals = spec.dual_value(pts)
        assert vals.shape == (6,)
        assert vals[0] == vals[4] == 0.0
        for k in (1, 2, 3, 5):
            assert vals[k] == pytest.approx(spec.dual_value(pts[k]), rel=1e-14)
        assert np.array_equal(spec.dual_value(np.zeros((3, 2))), np.zeros(3))


def test_jets_match_richardson_fd(rng):
    for spec in all_specs():
        f = lambda p: float(spec.value(p))
        for x in annulus_points(rng, spec.dim, count=6):
            j = spec.jet(x)
            assert abs(j.value - f(x)) < 1e-12
            assert np.max(np.abs(j.gradient - richardson_gradient(f, x))) < 1e-6
            assert np.max(np.abs(j.hessian - richardson_hessian(f, x))) < 1e-6
            assert np.max(np.abs(j.hessian - j.hessian.T)) < 1e-12


# ---------------------------------------------------------------------------
# identity battery


def test_absolute_homogeneity(rng):
    for spec in all_specs():
        pts = annulus_points(rng, spec.dim, count=100)
        scales = rng.uniform(-10.0, 10.0, size=100)
        scales[scales == 0.0] = 1.0
        for x, s in zip(pts, scales):
            h = spec.value(x)
            assert abs(spec.value(s * x) - abs(s) * h) <= 1e-12 * abs(s) * h


def test_euler_identity(rng):
    for spec in all_specs():
        for x in annulus_points(rng, spec.dim, count=100):
            j = spec.jet(x)
            assert abs(float(j.gradient @ x) - j.value) <= 1e-10 * j.value


def test_gradient_zero_homogeneity(rng):
    for spec in all_specs():
        pts = annulus_points(rng, spec.dim, count=100)
        ts = rng.uniform(-5.0, 5.0, size=100)
        ts[np.abs(ts) < 1e-3] = 1.0
        for x, t in zip(pts, ts):
            g = spec.jet(x).gradient
            gt = spec.jet(t * x).gradient
            assert np.max(np.abs(gt - np.sign(t) * g)) <= 1e-10 * max(
                1.0, float(np.max(np.abs(g)))
            )


@pytest.mark.parametrize(
    "spec,tol",
    [(EuclideanNorm(3), 1e-8), (DIAG41, 1e-8),
     (RiemannianNorm(random_spd_matrix(4, seed=11)), 1e-8),
     (QuarticNorm(), 1e-6), (StretchedQuartic(3.0), 1e-6)],
)
def test_gradient_dualities(spec, tol, rng):
    dual = spec.dual()
    for x in annulus_points(rng, spec.dim, count=100):
        gp = spec.jet(x).gradient
        gd = dual.jet(x).gradient
        # unit duality
        assert abs(spec.value(gd) - 1.0) <= tol
        assert abs(spec.dual_value(gp) - 1.0) <= tol
        # inversion duality: H(x) gradH°(gradH(x)) = x and the mirror
        h = spec.value(x)
        hd = dual.value(x)
        assert np.max(np.abs(h * dual.jet(gp).gradient - x)) <= tol * max(
            1.0, float(np.max(np.abs(x)))
        )
        assert np.max(np.abs(hd * spec.jet(gd).gradient - x)) <= tol * max(
            1.0, float(np.max(np.abs(x)))
        )


def test_bidual_matches_primal(rng):
    for spec in all_specs()[:5]:
        dual = spec.dual()
        for x in annulus_points(rng, spec.dim, count=100):
            h = spec.value(x)
            assert abs(dual.dual_value(x) - h) <= 1e-6 * h


# ---------------------------------------------------------------------------
# dual norm


def test_dual_norm_examples():
    assert DIAG41.dual_value([2.0, 0.0]) == pytest.approx(1.0, abs=1e-14)
    assert EuclideanNorm(2).dual_value([3.0, 4.0]) == pytest.approx(5.0, abs=1e-14)


def test_dual_norm_zero_is_zero():
    assert QuarticNorm().dual_value([0.0, 0.0]) == 0.0
    assert DIAG41.dual_value([0.0, 0.0]) == 0.0


def test_dual_norm_against_grid_search():
    q = QuarticNorm()
    for x in ([1.0, 0.0], [1.0, 1.0], [0.3, -0.7], [-2.0, 0.4]):
        oracle = grid_search_dual(q.value, x)
        assert q.dual_value(x) == pytest.approx(oracle, abs=1e-6)
    oracle = grid_search_dual(DIAG41.value, [0.8, -1.1])
    assert DIAG41.dual_value([0.8, -1.1]) == pytest.approx(oracle, abs=1e-6)


def test_dual_norm_quartic_frozen_values():
    # closed-form support values on the symmetry axes/diagonals
    q = QuarticNorm()
    assert q.dual_value([1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    assert q.dual_value([1.0, 1.0]) == pytest.approx(2.0 * 5.0**-0.25, rel=1e-12)


def test_dual_spec_forms():
    d = DIAG41.dual()
    assert isinstance(d, RiemannianNorm)
    assert np.allclose(d.matrix.entries, np.diag([0.25, 1.0]), atol=1e-15)

    assert EuclideanNorm(3).dual() == EuclideanNorm(3)

    dd = RiemannianNorm(random_spd_matrix(3, seed=5)).dual().dual()
    m = random_spd_matrix(3, seed=5).entries
    assert np.max(np.abs(dd.matrix.entries - m)) <= 1e-12

    nd = QuarticNorm().dual()
    assert isinstance(nd, NumericDualNorm)
    assert nd.dual() == QuarticNorm()


def test_matrix_is_set_exactly_for_quadratic_forms(rng):
    x = annulus_points(rng, 3, count=1)[0]
    for spec in all_specs():
        for s in (spec, spec.dual()):
            quadratic = isinstance(s, (EuclideanNorm, RiemannianNorm))
            assert (s.matrix is not None) == quadratic
            if quadratic:
                y = x[: s.dim]
                assert s.value(y) == pytest.approx(
                    np.sqrt(y @ s.matrix.entries @ y), rel=1e-14)
    for dim in (2, 3, 5, 11):
        assert EuclideanNorm(dim).matrix.det == 1.0


def test_euclidean_equals_riemannian_identity(rng):
    eu = EuclideanNorm(3)
    ri = RiemannianNorm(np.eye(3))
    assert equivalence_constants(ri) == pytest.approx((1.0, 1.0), rel=1e-12)
    assert check_ellipticity(ri, 64) == pytest.approx(
        check_ellipticity(eu, 64), rel=1e-10
    )
    for x in annulus_points(rng, 3, count=50):
        assert ri.value(x) == pytest.approx(eu.value(x), rel=1e-14)
        assert ri.dual_value(x) == pytest.approx(eu.dual_value(x), rel=1e-12)
        je, jr = eu.jet(x), ri.jet(x)
        assert np.allclose(je.gradient, jr.gradient, atol=1e-14)
        assert np.allclose(je.hessian, jr.hessian, atol=1e-13)


# ---------------------------------------------------------------------------
# equivalence constants and ellipticity


def test_equivalence_constants_riemannian():
    c1, c2 = equivalence_constants(DIAG41)
    assert c1 == pytest.approx(1.0, rel=1e-12)
    assert c2 == pytest.approx(2.0, rel=1e-12)


def test_equivalence_constants_euclidean():
    assert equivalence_constants(EuclideanNorm(4)) == (1.0, 1.0)


def test_equivalence_constants_reject_a_norm_that_breaks_them():
    class Doubled(RiemannianNorm):
        """Reports 2 H(x), outside the eigenvalue bounds of its matrix."""

        def value(self, x):
            return 2.0 * super().value(x)

    with pytest.raises(ValueError, match="equivalence constants violated"):
        equivalence_constants(Doubled(DIAG41.matrix))


def test_equivalence_constants_quartic(rng):
    c1, c2 = equivalence_constants(QuarticNorm())
    # H^4 = |x|^4 + x1^2 x2^2: min ratio 1 on the axes, max (5/4)^(1/4)
    assert c1 == pytest.approx(1.0, rel=1e-9)
    assert c2 == pytest.approx(1.25**0.25, rel=1e-9)
    pts = rng.standard_normal((1000, 2))
    ratio = np.asarray(QuarticNorm().value(pts)) / np.linalg.norm(pts, axis=1)
    assert np.all(ratio >= c1 - 1e-9)
    assert np.all(ratio <= c2 + 1e-9)


def test_ellipticity_euclidean():
    for dim in (2, 3):
        assert check_ellipticity(EuclideanNorm(dim), 64) == pytest.approx(
            1.0, abs=1e-10
        )


def test_ellipticity_riemannian_2d_matches_analytic():
    # tangential Hessian value on the unit H-sphere of a 2D quadratic norm
    # is 1/|dxi/dtheta|^2, minimized at lambda_min(M)
    est = check_ellipticity(DIAG41, 512)
    assert 1.0 <= est <= 1.0 * 1.01


def test_ellipticity_quartic_positive():
    lam = check_ellipticity(QuarticNorm(), 512)
    assert lam > 0.5

    # dense sweep oracle of the same tangential quantity
    worst = np.inf
    q = QuarticNorm()
    for theta in np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False):
        d = np.array([np.cos(theta), np.sin(theta)])
        xi = d / q.value(d)
        j = q.jet(xi)
        t = np.array([-j.gradient[1], j.gradient[0]])
        t /= np.linalg.norm(t)
        worst = min(worst, float(t @ j.hessian @ t))
    assert lam == pytest.approx(worst, rel=2e-3)


def test_ellipticity_numeric_dual_positive():
    assert check_ellipticity(QuarticNorm().dual(), 64) > 0.1


# ---------------------------------------------------------------------------
# canonical text form


def test_parse_format_roundtrip():
    for spec in (DIAG41, EuclideanNorm(3), QuarticNorm(),
                 RiemannianNorm(random_spd_matrix(3, seed=9))):
        assert parse_norm(spec.canonical()) == spec


def test_parse_rejects_malformed():
    with pytest.raises(ValueError, match="unknown norm"):
        parse_norm("hexagonal")
    with pytest.raises(ValueError, match="malformed matrix"):
        parse_norm("riemannian:[[4,0],[0,")
    with pytest.raises(ValueError, match="leading minor"):
        parse_norm("riemannian:[[1,2],[2,1]]")
    with pytest.raises(ValueError):
        parse_norm("euclidean:x")
