"""Five folds pinned bit for bit against the arithmetic they replaced.

Constant and linear fields are quadratic fields, the cubic field is a cubic
diagonal plus a quadratic tail, one power rule gives both the Hessian of H^p
and the operator coefficient B = D^2(H^n)/n, the planar quasilinear operator
is the divergence-form one, ``det_invariant`` reads H from the inversion map,
and finite-difference Hessians are symmetric without a symmetrisation.  Each
old formula is rebuilt here.
"""

import numpy as np
import pytest

from finslerkelvin import (
    EuclideanNorm,
    Jet2,
    KelvinContext,
    NumericDualNorm,
    QuarticNorm,
    RiemannianNorm,
    anisotropic_laplacian,
    constant_field,
    cubic_axis_field,
    det_invariant,
    finsler_n_laplacian,
    gaussian_field,
    jacobian_det,
    linear_field,
    norm_power_field,
    numeric_jet,
    quadratic_field,
)
from finslerkelvin.fields import _power_curvature
from finslerkelvin.norms import row_contract, row_dot, row_outer, row_sum
from finslerkelvin.operators import _coefficient_matrix
from finslerkelvin.verify import random_spd_matrix

from conftest import annulus_points

QUADRATIC = [EuclideanNorm(d) for d in range(2, 6)] + [
    RiemannianNorm(random_spd_matrix(d, seed=d)) for d in range(2, 6)]
SPECS = QUADRATIC + [QuarticNorm(), NumericDualNorm(QuarticNorm())]
IDS = [f"{type(spec).__name__}-{spec.dim}" for spec in SPECS]


def _equal_jets(got, want):
    return all(np.array_equal(g, w) for g, w in
               zip((got.value, got.gradient, got.hessian), want))


def _points(d, seed):
    pts = annulus_points(np.random.default_rng(seed), d, count=200)
    return pts, pts[0]


# -- polynomial fields ---------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_constant_and_linear_fields_keep_their_bits(d):
    rng = np.random.default_rng(70 + d)
    a, c = rng.standard_normal(d), float(rng.standard_normal())
    for x in _points(d, d):
        zeros = (np.zeros(x.shape), np.zeros(x.shape + (d,)))
        for k in (c, 0.0):
            const = constant_field(d, k)
            assert np.array_equal(const(x), np.full(x.shape[:-1], k))
            assert _equal_jets(const.jet(x), (np.full(x.shape[:-1], k), *zeros))
            lin = linear_field(a, k)
            assert np.array_equal(lin(x), x @ a + k)
            assert _equal_jets(lin.jet(x), (row_dot(x, a) + k,
                                            np.broadcast_to(a, x.shape),
                                            zeros[1]))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_cubic_axis_field_is_a_cubic_diagonal_plus_a_quadratic_tail(d):
    rng = np.random.default_rng(80 + d)
    a, b, c = (rng.standard_normal(d), rng.standard_normal((d, d)),
               rng.standard_normal(d))
    tail = quadratic_field(b, c)
    for x in _points(d, 10 + d):
        x2, tj = x * x, tail.jet(x)
        hess = np.zeros(x.shape + (d,))
        idx = np.arange(d)
        hess[..., idx, idx] = 6.0 * a * x
        want = (row_sum(a * (x2 * x)) + tj.value, 3.0 * a * x2 + tj.gradient,
                hess + tj.hessian)
        field = cubic_axis_field(a, b, c)
        assert field.name == "cubic"
        assert np.array_equal(field(x), row_sum(a * x**3) + tail(x))
        assert _equal_jets(field.jet(x), want)
    assert cubic_axis_field(a, name="u").name == "u"


# -- one power rule -----------------------------------------------------------


def _old_power_jet(spec, p, x):
    j = spec.jet(x)
    hp1 = np.float_power(j.value, p - 1.0)
    hess = p * (((p - 1.0) * np.float_power(j.value, p - 2.0))[..., None, None]
                * row_outer(j.gradient, j.gradient)
                + hp1[..., None, None] * j.hessian)
    return (np.float_power(j.value, p), (p * hp1)[..., None] * j.gradient, hess)


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_norm_power_field_jets_keep_their_bits(spec):
    for x in _points(spec.dim, 20 + spec.dim):
        for p in (2.0 - spec.dim, 1.0, -2.0, 0.5, 3.0):
            got = norm_power_field(spec, p).jet(x)
            assert _equal_jets(got, _old_power_jet(spec, p, x)), p


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_the_coefficient_is_the_power_curvature(spec):
    for g in _points(spec.dim, 30 + spec.dim):
        j = spec.jet(g)
        for n in (2, 3, spec.dim):
            want = (np.float_power(j.value, n - 1.0)[..., None, None] * j.hessian
                    + ((n - 1.0) * np.float_power(j.value, n - 2.0))[..., None, None]
                    * row_outer(j.gradient, j.gradient))
            assert np.array_equal(_coefficient_matrix(spec, g, n), want)
            assert np.array_equal(_power_curvature(j, n), want)


# -- B = A in the plane --------------------------------------------------------


PLANAR = [EuclideanNorm(2), RiemannianNorm(random_spd_matrix(2, seed=2)),
          RiemannianNorm([[4.0, 1.0], [1.0, 1.0]])]


@pytest.mark.parametrize("spec", PLANAR, ids=["euclidean", "spd-seed-2", "spd-4-1"])
def test_planar_quasilinear_operator_is_the_divergence_form_one(spec):
    rng = np.random.default_rng(3)
    grads = annulus_points(rng, 2, count=50)
    grads[7], grads[11] = 0.0, [1e-150, -1e-150]
    hess = rng.standard_normal((50, 2, 2))
    hess = hess + np.swapaxes(hess, -1, -2)
    jet = Jet2(np.zeros(50), grads, hess)
    got = finsler_n_laplacian(spec, jet, 2)
    assert np.array_equal(got, anisotropic_laplacian(spec, jet))
    # the quasilinear formula at n = 2 on the rows it divided by, and A = M
    # on the (numerically) zero gradients
    live = np.sqrt(row_dot(grads, grads)) >= 1e-140
    assert list(np.flatnonzero(~live)) == [7, 11]
    m = spec.matrix.entries
    mg = grads[live] @ m
    q = row_dot(grads[live], mg)
    core = m + 0.0 * row_outer(mg, mg) / q[:, None, None]
    assert np.array_equal(got[live],
                          np.float_power(q, 0.0) * row_contract(core, hess[live]))
    assert np.array_equal(got[~live], row_contract(m, hess[~live]))
    one = finsler_n_laplacian(spec, Jet2(0.0, grads[7], hess[7]), 2)
    assert type(one) is float and one == got[7]


@pytest.mark.parametrize("spec", [QuarticNorm(), NumericDualNorm(QuarticNorm())],
                         ids=["quartic", "quartic-dual"])
def test_planar_quasilinear_operator_refuses_a_zero_gradient(spec):
    jet = Jet2(np.zeros(2), np.array([[1.0, 0.5], [0.0, 0.0]]), np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="undefined at a zero gradient"):
        finsler_n_laplacian(spec, jet, 2)


# -- det_invariant reads H from the inversion map ------------------------------


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_det_invariant_keeps_its_bits(spec):
    ctx = KelvinContext(spec)
    for x in _points(spec.dim, 40 + spec.dim):
        want = (np.float_power(np.asarray(spec.value(x)), 2 * spec.dim)
                * jacobian_det(ctx, x))
        got = det_invariant(ctx, x)
        assert np.array_equal(got, want)
        assert type(got) is (float if x.ndim == 1 else np.ndarray)
    with pytest.raises(ValueError, match="undefined at the origin"):
        det_invariant(ctx, np.zeros((2, spec.dim)))


# -- finite-difference Hessians are exactly symmetric ---------------------------


def _fd_fields(d):
    rng = np.random.default_rng(90 + d)
    spec = RiemannianNorm(random_spd_matrix(d, seed=90 + d))
    return [gaussian_field(0.3 * rng.standard_normal(d), width=1.3),
            cubic_axis_field(rng.standard_normal(d), rng.standard_normal((d, d)),
                             rng.standard_normal(d)),
            norm_power_field(spec, 2.0 - d),
            norm_power_field(EuclideanNorm(d), -1.5)]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_numeric_jet_hessians_equal_their_transpose(d):
    fields = _fd_fields(d)
    if d == 2:
        fields.append(norm_power_field(QuarticNorm(), 0.5))
    for field in fields:
        for x in _points(d, 50 + d):
            for step in ("auto", 1e-3):
                for refinement in (1, 3):
                    hess = numeric_jet(field, x, step, refinement).hessian
                    flipped = np.ascontiguousarray(np.swapaxes(hess, -1, -2))
                    assert hess.tobytes() == flipped.tobytes(), (field.name, step)
