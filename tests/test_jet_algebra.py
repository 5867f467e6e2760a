"""One jet algebra: every jet is a ``Jet2``, field arithmetic runs the sum and
product rules, hat is the weight field times star, and the divergence-form
coefficient A is the quasilinear B at n = 2.  Each fold is pinned against
the arithmetic it replaced, rebuilt here."""

import numpy as np
import pytest

from finslerkelvin import (
    EuclideanNorm,
    Jet2,
    KelvinContext,
    NumericDualNorm,
    QuarticNorm,
    RiemannianNorm,
    ScalarField,
    anisotropic_laplacian,
    constant_field,
    finsler_n_laplacian,
    gaussian_field,
    hat_transform,
    linear_field,
    norm_power_field,
    numeric_jet,
    quadratic_field,
    star_transform,
)
from finslerkelvin.kelvin import _hat_jets
from finslerkelvin.norms import row_outer
from finslerkelvin.operators import NumericJet, _coefficient_matrix
from finslerkelvin.verify import _worst_component, random_spd_matrix

from conftest import annulus_points

QUADRATIC = [EuclideanNorm(d) for d in range(2, 6)] + [
    RiemannianNorm(random_spd_matrix(d, seed=d)) for d in range(2, 6)]
IDS = [f"{type(spec).__name__}-{spec.dim}" for spec in QUADRATIC]


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _jet_parts(j):
    return j.value, j.gradient, j.hessian


def _pair(d):
    rng = np.random.default_rng(40 + d)
    u = linear_field(rng.standard_normal(d)) * quadratic_field(
        rng.standard_normal((d, d)), rng.standard_normal(d))
    v = gaussian_field(0.3 * rng.standard_normal(d), width=1.3, amplitude=-1.5)
    return u, v


# -- Jet2 ---------------------------------------------------------------------


@pytest.mark.parametrize("value", [np.float64(1.0), np.array(1.0), 1.0])
def test_jet2_unboxes_a_one_point_value(value):
    j = Jet2(value, np.zeros(2), np.zeros((2, 2)))
    assert type(j.value) is float and j.value == 1.0
    nj = NumericJet(value, np.zeros(2), np.zeros((2, 2)))
    assert type(nj.value) is float


def test_jet2_keeps_a_batch_value_an_array():
    for n in (0, 1, 3):
        value = np.arange(float(n))
        j = Jet2(value, np.zeros((n, 2)), np.zeros((n, 2, 2)))
        assert j.value is value


# -- field arithmetic -----------------------------------------------------------


def _sum_rule(ja, jb):
    return (ja.value + jb.value, ja.gradient + jb.gradient,
            ja.hessian + jb.hessian)


def _product_rule(ja, jb):
    va, vb = np.asarray(ja.value), np.asarray(jb.value)
    cross = row_outer(ja.gradient, jb.gradient)
    return (va * vb,
            vb[..., None] * ja.gradient + va[..., None] * jb.gradient,
            vb[..., None, None] * ja.hessian + va[..., None, None] * jb.hessian
            + cross + np.swapaxes(cross, -1, -2))


def _scale_rule(c, j):
    return c * np.asarray(j.value), c * j.gradient, c * j.hessian


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_field_arithmetic_is_the_sum_and_product_rules(d):
    u, v = _pair(d)
    pts = annulus_points(np.random.default_rng(d), d, count=300)
    for x in (pts, pts[0]):
        ju, jv = u.jet(x), v.jet(x)
        cases = {
            "u + v": (u + v, _sum_rule(ju, jv), u(x) + v(x)),
            "u * v": (u * v, _product_rule(ju, jv), u(x) * v(x)),
            "2 * u": (2 * u, _scale_rule(2.0, ju), 2.0 * u(x)),
            "-u": (-u, _scale_rule(-1.0, ju), -1.0 * u(x)),
            "u - 1": (u - 1, (ju.value - 1.0, ju.gradient, ju.hessian), u(x) - 1.0),
        }
        for name, (field, want, values) in cases.items():
            got = field.jet(x)
            # a constant operand may turn -0.0 into +0.0, so compare by value
            for part, w in zip(_jet_parts(got), want):
                assert np.array_equal(part, w), (name, x.ndim)
            assert np.array_equal(field(x), values), name
            assert type(got.value) is (float if x.ndim == 1 else np.ndarray)


def test_a_scalar_operand_is_the_constant_field():
    u, _ = _pair(3)
    pts = annulus_points(np.random.default_rng(5), 3, count=50)
    for got, want in ((u * 2.5, u * constant_field(3, 2.5)),
                      (2.5 + u, u + constant_field(3, 2.5))):
        assert _same_bytes(got(pts), want(pts))
        for g, w in zip(_jet_parts(got.jet(pts)), _jet_parts(want.jet(pts))):
            assert _same_bytes(g, w)
    with pytest.raises(TypeError, match="cannot combine"):
        u + [1.0]
    with pytest.raises(ValueError, match="dimensions differ"):
        u + constant_field(2, 1.0)


# -- dimension checks -----------------------------------------------------------


def _fields_of_dim_3():
    spec = RiemannianNorm(random_spd_matrix(3, seed=1))
    ctx = KelvinContext(spec)
    u, v = _pair(3)
    bare = ScalarField(3, u, name="no-jet")  # its transforms carry no jet
    return {
        "constant": constant_field(3, 2.0),
        "linear": linear_field([1.0, 2.0, 3.0]),
        "quadratic": quadratic_field(np.eye(3)),
        "cubic": u,
        "gaussian": gaussian_field(np.zeros(3)),
        "norm_power": norm_power_field(spec, -1.0),
        "sum": u + v,
        "product": u * v,
        "star": star_transform(ctx, u),
        "hat": hat_transform(ctx, u),
        "star-numeric": star_transform(ctx, bare),
        "hat-numeric": hat_transform(ctx, bare),
    }


@pytest.mark.parametrize("name", sorted(_fields_of_dim_3()))
@pytest.mark.parametrize("shape", [(5, 1), (4, 7), (2,), (4,), ()])
def test_value_and_jet_refuse_a_wrong_dimension(name, shape):
    field = _fields_of_dim_3()[name]
    pts = np.ones(shape)
    with pytest.raises(ValueError, match=r"expects points in R\^3"):
        field(pts)
    if name.endswith("-numeric"):  # FD jets are taken by numeric_jet
        assert not field.has_jet
        with pytest.raises(ValueError, match="point dimension does not match"):
            numeric_jet(field, pts)
        return
    with pytest.raises(ValueError, match=r"expects points in R\^3"):
        field.jet(pts)


# -- hat = weight x star --------------------------------------------------------


@pytest.mark.parametrize("spec", QUADRATIC, ids=IDS)
def test_hat_is_the_weight_field_times_star(spec):
    d = spec.dim
    ctx = KelvinContext(spec)
    u, _ = _pair(d)
    hat = hat_transform(ctx, u)
    assert hat.name == f"hat({u.name})"
    pts = annulus_points(np.random.default_rng(60 + d), d, count=200)
    weight = norm_power_field(spec, 2.0 - d)
    star = star_transform(ctx, u)
    for y in (pts, pts[0]):
        want = _hat_jets(ctx, [u], y)[0]
        for g, w in zip(_jet_parts(hat.jet(y)), _jet_parts(want)):
            assert _same_bytes(g, w)
        assert _same_bytes(hat(y), weight(y) * star(y))


# -- A = B at n = 2 -------------------------------------------------------------


@pytest.mark.parametrize("spec", [QuarticNorm(), NumericDualNorm(QuarticNorm())],
                         ids=["quartic", "quartic-dual"])
def test_the_coefficient_at_n_2_is_a(spec):
    grads = annulus_points(np.random.default_rng(11), 2, count=200)
    for g in (grads, grads[0]):
        j = spec.jet(g)
        want = (np.asarray(j.value)[..., None, None] * j.hessian
                + row_outer(j.gradient, j.gradient))
        assert _same_bytes(_coefficient_matrix(spec, g, 2), want)
        assert _same_bytes(_coefficient_matrix(spec, g), want)
    hess = annulus_points(np.random.default_rng(12), 4, count=200).reshape(-1, 2, 2)
    jet = Jet2(np.zeros(200), grads, hess)
    assert _same_bytes(finsler_n_laplacian(spec, jet, 2),
                       anisotropic_laplacian(spec, jet))


# -- verify helper --------------------------------------------------------------


def test_worst_component_takes_the_first_largest_difference():
    got = np.array([[1.0, 5.0, 2.0], [3.0, 3.0, 3.0], [0.0, np.nan, 9.0]])
    want = np.array([[1.0, 4.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    g, w = _worst_component(got, want)
    assert np.array_equal(g, [5.0, 3.0, np.nan], equal_nan=True)
    assert np.array_equal(w, [4.0, 1.0, 0.0])
