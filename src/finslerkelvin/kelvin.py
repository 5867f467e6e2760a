"""The anisotropic inversion map T(x) = gradH(x)/H(x) and its calculus.

For the Euclidean norm T is the classical inversion x / |x|^2.  For any
uniformly elliptic norm T is a diffeomorphism of R^N minus the origin onto
itself whose inverse is the inversion map of the dual norm.  Its Jacobian
is

    DT = (H D^2 H - gradH (x) gradH) / H^2,

which for a quadratic-form norm H = sqrt(<Mx, x>) collapses to

    DT(x) = (M - 2 M x (x) M x / H^2) / H^2.

For quadratic-form norms the scalar H(x)^(2N) |det DT(x)| is the constant
det M at every point; that constancy is exactly what makes the weighted
pullbacks below intertwine the divergence-form operators of H and its dual
(see `verify`).  For the quartic norm the same scalar varies with
direction, which `verify.run_counterexample_scan` demonstrates.

``kelvin_map`` evaluates the norm once per point set (H and gradH from one
``NormSpec.value_gradient`` call), and ``kelvin_inverse`` is the dual norm's
own map, one Newton solve for the quartic norm's numeric dual.

Transforms of scalar fields:

* ``star_transform``: u  ->  u(T(y))                (plain pullback)
* ``hat_transform``:  u  ->  H(y)^(2-N) * u(T(y))   (weight field times star)

Both return fields with analytic chain-rule jets when the context norm is
quadratic-form and `u` has a jet; otherwise the transformed field falls
back to finite-difference jets (``operators.numeric_jet``).

``jacobian_matrix``, ``map_second_derivative``, ``jacobian_det``,
``det_invariant``, ``reflection_determinant`` and both kinds of transform
jet take one point (N,) or a batch (n, N), like ``NormSpec.jet``; for
quadratic-form norms every batch row rounds as that point alone.
"""

from __future__ import annotations

import numpy as np

from .fields import ScalarField, _product_jet, norm_power_field
from .norms import (Jet2, NormSpec, _unbox, nonzero_rows, row_dot, row_matvec,
                    row_outer)
from .operators import numeric_jet
from .sampling import cube_directions

__all__ = [
    "KelvinContext",
    "kelvin_map",
    "kelvin_inverse",
    "jacobian_matrix",
    "jacobian_det",
    "det_invariant",
    "map_second_derivative",
    "reflection_determinant",
    "hat_transform",
    "star_transform",
]

_SELF_CHECK_POINTS = 8
# One bound for both derivative paths: the Newton dual is polished to the
# rounding floor, so closed-form and Newton-dual residuals both sit near eps.
TOL_DUALITY = 1e-8


class KelvinContext:
    """A norm, its dual, and the dimension, validated together.

    Construction evaluates the gradient dualities H(gradH°(x)) = 1 =
    H°(gradH(x)) on a small fixed sample and refuses to build a context
    whose dual is inconsistent with the primal norm (a ValueError, as for
    any input the calculus cannot take).  Contexts are immutable and safe
    to share.
    """

    def __init__(self, spec: NormSpec):
        self.spec = spec
        self.dual = spec.dual()
        self.dim = spec.dim
        pts = cube_directions(_SELF_CHECK_POINTS, self.dim, skip=11) * 1.3
        gp = self.spec.jet(pts).gradient
        gd = self.dual.jet(pts).gradient
        worst = float(np.max(np.abs(np.concatenate(
            [self.dual.value(gp), self.spec.value(gd)]) - 1.0)))
        # a NaN defect is refused too
        if not worst <= TOL_DUALITY:
            raise ValueError(
                f"dual norm inconsistent with primal (duality defect {worst:.3e})"
            )

    def __repr__(self):
        return f"<KelvinContext {self.spec.canonical()} dim={self.dim}>"


def _inversion(spec: NormSpec, x):
    """(H(x), T(x)) of `spec` from one norm evaluation, refusing H = 0."""
    pts = np.asarray(x, dtype=float)
    if not nonzero_rows(pts).all():
        raise ValueError("inversion map is undefined at the origin")
    with np.errstate(divide="ignore", invalid="ignore"):
        h, grad = spec.value_gradient(pts)
    h = np.asarray(h)
    if np.any(h == 0.0):
        raise ValueError("inversion map is undefined at the origin")
    return h, grad / h[..., None]


def kelvin_map(ctx: KelvinContext, x):
    """T(x) = gradH(x) / H(x); vectorised over leading axes."""
    return _inversion(ctx.spec, x)[1]


def kelvin_inverse(ctx: KelvinContext, y):
    """Inverse of the inversion map: the dual norm's own inversion map."""
    return _inversion(ctx.dual, y)[1]


def _quadratic_form(ctx: KelvinContext, pts: np.ndarray):
    """(M, Mx, <Mx, x>) per row, from the spec's own form; refuses a zero row."""
    mx, h2 = ctx.spec.form(pts)
    if np.any(h2 == 0.0):
        raise ValueError("inversion map is undefined at the origin")
    return ctx.spec.matrix.entries, mx, h2


def jacobian_matrix(ctx: KelvinContext, x) -> np.ndarray:
    """DT(x), closed form for quadratic-form norms, jet-based otherwise.

    `x` is one point (N,) or a batch (n, N); the result is (N, N) or
    (n, N, N).
    """
    pts = np.asarray(x, dtype=float)
    if ctx.spec.matrix is not None:
        m, mx, h2 = _quadratic_form(ctx, pts)
        h2 = h2[..., None, None]
        return (m - 2.0 * row_outer(mx, mx) / h2) / h2
    j = ctx.spec.jet(pts)
    value = np.asarray(j.value)[..., None, None]
    return ((value * j.hessian - row_outer(j.gradient, j.gradient))
            / np.float_power(j.value, 2)[..., None, None])


def jacobian_det(ctx: KelvinContext, x):
    """|det DT(x)|: a float at one point, one value per row for a batch.

    The map is orientation-reversing along radial directions, so the signed
    determinant alternates sign with dimension; the absolute value is what
    enters every change-of-variables formula here.
    """
    return _unbox(np.abs(np.linalg.det(jacobian_matrix(ctx, x))))


def det_invariant(ctx: KelvinContext, x):
    """H(x)^(2N) * |det DT(x)| at one point (a float) or per batch row.

    Equal to det M at every point for quadratic-form norms; direction-
    dependent in general (the quartic norm is the stock counterexample).
    The power goes through ``np.float_power``, the C library's ``pow`` per
    element, so a batch row rounds as the point alone.
    """
    h = _inversion(ctx.spec, x)[0]
    return _unbox(np.float_power(h, 2 * ctx.dim) * jacobian_det(ctx, x))


def reflection_determinant(y):
    """Signed determinant of I - 2 yhat (x) yhat, per row of a batch.

    The matrix is the reflection across the hyperplane orthogonal to y, so
    the determinant is exactly -1; its absolute value 1 is the scalar fact
    behind the constant-determinant property of quadratic-form norms.  One
    point (d,) gives a float, a batch (n, d) one determinant per row.
    """
    v = np.asarray(y, dtype=float)
    n2 = row_dot(v, v)
    if np.any(n2 == 0.0):
        raise ValueError("direction must be nonzero")
    eye = np.eye(v.shape[-1])
    return _unbox(np.linalg.det(
        eye - 2.0 * row_outer(v, v) / n2[..., None, None]))


def map_second_derivative(ctx: KelvinContext, x) -> np.ndarray:
    """Hessians of the components of T as a (dim, dim, dim) tensor.

    Closed form for quadratic-form norms: with s = 1/H^2,

        d_i d_j T_k = -2 s^2 (M_kj (Mx)_i + M_ki (Mx)_j + M_ij (Mx)_k)
                      + 8 s^3 (Mx)_k (Mx)_i (Mx)_j.

    A batch (n, dim) of points gives (n, dim, dim, dim).  Other norms have
    no closed form here; use numeric jets instead.
    """
    if ctx.spec.matrix is None:
        raise ValueError(
            "closed-form second derivatives exist only for quadratic-form norms"
        )
    m, mx, h2 = _quadratic_form(ctx, np.asarray(x, dtype=float))
    s = (1.0 / h2)[..., None, None, None]
    k, i, j = (mx[..., :, None, None], mx[..., None, :, None],
               mx[..., None, None, :])
    # axes (k, i, j): M_kj (Mx)_i + M_ki (Mx)_j + M_ij (Mx)_k
    terms = m[:, None, :] * i + m[:, :, None] * j + m * k
    return -2.0 * (s * s) * terms + 8.0 * (s * s * s) * (k * i * j)


def _pullback_jet(ctx: KelvinContext, us, y: np.ndarray) -> list[Jet2]:
    """Chain-rule jets of u(T(y)), one per field u of `us`, for quadratic-form
    contexts; T, DT and D^2T are evaluated once for all the fields.

    DT^T grad u and DT^T D^2u DT are stacked matrix products, one BLAS call
    per row as for one point.  The curvature term sum_k (grad u)_k D^2 T_k
    is a batched ``einsum``, which sums a row in the order of the point
    alone.  The stacked ``g @ d2t.reshape(..., N, N*N)`` rounds alike too,
    but raised the oracle p99 of the quadratic family's semilinear lhs
    (scripts/oracle_error.py, 15,000 Riemannian rows) from 11.10 to 11.24 eps.
    """
    y = np.asarray(y, dtype=float)
    dt = jacobian_matrix(ctx, y)
    d2t = map_second_derivative(ctx, y)
    t = kelvin_map(ctx, y)
    dtt = np.swapaxes(dt, -1, -2)

    def chain(uj):
        hess = (dtt @ uj.hessian @ dt
                + np.einsum("...k,...kij->...ij", uj.gradient, d2t))
        return Jet2(uj.value, row_matvec(dtt, uj.gradient),
                    0.5 * (hess + np.swapaxes(hess, -1, -2)))
    return [chain(u.jet(t)) for u in us]


def _hat_jets(ctx: KelvinContext, us, y: np.ndarray) -> list[Jet2]:
    """Jets of H(y)^(2-N) u(T(y)) for each u of `us`, by the product rule."""
    weight = norm_power_field(ctx.spec, 2.0 - ctx.dim).jet(y)
    return [_product_jet(weight, j) for j in _pullback_jet(ctx, us, y)]


def _numeric_jet_field(dim: int, evaluate, name: str) -> ScalarField:
    """Field whose jet is the finite-difference jet of its own values.

    Like every ``ScalarField`` jet it takes one point or a batch; a batch
    costs two calls of `evaluate`.
    """
    field = ScalarField(dim, evaluate, name=name,
                        jet=lambda y: numeric_jet(field, y))
    return field


def star_transform(ctx: KelvinContext, u: ScalarField) -> ScalarField:
    """Plain pullback y -> u(T(y))."""
    if u.dim != ctx.dim:
        raise ValueError("field dimension does not match the context")

    def evaluate(pts):
        return u(kelvin_map(ctx, pts))

    name = f"star({u.name})"
    if u.has_jet and ctx.spec.matrix is not None:
        return ScalarField(ctx.dim, evaluate, name=name,
                           jet=lambda y: _pullback_jet(ctx, [u], y)[0])
    return _numeric_jet_field(ctx.dim, evaluate, name)


def hat_transform(ctx: KelvinContext, u: ScalarField) -> ScalarField:
    """Weighted pullback y -> H(y)^(2-N) u(T(y)).

    In the plane the weight is 1 and hat and star coincide.  When u has a
    jet and the norm is quadratic-form, hat is the field product of the
    weight ``norm_power_field(spec, 2 - N)`` and ``star_transform``, so its
    values and its jet (the product rule, as in ``_hat_jets``) come from
    one weight field.
    """
    star, name = star_transform(ctx, u), f"hat({u.name})"  # checks u.dim
    if u.has_jet and ctx.spec.matrix is not None:
        field = norm_power_field(ctx.spec, 2.0 - ctx.dim) * star
        field.name = name
        return field

    def evaluate(pts):
        h, t = _inversion(ctx.spec, pts)
        return h ** (2.0 - ctx.dim) * u(t)

    return _numeric_jet_field(ctx.dim, evaluate, name)
