"""Scalar fields on R^N (minus the origin) with optional analytic jets.

A ``ScalarField`` couples a vectorised evaluation callable with an optional
second-order jet callable.  Fields are added and multiplied through one
combinator, a scalar operand being the constant field (so scaling is a
product); jets combine by the exact sum and product rules, so manufactured
right-hand sides built this way keep analytic derivatives.  The polynomial
constructors are ``quadratic_field``, with zero higher terms for a constant
or linear field; ``cubic_axis_field`` adds a cubic diagonal to one.

Every jet here is second-order forward (Taylor-mode) propagation over a
batch (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008,
ch. 13): it takes one point (d,) or n points (n, d), and one point runs the
arithmetic of a batch of one.  Dot, outer and matrix-vector products run
per row (``row_dot``, ``row_outer``, stacked column-vector ``@``), so a
batch row rounds exactly as the point alone does.
"""

from __future__ import annotations

import numbers

import numpy as np

from .norms import (Jet2, NormSpec, _unbox, quadratic_form, row_dot, row_outer,
                    row_sum)

__all__ = [
    "ScalarField",
    "constant_field",
    "linear_field",
    "quadratic_field",
    "cubic_axis_field",
    "gaussian_field",
    "norm_power_field",
]


class ScalarField:
    """Scalar function with an optional analytic second-order jet.

    `evaluate` maps arrays of shape (..., dim) to shape (...); `jet` maps
    one point (dim,) or a batch (n, dim) to one :class:`Jet2` of the
    matching shapes, with a float value at one point; both refuse a point
    whose last axis is not `dim`.  The jets of the built-in constructors
    and of the algebra below round every batch row as that point alone.
    When a jet callable is attached it is expected to be consistent with
    finite differences of `evaluate` (the test suite enforces this for
    every built-in constructor).
    """

    def __init__(self, dim, evaluate, jet=None, name="field"):
        self.dim = int(dim)
        self._evaluate = evaluate
        self._jet_fn = jet
        self.name = name

    def _points(self, x) -> np.ndarray:
        pts = np.asarray(x, dtype=float)
        if pts.shape[-1:] != (self.dim,):
            raise ValueError(f"field {self.name!r} expects points in R^{self.dim}")
        return pts

    def __call__(self, x):
        return _unbox(self._evaluate(self._points(x)))

    @property
    def has_jet(self) -> bool:
        return self._jet_fn is not None

    def jet(self, x) -> Jet2:
        if self._jet_fn is None:
            raise ValueError(f"field {self.name!r} carries no jet contract")
        return self._jet_fn(self._points(x))

    def __repr__(self):
        tag = "jet" if self.has_jet else "no jet"
        return f"<ScalarField {self.name!r} dim={self.dim} ({tag})>"

    # -- algebra: a scalar operand is the constant field -------------------

    def _combine(self, other, op, rule, sign):
        """op of the values, `rule` of the jets when both operands have one."""
        other = _coerce(other, self.dim)
        both = self.has_jet and other.has_jet
        return ScalarField(
            self.dim, lambda pts: op(self._evaluate(pts), other._evaluate(pts)),
            jet=(lambda x: rule(self.jet(x), other.jet(x))) if both else None,
            name=f"({self.name}{sign}{other.name})")

    def __add__(self, other):
        return self._combine(other, np.add, _sum_jet, "+")

    def __mul__(self, other):
        return self._combine(other, np.multiply, _product_jet, "*")

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-_coerce(other, self.dim))


def _sum_jet(ja: Jet2, jb: Jet2) -> Jet2:
    """The sum rule: the jet of a+b from the jets of a and b."""
    return Jet2(ja.value + jb.value, ja.gradient + jb.gradient,
                ja.hessian + jb.hessian)


def _product_jet(ja: Jet2, jb: Jet2) -> Jet2:
    """The product rule: the jet of a*b from the jets of a and b."""
    va, vb = np.asarray(ja.value), np.asarray(jb.value)
    grad = vb[..., None] * ja.gradient + va[..., None] * jb.gradient
    cross = row_outer(ja.gradient, jb.gradient)
    hess = (vb[..., None, None] * ja.hessian
            + va[..., None, None] * jb.hessian
            + cross + np.swapaxes(cross, -1, -2))
    return Jet2(va * vb, grad, hess)


def _coerce(obj, dim) -> ScalarField:
    if isinstance(obj, ScalarField):
        if obj.dim != dim:
            raise ValueError("field dimensions differ")
        return obj
    if isinstance(obj, numbers.Real):
        return constant_field(dim, obj)
    raise TypeError(f"cannot combine ScalarField with {type(obj).__name__}")


def constant_field(dim, c, name=None) -> ScalarField:
    c = float(c)
    return quadratic_field(np.zeros((dim, dim)), c=c, name=name or f"const({c})")


def linear_field(a, c=0.0, name=None) -> ScalarField:
    """<a, x> + c."""
    return quadratic_field(np.zeros((len(a), len(a))), a, c, name=name or "linear")


def quadratic_field(a, b=None, c=0.0, name=None) -> ScalarField:
    """<x, A x> + <b, x> + c with A symmetrized on input."""
    a = np.asarray(a, dtype=float)
    dim = a.shape[0]
    sym = 0.5 * (a + a.T)
    b = np.zeros(dim) if b is None else np.asarray(b, dtype=float)

    def evaluate(pts):
        return np.einsum("...i,ij,...j->...", pts, sym, pts) + pts @ b + c

    def jet(x):
        sx, xsx = quadratic_form(sym, x)
        hess = np.broadcast_to(2.0 * sym, x.shape + (dim,)).copy()
        return Jet2(xsx + row_dot(x, b) + c, 2.0 * sx + b, hess)

    return ScalarField(dim, evaluate, jet=jet, name=name or "quadratic")


def cubic_axis_field(a, b=None, c=None, name=None) -> ScalarField:
    """sum_i a_i x_i^3 plus an optional quadratic tail <x,Bx> + <c,x>."""
    a = np.asarray(a, dtype=float)
    dim = a.shape[0]

    def jet(x):
        x2 = x * x
        return Jet2(row_sum(a * (x2 * x)), 3.0 * a * x2,
                    (6.0 * a * x)[..., None] * np.eye(dim))

    cubic = ScalarField(dim, lambda pts: row_sum(a * pts**3), jet=jet)
    field = cubic + quadratic_field(np.zeros((dim, dim)) if b is None else b, c)
    field.name = name or "cubic"
    return field


def gaussian_field(center, width=1.0, amplitude=1.0, name=None) -> ScalarField:
    """amplitude * exp(-|x - center|^2 / width^2)."""
    center = np.asarray(center, dtype=float)
    dim = center.shape[0]
    w2 = float(width) ** 2
    amp = float(amplitude)

    def evaluate(pts):
        d = pts - center
        return amp * np.exp(-row_sum(d * d) / w2)

    def jet(x):
        d = x - center
        value = amp * np.exp(-row_dot(d, d) / w2)
        grad = (value * (-2.0 / w2))[..., None] * d
        hess = value[..., None, None] * (4.0 / w2**2 * row_outer(d, d)
                                         - 2.0 / w2 * np.eye(dim))
        return Jet2(value, grad, hess)

    return ScalarField(dim, evaluate, jet=jet, name=name or "gaussian")


def norm_power_field(spec: NormSpec, exponent: float, name=None) -> ScalarField:
    """H(x)^p for a built-in norm; jets from the norm's analytic jet.

    Defined away from the origin for negative or fractional exponents.  The
    jet raises H to its powers with ``np.float_power``, the C library's
    ``pow`` per element and so the rounding of Python's float ``**``.
    """
    p = float(exponent)

    def evaluate(pts):
        return np.asarray(spec.value(pts)) ** p

    def jet(x):
        j = spec.jet(x)
        grad = (p * np.float_power(j.value, p - 1.0))[..., None] * j.gradient
        return Jet2(np.float_power(j.value, p), grad, p * _power_curvature(j, p))

    return ScalarField(spec.dim, evaluate, jet=jet, name=name or f"H^{p}")


def _power_curvature(j: Jet2, p: float) -> np.ndarray:
    """H^(p-1) D^2H + (p-1) H^(p-2) gradH (x) gradH from a norm jet: the
    Hessian of H^p over p, so D^2(H^2)/2 at p = 2."""
    return (np.float_power(j.value, p - 1.0)[..., None, None] * j.hessian
            + ((p - 1.0) * np.float_power(j.value, p - 2.0))[..., None, None]
            * row_outer(j.gradient, j.gradient))
