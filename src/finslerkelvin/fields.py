"""Scalar fields on R^N (minus the origin) with optional analytic jets.

A ``ScalarField`` couples a vectorised evaluation callable with an optional
second-order jet callable.  Fields can be added, scaled, and multiplied;
jets combine by the exact sum/product rules, so manufactured right-hand
sides built from these combinators keep analytic derivatives.

Every jet here is second-order forward (Taylor-mode) propagation over a
batch (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008,
ch. 13): it takes one point (d,) or n points (n, d), and one point runs the
arithmetic of a batch of one.  Dot, outer and matrix-vector products run
per row (``row_dot``, ``row_outer``, stacked column-vector ``@``), so a
batch row rounds exactly as the point alone does.
"""

from __future__ import annotations

import numpy as np

from .norms import Jet2, NormSpec, _jet, quadratic_form, row_dot, row_outer

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
    matching shapes, with a float value at one point.  The jets of the
    built-in constructors and of the algebra below round every batch row as
    that point alone.  When a jet callable is attached it is expected to be
    consistent with finite differences of `evaluate` (the test suite
    enforces this for every built-in constructor).
    """

    def __init__(self, dim, evaluate, jet=None, name="field"):
        self.dim = int(dim)
        self._evaluate = evaluate
        self._jet_fn = jet
        self.name = name

    def __call__(self, x):
        pts = np.asarray(x, dtype=float)
        if pts.shape[-1:] != (self.dim,):
            raise ValueError(f"field {self.name!r} expects points in R^{self.dim}")
        out = self._evaluate(pts)
        return float(out) if np.ndim(out) == 0 else out

    @property
    def has_jet(self) -> bool:
        return self._jet_fn is not None

    def jet(self, x) -> Jet2:
        if self._jet_fn is None:
            raise ValueError(f"field {self.name!r} carries no jet contract")
        return self._jet_fn(np.asarray(x, dtype=float))

    def __repr__(self):
        tag = "jet" if self.has_jet else "no jet"
        return f"<ScalarField {self.name!r} dim={self.dim} ({tag})>"

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self.dim)
        jet = None
        if self.has_jet and other.has_jet:
            def jet(x, a=self, b=other):
                ja, jb = a.jet(x), b.jet(x)
                return Jet2(ja.value + jb.value, ja.gradient + jb.gradient,
                            ja.hessian + jb.hessian)
        return ScalarField(
            self.dim,
            lambda pts: self._evaluate(pts) + other._evaluate(pts),
            jet=jet,
            name=f"({self.name}+{other.name})",
        )

    __radd__ = __add__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-_coerce(other, self.dim))

    def __mul__(self, other):
        if np.isscalar(other):
            c = float(other)
            jet = None
            if self.has_jet:
                def jet(x, a=self, c=c):
                    j = a.jet(x)
                    return Jet2(c * j.value, c * j.gradient, c * j.hessian)
            return ScalarField(
                self.dim,
                lambda pts: c * self._evaluate(pts),
                jet=jet,
                name=f"({other}*{self.name})",
            )
        other = _coerce(other, self.dim)
        jet = None
        if self.has_jet and other.has_jet:
            def jet(x, a=self, b=other):
                ja, jb = a.jet(x), b.jet(x)
                va, vb = np.asarray(ja.value), np.asarray(jb.value)
                grad = vb[..., None] * ja.gradient + va[..., None] * jb.gradient
                cross = row_outer(ja.gradient, jb.gradient)
                hess = (vb[..., None, None] * ja.hessian
                        + va[..., None, None] * jb.hessian
                        + cross + np.swapaxes(cross, -1, -2))
                return _jet(va * vb, grad, hess)
        return ScalarField(
            self.dim,
            lambda pts: self._evaluate(pts) * other._evaluate(pts),
            jet=jet,
            name=f"({self.name}*{other.name})",
        )

    __rmul__ = __mul__


def _coerce(obj, dim) -> ScalarField:
    if isinstance(obj, ScalarField):
        if obj.dim != dim:
            raise ValueError("field dimensions differ")
        return obj
    if np.isscalar(obj):
        return constant_field(dim, float(obj))
    raise TypeError(f"cannot combine ScalarField with {type(obj).__name__}")


def constant_field(dim, c, name=None) -> ScalarField:
    c = float(c)
    return ScalarField(
        dim,
        lambda pts: np.full(pts.shape[:-1], c),
        jet=lambda x: _jet(np.full(x.shape[:-1], c), np.zeros(x.shape),
                           np.zeros(x.shape + (dim,))),
        name=name or f"const({c})",
    )


def linear_field(a, c=0.0, name=None) -> ScalarField:
    """<a, x> + c."""
    a = np.asarray(a, dtype=float)
    dim = a.shape[0]
    return ScalarField(
        dim,
        lambda pts: pts @ a + c,
        jet=lambda x: _jet(row_dot(x, a) + c, np.broadcast_to(a, x.shape).copy(),
                           np.zeros(x.shape + (dim,))),
        name=name or "linear",
    )


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
        return _jet(xsx + row_dot(x, b) + c, 2.0 * sx + b, hess)

    return ScalarField(dim, evaluate, jet=jet, name=name or "quadratic")


def cubic_axis_field(a, b=None, c=None, name=None) -> ScalarField:
    """sum_i a_i x_i^3 plus an optional quadratic tail <x,Bx> + <c,x>."""
    a = np.asarray(a, dtype=float)
    dim = a.shape[0]
    bm = np.zeros((dim, dim)) if b is None else 0.5 * (np.asarray(b, float)
                                                       + np.asarray(b, float).T)
    cv = np.zeros(dim) if c is None else np.asarray(c, dtype=float)

    def evaluate(pts):
        return (np.sum(a * pts**3, axis=-1)
                + np.einsum("...i,ij,...j->...", pts, bm, pts) + pts @ cv)

    diag = np.arange(dim)

    def jet(x):
        x2 = x * x
        bx, xbx = quadratic_form(bm, x)
        value = np.sum(a * (x2 * x), axis=-1) + xbx + row_dot(x, cv)
        hess = np.broadcast_to(2.0 * bm, x.shape + (dim,)).copy()
        hess[..., diag, diag] += 6.0 * a * x
        return _jet(value, 3.0 * a * x2 + 2.0 * bx + cv, hess)

    return ScalarField(dim, evaluate, jet=jet, name=name or "cubic")


def gaussian_field(center, width=1.0, amplitude=1.0, name=None) -> ScalarField:
    """amplitude * exp(-|x - center|^2 / width^2)."""
    center = np.asarray(center, dtype=float)
    dim = center.shape[0]
    w2 = float(width) ** 2
    amp = float(amplitude)

    def evaluate(pts):
        d = pts - center
        return amp * np.exp(-np.sum(d * d, axis=-1) / w2)

    def jet(x):
        d = x - center
        value = amp * np.exp(-row_dot(d, d) / w2)
        grad = (value * (-2.0 / w2))[..., None] * d
        hess = value[..., None, None] * (4.0 / w2**2 * row_outer(d, d)
                                         - 2.0 / w2 * np.eye(dim))
        return _jet(value, grad, hess)

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
        hp1 = np.float_power(j.value, p - 1.0)
        grad = (p * hp1)[..., None] * j.gradient
        hess = p * (
            ((p - 1.0) * np.float_power(j.value, p - 2.0))[..., None, None]
            * row_outer(j.gradient, j.gradient)
            + hp1[..., None, None] * j.hessian
        )
        return _jet(np.float_power(j.value, p), grad, hess)

    return ScalarField(spec.dim, evaluate, jet=jet, name=name or f"H^{p}")
