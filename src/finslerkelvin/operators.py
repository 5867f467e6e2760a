"""Pointwise anisotropic elliptic operators and numeric jet extraction.

The operators act on second-order jets rather than on fields: the caller
chooses whether the jet comes from an analytic contract or from the finite
difference builder below, and both routes share one algebraic code path.
The operators take the jet of one point or of a batch (values (n,),
gradients (n, d), Hessians (n, d, d)) and give one value per row; for
quadratic-form norms a batch row rounds as that point alone.  The finite
difference builder takes one point or a batch too, in two field calls,
and its batch rows round as the points alone whenever the field's values
do.

For a norm H, the divergence-form operator div(H(grad u) gradH(grad u))
evaluates pointwise as trace(A(grad u) D^2 u) with
A(xi) = H(xi) D^2 H(xi) + gradH(xi) (x) gradH(xi), i.e. half the Hessian of
H^2.  For quadratic-form norms A is the constant matrix M.  The
dimension-tied quasilinear variant div(H^(N-1)(grad u) gradH(grad u))
evaluates as trace(B(grad u) D^2 u) with
B(xi) = H^(N-1) D^2 H + (N-1) H^(N-2) gradH (x) gradH, which is A at N = 2;
one routine computes both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import ScalarField
from .norms import (Jet2, NormSpec, _unbox, nonzero_rows, row_contract,
                    row_dot, row_outer)

__all__ = [
    "NumericJet",
    "numeric_jet",
    "anisotropic_laplacian",
    "finsler_n_laplacian",
]

_EPS = float(np.finfo(float).eps)
# Baseline central-difference steps: eps^(1/3) balances truncation against
# roundoff for first differences.  Second differences divide by h^2, so their
# roundoff floor forces a coarser step, eps^(1/4); Richardson levels then
# remove the extra truncation error.
_GRAD_STEP = _EPS ** (1.0 / 3.0)
_HESS_STEP = _EPS ** 0.25


def _length_scale(pts: np.ndarray) -> np.ndarray:
    """max(1, |x|) per row, with |x| rounded as the 1-D ``sqrt(x @ x)``."""
    return np.maximum(1.0, np.sqrt(row_dot(pts, pts)))


@dataclass(frozen=True)
class NumericJet(Jet2):
    """Jet with the extrapolation-difference error estimates attached.

    The estimates are floats at one point and arrays of one entry per row
    for a batch; with a single Richardson level they are NaN.
    """

    gradient_error: float | np.ndarray = float("nan")
    hessian_error: float | np.ndarray = float("nan")


def _richardson(values: np.ndarray):
    """Extrapolate O(h^2) approximations along axis 1, coarse to fine.

    `values` has shape (rows, levels, ...).  Returns (best, error) with one
    error estimate per row, the largest entry of the last extrapolation
    difference; with a single level the estimate is NaN.
    """
    r = [values[:, k] for k in range(values.shape[1])]
    L = len(r)
    for j in range(1, L):
        factor = 4.0**j
        for i in range(L - 1, j - 1, -1):
            r[i] = (factor * r[i] - r[i - 1]) / (factor - 1.0)
    if L < 2:
        return r[-1], np.full(len(values), np.nan)
    diff = np.abs(r[-1] - r[-2])
    return r[-1], np.max(diff, axis=tuple(range(1, diff.ndim)))


@lru_cache(maxsize=None)
def _offsets(n: int) -> np.ndarray:
    """Central-difference stencil rows in units of the step.

    Rows are +e_i, -e_i, then for each pair i < j the four corners
    e_i+e_j, e_i-e_j, -e_i+e_j, -e_i-e_j; the first 2n rows alone give the
    gradient and the diagonal of the Hessian.
    """
    eye = np.eye(n)
    i, j = np.triu_indices(n, 1)
    signs = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    cross = signs[:, 0, None, None] * eye[i] + signs[:, 1, None, None] * eye[j]
    table = np.concatenate([eye, -eye, cross.transpose(1, 0, 2).reshape(-1, n)])
    table.flags.writeable = False
    return table


def numeric_jet(field: ScalarField, point, step: float | str = "auto",
                refinement: int = 3) -> NumericJet:
    """Central-difference jet with Richardson extrapolation.

    `point` is one point (d,) or a batch (k, d); the jet has the shapes of
    ``ScalarField.jet`` and one error estimate per row (floats at one
    point).  One point runs the arithmetic of a batch of one.

    `step` is either "auto" (a step per row that scales with max(1, |x|))
    or an explicit base step used for every stencil.  `refinement` >= 1 is
    the number of Richardson levels; level k uses step base * 2^k and the
    levels are extrapolated together.  At the auto step the gradient uses a
    finer base step than the Hessian, so it takes only the axis rows of the
    stencil.  The field is called twice: once for the values at the points,
    once for every stencil point of every row and level (72 per row at
    d = 3, refinement 3 and the auto step).

    No stencil at the largest level may reach the origin (fields here are
    typically singular there); that raises instead of returning noise, as
    does a non-finite field value.  Each message names the first offending
    point.
    """
    pts = np.asarray(point, dtype=float)
    n = field.dim
    if pts.shape[-1:] != (n,) or pts.ndim > 2:
        raise ValueError("point dimension does not match the field")
    x = pts.reshape(-1, n)
    k = len(x)
    levels = int(refinement)
    if levels < 1:
        raise ValueError("refinement must be >= 1")
    split = step == "auto"
    if split:
        length = _length_scale(x)
        hg, hh = _GRAD_STEP * length, _HESS_STEP * length
    else:
        if float(step) <= 0.0:
            raise ValueError("step must be positive")
        hg = hh = np.full(k, float(step))
    reach = np.maximum(hg, hh) * 2.0 ** (levels - 1) * np.sqrt(2.0) * 1.000001
    inside = np.sqrt(row_dot(x, x)) <= reach
    if inside.any():
        first = np.argmax(inside)
        raise ValueError(f"stencil of reach {reach[first]:.3g} would cross "
                         f"the origin at {x[first].tolist()}")
    f0 = np.asarray(field(x), dtype=float).reshape(k)
    bad = ~np.isfinite(f0)
    if bad.any():
        raise ValueError(
            f"non-finite field value at {x[np.argmax(bad)].tolist()}")

    # steps of shape (row, level, 1), levels coarse -> fine
    scale = 2.0 ** np.arange(levels - 1, -1, -1)
    gs, hs = (hg[:, None] * scale)[..., None], (hh[:, None] * scale)[..., None]
    table = _offsets(n)
    rows = hs[..., None] * table
    if split:
        rows = np.concatenate([rows, gs[..., None] * table[: 2 * n]], axis=2)
    vals = np.asarray(field((x[:, None, None, :] + rows).reshape(-1, n)),
                      dtype=float).reshape(k, levels, -1)
    bad = ~np.isfinite(vals).all(axis=(1, 2))
    if bad.any():
        raise ValueError(
            f"non-finite field value near {x[np.argmax(bad)].tolist()}")
    hs2 = hs * hs
    gvals = vals[..., -2 * n :] if split else vals
    grad = (gvals[..., :n] - gvals[..., n : 2 * n]) / (2.0 * gs)

    fp, fm = vals[..., :n], vals[..., n : 2 * n]
    hess = np.zeros((k, levels, n, n))
    idx = np.arange(n)
    hess[..., idx, idx] = (fp - 2.0 * f0[:, None, None] + fm) / hs2
    i, j = np.triu_indices(n, 1)
    q = vals[..., 2 * n : len(table)].reshape(k, levels, -1, 4)
    off = (q[..., 0] - q[..., 1] - q[..., 2] + q[..., 3]) / (4.0 * hs2)
    hess[..., i, j] = hess[..., j, i] = off

    grad, gerr = _richardson(grad)
    hess, herr = _richardson(hess)
    hess = 0.5 * (hess + np.swapaxes(hess, -1, -2))
    if pts.ndim == 1:
        return NumericJet(f0.item(), grad[0], hess[0], gerr.item(),
                          herr.item())
    return NumericJet(f0, grad, hess, gerr, herr)


def _coefficient_matrix(spec: NormSpec, grad: np.ndarray, n: int = 2):
    """B(grad) = H^(n-1) D^2 H + (n-1) H^(n-2) gradH (x) gradH evaluated at
    the field gradient.  At n = 2 it is A(grad) bit for bit: ``float_power``
    of H to 1 is H, and 1.0 times a product is that product."""
    j = spec.jet(grad)
    return (np.float_power(j.value, n - 1.0)[..., None, None] * j.hessian
            + ((n - 1.0) * np.float_power(j.value, n - 2.0))[..., None, None]
            * row_outer(j.gradient, j.gradient))


def anisotropic_laplacian(spec: NormSpec, jet: Jet2):
    """trace(A(grad u) D^2 u) for A = half the Hessian of H^2.

    A jet of one point gives a float, a batch jet an array with one value
    per row.  Quadratic-form norms have A = M identically, so a vanishing
    gradient is harmless there; for other norms A is undefined at 0 and a
    zero gradient is an error.
    """
    hess = np.asarray(jet.hessian, dtype=float)
    if spec.matrix is not None:
        return _unbox(spec.contract(hess))
    grad = np.asarray(jet.gradient, dtype=float)
    if not nonzero_rows(grad).all():
        raise ValueError("operator coefficient undefined at a zero gradient "
                         "for non-quadratic norms")
    return _unbox(row_contract(_coefficient_matrix(spec, grad), hess))


# Division guard, far above underflow and far below any sane jet: rows with a
# smaller gradient skip the division by q = <M grad, grad> (and the norm jet
# at grad) below.  It flags nothing; verify.DEGENERATE_GRADIENT_TOL does.
_DEGENERATE_GRADIENT = 1e-140


def finsler_n_laplacian(spec: NormSpec, jet: Jet2, n: int):
    """trace(B(grad u) D^2 u) for the dimension-tied quasilinear operator.

    `n` must equal the spec dimension.  A jet of one point gives a float, a
    batch jet an array with one value per row.  For n > 2 the coefficient
    B(xi) vanishes continuously as xi -> 0, so a row with a (numerically)
    zero gradient reads exactly 0 instead of raising; for n = 2, B = A and
    it reads ``anisotropic_laplacian``.  Powers use ``np.float_power``.
    """
    n = int(n)
    if n != spec.dim:
        raise ValueError(f"operator is dimension-tied: n={n} but spec.dim={spec.dim}")
    grad = np.asarray(jet.gradient, dtype=float)
    hess = np.asarray(jet.hessian, dtype=float)
    degenerate = np.sqrt(row_dot(grad, grad)) < _DEGENERATE_GRADIENT
    live = ~degenerate
    # the live rows as a (k, n) batch, also at one point (k = 0 or 1)
    g, h = grad[live], hess[live]
    value = np.zeros(grad.shape[:-1])
    if spec.matrix is not None:
        mg, q = spec.form(g)
        core = spec.matrix.entries + (n - 2.0) * row_outer(mg, mg) / q[:, None, None]
        value[live] = np.float_power(q, (n - 2.0) / 2.0) * row_contract(core, h)
    else:
        value[live] = row_contract(_coefficient_matrix(spec, g, n), h)
    if n == 2 and degenerate.any():
        # in the plane B = A, which is defined at a zero gradient only for
        # quadratic-form norms
        value[degenerate] = anisotropic_laplacian(
            spec, Jet2(0.0, grad[degenerate], hess[degenerate]))
    return _unbox(value)
