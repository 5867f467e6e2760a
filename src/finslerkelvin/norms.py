"""Uniformly elliptic norms on R^N and their dual norms.

A norm H here is positive away from the origin, absolutely 1-homogeneous
(H(sx) = |s| H(x)), C^2 away from 0, and has a uniformly convex unit ball.
Three families are built in:

* ``RiemannianNorm``: H(x) = sqrt(<Mx, x>) for a symmetric positive-definite
  matrix M.  All derivative and dual-norm formulas are closed form, built
  from two methods that hold everything the other modules need from M:
  ``form`` gives (Mx, <Mx, x>) and ``contract`` the sum of M_ij hess_ij.
* ``EuclideanNorm``: H(x) = |x|, the M = I case of ``RiemannianNorm``.  It
  overrides only ``form`` and ``contract``, for a measured cost: the matrix
  route does d^2 work and makes more numpy calls per point.  Run as
  ``riemannian:`` the 3x3 identity, ``all --count 1000`` took a median 22-28%
  more CPU time than ``euclidean:3`` (three sets of 40 alternating in-process
  pairs on a 2-vCPU VM, slower in 35-39 of each 40).
* ``QuarticNorm``: H(x) = (x1^4 + 3 x1^2 x2^2 + x2^4)^(1/4) in the plane.
  Its unit ball is uniformly convex but not an ellipse, so its dual norm has
  no closed form.

The dual norm is H°(x) = sup{<xi, x> : H(xi) <= 1}.  For quadratic-form
norms it equals sqrt(<M^-1 x, x>); for the quartic norm ``dual()``
returns a ``NumericDualNorm``: a batched Newton solve of the support-function
optimality system gives the maximum H°, the maximizer grad H° (envelope
property) and, by implicit differentiation, D^2 H°.  In the plane each
Newton step and the Hessian are closed forms, with no linear solver.

Derivative identities enforced throughout (and exercised by the test
suite): the Euler relation <grad H(x), x> = H(x), zero-homogeneity of the
gradient in the form grad H(tx) = sign(t) grad H(x) (the correct variant of
an identity sometimes misprinted with a scalar right-hand side), and the
gradient dualities H(grad H°(x)) = 1 = H°(grad H(x)) and
H(x) grad H°(grad H(x)) = x.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .sampling import MAX_DIM, cube_directions

__all__ = [
    "SpdMatrix",
    "Jet2",
    "NormSpec",
    "RiemannianNorm",
    "EuclideanNorm",
    "QuarticNorm",
    "NumericDualNorm",
    "ConvergenceError",
    "equivalence_constants",
    "check_ellipticity",
    "parse_norm",
]

NEWTON_MAX_ITER = 50
NEWTON_KKT_TOL = 1e-8


class ConvergenceError(RuntimeError):
    """Newton maximization failed to reach the KKT tolerance."""


@dataclass(frozen=True)
class Jet2:
    """Value, gradient, and Hessian of a scalar function.

    At one point the shapes are (), (d,) and (d, d), and construction
    unboxes the value to a float; at a batch of n points they are (n,),
    (n, d) and (n, d, d).
    """

    value: float | np.ndarray
    gradient: np.ndarray
    hessian: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "value", _unbox(self.value))


def _unbox(value):
    """A float for a one-point result, the array itself for a batch."""
    return float(value) if np.ndim(value) == 0 else value


class SpdMatrix:
    """Symmetric positive-definite matrix with eagerly cached factorizations.

    The input is symmetrized exactly as (A + A^T)/2 and validated by a
    Cholesky factorization; construction fails for anything that is not
    positive definite.  Inverse, determinant, and extreme eigenvalues are
    computed once here, so instances are immutable.
    """

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 2:
            raise ValueError("dimension must be at least 2")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        m = 0.5 * (a + a.T)
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            k = self._failing_minor(m)
            raise ValueError(
                f"matrix is not positive definite (leading minor {k} fails)"
            ) from None
        self.entries = m
        self.dim = m.shape[0]
        self.inverse = np.linalg.inv(m)
        self.det = float(np.prod(np.diag(chol)) ** 2)
        eigs = np.linalg.eigvalsh(m)
        self.eig_min = float(eigs[0])
        self.eig_max = float(eigs[-1])

    @staticmethod
    def _failing_minor(m: np.ndarray) -> int:
        for k in range(1, m.shape[0] + 1):
            try:
                np.linalg.cholesky(m[:k, :k])
            except np.linalg.LinAlgError:
                return k
        return m.shape[0]

    def __eq__(self, other):
        return isinstance(other, SpdMatrix) and np.array_equal(
            self.entries, other.entries
        )

    def __hash__(self):
        return hash(self.entries.tobytes())

    def __repr__(self):
        return f"SpdMatrix({self.entries.tolist()!r})"


def _as_points(x, dim: int) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.shape[-1:] != (dim,):
        raise ValueError(
            f"point has trailing dimension {pts.shape[-1] if pts.ndim else 0}, "
            f"norm expects {dim}"
        )
    return pts


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> over the last axis, rounded exactly as the 1-D ``a @ b`` is.

    A stacked ``@`` over (..., 1, d) x (..., d, 1) operands runs the same
    BLAS dot per row as the one-point product, so a batch row and a point
    alone round alike; ``einsum`` (at d = 2) and gemv against gemm do not.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def row_sum(a: np.ndarray) -> np.ndarray:
    """``np.sum(a, axis=-1)`` bit for bit, one column at a time.

    Below 8 columns numpy adds each row left to right, starting from +0.0
    (so a row of -0.0 sums to +0.0), in a separate inner loop per row;
    adding whole columns in that order rounds alike in one loop per column.
    From 8 columns numpy sums each row pairwise, the sum here too; a copy in
    C order keeps a Fortran-ordered batch from being summed by columns.
    """
    if a.shape[-1] >= 8:
        return np.sum(np.ascontiguousarray(a), axis=-1)
    return functools.reduce(np.add, (a[..., i] for i in range(a.shape[-1])), 0.0)


def row_contract(a: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """sum_ij a_ij hess_ij per row: ``np.vdot`` of each row, rounded alike."""
    d = hess.shape[-1]
    return row_dot(a.reshape(a.shape[:-2] + (d * d,)),
                   hess.reshape(hess.shape[:-2] + (d * d,)))


def nonzero_rows(a: np.ndarray) -> np.ndarray:
    """``a.any(axis=-1)`` one column at a time: rows with an entry != 0
    (NaN included, -0.0 not)."""
    nonzero = a != 0.0
    return functools.reduce(np.logical_or,
                            (nonzero[..., i] for i in range(a.shape[-1])))


def row_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b over the last axis: (..., d) x (..., d) -> (..., d, d)."""
    return a[..., :, None] * b[..., None, :]


def row_matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m x per row of `x`: the stacked product runs the one-point BLAS call on
    every row, so a point alone and as a batch row round alike."""
    return (m @ x[..., None])[..., 0]


def quadratic_form(m: np.ndarray, x: np.ndarray):
    """(Mx, <Mx, x>) per row of `x`: the two quantities every quadratic-form
    norm, its inversion map and its operators are built from."""
    mx = row_matvec(m, x)
    return mx, row_dot(x, mx)


class NormSpec:
    """Shared contract for the built-in norms.

    Each family defines one ``_eval(pts, order)`` on a float array `pts`
    whose last axis is ``dim``: H per row at `order` 0, (H, grad H) at 1
    and (H, grad H, D^2 H) at 2, with the leading shape of `pts`.
    ``value``, ``value_gradient`` and ``jet`` are that routine behind one
    input check, so they broadcast over leading axes and agree bit for bit:
    ``value_gradient(x)`` is (H(x), grad H(x)) from one evaluation (one
    Newton solve for the numeric dual), its value that of ``value(x)``.
    ``value`` and ``dual_value`` (H°(x) = sup{<xi, x> : H(xi) <= 1}) map the
    origin to 0.  ``jet`` takes one point (d,) or a batch (n, d), refuses
    any zero row and returns one :class:`Jet2` of the matching shapes, with
    a float value at one point.  ``dual()`` is the dual norm's spec (by
    default the planar ``NumericDualNorm``) and ``dual_value`` its value;
    ``canonical()`` is the text ``parse_norm`` reads back.  Specs are
    immutable and every method is pure.

    ``matrix`` is M for quadratic-form norms H(x) = sqrt(<Mx, x>) and None
    for every other norm.  It is the one answer to "does the transform
    theory apply, and with which M?" that the other modules ask; they take
    the arithmetic of M from the spec's ``form`` and ``contract``.  For
    quadratic-form specs every batch row of ``value``, ``dual_value``,
    ``value_gradient`` and ``jet`` rounds as that point alone, and so do the
    batch rows of the quartic norm and of its numeric dual: every power is
    ``np.float_power``, the C library's ``pow`` per element.
    """

    dim: int
    matrix: SpdMatrix | None = None

    def _eval(self, pts: np.ndarray, order: int):
        raise NotImplementedError

    def value(self, x):
        return self._eval(_as_points(x, self.dim), 0)

    def value_gradient(self, x):
        return self._eval(_as_points(x, self.dim), 1)

    def jet(self, x) -> Jet2:
        pts = _as_points(x, self.dim)
        if not nonzero_rows(pts).all():
            raise ValueError("norm is not differentiable at the origin")
        return Jet2(*self._eval(pts, 2))

    def dual(self) -> "NormSpec":
        return NumericDualNorm(self)

    def dual_value(self, x):
        return self.dual().value(x)

    def canonical(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.canonical()}>"

    def __eq__(self, other):
        return type(self) is type(other) and self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())


class RiemannianNorm(NormSpec):
    """H(x) = sqrt(<Mx, x>) for symmetric positive-definite M."""

    def __init__(self, matrix):
        if not isinstance(matrix, SpdMatrix):
            matrix = SpdMatrix(matrix)
        self.matrix = matrix
        self.dim = matrix.dim

    def form(self, pts: np.ndarray, order: int = 2):
        """(Mx, <Mx, x>) per row of `pts`; `order` is that of the jet it
        serves, for a form that rounds by order."""
        return quadratic_form(self.matrix.entries, pts)

    def contract(self, hess: np.ndarray) -> np.ndarray:
        """sum_ij M_ij hess_ij per row of `hess`."""
        return row_contract(self.matrix.entries, hess)

    def _eval(self, pts, order):
        mx, q = self.form(pts, order)
        h = np.sqrt(np.maximum(q, 0.0))
        if order == 0:
            return h
        grad = mx / h[..., None]
        if order == 1:
            return h, grad
        m = self.matrix.entries
        return h, grad, (m - row_outer(grad, grad)) / h[..., None, None]

    def dual(self) -> "RiemannianNorm":
        return RiemannianNorm(SpdMatrix(self.matrix.inverse))

    def dual_value(self, x):
        # the raw inverse, which ``dual()`` re-symmetrises, so the two
        # round H° apart on some points
        q = quadratic_form(self.matrix.inverse, _as_points(x, self.dim))[1]
        return np.sqrt(np.maximum(q, 0.0))

    def canonical(self) -> str:
        return "riemannian:" + json.dumps(
            self.matrix.entries.tolist(), separators=(",", ":")
        )


class EuclideanNorm(RiemannianNorm):
    """The Euclidean norm |x|, M = I; self-dual."""

    def __init__(self, dim: int):
        dim = int(dim)
        if dim < 2:
            raise ValueError("dimension must be at least 2")
        super().__init__(SpdMatrix(np.eye(dim)))

    def form(self, pts, order=2):
        # <x, x> rounds two ways: row_sum (np.sum's order) at orders 0-1,
        # row_dot at 2, so ``value`` and ``jet`` can differ in the last bit
        # (the CHANGES.md FOUND: line on `EuclideanNorm.value` against `jet`)
        return pts, (row_sum(pts * pts) if order < 2 else row_dot(pts, pts))

    def contract(self, hess):
        # vdot(I, hess) sums the diagonal in another order at d >= 4: on
        # `all --norm euclidean:4 --count 200` it moves 134 semilinear rows
        # and raises the oracle median of the quadratic family's lhs from
        # 1.42 to 1.66 eps, while the gaussian-bump lhs median falls from
        # 0.99 to 0.93 (scripts/oracle_error.py).
        return np.trace(hess, axis1=-2, axis2=-1)

    def dual(self) -> "EuclideanNorm":
        return EuclideanNorm(self.dim)

    def dual_value(self, x):
        return self.value(x)

    def canonical(self) -> str:
        return f"euclidean:{self.dim}"


class QuarticNorm(NormSpec):
    """H(x) = (x1^4 + 3 x1^2 x2^2 + x2^4)^(1/4) in the plane.

    The quartic under the root equals |x|^4 + x1^2 x2^2, so H >= |x| with
    equality on the axes; the unit ball is uniformly convex but not an
    ellipse.  It is the stock example of a norm whose inversion-map Jacobian
    invariant is direction-dependent (see ``kelvin.det_invariant``).
    """

    def __init__(self):
        self.dim = 2

    @staticmethod
    def _eval(pts, order):
        x1, x2 = pts[..., 0], pts[..., 1]
        s1, s2 = np.float_power(x1, 2), np.float_power(x2, 2)
        q = np.float_power(x1, 4) + 3.0 * s1 * s2 + np.float_power(x2, 4)
        h = np.float_power(q, 0.25)
        if order == 0:
            return h
        g1 = 4.0 * np.float_power(x1, 3) + 6.0 * x1 * s2
        g2 = 6.0 * s1 * x2 + 4.0 * np.float_power(x2, 3)
        w1 = 0.25 * np.float_power(q, -0.75)
        grad = np.empty(pts.shape)
        grad[..., 0], grad[..., 1] = w1 * g1, w1 * g2
        if order == 1:
            return h, grad
        w2 = 0.1875 * np.float_power(q, -1.75)
        hess = np.empty(pts.shape + (2,))
        hess[..., 0, 0] = w1 * (12.0 * s1 + 6.0 * s2) - w2 * (g1 * g1)
        hess[..., 0, 1] = hess[..., 1, 0] = (w1 * (12.0 * x1 * x2)
                                             - w2 * (g1 * g2))
        hess[..., 1, 1] = w1 * (6.0 * s1 + 12.0 * s2) - w2 * (g2 * g2)
        return h, grad, hess

    def canonical(self) -> str:
        return "quartic"


class NumericDualNorm(NormSpec):
    """Dual of a planar norm without a closed-form dual (other dims: ValueError).

    Value and gradient (the maximizer xi) come from one Newton solve, as in
    ``value_gradient``: a 1e-8 KKT stop, then one polishing Newton step. The
    Hessian t (x) t / (H°(x) <D^2 H(xi) t, t>) inverts the optimality system
    on the tangent t, at the solve's primal jet.
    """

    def __init__(self, primal: NormSpec):
        if primal.dim != 2:
            raise ValueError("numeric dual norm implemented for dim 2")
        self.primal, self.dim = primal, 2

    def _eval(self, pts, order):
        if order == 0:
            return _support_values(self.primal, pts)
        lam, xi, _, pj = _support_points(self.primal, pts.reshape(-1, 2))
        h, grad = _unbox(lam.reshape(pts.shape[:-1])), xi.reshape(pts.shape)
        if order == 1:
            return h, grad
        t, _, curv = _tangent_curvature(pj.gradient, pj.hessian)
        hess = row_outer(t, t) / (lam * curv)[:, None, None]
        return h, grad, hess.reshape(pts.shape + (2,))

    def dual(self) -> NormSpec:
        # Biduality: the dual of the dual is the primal norm again.
        return self.primal

    def dual_value(self, x):
        # the bidual by a Newton solve over this norm's own unit circle, not
        # the primal's value: the identity suite's `bidual` row checks it
        return _support_values(self, x)

    def canonical(self) -> str:
        return f"dual({self.primal.canonical()})"


def _tangent_curvature(grad, hess):
    """(t, u, <u, t>) per row: t is grad turned a quarter turn, u = hess t;
    -lam <u, t> is the determinant of K = [[lam hess, grad], [grad^T, 0]]."""
    t = np.column_stack([-grad[:, 1], grad[:, 0]])
    u = hess[:, :, 0] * t[:, :1] + hess[:, :, 1] * t[:, 1:]
    return t, u, u[:, 0] * t[:, 0] + u[:, 1] * t[:, 1]


def _newton_step(lam, grad, hess, r):
    """The Newton step K^-1 r per row, in xi and in lam, by Cramer's rule:
    with w = u turned back, (t <t, r[:2]> / lam + w r[2]) / <u, t> and
    (<w, r[:2]> - lam det(hess) r[2]) / <u, t>."""
    t, u, curv = _tangent_curvature(grad, hess)
    w = np.column_stack([u[:, 1], -u[:, 0]])
    det = hess[:, 0, 0] * hess[:, 1, 1] - hess[:, 0, 1] * hess[:, 1, 0]
    d_xi = (t * ((t[:, 0] * r[:, 0] + t[:, 1] * r[:, 1]) / lam)[:, None]
            + w * r[:, 2:]) / curv[:, None]
    return d_xi, (w[:, 0] * r[:, 0] + w[:, 1] * r[:, 1] - lam * det * r[:, 2]) / curv


def _kkt_residual(xh, lam, value, grad):
    """Stationarity residuals and their max |.| per row (exact np.maximum)."""
    r = np.column_stack([xh - lam[:, None] * grad, 1.0 - value])
    return r, functools.reduce(np.maximum, np.abs(r).T)


def _support_points(spec: NormSpec, x: np.ndarray):
    """Maximize <xi, x> over the unit circle {H(xi) = 1} of `spec`, per row.

    Newton iteration on the stationarity system

        x - lam * grad H(xi) = 0,    H(xi) = 1,

    warm-started at xi = x / H(x), for all rows of `x` (n, 2) at once, with
    the step of ``_newton_step`` halved (at most 20 times) while a row's
    residual fails to shrink.  The state holds the active rows only: a
    converged row is written out once and dropped, and a full step every
    row takes replaces the state whole, so a row gets the same bits and
    iterations in any batch.  A row stops at a KKT residual of 1e-8, then
    takes one full step (no damping, no test) to the rounding floor.
    Returns (lam, xi, iterations, jet) there: lam is both multiplier and
    maximum, the iterations count that step, jet is H's at xi.  Rows are
    scaled to |x| = 1 so the KKT tolerance means the same for all inputs.
    Raises ConvergenceError naming the first row that fails.
    """
    scale = np.sqrt(row_dot(x, x))
    if np.any(scale == 0.0):
        raise ValueError("support maximization needs a nonzero direction")
    xh = x / scale[:, None]
    xi = xh / spec.value(xh)[:, None]
    # state of the active rows: `rows` are their indices into `x`, `stuck`
    # the positions no halving could improve (they cannot converge)
    rows, stuck, j = np.arange(len(x)), [], spec.jet(xi)
    state = [xi, row_dot(xi, xh), j.value, j.gradient, j.hessian]
    out, iters = [np.empty_like(a) for a in state], np.full(len(x), -1)
    resid, rnorm = _kkt_residual(xh, *state[1:4])
    for it in range(NEWTON_MAX_ITER):
        done = rnorm <= NEWTON_KKT_TOL
        if done.any() or len(stuck):
            for o, a in zip(out, state):
                o[rows[done]] = a[done]
            iters[rows[done]] = it
            keep = ~done
            keep[stuck] = False
            if not keep.any():
                break
            rows, xh, resid, rnorm = (a[keep] for a in (rows, xh, resid, rnorm))
            state = [a[keep] for a in state]
        xi, lam, _, grad, hess = state
        d_xi, d_lam = _newton_step(lam, grad, hess, resid)
        # damped update of the state positions `todo` still halving.  Without
        # the full-take path and the slice selections, quartic-dual took a
        # median 1.26x the time (scripts/paired_timing.py, 2-vCPU VM; faster
        # in 1 of 40 pairs)
        todo, t = np.arange(rows.size), 1.0
        for _ in range(20):
            sel = slice(None) if todo.size == rows.size else todo
            xi_try = xi[sel] + t * d_xi[sel]
            lam_try = lam[sel] + t * d_lam[sel]
            # a trial point at the origin has no jet and is not taken
            nonzero = nonzero_rows(xi_try)
            if nonzero.any():
                live = slice(None) if nonzero.all() else nonzero
                j = spec.jet(xi_try[live])
                trial = [xi_try[live], lam_try[live], j.value, j.gradient,
                         j.hessian]
                r_try, rn_try = _kkt_residual(xh[sel][live], *trial[1:4])
                take = rn_try < rnorm[sel][live]
                if take.size == rows.size and take.all():
                    state, resid, rnorm, todo = trial, r_try, rn_try, []
                    break
                acc = np.flatnonzero(nonzero)[take]
                for a, b in zip(state + [resid, rnorm], trial + [r_try, rn_try]):
                    a[todo[acc]] = b[take]
                todo = np.delete(todo, acc)
                if todo.size == 0:
                    break
            t *= 0.5
        stuck = todo
    if np.any(iters < 0):
        bad = x[np.argmax(iters < 0)]
        raise ConvergenceError(
            f"support maximization did not converge in {NEWTON_MAX_ITER} "
            f"iterations for direction {bad.tolist()}"
        )
    xi, lam, value, grad, hess = out
    r = _kkt_residual(x / scale[:, None], lam, value, grad)[0]
    d_xi, d_lam = _newton_step(lam, grad, hess, r)
    xi = xi + d_xi
    return (lam + d_lam) * scale, xi, iters + 1, spec.jet(xi)


def _support_values(spec: NormSpec, x):
    """Dual-norm values via one `_support_points` solve (zero maps to 0)."""
    pts = _as_points(x, spec.dim)
    flat = pts.reshape(-1, spec.dim)
    out = np.zeros(flat.shape[0])
    nonzero = nonzero_rows(flat)
    out[nonzero] = _support_points(spec, flat[nonzero])[0]
    return _unbox(out.reshape(pts.shape[:-1]))


def equivalence_constants(spec: NormSpec) -> tuple[float, float]:
    """Constants (c1, c2) with c1 |x| <= H(x) <= c2 |x| for all x.

    Quadratic-form norms use the extreme eigenvalues of M.  Other norms
    (plane only) take the min/max of H over the Euclidean unit circle by
    dense sampling plus golden-section refinement.  The returned pair is
    self-checked against 1000 deterministic directions before returning.
    """
    if spec.matrix is not None:
        c1 = float(np.sqrt(spec.matrix.eig_min))
        c2 = float(np.sqrt(spec.matrix.eig_max))
    else:
        if spec.dim != 2:
            raise ValueError("sampled equivalence constants implemented for dim 2")
        theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        circ = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        vals = spec.value(circ)

        def h_of(t):
            return float(spec.value(np.array([np.cos(t), np.sin(t)])))

        step = theta[1]
        tmin = _golden_minimize(h_of, theta[np.argmin(vals)], step)
        tmax = _golden_minimize(lambda t: -h_of(t), theta[np.argmax(vals)], step)
        c1, c2 = h_of(tmin), h_of(tmax)

    dirs = cube_directions(1000, spec.dim, skip=17)
    lens = np.sqrt(row_sum(dirs * dirs))
    ratio = np.asarray(spec.value(dirs)) / lens
    slack = 1e-10
    if np.any(ratio < c1 * (1.0 - slack)) or np.any(ratio > c2 * (1.0 + slack)):
        raise ValueError("equivalence constants violated on sample directions")
    return c1, c2


def _golden_minimize(f, center: float, width: float, iters: int = 80) -> float:
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = center - width, center + width
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def check_ellipticity(spec: NormSpec, samples: int = 256) -> float:
    """Estimate the uniform-convexity constant of the unit ball of H.

    Minimizes <D^2 H(xi) v, v> over sampled xi on the unit H-sphere and unit
    v orthogonal to grad H(xi).  Positive output certifies the sampled
    directions; built-in norms must always yield a strictly positive value.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    dirs = cube_directions(samples, spec.dim, skip=3)
    j = spec.jet(dirs / np.asarray(spec.value(dirs))[:, None])
    g = j.gradient / np.sqrt(row_dot(j.gradient, j.gradient))[:, None]
    # orthonormal bases (as rows) of the tangent spaces grad^perp via SVD
    tangent = np.linalg.svd(g[:, None, :])[2][:, 1:]
    sub = tangent @ j.hessian @ np.swapaxes(tangent, -1, -2)
    return float(np.min(np.linalg.eigvalsh(sub)[:, 0]))


# ---------------------------------------------------------------------------
# canonical text form (used by the CLI configuration)


def parse_norm(text: str) -> NormSpec:
    """Parse the canonical text form of a norm spec.

    Accepted forms: ``riemannian:[[4,0],[0,1]]``, ``euclidean:N``,
    ``quartic``.  A dimension no sample plan can cover (the plan draws
    N + 1 Halton coordinates) is refused before any matrix is built.
    """
    text = text.strip()
    if text == "quartic":
        return QuarticNorm()
    if text.startswith("euclidean:"):
        try:
            dim = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed euclidean dimension in {text!r}") from None
        return EuclideanNorm(_plan_dim(dim))
    if text.startswith("riemannian:"):
        body = text.split(":", 1)[1]
        try:
            rows = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed matrix literal {body!r}: {exc}") from None
        if isinstance(rows, list):
            _plan_dim(len(rows))
        return RiemannianNorm(SpdMatrix(rows))
    raise ValueError(
        f"unknown norm {text!r}; expected riemannian:[[...]], euclidean:N, or quartic"
    )


def _plan_dim(dim: int) -> int:
    """`dim`, or a ValueError if sample plans cannot cover it."""
    if dim >= MAX_DIM:
        raise ValueError(f"dimension {dim} is too large: sample plans "
                         f"support at most {MAX_DIM - 1}")
    return dim
