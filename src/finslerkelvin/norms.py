"""Uniformly elliptic norms on R^N and their dual norms.

A norm H here is positive away from the origin, absolutely 1-homogeneous
(H(sx) = |s| H(x)), C^2 away from 0, and has a uniformly convex unit ball.
Three families are built in:

* ``RiemannianNorm``: H(x) = sqrt(<Mx, x>) for a symmetric positive-definite
  matrix M.  All derivative and dual-norm formulas are closed form.
* ``EuclideanNorm``: H(x) = |x|, mathematically ``RiemannianNorm(identity)``.
  The class stays for a measured cost, not for its bytes.  Folded into
  ``RiemannianNorm(np.eye(N))`` through the stacked matmuls,
  ``all --norm euclidean:3 --count 1000`` ran about 11% slower (in-process
  CPU time, median 1.47 -> 1.64 s, slower in 11 of 12 alternating pairs on
  a 2-vCPU VM), and still about 20% slower once the suites were batched
  (slower in 6 of 6 pairs).  The matrix route does d^2 work and makes more
  numpy calls per point.  Its ``sqrt(sum(x*x))`` rounds the same for one
  point and for a batch.
* ``QuarticNorm``: H(x) = (x1^4 + 3 x1^2 x2^2 + x2^4)^(1/4) in the plane.
  Its unit ball is uniformly convex but not an ellipse, so its dual norm has
  no closed form and is computed by Newton iteration on the support-function
  stationarity system.

The dual norm is H°(x) = sup{<xi, x> : H(xi) <= 1}.  For quadratic-form
norms it equals sqrt(<M^-1 x, x>); for the quartic norm ``dual_spec``
returns a ``NumericDualNorm`` wrapper whose value is the Newton maximum,
whose gradient is the maximizer (envelope property), and whose Hessian
comes from implicit differentiation of the optimality system.  The Newton
solve runs over a whole batch of directions at once.

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

from .sampling import cube_directions

__all__ = [
    "SpdMatrix",
    "Jet2",
    "NormSpec",
    "RiemannianNorm",
    "EuclideanNorm",
    "QuarticNorm",
    "NumericDualNorm",
    "ConvergenceError",
    "eval_norm",
    "norm_jet",
    "dual_norm",
    "dual_spec",
    "equivalence_constants",
    "check_ellipticity",
    "parse_norm",
    "format_norm",
]

NEWTON_MAX_ITER = 50
NEWTON_KKT_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """Newton maximization failed to reach the KKT tolerance."""


@dataclass(frozen=True)
class Jet2:
    """Value, gradient, and Hessian of a scalar function.

    At one point the shapes are (), (d,) and (d, d), with a float value; at
    a batch of n points they are (n,), (n, d) and (n, d, d).
    """

    value: float | np.ndarray
    gradient: np.ndarray
    hessian: np.ndarray


def _unbox(value):
    """A Python scalar for a one-point result, the array itself for a batch."""
    return np.asarray(value).item() if np.ndim(value) == 0 else value


def _jet(value, gradient, hessian) -> Jet2:
    return Jet2(_unbox(value), gradient, hessian)


class SpdMatrix:
    """Symmetric positive-definite matrix with eagerly cached factorizations.

    The input is symmetrized exactly as (A + A^T)/2 and validated by a
    Cholesky factorization; construction fails for anything that is not
    positive definite.  Inverse, determinant, and extreme eigenvalues are
    computed once here so instances are immutable and safe to share.
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


def _check_not_origin(x: np.ndarray) -> None:
    if not x.any(axis=-1).all():
        raise ValueError("norm is not differentiable at the origin")


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> over the last axis, rounded exactly as the 1-D ``a @ b`` is.

    A stacked ``@`` over (..., 1, d) x (..., d, 1) operands runs the same
    BLAS dot per row as the one-point product, so a batch row and a point
    alone round alike; ``einsum`` (at d = 2) and gemv against gemm do not.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


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

    ``value``, ``gradient`` and ``value_gradient`` broadcast over leading
    axes; ``value_gradient(x)`` is (H(x), grad H(x)) from one evaluation
    (one Newton solve for the numeric dual), bit for bit ``(value(x),
    gradient(x))``.  ``jet`` takes one point (d,) or a batch (n, d) and
    returns one :class:`Jet2` of the matching shapes; it refuses a batch
    with any zero row.  Instances are immutable after construction and
    every method is a pure function, so specs can be shared freely across
    threads.

    ``matrix`` is M for quadratic-form norms H(x) = sqrt(<Mx, x>) and None
    for every other norm.  It is the one answer to "does the transform
    theory apply, and with which M?" that the other modules ask.  For
    quadratic-form specs every batch row of ``value``, ``dual_value``,
    ``value_gradient`` and ``jet`` rounds as that point alone, and so do the
    batch rows of the quartic norm and of its numeric dual: every power is
    ``np.float_power``, the C library's ``pow`` per element.
    """

    dim: int
    matrix: SpdMatrix | None = None

    def value(self, x):
        raise NotImplementedError

    def value_gradient(self, x):
        raise NotImplementedError

    def gradient(self, x):
        return self.value_gradient(x)[1]

    def jet(self, x) -> Jet2:
        raise NotImplementedError

    def dual(self) -> "NormSpec":
        raise NotImplementedError

    def dual_value(self, x):
        """Dual norm H°(x), without materializing the dual spec."""
        raise NotImplementedError

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

    @staticmethod
    def _form(pts: np.ndarray, m: np.ndarray):
        """(Mx, sqrt(<Mx, x>)) per row of `pts`."""
        mx, q = quadratic_form(m, pts)
        return mx, np.sqrt(np.maximum(q, 0.0))

    def value(self, x):
        return self._form(_as_points(x, self.dim), self.matrix.entries)[1]

    def value_gradient(self, x):
        mx, h = self._form(_as_points(x, self.dim), self.matrix.entries)
        return h, mx / h[..., None]

    def jet(self, x) -> Jet2:
        pts = _as_points(x, self.dim)
        _check_not_origin(pts)
        m = self.matrix.entries
        mx, h = self._form(pts, m)
        grad = mx / h[..., None]
        hess = (m - row_outer(grad, grad)) / h[..., None, None]
        return _jet(h, grad, hess)

    def dual(self) -> "RiemannianNorm":
        return RiemannianNorm(SpdMatrix(self.matrix.inverse))

    def dual_value(self, x):
        return self._form(_as_points(x, self.dim), self.matrix.inverse)[1]

    def canonical(self) -> str:
        return "riemannian:" + json.dumps(
            self.matrix.entries.tolist(), separators=(",", ":")
        )


class EuclideanNorm(NormSpec):
    """The Euclidean norm |x|; self-dual."""

    def __init__(self, dim: int):
        dim = int(dim)
        if dim < 2:
            raise ValueError("dimension must be at least 2")
        self.dim = dim
        self.matrix = SpdMatrix(np.eye(dim))

    def value(self, x):
        pts = _as_points(x, self.dim)
        return np.sqrt(np.sum(pts * pts, axis=-1))

    def value_gradient(self, x):
        pts = _as_points(x, self.dim)
        h = self.value(pts)
        return h, pts / h[..., None]

    def jet(self, x) -> Jet2:
        pts = _as_points(x, self.dim)
        _check_not_origin(pts)
        h = np.sqrt(row_dot(pts, pts))[..., None]
        grad = pts / h
        hess = np.eye(self.dim) - row_outer(grad, grad)
        return _jet(h[..., 0], grad, hess / h[..., None])

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
    def _eval(pts: np.ndarray, order: int):
        """H per row, with grad H at `order` 1 and also D^2 H at 2."""
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

    def value(self, x):
        return self._eval(_as_points(x, 2), 0)

    def value_gradient(self, x):
        return self._eval(_as_points(x, 2), 1)

    def jet(self, x) -> Jet2:
        pts = _as_points(x, 2)
        _check_not_origin(pts)
        return _jet(*self._eval(pts, 2))

    def dual(self) -> "NumericDualNorm":
        return NumericDualNorm(self)

    def dual_value(self, x):
        return _support_values(self, x)

    def canonical(self) -> str:
        return "quartic"


class NumericDualNorm(NormSpec):
    """Dual of a norm without a closed-form dual.

    Evaluation solves the support-function maximization over the primal unit
    sphere; the gradient is the maximizer itself and the Hessian follows
    from implicit differentiation of the optimality system, so the wrapper
    satisfies the same jet contract as the closed-form norms.
    """

    def __init__(self, primal: NormSpec):
        self.primal = primal
        self.dim = primal.dim

    def value(self, x):
        return _support_values(self.primal, x)

    def value_gradient(self, x):
        pts = _as_points(x, self.dim)
        lam, xi, _ = _support_points(self.primal, pts.reshape(-1, self.dim))
        return _unbox(lam.reshape(pts.shape[:-1])), xi.reshape(pts.shape)

    def jet(self, x) -> Jet2:
        pts = _as_points(x, self.dim)
        _check_not_origin(pts)
        n = self.dim
        flat = pts.reshape(-1, n)
        scale = np.sqrt(row_dot(flat, flat))
        lam, xi, _ = _support_points(self.primal, flat / scale[:, None])
        pj = self.primal.jet(xi)
        kkt = _kkt_matrices(lam, pj.gradient, pj.hessian)
        rhs = np.broadcast_to(np.vstack([np.eye(n), np.zeros(n)]),
                              (len(flat), n + 1, n))
        hess = np.linalg.solve(kkt, rhs)[:, :n] / scale[:, None, None]
        hess = 0.5 * (hess + np.swapaxes(hess, -1, -2))
        return _jet((lam * scale).reshape(pts.shape[:-1]), xi.reshape(pts.shape),
                    hess.reshape(pts.shape + (n,)))

    def dual(self) -> NormSpec:
        # Biduality: the dual of the dual is the primal norm again.
        return self.primal

    def dual_value(self, x):
        return _support_values(self, x)

    def canonical(self) -> str:
        return f"dual({self.primal.canonical()})"


def _kkt_matrices(lam, grad, hess) -> np.ndarray:
    """Stacked (n, d+1, d+1) Jacobians of the stationarity system."""
    n, d = grad.shape
    kkt = np.zeros((n, d + 1, d + 1))
    kkt[:, :d, :d] = lam[:, None, None] * hess
    kkt[:, :d, d] = kkt[:, d, :d] = grad
    return kkt


def _kkt_residual(xh, lam, jet: Jet2):
    """Stationarity residuals and their max |.| per row (exact np.maximum)."""
    r = np.column_stack([xh - lam[:, None] * jet.gradient, 1.0 - jet.value])
    return r, functools.reduce(np.maximum, np.abs(r).T)


def _support_points(spec: NormSpec, x: np.ndarray):
    """Maximize <xi, x> over the unit sphere {H(xi) = 1} of `spec`, per row.

    Newton iteration on the stationarity system

        x - lam * grad H(xi) = 0,    H(xi) = 1,

    warm-started at xi = x / H(x), for every row of `x` (shape (n, d)) at
    once.  Each iteration solves the KKT systems of the active rows as one
    stack and halves a row's step (at most 20 times) while its residual
    fails to shrink.  The state holds the active rows only: a converged row
    is written out once and dropped, and a full step every row takes
    replaces the state whole; a row gets the same bits and iterations in
    any batch.  Returns (lam, xi, iterations) of shapes (n,), (n, d) and
    (n,); lam is both the multiplier and the maximum value.  Rows are
    scaled to |x| = 1 so the KKT tolerance is meaningful across inputs.
    Raises ConvergenceError naming the first row that does not converge.
    """
    scale = np.sqrt(row_dot(x, x))
    if np.any(scale == 0.0):
        raise ValueError("support maximization needs a nonzero direction")
    xh = x / scale[:, None]
    lam_out, xi_out = np.empty(len(x)), np.empty_like(xh)
    iters = np.full(len(x), -1)  # -1 until the row converges
    xi = xh / spec.value(xh)[:, None]
    lam = row_dot(xi, xh)
    j = spec.jet(xi)
    # state of the active rows: `rows` are their indices into `x`, `stuck`
    # the positions no halving could improve (they cannot converge)
    rows, grad, hess = np.arange(len(x)), j.gradient, j.hessian
    (resid, rnorm), stuck = _kkt_residual(xh, lam, j), []
    for it in range(NEWTON_MAX_ITER):
        done = rnorm <= NEWTON_KKT_TOL
        if done.any() or len(stuck):
            out = rows[done]
            lam_out[out], xi_out[out], iters[out] = lam[done], xi[done], it
            keep = ~done
            keep[stuck] = False
            if not keep.any():
                break
            rows, xh, xi, lam, grad, hess, resid, rnorm = (
                a[keep] for a in (rows, xh, xi, lam, grad, hess, resid, rnorm))
        kkt = _kkt_matrices(lam, grad, hess)
        step = np.linalg.solve(kkt, resid[..., None])[..., 0]
        # damped update of the state positions `todo` still halving
        todo, t = np.arange(rows.size), 1.0
        for _ in range(20):
            sel = slice(None) if todo.size == rows.size else todo
            xi_try = xi[sel] + t * step[sel, :-1]
            lam_try = lam[sel] + t * step[sel, -1]
            # a trial point at the origin has no jet and is not taken
            nonzero = np.any(xi_try != 0.0, axis=1)
            if nonzero.any():
                live = slice(None) if nonzero.all() else nonzero
                j_try = spec.jet(xi_try[live])
                r_try, rn_try = _kkt_residual(xh[sel][live], lam_try[live], j_try)
                take = rn_try < rnorm[sel][live]
                if take.size == rows.size and take.all():
                    xi, lam, resid, rnorm = xi_try, lam_try, r_try, rn_try
                    grad, hess = j_try.gradient, j_try.hessian
                    todo = []
                    break
                acc = np.flatnonzero(nonzero)[take]
                p = todo[acc]
                xi[p], lam[p], resid[p] = xi_try[acc], lam_try[acc], r_try[take]
                rnorm[p] = rn_try[take]
                grad[p], hess[p] = j_try.gradient[take], j_try.hessian[take]
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
    return lam_out * scale, xi_out, iters


def _support_values(spec: NormSpec, x):
    """Dual-norm values via one `_support_points` solve (zero maps to 0)."""
    pts = _as_points(x, spec.dim)
    flat = pts.reshape(-1, spec.dim)
    out = np.zeros(flat.shape[0])
    nonzero = np.any(flat != 0.0, axis=1)
    out[nonzero] = _support_points(spec, flat[nonzero])[0]
    return out.reshape(pts.shape[:-1]) if pts.ndim > 1 else float(out[0])


# ---------------------------------------------------------------------------
# operation-style front end


def eval_norm(spec: NormSpec, x):
    """H(x).  Vectorised over leading axes; the origin maps to 0."""
    return _unbox(spec.value(x))


def norm_jet(spec: NormSpec, x) -> Jet2:
    """Value, gradient, and Hessian of H at one nonzero point or a batch."""
    return spec.jet(x)


def dual_norm(spec: NormSpec, x):
    """Dual norm H°(x) = sup{<xi, x> : H(xi) <= 1}."""
    return _unbox(spec.dual_value(x))


def dual_spec(spec: NormSpec) -> NormSpec:
    """Spec of the dual norm (closed form when available, else numeric)."""
    return spec.dual()


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
    lens = np.sqrt(np.sum(dirs * dirs, axis=-1))
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
    ``quartic``.
    """
    text = text.strip()
    if text == "quartic":
        return QuarticNorm()
    if text.startswith("euclidean:"):
        try:
            dim = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed euclidean dimension in {text!r}") from None
        return EuclideanNorm(dim)
    if text.startswith("riemannian:"):
        body = text.split(":", 1)[1]
        try:
            rows = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed matrix literal {body!r}: {exc}") from None
        return RiemannianNorm(SpdMatrix(rows))
    raise ValueError(
        f"unknown norm {text!r}; expected riemannian:[[...]], euclidean:N, or quartic"
    )


def format_norm(spec: NormSpec) -> str:
    """Inverse of :func:`parse_norm` for the built-in specs."""
    return spec.canonical()
