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
returns a ``NumericDualNorm``: per direction x, a bracketed scalar Newton
solve finds the point of the unit circle where grad H is parallel to x, and
one Newton step of the support-function optimality system polishes it.
That gives the maximum H°, the maximizer grad H° (envelope property) and, by
implicit differentiation, D^2 H°, in closed form in the plane: no linear
solver and no BLAS call.

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
    "parse_norm",
]

NEWTON_MAX_ITER = 50
NEWTON_STEP_TOL = 1e-7


class ConvergenceError(RuntimeError):
    """Newton maximization failed to reach its step tolerance."""


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

    Value and gradient (the maximizer xi) come from one ``_support_points``
    solve, as in ``value_gradient``: scalar Newton to a step of at most 1e-7,
    then one polishing step of the KKT system.  The Hessian
    t (x) t / (H°(x) <D^2 H(xi) t, t>) inverts the optimality system on the
    tangent t, at the primal jet at xi, which only this order evaluates.
    """

    def __init__(self, primal: NormSpec):
        if primal.dim != 2:
            raise ValueError("numeric dual norm implemented for dim 2")
        self.primal, self.dim = primal, 2

    def _eval(self, pts, order):
        if order == 0:
            return _support_values(self.primal, pts)
        lam, xi, _ = _support_points(self.primal, pts.reshape(-1, 2))
        h, grad = _unbox(lam.reshape(pts.shape[:-1])), xi.reshape(pts.shape)
        if order == 1:
            return h, grad
        pj = self.primal.jet(xi)
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


def _support_points(spec: NormSpec, x: np.ndarray):
    """Maximize <xi, x> over the unit circle {H(xi) = 1} of `spec`, per row.

    With x' = x turned a quarter turn, the maximizer is the direction of the
    line e(s) = x + s x' where grad H is parallel to x: the root of
    F(s) = <grad H(e(s)), x'>, whose derivative <D^2 H(e) x', x'> is
    positive on a uniformly convex ball, so the root is unique.  Each row
    runs Newton from s = 0, keeps the bracket of s that the signs of F give,
    and bisects it where a step would leave it.  Once a step is at most
    ``NEWTON_STEP_TOL`` the row takes it, which leaves an error of about
    its square, and from xi = e / H(e) (H at the last jet) makes one Newton
    step of the KKT system x - lam grad H(xi) = 0, H(xi) = 1.  Rows are
    first scaled by a power of two, exactly, so that s means the same for
    all inputs; every product is elementwise, so a row gets the same bits
    and iterations in any batch and under any BLAS.  Returns (lam, xi,
    iterations): lam is both multiplier and maximum, and the iterations
    count the jets of H evaluated per row.  No jet at the polished xi is
    evaluated here; the dual Hessian, its one reader, takes it.
    Raises ConvergenceError naming the first row that fails.
    """
    size = np.maximum(np.abs(x[:, 0]), np.abs(x[:, 1]))
    if np.any(size == 0.0):
        raise ValueError("support maximization needs a nonzero direction")
    k = np.frexp(size)[1]
    xs = np.ldexp(x, -k[:, None])
    n = len(x)
    # the active rows: their indices into `x`, directions, s and its bracket
    rows, d, s = np.arange(n), xs, np.zeros(n)
    lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    e_out, h_out, iters = np.empty_like(x), np.empty(n), np.full(n, -1)
    for it in range(NEWTON_MAX_ITER):
        perp = np.column_stack([-d[:, 1], d[:, 0]])
        j = spec.jet(d + s[:, None] * perp)
        f = j.gradient[:, 0] * perp[:, 0] + j.gradient[:, 1] * perp[:, 1]
        lo, hi = np.where(f < 0.0, s, lo), np.where(f > 0.0, s, hi)
        step = f / _tangent_curvature(d, j.hessian)[2]
        done = np.abs(step) <= NEWTON_STEP_TOL
        s = s - step
        e_out[rows[done]] = d[done] + s[done, None] * perp[done]
        h_out[rows[done]], iters[rows[done]] = j.value[done], it + 1
        if done.all():
            break
        rows, d, s, lo, hi = (a[~done] for a in (rows, d, s, lo, hi))
        s = np.where((lo < s) & (s < hi), s, 0.5 * (lo + hi))
    if np.any(iters < 0):
        bad = x[np.argmax(iters < 0)]
        raise ConvergenceError(
            f"support maximization did not converge in {NEWTON_MAX_ITER} "
            f"iterations for direction {bad.tolist()}"
        )
    xi = e_out / h_out[:, None]
    j = spec.jet(xi)
    lam = xi[:, 0] * xs[:, 0] + xi[:, 1] * xs[:, 1]
    r = np.column_stack([xs - lam[:, None] * j.gradient, 1.0 - j.value])
    d_xi, d_lam = _newton_step(lam, j.gradient, j.hessian, r)
    return np.ldexp(lam + d_lam, k), xi + d_xi, iters + 1


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
