"""Uniformly elliptic norms on R^N and their dual norms.

A norm H here is positive away from the origin, absolutely 1-homogeneous
(H(sx) = |s| H(x)), C^2 away from 0, and has a uniformly convex unit ball.
Three families are built in:

* ``RiemannianNorm``: H(x) = sqrt(<Mx, x>) for a symmetric positive-definite
  matrix M.  All derivative and dual-norm formulas are closed form.
* ``EuclideanNorm``: H(x) = |x|, mathematically ``RiemannianNorm(identity)``.
  The class stays for its own value, gradient and jet arithmetic, which
  rounds differently from the matrix route: replacing it with
  ``RiemannianNorm(np.eye(N))`` keeps every test passing but changes the
  last bits of 1,694 lines of the ``all --norm euclidean:3 --count 1000
  --seed 100`` JSON report.
* ``QuarticNorm``: H(x) = (x1^4 + 3 x1^2 x2^2 + x2^4)^(1/4) in the plane.
  Its unit ball is uniformly convex but not an ellipse, so its dual norm has
  no closed form and is computed by Newton iteration on the support-function
  stationarity system.

The dual norm is H°(x) = sup{<xi, x> : H(xi) <= 1}.  For quadratic-form
norms it equals sqrt(<M^-1 x, x>); for the quartic norm ``dual_spec``
returns a ``NumericDualNorm`` wrapper whose value is the Newton maximum,
whose gradient is the maximizer (envelope property), and whose Hessian
comes from implicit differentiation of the optimality system.

Derivative identities enforced throughout (and exercised by the test
suite): the Euler relation <grad H(x), x> = H(x), zero-homogeneity of the
gradient in the form grad H(tx) = sign(t) grad H(x) (the correct variant of
an identity sometimes misprinted with a scalar right-hand side), and the
gradient dualities H(grad H°(x)) = 1 = H°(grad H(x)) and
H(x) grad H°(grad H(x)) = x.
"""

from __future__ import annotations

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
    """Value, gradient, and Hessian of a scalar function at one point."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray


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
    if not np.any(x != 0.0):
        raise ValueError("norm is not differentiable at the origin")


class NormSpec:
    """Shared contract for the built-in norms.

    ``value`` and ``gradient`` broadcast over leading axes; ``jet`` is
    single-point.  Instances are immutable after construction and every
    method is a pure function, so specs can be shared freely across threads.

    ``matrix`` is M for quadratic-form norms H(x) = sqrt(<Mx, x>) and None
    for every other norm.  It is the one answer to "does the transform
    theory apply, and with which M?" that the other modules ask.
    """

    dim: int
    matrix: SpdMatrix | None = None

    @property
    def closed_form_dual(self) -> bool:
        return self.matrix is not None

    def value(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

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

    def value(self, x):
        pts = _as_points(x, self.dim)
        q = np.einsum("...i,ij,...j->...", pts, self.matrix.entries, pts)
        return np.sqrt(np.maximum(q, 0.0))

    def gradient(self, x):
        pts = _as_points(x, self.dim)
        mx = pts @ self.matrix.entries
        h = self.value(pts)
        return mx / h[..., None]

    def jet(self, x) -> Jet2:
        pts = _as_points(x, self.dim)
        _check_not_origin(pts)
        mx = self.matrix.entries @ pts
        h = float(np.sqrt(pts @ mx))
        grad = mx / h
        hess = self.matrix.entries / h - np.outer(mx, mx) / h**3
        return Jet2(h, grad, hess)

    def dual(self) -> "RiemannianNorm":
        return RiemannianNorm(SpdMatrix(self.matrix.inverse))

    def dual_value(self, x):
        pts = _as_points(x, self.dim)
        q = np.einsum("...i,ij,...j->...", pts, self.matrix.inverse, pts)
        return np.sqrt(np.maximum(q, 0.0))

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

    def gradient(self, x):
        pts = _as_points(x, self.dim)
        return pts / self.value(pts)[..., None]

    def jet(self, x) -> Jet2:
        pts = _as_points(x, self.dim)
        _check_not_origin(pts)
        h = float(np.sqrt(pts @ pts))
        grad = pts / h
        hess = (np.eye(self.dim) - np.outer(grad, grad)) / h
        return Jet2(h, grad, hess)

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
    def _poly(pts):
        x1, x2 = pts[..., 0], pts[..., 1]
        return x1**4 + 3.0 * x1**2 * x2**2 + x2**4

    def value(self, x):
        pts = _as_points(x, 2)
        return self._poly(pts) ** 0.25

    def gradient(self, x):
        pts = _as_points(x, 2)
        x1, x2 = pts[..., 0], pts[..., 1]
        q = self._poly(pts)
        gq = np.stack(
            [4.0 * x1**3 + 6.0 * x1 * x2**2, 6.0 * x1**2 * x2 + 4.0 * x2**3],
            axis=-1,
        )
        return 0.25 * q[..., None] ** -0.75 * gq

    def jet(self, x) -> Jet2:
        pts = _as_points(x, 2)
        _check_not_origin(pts)
        x1, x2 = float(pts[0]), float(pts[1])
        q = x1**4 + 3.0 * x1**2 * x2**2 + x2**4
        gq = np.array([4.0 * x1**3 + 6.0 * x1 * x2**2, 6.0 * x1**2 * x2 + 4.0 * x2**3])
        hq = np.array(
            [
                [12.0 * x1**2 + 6.0 * x2**2, 12.0 * x1 * x2],
                [12.0 * x1 * x2, 6.0 * x1**2 + 12.0 * x2**2],
            ]
        )
        value = q**0.25
        grad = 0.25 * q**-0.75 * gq
        hess = 0.25 * q**-0.75 * hq - 0.1875 * q**-1.75 * np.outer(gq, gq)
        return Jet2(value, grad, hess)

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

    def gradient(self, x):
        pts = _as_points(x, self.dim)
        flat = pts.reshape(-1, self.dim)
        out = np.empty_like(flat)
        for i, p in enumerate(flat):
            _, xi, _ = _support_point(self.primal, p)
            out[i] = xi
        return out.reshape(pts.shape)

    def jet(self, x) -> Jet2:
        pts = _as_points(x, self.dim)
        _check_not_origin(pts)
        scale = float(np.sqrt(pts @ pts))
        unit = pts / scale
        lam, xi, _ = _support_point(self.primal, unit)
        pj = self.primal.jet(xi)
        n = self.dim
        kkt = np.zeros((n + 1, n + 1))
        kkt[:n, :n] = lam * pj.hessian
        kkt[:n, n] = pj.gradient
        kkt[n, :n] = pj.gradient
        rhs = np.vstack([np.eye(n), np.zeros(n)])
        sol = np.linalg.solve(kkt, rhs)
        hess = sol[:n] / scale
        return Jet2(lam * scale, xi.copy(), 0.5 * (hess + hess.T))

    def dual(self) -> NormSpec:
        # Biduality: the dual of the dual is the primal norm again.
        return self.primal

    def dual_value(self, x):
        return _support_values(self, x)

    def canonical(self) -> str:
        return f"dual({self.primal.canonical()})"


def _support_point(spec: NormSpec, x: np.ndarray):
    """Maximize <xi, x> over the unit sphere {H(xi) = 1} of `spec`.

    Newton iteration on the stationarity system

        x - lam * grad H(xi) = 0,    H(xi) = 1,

    warm-started at xi = x / H(x).  Returns (lam, xi, iterations); lam is
    both the multiplier and the maximum value.  The problem is scaled to
    |x| = 1 internally so the KKT tolerance is meaningful across inputs.
    """
    scale = float(np.sqrt(x @ x))
    if scale == 0.0:
        raise ValueError("support maximization needs a nonzero direction")
    xh = x / scale
    n = spec.dim
    xi = xh / float(spec.value(xh))
    lam = float(xi @ xh)

    def kkt_residual(xi_, lam_, jet_):
        return np.concatenate([xh - lam_ * jet_.gradient, [1.0 - jet_.value]])

    j = spec.jet(xi)
    resid = kkt_residual(xi, lam, j)
    for it in range(NEWTON_MAX_ITER):
        rnorm = float(np.max(np.abs(resid)))
        if rnorm <= NEWTON_KKT_TOL:
            return lam * scale, xi, it
        kkt = np.zeros((n + 1, n + 1))
        kkt[:n, :n] = lam * j.hessian
        kkt[:n, n] = j.gradient
        kkt[n, :n] = j.gradient
        step = np.linalg.solve(kkt, resid)
        # damped update: halve the step while the residual fails to shrink
        t = 1.0
        for _ in range(20):
            xi_try = xi + t * step[:n]
            lam_try = lam + t * step[n]
            if np.any(xi_try != 0.0):
                j_try = spec.jet(xi_try)
                r_try = kkt_residual(xi_try, lam_try, j_try)
                if float(np.max(np.abs(r_try))) < rnorm:
                    xi, lam, j, resid = xi_try, lam_try, j_try, r_try
                    break
            t *= 0.5
        else:
            break
    raise ConvergenceError(
        f"support maximization did not converge in {NEWTON_MAX_ITER} iterations "
        f"for direction {x.tolist()}"
    )


def _support_values(spec: NormSpec, x):
    """Vectorised dual-norm values via `_support_point` (zero maps to 0)."""
    pts = _as_points(x, spec.dim)
    flat = pts.reshape(-1, spec.dim)
    out = np.empty(flat.shape[0])
    for i, p in enumerate(flat):
        if not np.any(p != 0.0):
            out[i] = 0.0
        else:
            out[i], _, _ = _support_point(spec, p)
    return out.reshape(pts.shape[:-1]) if pts.ndim > 1 else float(out[0])


# ---------------------------------------------------------------------------
# operation-style front end


def eval_norm(spec: NormSpec, x):
    """H(x).  Vectorised over leading axes; the origin maps to 0."""
    v = spec.value(x)
    return float(v) if np.ndim(v) == 0 else v


def norm_jet(spec: NormSpec, x) -> Jet2:
    """Value, gradient, and Hessian of H at a single nonzero point."""
    return spec.jet(x)


def dual_norm(spec: NormSpec, x):
    """Dual norm H°(x) = sup{<xi, x> : H(xi) <= 1}."""
    v = spec.dual_value(x)
    return float(v) if np.ndim(v) == 0 else v


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
        raise AssertionError("equivalence constants violated on sample directions")
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
    h = np.asarray(spec.value(dirs))
    worst = np.inf
    for i in range(samples):
        xi = dirs[i] / h[i]
        j = spec.jet(xi)
        g = j.gradient / np.sqrt(j.gradient @ j.gradient)
        # orthonormal basis of the tangent space grad^perp via SVD
        _, _, vh = np.linalg.svd(g[None, :])
        tangent = vh[1:].T
        sub = tangent.T @ j.hessian @ tangent
        worst = min(worst, float(np.linalg.eigvalsh(sub)[0]))
    return worst


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
