#!/usr/bin/env python3
"""Error of semilinear, nlaplace and quartic-dual reports against exact values.

For a quadratic-form norm H(y) = sqrt(<My, y>) both sides of every row of
the ``semilinear`` suite equal E = f(T(y)) / H(y)^(N+2), with T(y) = My / H^2
the inversion map.  This script recomputes E in stdlib ``decimal`` at 40
significant digits from the float inputs (the row's point and M) and prints,
per manufactured family and side, the median, p99 and max of

    |x - E| / max(|E|, 1)

in units of the double-precision machine epsilon, plus the row behind each
max.  A change that moves last bits of these reports shows here whether it
made them more or less accurate.

The norm is read from the report's config: ``euclidean:N`` or a
``riemannian:`` literal, symmetrized as ``SpdMatrix`` does it.  The sources
are those of ``manufacture_semilinear``: f = -2 tr M for the quadratic
family, and for the gaussian-bump family (centre ``_default_center``, width
1.2) f = u (2 tr M / w^2 - 4 <M(x-c), x-c> / w^4) with
u = exp(-|x-c|^2 / w^2).  The suite holds ``count`` quadratic rows, then
``count`` gaussian-bump rows, in plan order.

In an ``nlaplace`` suite the first ``count`` rows are the affine family,
u(x) = <(1, ..., N), x>, whose source is exactly 0: both sides of the
transformed equation are 0, and |lhs| is the error of the analytic
chain-rule jet and the operator.  For those rows the script prints the
median, p99 and max of |lhs| in absolute units, plus the row behind the max.

The last ``count`` nlaplace rows take finite-difference (FD) jets of
star(u-quadratic), u(T(y)) with u = |x|^2 / 2.  For those the script
rebuilds the report's sample plan, takes the FD jets as the suite does, and
prints the median, p99 and max relative error of the FD gradient and
Hessian against the analytic chain-rule jet of the same field, plus the
row behind each max.

For a report whose config norm is ``quartic`` the rows are not read: the
script rebuilds the report's sample plan and compares the package's numeric
dual with a 40-digit Newton solve of the support-function KKT system of the
exact H(xi) = (xi1^4 + 3 xi1^2 xi2^2 + xi2^4)^(1/4),

    x = mu grad p(xi),   p(xi) = 1,   p = H^4,

at every plan point x.  It prints the median, p99 and max, in eps, of the
relative error of H°(x) = <xi, x>, grad H°(x) = xi, D^2 H°(x) (the xi-block
of the inverse KKT matrix, by Gaussian elimination) and the bidual H°°(x)
against the exact H(x), plus the row behind each max.  Here and for the FD
jets, a vector or matrix error is max |computed - exact| over its entries
divided by max |exact|.

Usage (from the repository root; the package is imported from ``src/``):

    python3 scripts/oracle_error.py REPORT [REPORT ...] [--pool]

A report may hold either suite or both (an ``all`` run), or be a run on
the quartic norm.  ``--pool``
prints one table per section over the rows of all files instead of one per
file.
"""

import argparse
import decimal
import json
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from finslerkelvin.fields import ScalarField  # noqa: E402
from finslerkelvin.kelvin import KelvinContext, star_transform  # noqa: E402
from finslerkelvin.norms import QuarticNorm, parse_norm  # noqa: E402
from finslerkelvin.verify import (SamplePlan, _default_center, _jets,  # noqa: E402
                                  manufacture_nlaplace)

DIGITS = 40
EPS = float(np.finfo(float).eps)
FAMILIES = ("quadratic", "gaussian-bump")
SIDES = ("lhs", "rhs")
# width of the gaussian bump, as in manufacture_semilinear
WIDTH = 1.2
QUARTIC = ("H°", "grad H°", "D2H°", "bidual")
FD = ("gradient", "Hessian")


def norm_matrix(norm: str) -> np.ndarray:
    """M of a quadratic-form norm spelled as in the report config."""
    if norm.startswith("euclidean:"):
        return np.eye(int(norm.split(":", 1)[1]))
    if norm.startswith("riemannian:"):
        a = np.array(json.loads(norm.split(":", 1)[1]), dtype=float)
        return 0.5 * (a + a.T)
    raise ValueError(f"{norm!r} is not a quadratic-form norm")


def exact_values(m: np.ndarray, points) -> dict[str, list[Decimal]]:
    """E = f(T(y)) / H(y)^(N+2) per point, for each family."""
    n = m.shape[0]
    md = [[Decimal(v) for v in row] for row in m.tolist()]
    trace = sum(md[i][i] for i in range(n))
    center = [Decimal(v) for v in _default_center(n).tolist()]
    w2 = Decimal(WIDTH) * Decimal(WIDTH)
    out = {family: [] for family in FAMILIES}
    with decimal.localcontext() as ctx:
        ctx.prec = DIGITS
        for point in points:
            y = [Decimal(v) for v in point]
            my = [sum(md[i][j] * y[j] for j in range(n)) for i in range(n)]
            q = sum(y[i] * my[i] for i in range(n))
            weight = q.sqrt() ** (n + 2)
            d = [my[i] / q - center[i] for i in range(n)]
            md_d = [sum(md[i][j] * d[j] for j in range(n)) for i in range(n)]
            u = (-sum(v * v for v in d) / w2).exp()
            poly = 2 * trace / w2 - 4 * sum(d[i] * md_d[i] for i in range(n)) / (w2 * w2)
            out["quadratic"].append(-2 * trace / weight)
            out["gaussian-bump"].append(u * poly / weight)
    return out


def _load(path: str) -> tuple[dict, dict]:
    report = json.loads(Path(path).read_text())
    return report, {s["suite"]: s for s in report["suites"]}


def row_errors(path: str) -> dict:
    """Per (family, side): errors in eps and, per row, (point, E, lhs, rhs)."""
    report, suites = _load(path)
    if "semilinear" not in suites:
        raise ValueError(f"{path}: no semilinear suite")
    rows = suites["semilinear"]["rows"]
    count = report["config"]["count"]
    if len(rows) != len(FAMILIES) * count:
        raise ValueError(f"{path}: expected {len(FAMILIES) * count} semilinear "
                         f"rows, found {len(rows)}")
    m = norm_matrix(report["config"]["norm"])
    exact = exact_values(m, [r["point"] for r in rows[:count]])
    out = {}
    for k, family in enumerate(FAMILIES):
        block = rows[k * count:(k + 1) * count]
        for side in SIDES:
            errs, where = [], []
            for i, (row, e) in enumerate(zip(block, exact[family])):
                errs.append(float(abs(Decimal(row[side]) - e) / max(abs(e), 1)) / EPS)
                where.append((path, k * count + i, row, e))
            out[family, side] = (errs, where)
    return out


def affine_errors(path: str) -> tuple[list[float], list]:
    """|lhs| of the affine nlaplace rows and, per row, (path, index, row)."""
    report, suites = _load(path)
    if "nlaplace" not in suites:
        raise ValueError(f"{path}: no nlaplace suite")
    rows = suites["nlaplace"]["rows"]
    count = report["config"]["count"]
    if len(rows) != 2 * count:
        raise ValueError(f"{path}: expected {2 * count} nlaplace rows, "
                         f"found {len(rows)}")
    block = rows[:count]
    return ([abs(row["lhs"]) for row in block],
            [(path, i, row) for i, row in enumerate(block)])


def _relative(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """max |got - want| / max |want| over each row's entries."""
    axes = tuple(range(1, want.ndim))
    return np.abs(got - want).max(axis=axes) / np.abs(want).max(axis=axes)


def _plan(config: dict) -> SamplePlan:
    return SamplePlan(annulus=tuple(config["annulus"]), count=config["count"],
                      seed=config["seed"])


def fd_errors_at(spec, points: np.ndarray) -> dict[str, list[float]]:
    """Relative error of the FD gradient and Hessian of the nlaplace numeric
    rows' field against its analytic chain-rule jet, per point."""
    ctx = KelvinContext(spec)
    u = manufacture_nlaplace(spec, "quadratic").u
    exact = star_transform(ctx, u).jet(points)
    value_only = star_transform(ctx, ScalarField(spec.dim, u, name=u.name))
    jets = list(_jets(value_only, points))
    fd = (np.concatenate([j.gradient for j in jets]),
          np.concatenate([j.hessian for j in jets]))
    return {name: _relative(got, want).tolist()
            for name, got, want in zip(FD, fd, (exact.gradient, exact.hessian))}


def fd_errors(path: str) -> dict:
    """Per derivative: FD errors and, per plan point, (path, index, point)."""
    report, _ = _load(path)
    spec = parse_norm(report["config"]["norm"])
    points = _plan(report["config"]).points(spec)
    where = [(path, i, point) for i, point in enumerate(points.tolist())]
    return {name: (errs, where)
            for name, errs in fd_errors_at(spec, points).items()}


def _solve(a: list, cols: list) -> list:
    """x with a x = c for each column c, by Gaussian elimination with partial
    pivoting; x[i][k] belongs to column k."""
    n = len(a)
    m = [row[:] + [c[i] for c in cols] for i, row in enumerate(a)]
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(m[i][k]))
        m[k], m[piv] = m[piv], m[k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [u - f * v for u, v in zip(m[i], m[k])]
    x = [[None] * len(cols) for _ in range(n)]
    for i in reversed(range(n)):
        for k in range(len(cols)):
            rest = sum(m[i][j] * x[j][k] for j in range(i + 1, n))
            x[i][k] = (m[i][n + k] - rest) / m[i][i]
    return x


def quartic_dual_exact(point) -> tuple:
    """(H°(x), grad H°(x), D^2 H°(x), H(x)) of the quartic norm at 40 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = DIGITS
        x = [Decimal(v) for v in point]

        def p_jet(a, b):
            a2, b2 = a * a, b * b
            return (a2 * a2 + 3 * a2 * b2 + b2 * b2,
                    [4 * a2 * a + 6 * a * b2, 6 * a2 * b + 4 * b2 * b],
                    [[12 * a2 + 6 * b2, 12 * a * b], [12 * a * b, 6 * a2 + 12 * b2]])

        h = p_jet(*x)[0].sqrt().sqrt()
        xi = [v / h for v in x]
        g = p_jet(*xi)[1]
        mu = (x[0] * g[0] + x[1] * g[1]) / (g[0] * g[0] + g[1] * g[1])
        tol = Decimal(10) ** (5 - DIGITS) * max(abs(v) for v in x)
        for _ in range(100):
            p, g, hp = p_jet(*xi)
            kkt = [[mu * hp[0][0], mu * hp[0][1], g[0]],
                   [mu * hp[1][0], mu * hp[1][1], g[1]], [g[0], g[1], 0]]
            resid = [x[0] - mu * g[0], x[1] - mu * g[1], 1 - p]
            if max(abs(r) for r in resid) <= tol:
                break
            step = [s[0] for s in _solve(kkt, [resid])]
            xi = [xi[0] + step[0], xi[1] + step[1]]
            mu += step[2]
        else:
            raise ValueError(f"40-digit KKT solve did not converge at {point}")
        dxi = _solve(kkt, [[1, 0, 0], [0, 1, 0]])
        return (xi[0] * x[0] + xi[1] * x[1], xi,
                [[dxi[0][0], dxi[0][1]], [dxi[1][0], dxi[1][1]]], h)


def quartic_errors_at(points: np.ndarray) -> dict[str, list[float]]:
    """Relative error in eps of each quantity in ``QUARTIC``, per point."""
    dual = QuarticNorm().dual()
    jet = dual.jet(points)
    bidual = dual.dual_value(points)
    out = {name: [] for name in QUARTIC}
    for k, point in enumerate(points.tolist()):
        exact = quartic_dual_exact(point)
        computed = (jet.value[k], jet.gradient[k], jet.hessian[k], bidual[k])
        for name, got, want in zip(QUARTIC, computed, exact):
            got = [Decimal(v) for v in np.ravel(got).tolist()]
            want = list(np.ravel(np.array(want, dtype=object)))
            err = max(abs(u - v) for u, v in zip(got, want))
            out[name].append(float(err / max(abs(v) for v in want)) / EPS)
    return out


def quartic_errors(path: str) -> dict:
    """Per quantity: errors in eps and, per plan point, (path, index, point)."""
    report, _ = _load(path)
    points = _plan(report["config"]).points(QuarticNorm())
    where = [(path, i, point) for i, point in enumerate(points.tolist())]
    return {name: (errs, where)
            for name, errs in quartic_errors_at(points).items()}


def quartic_table(title: str, errors: dict) -> list[str]:
    lines = [title,
             f"  {'quartic dual':<14}{'rows':>7}{'median':>10}{'p99':>10}"
             f"{'max':>10}  (eps, against the 40-digit KKT solve)"]
    worst = []
    for name, (errs, where) in errors.items():
        e = np.array(errs)
        lines.append(f"  {name:<14}{len(e):>7}{np.median(e):>10.3f}"
                     f"{np.percentile(e, 99):>10.2f}{e.max():>10.1f}")
        path, index, point = where[int(np.argmax(e))]
        worst.append(f"  max {name}: {path} row {index} point {point}")
    return lines + worst


def table(title: str, errors: dict) -> list[str]:
    lines = [title,
             f"  {'family':<14}{'side':<6}{'rows':>7}{'median':>10}{'p99':>10}"
             f"{'max':>10}  (eps)"]
    worst = []
    for (family, side), (errs, where) in errors.items():
        e = np.array(errs)
        lines.append(f"  {family:<14}{side:<6}{len(e):>7}{np.median(e):>10.3f}"
                     f"{np.percentile(e, 99):>10.2f}{e.max():>10.1f}")
        path, index, row, exact = where[int(np.argmax(e))]
        worst.append(f"  max {family} {side}: {path} row {index} point "
                     f"{row['point']} E {exact:.17e} lhs {row['lhs']!r} "
                     f"rhs {row['rhs']!r}")
    return lines + worst


def affine_table(title: str, errors: tuple[list[float], list]) -> list[str]:
    values, where = errors
    e = np.array(values)
    path, index, row = where[int(np.argmax(e))]
    return [title,
            f"  {'nlaplace':<14}{'side':<6}{'rows':>7}{'median':>11}{'p99':>11}"
            f"{'max':>11}  (absolute; exact value 0)",
            f"  {'affine':<14}{'|lhs|':<6}{len(e):>7}{np.median(e):>11.3e}"
            f"{np.percentile(e, 99):>11.3e}{e.max():>11.3e}",
            f"  max affine |lhs|: {path} row {index} point {row['point']} "
            f"lhs {row['lhs']!r}"]


def fd_table(title: str, errors: dict) -> list[str]:
    lines = [title,
             f"  {'nlaplace FD':<14}{'rows':>7}{'median':>11}{'p99':>11}"
             f"{'max':>11}  (relative, against the chain-rule jet)"]
    worst = []
    for name, (errs, where) in errors.items():
        e = np.array(errs)
        lines.append(f"  {name:<14}{len(e):>7}{np.median(e):>11.3e}"
                     f"{np.percentile(e, 99):>11.3e}{e.max():>11.3e}")
        path, index, point = where[int(np.argmax(e))]
        worst.append(f"  max FD {name}: {path} row {index} point {point}")
    return lines + worst


def _pool(sections: list) -> dict | tuple:
    """One semilinear, FD or quartic dict, or one affine (values, where), over
    all files."""
    if isinstance(sections[0], dict):
        pooled = {}
        for errors in sections:
            for key, (errs, where) in errors.items():
                acc = pooled.setdefault(key, ([], []))
                acc[0].extend(errs)
                acc[1].extend(where)
        return pooled
    return ([v for values, _ in sections for v in values],
            [w for _, where in sections for w in where])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reports", nargs="+", metavar="REPORT")
    parser.add_argument("--pool", action="store_true",
                        help="one table per section over the rows of all reports")
    args = parser.parse_args(argv)
    semilinear, affine, fd, quartic = [], [], [], []
    try:
        for path in args.reports:
            report, suites = _load(path)
            if report["config"]["norm"] == "quartic":
                quartic.append((path, quartic_errors(path)))
                continue
            if "semilinear" not in suites and "nlaplace" not in suites:
                raise ValueError(f"{path}: no semilinear or nlaplace suite "
                                 "and not a quartic-norm run")
            if "semilinear" in suites:
                semilinear.append((path, row_errors(path)))
            if "nlaplace" in suites:
                affine.append((path, affine_errors(path)))
                fd.append((path, fd_errors(path)))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for sections, render in ((semilinear, table), (affine, affine_table),
                             (fd, fd_table), (quartic, quartic_table)):
        if args.pool and sections:
            sections = [(f"pooled over {len(sections)} reports",
                         _pool([errors for _, errors in sections]))]
        for title, errors in sections:
            print("\n".join(render(title, errors)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
