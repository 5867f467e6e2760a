#!/usr/bin/env python3
"""Error of semilinear report rows against a 40-digit decimal oracle.

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

Usage (from the repository root; the package is imported from ``src/``):

    python3 scripts/oracle_error.py REPORT [REPORT ...] [--pool]

``--pool`` prints one table over the rows of all files instead of one per
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

from finslerkelvin.verify import _default_center  # noqa: E402

DIGITS = 40
EPS = float(np.finfo(float).eps)
FAMILIES = ("quadratic", "gaussian-bump")
SIDES = ("lhs", "rhs")
# width of the gaussian bump, as in manufacture_semilinear
WIDTH = 1.2


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


def row_errors(path: str) -> dict:
    """Per (family, side): errors in eps and, per row, (point, E, lhs, rhs)."""
    report = json.loads(Path(path).read_text())
    suites = {s["suite"]: s for s in report["suites"]}
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reports", nargs="+", metavar="REPORT")
    parser.add_argument("--pool", action="store_true",
                        help="one table over the rows of all reports")
    args = parser.parse_args(argv)
    try:
        per_file = [(path, row_errors(path)) for path in args.reports]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.pool:
        pooled = {}
        for _, errors in per_file:
            for key, (errs, where) in errors.items():
                acc = pooled.setdefault(key, ([], []))
                acc[0].extend(errs)
                acc[1].extend(where)
        per_file = [(f"pooled over {len(args.reports)} reports", pooled)]
    for title, errors in per_file:
        print("\n".join(table(title, errors)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
