"""Residual reports and their JSON / CSV / table renderings.

The JSON layout is the `report-v1` schema consumed by the CLI:

    {
      "schema": "report-v1",
      "version": "<tool version string>",
      "config": { ...resolved run configuration... },
      "passed": bool,
      "suites": [
        {
          "suite": str, "passed": bool, "tolerance": float,
          "max_rel_residual": float, "mean_rel_residual": float,
          "count": int, "flagged": int,
          "details": { ...per-check aggregates... },
          "convergence": {"steps": [...], "max_residuals": [...],
                          "order": float} | null,
          "rows": [{"point": [...], "lhs": f, "rhs": f,
                    "abs_residual": f, "rel_residual": f, "flag": bool}]
        }, ...
      ]
    }

Serialization is deterministic: keys are sorted, floats use Python's
shortest round-trip repr, and no timestamps or environment data are
embedded, so identical runs produce byte-identical artifacts.

Relative residuals divide by max(|lhs|, |rhs|, 1): identities with O(1)
sides get a true relative error, while identically-zero cases degrade to
the absolute residual instead of 0/0.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

REPORT_SCHEMA = "report-v1"

__all__ = [
    "REPORT_SCHEMA",
    "PointResidual",
    "ResidualReport",
    "residual_rows",
    "render_json",
    "render_csv",
    "render_table",
]


@dataclass(frozen=True)
class PointResidual:
    point: tuple
    lhs: float
    rhs: float
    abs_residual: float
    rel_residual: float
    flag: bool = False


def residual_rows(points, lhs, rhs, flags=None) -> list[PointResidual]:
    """Rows from parallel arrays of sample points and both sides.

    The residuals are computed as arrays and every cell leaves through
    ``tolist()``, so each one is a Python float or bool, never a numpy
    scalar.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    flags = (np.zeros(len(lhs), dtype=bool) if flags is None
             else np.asarray(flags, dtype=bool))
    absr = np.abs(lhs - rhs)
    rel = absr / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    return [
        PointResidual(tuple(p), a, b, e, r, fl)
        for p, a, b, e, r, fl in zip(points.tolist(), lhs.tolist(), rhs.tolist(),
                                     absr.tolist(), rel.tolist(), flags.tolist())
    ]


@dataclass
class ResidualReport:
    """Per-point residuals plus aggregates for one verification suite.

    Aggregates are always recomputed from the rows (flagged rows excluded),
    never stored, so the invariant "aggregates match the rows" holds by
    construction.
    """

    suite: str
    tolerance: float
    rows: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    convergence: dict | None = None
    passed: bool = False

    def _active(self):
        return [r for r in self.rows if not r.flag]

    def max_rel_residual(self) -> float:
        active = self._active()
        return max((r.rel_residual for r in active), default=0.0)

    def mean_rel_residual(self) -> float:
        active = self._active()
        if not active:
            return 0.0
        return math.fsum(r.rel_residual for r in active) / len(active)

    def flagged_count(self) -> int:
        return sum(1 for r in self.rows if r.flag)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": bool(self.passed),
            "tolerance": float(self.tolerance),
            "max_rel_residual": self.max_rel_residual(),
            "mean_rel_residual": self.mean_rel_residual(),
            "count": len(self.rows),
            "flagged": self.flagged_count(),
            "details": _plain(self.details),
            "convergence": _plain(self.convergence),
            "rows": [
                {
                    "point": list(r.point),
                    "lhs": r.lhs,
                    "rhs": r.rhs,
                    "abs_residual": r.abs_residual,
                    "rel_residual": r.rel_residual,
                    "flag": r.flag,
                }
                for r in self.rows
            ],
        }


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON stability."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def render_json(document: dict) -> str:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(_plain(document), sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


CSV_HEADER_TAIL = ["lhs", "rhs", "abs_residual", "rel_residual", "flag"]


def render_csv(reports: list[ResidualReport], dim: int) -> str:
    """One row per sample point; suites are concatenated in run order.

    The point columns are as many as the widest point, at least `dim`;
    shorter points (the planar counterexample scan inside a
    higher-dimensional `all` run) are padded with empty cells.
    """
    buf = io.StringIO()
    width = max([dim] + [len(r.point) for rep in reports for r in rep.rows])
    header = [f"x{i}" for i in range(width)] + CSV_HEADER_TAIL
    buf.write(",".join(header) + "\n")
    for rep in reports:
        for r in rep.rows:
            cells = [repr(c) for c in r.point] + [""] * (width - len(r.point))
            cells += [repr(r.lhs), repr(r.rhs), repr(r.abs_residual),
                      repr(r.rel_residual), "1" if r.flag else "0"]
            buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def render_table(reports: list[ResidualReport]) -> str:
    """Human-oriented summary table, one line per suite plus details."""
    lines = []
    lines.append(f"{'suite':<16} {'status':<6} {'max rel':>12} {'mean rel':>12} "
                 f"{'points':>7} {'flagged':>8}  tolerance")
    lines.append("-" * 78)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        lines.append(
            f"{rep.suite:<16} {status:<6} {rep.max_rel_residual():>12.3e} "
            f"{rep.mean_rel_residual():>12.3e} {len(rep.rows):>7} "
            f"{rep.flagged_count():>8}  {rep.tolerance:.0e}"
        )
        for key in sorted(rep.details):
            val = rep.details[key]
            if isinstance(val, float):
                lines.append(f"    {key:<28} {val: .6e}")
            else:
                lines.append(f"    {key:<28} {val}")
        if rep.convergence:
            order = rep.convergence.get("order")
            lines.append(f"    {'convergence order':<28} {order: .3f}")
    return "\n".join(lines) + "\n"
