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

Rows are stored as columns (`ResidualRows`), and the aggregates come from
the columns of the unflagged rows; their maximum propagates NaN, so a NaN
residual fails every `max_rel_residual() <= tolerance` gate.

Relative residuals divide by max(|lhs|, |rhs|, 1): identities with O(1)
sides get a true relative error, while identically-zero cases degrade to
the absolute residual instead of 0/0.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

REPORT_SCHEMA = "report-v1"

__all__ = [
    "REPORT_SCHEMA",
    "PointResidual",
    "ResidualRows",
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


class ResidualRows:
    """Per-point residuals as columns: `points` (n, d), four float columns
    and a bool `flags` column (all False when omitted).  They read as a
    sequence of `PointResidual`s whose cells leave through ``tolist()``, so
    each one is a Python float or bool, never a numpy scalar."""

    def __init__(self, points, lhs, rhs, abs_residual, rel_residual, flags=None):
        self.points = np.asarray(points, dtype=float)
        self.lhs = np.asarray(lhs, dtype=float)
        self.rhs = np.asarray(rhs, dtype=float)
        self.abs_residual = np.asarray(abs_residual, dtype=float)
        self.rel_residual = np.asarray(rel_residual, dtype=float)
        self.flags = np.zeros(len(self.lhs), dtype=bool) if flags is None else (
            np.asarray(flags, dtype=bool))

    def _columns(self) -> tuple:
        return (self.points, self.lhs, self.rhs, self.abs_residual,
                self.rel_residual, self.flags)

    @classmethod
    def concat(cls, parts) -> ResidualRows:
        """The rows of `parts` in order, one `np.concatenate` per column."""
        return cls(*map(np.concatenate, zip(*(p._columns() for p in parts))))

    def __len__(self) -> int:
        return len(self.lhs)

    def __getitem__(self, i: int) -> PointResidual:
        return PointResidual(tuple(self.points[i].tolist()),
                             *(c[i].item() for c in self._columns()[1:]))

    def __iter__(self):
        return map(PointResidual, map(tuple, self.points.tolist()),
                   *(c.tolist() for c in self._columns()[1:]))

    def __eq__(self, other) -> bool:
        return isinstance(other, ResidualRows) and list(self) == list(other)


def residual_rows(points, lhs, rhs, flags=None) -> ResidualRows:
    """Rows from parallel arrays of sample points and both sides."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    absr = np.abs(lhs - rhs)
    rel = absr / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    return ResidualRows(np.atleast_2d(points), lhs, rhs, absr, rel, flags)


@dataclass
class ResidualReport:
    """Per-point residuals plus aggregates for one verification suite.

    Aggregates are always recomputed from the row columns (flagged rows
    excluded), never stored, so the invariant "aggregates match the rows"
    holds by construction.
    """

    suite: str
    tolerance: float
    rows: ResidualRows = field(
        default_factory=lambda: residual_rows(np.empty((0, 0)), (), ()))
    details: dict = field(default_factory=dict)
    convergence: dict | None = None
    passed: bool = False

    def _active(self) -> np.ndarray:
        return self.rows.rel_residual[~self.rows.flags]

    def max_rel_residual(self) -> float:
        active = self._active()
        # np.max, unlike Python's max, propagates a NaN from any row
        return float(np.max(active)) if active.size else 0.0

    def mean_rel_residual(self) -> float:
        active = self._active()
        if not active.size:
            return 0.0
        return math.fsum(active.tolist()) / active.size

    def flagged_count(self) -> int:
        return int(np.count_nonzero(self.rows.flags))

    def to_dict(self) -> dict:
        """The suite as `render_json` takes it; "rows" holds the columns."""
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
            "rows": self.rows,
        }


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON stability."""
    if isinstance(obj, (np.generic, np.ndarray)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


_dumps = functools.partial(json.dumps, sort_keys=True, indent=2,
                           separators=(",", ": "))
# stands in for rows while json.dumps runs, which writes it as "\u0000rows";
# no report string holds a NUL
_HELD = "\x00rows"


def _json_rows(rows: ResidualRows, indent: str) -> str:
    """The text `_dumps` writes for the rows as a list of row objects, when
    the list opens on a line indented by `indent`.  The row template is
    `_dumps` of one row, and each column's cells are `json.dumps` of its
    `tolist()`: float.__repr__, or NaN, Infinity, -Infinity, true, false."""
    if not len(rows):
        return "[]"
    one = dict.fromkeys(("abs_residual", "flag", "lhs", "rel_residual", "rhs"),
                        _HELD)
    one["point"] = [_HELD] * rows.points.shape[1]
    row = _dumps([one])[2:-2].replace(json.dumps(_HELD), "%s")
    row = row.replace("\n", "\n" + indent)
    columns = (rows.abs_residual, rows.flags, rows.lhs, *rows.points.T,
               rows.rel_residual, rows.rhs)  # in the template's (sorted) order
    cells = (json.dumps(c.tolist())[1:-1].split(", ") for c in columns)
    body = f",\n{indent}".join(map(row.__mod__, zip(*cells)))
    return f"[\n{indent}{body}\n{indent}]"


def render_json(document: dict) -> str:
    """Canonical JSON: sorted keys, fixed separators, trailing newline.

    `json.dumps` writes the document with each `ResidualRows` held by a
    placeholder, and the `_json_rows` text then takes each one's place.
    """
    held = []

    def hold(obj):
        if not isinstance(obj, ResidualRows):
            raise TypeError(f"{type(obj).__name__} is not JSON serializable")
        held.append(obj)
        return _HELD

    parts = _dumps(document, default=hold).split(json.dumps(_HELD))
    if len(parts) != len(held) + 1:
        raise ValueError(f"the document holds the string {_HELD!r}")
    out = parts[:1]
    for rows, part in zip(held, parts[1:]):
        line = out[-1].rsplit("\n", 1)[-1]
        out += [_json_rows(rows, line[:len(line) - len(line.lstrip(" "))]), part]
    return "".join(out) + "\n"


CSV_HEADER_TAIL = ["lhs", "rhs", "abs_residual", "rel_residual", "flag"]


def render_csv(reports: list[ResidualReport], dim: int) -> str:
    """One row per sample point; suites are concatenated in run order.

    The point columns are as many as the widest point, at least `dim`;
    shorter points (the planar counterexample scan inside a
    higher-dimensional `all` run) are padded with empty cells.  Float cells
    are their repr (`str.format` of a float).
    """
    width = max([dim] + [r.rows.points.shape[1] for r in reports if len(r.rows)])
    out = [",".join([f"x{i}" for i in range(width)] + CSV_HEADER_TAIL) + "\n"]
    for rows in (r.rows for r in reports if len(r.rows)):
        d = rows.points.shape[1]
        template = ",".join(["{}"] * d + [""] * (width - d) + ["{}"] * 5) + "\n"
        columns = (*rows.points.T, rows.lhs, rows.rhs, rows.abs_residual,
                   rows.rel_residual, rows.flags.astype(int))
        out.extend(map(template.format, *(c.tolist() for c in columns)))
    return "".join(out)


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
