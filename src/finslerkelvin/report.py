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

JSON and CSV rows share one writer, `_write`: it encodes each distinct float
bit pattern of a render once and gathers the rows as bytes from one word
table, holding besides the text a few bytes per cell and distinct float.

Rows are stored as columns (`ResidualRows`), and the aggregates come from
the columns of the unflagged rows; their maximum propagates NaN.  A verdict
is the conjunction of named `Gate`s, each a value tested against a bound by
one comparison, which a NaN value fails in either sense.

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
    "Gate",
    "ResidualRows",
    "ResidualReport",
    "residuals",
    "residual_rows",
    "render_json",
    "render_csv",
    "render_table",
]


class ResidualRows:
    """Per-point residuals as columns: `points` (n, d), four float columns
    and a bool `flags` column (all False when omitted), which the renderers
    read whole."""

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


def residuals(lhs, rhs):
    """(|lhs - rhs|, |lhs - rhs| / max(|lhs|, |rhs|, 1)) elementwise."""
    absr = np.abs(lhs - rhs)
    return absr, absr / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)


def residual_rows(points, lhs, rhs, flags=None) -> ResidualRows:
    """Rows from parallel arrays of sample points and both sides."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    return ResidualRows(np.atleast_2d(points), lhs, rhs, *residuals(lhs, rhs),
                        flags)


@dataclass(frozen=True)
class Gate:
    """One pass condition: `value <= bound` or, with sense ">=", `value >= bound`."""

    name: str
    value: float
    bound: float
    sense: str = "<="

    def __post_init__(self):
        if self.sense not in ("<=", ">="):
            raise ValueError(f"gate {self.name}: sense {self.sense!r} is not <= or >=")

    @property
    def ok(self) -> bool:
        # one comparison, which a NaN value fails in either sense
        return bool(self.value >= self.bound if self.sense == ">=" else
                    self.value <= self.bound)


@dataclass
class ResidualReport:
    """Per-point residuals plus aggregates for one verification suite.

    Aggregates are always recomputed from the row columns (flagged rows
    excluded), and the verdict from the gates, never stored, so "aggregates
    match the rows" and "the report passes iff every gate holds" hold by
    construction.  A report without gates (a skipped suite) passes.
    """

    suite: str
    tolerance: float
    rows: ResidualRows = field(
        default_factory=lambda: residual_rows(np.empty((0, 0)), (), ()))
    details: dict = field(default_factory=dict)
    convergence: dict | None = None
    gates: list[Gate] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(g.ok for g in self.gates)

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
_CHUNK = 4096  # distinct floats per encoder call, and words per row gather


def _write(segments, encode) -> str:
    """The text of `segments`: each a str or a row block `(pieces, columns)`,
    a row being pieces[0], then each float64 column's cell followed by the
    next piece.  A cell is written as `encode` writes it in a list (`str`:
    repr; `json.dumps`: also NaN, Infinity).  A piece is an ASCII str without
    NUL, or a `(bools, (no, yes))` pair that picks one of the two per row."""
    blocks = [s for s in segments if isinstance(s, tuple)]
    words = dict.fromkeys(w for pieces, _ in blocks for p in pieces
                          for w in (p[1] if isinstance(p, tuple) else [p]))
    bits = np.concatenate([[]] + [c for _, cols in blocks for c in cols])
    # a hand-rolled unique: np.unique(..., return_inverse=True) writes the
    # same bytes but raised riemannian-bulk seed 0's peak RSS (VmHWM) from
    # 49.5 MB to 53.4 MB, or 50.3 MB with its inverse cast to int32 (3 of 3
    # runs each, numpy 2.4)
    order = np.argsort(bits.view(np.uint64))
    bits = bits.view(np.uint64)[order]
    first = np.ones(len(bits), dtype=bool)  # opens a run of equal bits
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    inverse = np.empty(len(bits), dtype=np.int32)
    inverse[order] = np.cumsum(first, dtype=np.int32) + (len(words) - 1)
    distinct = bits[first].view(np.float64)  # 0.0 and -0.0 apart, NaNs too
    del bits, order, first
    # every word, the pieces first, NUL-padded to the longest
    table = np.concatenate([np.array(list(words), "S")] + [
        np.array(encode(distinct[k:k + _CHUNK].tolist())[1:-1].split(", "), "S")
        for k in range(0, len(distinct), _CHUNK)])
    words = {w: np.int32(i) for i, w in enumerate(words)}
    out, offset, ids = [], 0, []
    for segment in segments:
        if isinstance(segment, str):
            out.append(segment)
            continue
        pieces, cols = segment
        n = len(cols[0])
        ids = [np.where(p[0], words[p[1][1]], words[p[1][0]]) if isinstance(p, tuple)
               else np.broadcast_to(words[p], n) for p in pieces]
        for j in range(len(cols)):  # a cell column before each piece but the first
            ids.insert(2 * j + 1, inverse[offset:offset + n])
            offset += n
        rows = max(1, _CHUNK // len(ids))
        for a in range(0, n, rows):
            text = table[np.stack([i[a:a + rows] for i in ids], axis=1)].view(np.uint8)
            out.append(str(text[text != 0], "ascii"))  # without the padding
    del distinct, table, inverse, ids  # only the text outlives the gather
    return "".join(out)


def _json_rows(rows: ResidualRows, indent: str) -> list:
    """`_write` segments for what `_dumps` writes for the rows as a list of
    row objects, when the list opens on a line indented by `indent`: the
    pieces are `_dumps` of one row around held cells, in sorted key order."""
    if not len(rows):
        return ["[]"]
    one = dict.fromkeys(("abs_residual", "flag", "lhs", "rel_residual", "rhs"),
                        _HELD)
    one["point"] = [_HELD] * rows.points.shape[1]
    p = _dumps([one])[2:-2].replace("\n", "\n" + indent).split(json.dumps(_HELD))
    pieces = [(np.arange(len(rows)) > 0, (p[0], f",\n{indent}{p[0]}")),
              (rows.flags, (f"{p[1]}false{p[2]}", f"{p[1]}true{p[2]}")), *p[3:]]
    columns = (rows.abs_residual, rows.lhs, *rows.points.T, rows.rel_residual, rows.rhs)
    return [f"[\n{indent}", (pieces, columns), f"\n{indent}]"]


def render_json(document: dict) -> str:
    """Canonical JSON: sorted keys, fixed separators, trailing newline.

    `json.dumps` writes the document with each `ResidualRows` held by a
    placeholder, and `_write` puts the `_json_rows` in each one's place.
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
    segments = parts[:1]
    for rows, part in zip(held, parts[1:]):
        line = segments[-1].rsplit("\n", 1)[-1]
        segments += [*_json_rows(rows, line[:len(line) - len(line.lstrip(" "))]),
                     part]
    return _write(segments + ["\n"], json.dumps)


CSV_HEADER_TAIL = ["lhs", "rhs", "abs_residual", "rel_residual", "flag"]


def render_csv(reports: list[ResidualReport], dim: int) -> str:
    """One row per sample point; suites are concatenated in run order.

    The point columns are as many as the widest point, at least `dim`;
    shorter points (the planar counterexample scan inside a
    higher-dimensional `all` run) are padded with empty cells.  Float cells
    are their repr (`str` of a list of floats).
    """
    width = max([dim] + [r.rows.points.shape[1] for r in reports if len(r.rows)])
    out = [",".join([f"x{i}" for i in range(width)] + CSV_HEADER_TAIL) + "\n"]
    for rows in (r.rows for r in reports if len(r.rows)):
        d = rows.points.shape[1]
        pieces = ",".join(["{}"] * d + [""] * (width - d) + ["{}"] * 4).split("{}")
        pieces[-1] = (rows.flags, (",0\n", ",1\n"))
        out.append((pieces, (*rows.points.T, rows.lhs, rows.rhs,
                             rows.abs_residual, rows.rel_residual)))
    return _write(out, str)


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
