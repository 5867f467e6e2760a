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
The encoder, `_encode`, writes no float through Python: it computes repr's
digits with Schubfach's integer arithmetic on uint64 arrays (the shortest
decimal that reads back as the same float, the closest such, ties to even:
repr's own rule, so its words equal repr by construction) and lays them out
as repr does with one byte gather per 8,192 values.  Only NaN and the
infinities are spelled per format: `nan`/`inf` in CSV, as `str` writes them,
and `NaN`/`Infinity` in JSON, as `json.dumps` does.
`scripts/check_float_encoder.py` checks the words against `str` and
`json.dumps` of lists on 10^7 random bit patterns and the edge cases.

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
_CHUNK = 4096  # words per row gather
# NaN, inf and -inf as each format writes them
_CSV_SPECIAL = ("nan", "inf", "-inf")
_JSON_SPECIAL = ("NaN", "Infinity", "-Infinity")

# ---------------------------------------------------------------------------
# float64 -> repr text on uint64 arrays
#
# The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
# doubles", 2020): the shortest decimal in the rounding interval, and of
# those the closest, ties to even digits -- what repr picks.  Java's port
# also insists on two digits (its `s >= 100` guard and its x10 path for
# the smallest subnormals); repr does not, so the shorter candidate is
# taken from s >= 10, and 5e-324 is "5e-324", not "4.9e-324".

_U64 = np.uint64
_M32, _M63 = _U64(2 ** 32 - 1), _U64(2 ** 63 - 1)
_ONE, _INF = _U64(0x3FF0000000000000), _U64(0x7FF0000000000000)
# values per encoder pass: on riemannian-bulk's 88,009 floats (2-vCPU VM,
# numpy 2.4) 8,192 took 18.5 ms, 4,096 20.5 ms and 32,768 22.9 ms
_ENCODE_CHUNK = 8192


def _g_table() -> np.ndarray:
    """(5, 617) uint64: the 32-bit limbs (hi, lo of g1, then of g0), and g1,
    of Schubfach's g = floor(10^-k 2^-r) + 1 in [2^125, 2^126),
    g = g1 2^63 + g0, for k = -324..292."""
    rows = []
    for k in range(-324, 293):
        r = ((-k * 913_124_641_741) >> 38) - 125  # floor(log2 10^-k) - 125
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        g1, g0 = divmod((num << max(-r, 0)) // (den << max(r, 0)) + 1, 2 ** 63)
        rows.append((g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF, g1))
    return np.array(rows, _U64).T.copy()


# The tables are built from Python ints and bytes: numpy's integer division
# and remainder here would add 0.9 MB to the peak RSS of every run.
_G = _g_table()
# every 4-digit group as 4 ASCII bytes in one uint32, and its trailing zeros
_QUAD = np.stack(np.meshgrid(*[np.frombuffer(b"0123456789", np.uint8)] * 4,
                             indexing="ij"), axis=-1).view(np.uint32).ravel()
_TRAILING = np.zeros(10000, np.intp)
for _step in (10, 100, 1000, 10000):
    _TRAILING[::_step] += 1
_POW10 = np.array([10 ** e for e in range(18)], _U64)
# a 32-byte row: bytes 0-2 "000" then 17 digits, 20-23 "0" and the exponent's
# three digits, then these; _layouts returns offsets into such a row
_TAIL = np.frombuffer(b"-.e+\0\0\0\0", np.uint32)
_ZERO, _DIGIT, _MINUS, _DOT, _E, _PLUS, _NUL = 0, 3, 24, 25, 26, 27, 28


def _mulhi(ah, al, bh, bl):
    """The high 64 bits of each product (ah 2^32 + al)(bh 2^32 + bl)."""
    low = al * bl
    cross = ah * bl
    mid = (low >> _U64(32)) + (cross & _M32) + al * bh  # cannot wrap
    return ah * bh + (cross >> _U64(32)) + (mid >> _U64(32))


def _rop(g, cp):
    """Schubfach's rop(cp g 2^-127): the floor, with the low bit set when
    inexact, computed as its `rop` from the 63-bit halves of g."""
    ch, cl = cp >> _U64(32), cp & _M32
    y1 = _mulhi(g[0], g[1], ch, cl)
    z = (g[4] * cp >> _U64(1)) + _mulhi(g[2], g[3], ch, cl)
    return (y1 + (z >> _U64(63))) | (((z & _M63) + _M63) >> _U64(63))


def _shortest(mag):
    """(digits, k) per positive finite uint64 bit pattern: repr's digits as
    one integer, and the decimal exponent of its last digit."""
    bq = (mag >> _U64(52)).view(np.int64)
    q = np.maximum(bq, 1)
    c = mag - ((q - 1) << 52).view(_U64)  # the significand, 2^52 bit set
    q -= 1075
    irregular = (c == _U64(2 ** 52)) & (q > -1074)  # the gap below is half
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((k * -913_124_641_741) >> 38) + 2).view(_U64)
    g = _G.take(k + 324, axis=1)
    cp = c << (h + _U64(2))
    step = _U64(1) << h
    vb = _rop(g, cp)
    # the interval's ends; an odd significand's interval is open, so its
    # ends count as outside
    vbl = _rop(g, cp - step * (_U64(2) - irregular)) + (c & _U64(1))
    vbr = _rop(g, cp + step * _U64(2)) - (c & _U64(1))
    s = vb >> _U64(2)
    # one digit fewer, if in the interval; no %: on uint64 it costs 6x //
    sp10 = s // _U64(10) * _U64(10)
    upin = vbl <= sp10 << _U64(2)
    wpin = (sp10 + _U64(10)) << _U64(2) <= vbr
    shorter = (upin != wpin) & (s >= _U64(10))
    uin = vbl <= s << _U64(2)
    win = (s + _U64(1)) << _U64(2) <= vbr
    # s + 1 when only it is in, or both are and it is closer (ties to even)
    digits = s + (win & (~uin | ((vb & _U64(3)) + (s & _U64(1)) > _U64(2))))
    # selects by arithmetic: np.where on a random mask costs 3x as much
    digits += (sp10 + wpin * _U64(10) - digits) * shorter
    return digits, k


def _layouts(dps) -> np.ndarray:
    """(34 len(dps), 24) offsets into a 32-byte row of the text of each
    (dp, sign, digit count n = 1..17), with the value 0.d1..dn 10^dp: fixed
    for -4 < dp <= 16, as repr, else scientific; _NUL pads."""
    dp = np.repeat(np.asarray(dps), 34)[:, None]
    n = np.tile(np.arange(1, 18), 2 * len(dps))[:, None]
    j = np.arange(24) - np.tile(np.repeat([0, 1], 17), len(dps))[:, None]
    # fixed: max(dp, 1) whole places, ".", max(n - dp, 1) fraction places
    whole = np.maximum(dp, 1)
    i = j - (j > whole) + (dp - 1) * (dp <= 0)  # the digit at j, if 0 <= i < n
    fixed = np.select([j < 0, j == whole, j > whole + np.maximum(n - dp, 1),
                       (i >= 0) & (i < n)], [_MINUS, _DOT, _NUL, _DIGIT + i], _ZERO)
    # scientific: d[.dd..]e-05, e+16, e-308
    m = n + (n > 1)
    end = m + 4 + (np.abs(dp - 1) >= 100)
    sci = np.select([j < 0, j == 0, j == m, j == m + 1, j == 1, j < m, j < end],
                    [_MINUS, _DIGIT, _E, np.where(dp > 0, _PLUS, _MINUS), _DOT,
                     _DIGIT + j - 1, 24 - end + j], _NUL)
    return np.where((dp > -4) & (dp <= 16), fixed, sci)


def _encode(values: np.ndarray, special) -> np.ndarray:
    """Each float64 of `values` as repr writes it, NaN, inf and -inf as
    `special` spells them, in NUL-padded S24 words."""
    out = np.empty((len(values), 24), np.uint8)
    rows = np.empty((_ENCODE_CHUNK, 8), np.uint32)
    rows[:, 6:] = _TAIL
    offsets = np.arange(_ENCODE_CHUNK)[:, None] * 32
    # the 34 layouts of exponent dp start at layouts[first[dp + 323]]; only
    # the exponents present are built, per call: all 21,522 took 61 ms, and
    # a table kept across calls saves nothing in a fresh interpreter
    first = np.full(633, -1)
    layouts = np.empty((0, 24), np.intp)
    for a in range(0, len(values), _ENCODE_CHUNK):
        bits = values[a:a + _ENCODE_CHUNK].view(_U64)
        row = rows[:len(bits)]
        mag = bits & _M63
        finite = mag - _U64(1) < _INF - _U64(1)  # and not zero
        mag += (_ONE - mag) * ~finite  # 1.0 stands in for 0, inf and NaN
        digits, dp = _shortest(mag)
        # 17 digits, as 0.d1..d17 10^dp; 0 for 0
        n = np.searchsorted(_POW10, digits, side="right")
        dp += n
        digits *= _POW10.take(17 - n) * finite
        quads = []  # 4-digit groups, the first "000d"
        for power in (10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4):
            quads.append(digits // _U64(power))
            digits -= quads[-1] * _U64(power)
        quads = [x.view(np.int64) for x in quads + [digits]]
        for col, x in enumerate(quads):
            _QUAD.take(x, out=row[:, col])
        _QUAD.take(np.abs(dp - 1), out=row[:, 5])
        n = 17 - _TRAILING.take(quads[4])
        inner = quads[4] == 0  # every group right of the next one is 0
        for x in quads[3::-1]:
            n -= _TRAILING.take(x) * inner
            inner &= x == 0
        dp += 323
        at = first.take(dp)
        if (at < 0).any():
            new = np.flatnonzero(np.bincount(dp[at < 0], minlength=633))
            first[new] = len(layouts) + 34 * np.arange(len(new))
            layouts = np.concatenate([layouts, _layouts(new - 323)])
            at = first.take(dp)
        at += (bits >> _U64(63)).view(np.int64) * 17 + np.maximum(n, 1) - 1
        # flat takes (take_along_axis took twice as long), 2,048 rows at a
        # time: their offsets hold 0.4 MB, and ran 4% faster than 8,192
        flat = row.view(np.uint8).ravel()
        for b in range(0, len(bits), 2048):
            index = layouts.take(at[b:b + 2048], axis=0)
            index += offsets[b:b + len(index)]
            flat.take(index, out=out[a + b:a + b + len(index)])
        if not finite.all():
            words = out[a:a + len(bits)].view("S24").ravel()
            words[bits & _M63 > _INF] = special[0]
            words[bits == _INF] = special[1]
            words[bits == _INF | _U64(2 ** 63)] = special[2]
    return out.view("S24").ravel()


def _write(segments, special) -> str:
    """The text of `segments`: each a str or a row block `(pieces, columns)`,
    a row being pieces[0], then each float64 column's cell followed by the
    next piece.  A cell is the float's repr, which `_encode` computes, once
    per distinct float, by repr's own rule; `special` is the format's
    spelling of NaN, inf and -inf (`_CSV_SPECIAL` or `_JSON_SPECIAL`).  A
    piece is an ASCII str without NUL, or a `(bools, (no, yes))` pair that
    picks one of the two per row."""
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
    table = np.concatenate([np.array(list(words), "S"), _encode(distinct, special)])
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
    return _write(segments + ["\n"], _JSON_SPECIAL)


CSV_HEADER_TAIL = ["lhs", "rhs", "abs_residual", "rel_residual", "flag"]


def render_csv(reports: list[ResidualReport], dim: int) -> str:
    """One row per sample point; suites are concatenated in run order.

    The point columns are as many as the widest point, at least `dim`;
    shorter points (the planar counterexample scan inside a
    higher-dimensional `all` run) are padded with empty cells.  Float cells
    are their repr, NaN and the infinities `nan`, `inf` and `-inf`.
    """
    width = max([dim] + [r.rows.points.shape[1] for r in reports if len(r.rows)])
    out = [",".join([f"x{i}" for i in range(width)] + CSV_HEADER_TAIL) + "\n"]
    for rows in (r.rows for r in reports if len(r.rows)):
        d = rows.points.shape[1]
        pieces = ",".join(["{}"] * d + [""] * (width - d) + ["{}"] * 4).split("{}")
        pieces[-1] = (rows.flags, (",0\n", ",1\n"))
        out.append((pieces, (*rows.points.T, rows.lhs, rows.rhs,
                             rows.abs_residual, rows.rel_residual)))
    return _write(out, _CSV_SPECIAL)


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
