"""Report aggregation and rendering."""

import json

import numpy as np
import pytest

from finslerkelvin.report import (
    PointResidual,
    ResidualReport,
    render_csv,
    render_json,
    render_table,
    residual_rows,
)


def sample_report():
    rows = residual_rows(
        points=np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 2.0]]),
        lhs=[1.0, 2.0, 0.0],
        rhs=[1.0 + 1e-9, 2.0, 1e-12],
        flags=[False, False, True],
    )
    rep = ResidualReport(suite="demo", tolerance=1e-8, rows=rows,
                         details={"worst_identity": 1e-9})
    rep.passed = True
    return rep


def test_rows_relative_floor():
    rows = residual_rows([[1.0, 0.0]], [0.0], [3e-7])
    # both sides below 1: the relative residual degrades to the absolute one
    assert rows[0].rel_residual == pytest.approx(3e-7)
    rows = residual_rows([[1.0, 0.0]], [200.0], [100.0])
    assert rows[0].rel_residual == pytest.approx(0.5)


def _rows_one_at_a_time(points, lhs, rhs, flags=None):
    """The per-row loop that residual_rows replaced, kept as the reference."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if flags is None:
        flags = [False] * len(lhs)
    rows = []
    for p, a, b, fl in zip(points, lhs, rhs, flags):
        absr = abs(a - b)
        rows.append(PointResidual(
            point=tuple(float(c) for c in p), lhs=float(a), rhs=float(b),
            abs_residual=float(absr),
            rel_residual=float(absr / max(abs(a), abs(b), 1.0)),
            flag=bool(fl)))
    return rows


def test_array_rows_equal_the_per_row_loop_bitwise(rng):
    n = 500
    points = rng.standard_normal((n, 3))
    lhs = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 5, n)
    rhs = lhs * (1.0 + 1e-12 * rng.standard_normal(n))
    lhs[:8] = [np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-300, np.nan, 2.0]
    rhs[:8] = [1.0, -0.0, 0.0, np.inf, 3.0, np.inf, np.nan, -np.inf]
    flags = rng.random(n) < 0.1
    with np.errstate(invalid="ignore"):
        want = _rows_one_at_a_time(points, lhs, rhs, flags)
        got = residual_rows(points, lhs, rhs, flags)
    assert [repr(r) for r in got] == [repr(r) for r in want]
    for row in got:
        cells = (*row.point, row.lhs, row.rhs, row.abs_residual, row.rel_residual)
        assert all(type(c) is float for c in cells)
        assert type(row.flag) is bool


def test_aggregates_recomputable_from_rows():
    rep = sample_report()
    active = [r for r in rep.rows if not r.flag]
    assert rep.max_rel_residual() == max(r.rel_residual for r in active)
    assert rep.mean_rel_residual() == pytest.approx(
        sum(r.rel_residual for r in active) / len(active)
    )
    assert rep.flagged_count() == 1


def test_flagged_rows_excluded():
    rows = [
        PointResidual((1.0,), 0.0, 0.0, 0.0, 0.0, False),
        PointResidual((2.0,), 5.0, 0.0, 5.0, 1.0, True),
    ]
    rep = ResidualReport(suite="x", tolerance=1.0, rows=rows)
    assert rep.max_rel_residual() == 0.0


def test_json_is_deterministic_and_sorted():
    doc = {"suites": [sample_report().to_dict()], "schema": "report-v1",
           "config": {"b": 1, "a": 2}}
    text1 = render_json(doc)
    text2 = render_json(doc)
    assert text1 == text2
    parsed = json.loads(text1)
    assert parsed["schema"] == "report-v1"
    assert text1.index('"a"') < text1.index('"b"')
    assert text1.endswith("\n")


def test_csv_columns_and_rows():
    text = render_csv([sample_report()], dim=2)
    lines = text.strip().split("\n")
    assert lines[0] == "x0,x1,lhs,rhs,abs_residual,rel_residual,flag"
    assert len(lines) == 4
    assert lines[3].endswith(",1")  # flagged row
    # float cells round-trip exactly through repr
    cells = lines[1].split(",")
    assert float(cells[2]) == 1.0


def test_table_contains_status():
    text = render_table([sample_report()])
    assert "demo" in text
    assert "PASS" in text
    assert "worst_identity" in text
