"""Report aggregation and rendering."""

import io
import json
import math

import numpy as np
import pytest

from finslerkelvin import cli
from finslerkelvin.fields import ScalarField
from finslerkelvin.kelvin import KelvinContext
from finslerkelvin.norms import EuclideanNorm
from finslerkelvin.report import (
    Gate,
    ResidualReport,
    ResidualRows,
    render_csv,
    render_json,
    render_table,
    residual_rows,
)
from finslerkelvin.verify import (
    ManufacturedProblem,
    SamplePlan,
    check_theorem_semilinear,
    manufacture_semilinear,
)

from conftest import row_tuples


def sample_report():
    rows = residual_rows(
        points=np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 2.0]]),
        lhs=[1.0, 2.0, 0.0],
        rhs=[1.0 + 1e-9, 2.0, 1e-12],
        flags=[False, False, True],
    )
    return ResidualReport(suite="demo", tolerance=1e-8, rows=rows,
                          details={"worst_identity": 1e-9},
                          gates=[Gate("worst_identity", 1e-9, 1e-8)])


def test_rows_relative_floor():
    rows = residual_rows([[1.0, 0.0]], [0.0], [3e-7])
    # both sides below 1: the relative residual degrades to the absolute one
    assert rows.rel_residual[0] == pytest.approx(3e-7)
    rows = residual_rows([[1.0, 0.0]], [200.0], [100.0])
    assert rows.rel_residual[0] == pytest.approx(0.5)


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
        rows.append((tuple(float(c) for c in p), float(a), float(b),
                     float(absr), float(absr / max(abs(a), abs(b), 1.0)),
                     bool(fl)))
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
    assert [repr(r) for r in row_tuples(got)] == [repr(r) for r in want]
    assert all(c.dtype == np.float64 for c in (got.points, got.lhs, got.rhs,
                                                got.abs_residual, got.rel_residual))
    assert got.flags.dtype == bool


def test_aggregates_recomputable_from_rows():
    rep = sample_report()
    active = rep.rows.rel_residual[~rep.rows.flags].tolist()
    assert rep.max_rel_residual() == max(active)
    assert rep.mean_rel_residual() == pytest.approx(sum(active) / len(active))
    assert rep.flagged_count() == 1


def test_flagged_rows_excluded():
    rows = ResidualRows(points=[[1.0], [2.0]], lhs=[0.0, 5.0], rhs=[0.0, 0.0],
                        abs_residual=[0.0, 5.0], rel_residual=[0.0, 1.0],
                        flags=[False, True])
    rep = ResidualReport(suite="x", tolerance=1.0, rows=rows)
    assert rep.max_rel_residual() == 0.0


def test_a_nan_residual_propagates_to_the_aggregates():
    rows = residual_rows([[1.0, 0.0]] * 3, [1.0, np.nan, 1.0], [1.0, 1.0, 1.0])
    rep = ResidualReport(suite="x", tolerance=1.0, rows=rows)
    assert math.isnan(rep.max_rel_residual())
    assert math.isnan(rep.mean_rel_residual())
    # a flagged NaN row stays out of both
    rows = residual_rows([[1.0, 0.0]] * 3, [1.0, np.nan, 1.0], [1.0, 1.0, 1.0],
                         flags=[False, True, False])
    rep = ResidualReport(suite="x", tolerance=1.0, rows=rows)
    assert rep.max_rel_residual() == rep.mean_rel_residual() == 0.0


def test_passed_is_read_only():
    rep = sample_report()
    assert rep.passed
    with pytest.raises(AttributeError):
        rep.passed = False
    assert rep.passed


def test_a_nan_value_fails_either_sense():
    for sense in ("<=", ">="):
        assert Gate("g", 1.0, 1.0, sense).ok
        assert not Gate("g", math.nan, 1.0, sense).ok
    assert not Gate("g", 2.0, 1.0).ok and Gate("g", 2.0, 1.0, ">=").ok
    # the verdict is every gate's, and a report without gates passes
    assert not ResidualReport(suite="x", tolerance=1.0, gates=[
        Gate("a", 0.5, 1.0), Gate("b", math.nan, 1.0, ">=")]).passed
    assert ResidualReport(suite="x", tolerance=1.0).passed
    with pytest.raises(ValueError, match="sense"):
        Gate("g", 1.0, 1.0, ">")


def test_a_nan_row_fails_the_semilinear_theorem():
    spec = EuclideanNorm(3)
    prob = manufacture_semilinear(spec, "quadratic")

    def source(pts):
        out = np.array(prob.f(pts), dtype=float)
        out[1] = np.nan  # not the first row: Python's max skipped it
        return out

    bad = ManufacturedProblem(prob.u, ScalarField(3, source), prob.family)
    ctx = KelvinContext(spec)
    assert check_theorem_semilinear(ctx, prob, SamplePlan(count=10)).passed
    rep = check_theorem_semilinear(ctx, bad, SamplePlan(count=10))
    assert math.isnan(rep.rows.rel_residual[1])
    assert not rep.passed
    assert [g.name for g in rep.gates if not g.ok] == ["max_rel"]


def test_rows_are_columns_and_concatenate_in_order():
    a = residual_rows([[1.0, 2.0]], [3.0], [4.0])
    b = residual_rows([[5.0, 6.0], [7.0, 8.0]], [9.0, 1.0], [1.0, 1.0], [True, False])
    rows = ResidualRows.concat([a, b])
    assert rows.points.shape == (3, 2)
    assert rows.flags.dtype == bool and rows.lhs.dtype == float
    assert row_tuples(rows) == row_tuples(a) + row_tuples(b)
    assert row_tuples(rows)[1] == row_tuples(b)[0]
    assert row_tuples(rows)[-1] == row_tuples(b)[1]
    assert rows.points.dtype == float


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


# ---------------------------------------------------------------------------
# the row writer against the encoder


def reference_rows(rows):
    """The rows as `ResidualReport.to_dict` built them before the columns."""
    return [{"point": list(point), "lhs": lhs, "rhs": rhs,
             "abs_residual": absr, "rel_residual": rel, "flag": flag}
            for point, lhs, rhs, absr, rel, flag in row_tuples(rows)]


def reference_render_json(document):
    """The renderer before the template: `json.dumps` of the whole document."""
    doc = dict(document, suites=[dict(s, rows=reference_rows(s["rows"]))
                                 for s in document["suites"]])
    return json.dumps(doc, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def reference_render_csv(reports, dim):
    """The per-cell CSV loop that the column rendering replaced."""
    buf = io.StringIO()
    width = max([dim] + [len(point) for rep in reports
                         for point, *_ in row_tuples(rep.rows)])
    header = [f"x{i}" for i in range(width)] + ["lhs", "rhs", "abs_residual",
                                                 "rel_residual", "flag"]
    buf.write(",".join(header) + "\n")
    for rep in reports:
        for point, lhs, rhs, absr, rel, flag in row_tuples(rep.rows):
            cells = [repr(c) for c in point] + [""] * (width - len(point))
            cells += [repr(lhs), repr(rhs), repr(absr),
                      repr(rel), "1" if flag else "0"]
            buf.write(",".join(cells) + "\n")
    return buf.getvalue()


# A renderer that writes each distinct float once must not merge these:
# 0.0 and -0.0, NaNs of either sign and another payload, and both sides of
# repr's switches to exponent form (1e16 and 1e-4).  The encoder must write
# one digit where one is enough (the smallest subnormals) and round on the
# irregular interval of a power of two, whose lower gap is half the upper.
SPECIAL_CELLS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16,
                 9999999999999998.0, 1e-4, 9.999999999999999e-05, 1e-5, 1.0,
                 -np.nan, np.uint64(0x7FF8000000000001).view(np.float64),
                 1e-323, 2e-323, 5e-323, 9e-323, 1e-322, 2.0 ** -1022,
                 2.0 ** -1021, 2.0 ** -537, 2.0 ** 54, -2.0 ** 200, 2.0 ** 1023]


def special_reports():
    """Every special cell in every column, flagged rows, a 1-D report, a
    report with no rows, and the same columns again in a second suite."""
    cells = np.array(SPECIAL_CELLS)
    assert len({c.tobytes() for c in cells}) == len(cells)
    shifted = [np.roll(cells, k) for k in range(1, 6)]
    odd = ResidualReport(suite="odd", tolerance=1e-8, rows=ResidualRows(
        np.stack([cells, shifted[0], shifted[1]], axis=1), *shifted[1:],
        flags=np.arange(len(cells)) % 3 == 0), details={"worst": np.float64(0.5)})
    with np.errstate(invalid="ignore"):
        line = ResidualReport(suite="line", tolerance=1.0, rows=residual_rows(
            cells[:, None], cells, shifted[0]))
    skip = cli._skip_report("nlaplace", "needs dimension >= 3")
    again = ResidualReport(suite="again", tolerance=1.0, rows=odd.rows)
    return [sample_report(), odd, line, skip, again]


def test_template_matches_the_encoder_on_special_cells():
    reports = special_reports()
    doc = {"schema": "report-v1", "passed": False, "config": {"dim": 3},
           "suites": [r.to_dict() for r in reports]}
    text = render_json(doc)
    assert text == reference_render_json(doc)
    assert "NaN" in text and "-Infinity" in text and '"rows": []' in text
    assert render_csv(reports, 3) == reference_render_csv(reports, 3)
    assert render_csv(reports, 1) == reference_render_csv(reports, 1)
    # no row block at all: the header alone, and a document without rows
    assert render_csv(reports[3:4], 3) == reference_render_csv(reports[3:4], 3)
    doc = dict(doc, suites=[reports[3].to_dict()])
    assert render_json(doc) == reference_render_json(doc)


def test_template_matches_the_encoder_on_an_all_run(tmp_path, monkeypatch):
    seen = {}

    def keep(name, fn):
        def wrapper(*args):
            seen[name] = args
            return fn(*args)
        monkeypatch.setattr(cli, name, wrapper)

    keep("render_json", cli.render_json)
    keep("render_csv", cli.render_csv)
    args = ["all", "--norm", "euclidean:3", "--count", "50"]
    for fmt in ("json", "csv"):
        out = tmp_path / f"r.{fmt}"
        assert cli.main(args + ["--format", fmt, "--out", str(out)]) == cli.EXIT_PASS
        seen[fmt] = out.read_text()
    (doc,) = seen["render_json"]
    assert seen["json"] == reference_render_json(doc)
    reports, dim = seen["render_csv"]
    assert seen["csv"] == reference_render_csv(reports, dim)
    # the planar counterexample rows sit inside the 3-D document
    widths = {s["suite"]: s["rows"].points.shape[1] for s in doc["suites"]}
    assert widths["counterexample"] == 2 and widths["kelvin"] == 3


def test_the_row_placeholder_cannot_pass_as_a_row():
    doc = {"suites": [sample_report().to_dict()], "note": "\x00rows"}
    with pytest.raises(ValueError, match="holds the string"):
        render_json(doc)
