"""scripts/compare_reports.py on real and edited report-v1 files."""

import copy
import importlib.util
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from finslerkelvin import cli

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"


@pytest.fixture(scope="module")
def compare_reports():
    spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("reports") / "identities.json"
    with redirect_stdout(io.StringIO()):
        assert cli.main(["identities", "--norm", "euclidean:3", "--count", "5",
                         "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _run(module, a, b, tmp_path):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = module.main([str(pa), str(pb)])
    return code, buf.getvalue()


def test_identical_reports_agree(compare_reports, report, tmp_path):
    code, out = _run(compare_reports, report, report, tmp_path)
    assert code == 0
    assert "5 -> 5; 0 differ, 0 at a different point" in out
    assert "max |d rel|      0.000e+00" in out


def test_last_bit_changes_are_counted_but_agree(compare_reports, report, tmp_path):
    other = copy.deepcopy(report)
    row = other["suites"][0]["rows"][2]
    row["rel_residual"] += 2.5e-16
    other["suites"][0]["details"]["euler"] = 1.0
    code, out = _run(compare_reports, report, other, tmp_path)
    assert code == 0
    assert "1 differ, 0 at a different point" in out
    assert "max |d rel|      2.500e-16" in out
    assert "details euler" in out and "| 1.0   *" in out


def test_verdict_and_point_changes_disagree(compare_reports, report, tmp_path):
    other = copy.deepcopy(report)
    other["suites"][0]["passed"] = False
    code, out = _run(compare_reports, report, other, tmp_path)
    assert code == 1
    assert "PASS -> FAIL   <- verdict differs" in out

    other = copy.deepcopy(report)
    other["suites"][0]["rows"][0]["point"][0] += 1.0
    code, out = _run(compare_reports, report, other, tmp_path)
    assert code == 1
    assert "1 differ, 1 at a different point" in out
