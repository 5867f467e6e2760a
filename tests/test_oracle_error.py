"""scripts/oracle_error.py on real and edited semilinear and nlaplace reports."""

import copy
import importlib.util
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from finslerkelvin import RiemannianNorm, cli, random_spd_matrix

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "oracle_error.py"


@pytest.fixture(scope="module")
def oracle_error():
    spec = importlib.util.spec_from_file_location("oracle_error", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("reports") / "semilinear.json"
    norm = RiemannianNorm(random_spd_matrix(3, seed=5)).canonical()
    with redirect_stdout(io.StringIO()):
        assert cli.main(["semilinear", "--norm", norm, "--count", "20",
                         "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _worst(module, report, tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    with redirect_stdout(io.StringIO()):
        assert module.main([str(path)]) == 0
    return {key: max(errs) for key, (errs, _) in module.row_errors(str(path)).items()}


def test_semilinear_rows_sit_near_the_exact_value(oracle_error, report, tmp_path):
    worst = _worst(oracle_error, report, tmp_path)
    assert set(worst) == {(f, s) for f in ("quadratic", "gaussian-bump")
                          for s in ("lhs", "rhs")}
    assert max(worst.values()) < 100.0

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert oracle_error.main([str(tmp_path / "report.json")] * 2 + ["--pool"]) == 0
    out = buf.getvalue()
    assert "pooled over 2 reports" in out
    assert out.count("     40 ") == 4  # 2 x 20 rows per family and side


def test_a_perturbed_row_reads_large(oracle_error, report, tmp_path):
    other = copy.deepcopy(report)
    rows = other["suites"][0]["rows"][:other["config"]["count"]]
    row = max(rows, key=lambda r: abs(r["lhs"]))
    row["lhs"] *= 1.0 + 1e-9
    worst = _worst(oracle_error, other, tmp_path)
    assert worst["quadratic", "lhs"] >= 1e6
    assert worst["quadratic", "rhs"] < 100.0


@pytest.fixture(scope="module")
def nlaplace_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("reports") / "nlaplace.json"
    norm = RiemannianNorm(random_spd_matrix(3, seed=5)).canonical()
    with redirect_stdout(io.StringIO()):
        assert cli.main(["nlaplace", "--norm", norm, "--count", "20",
                         "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _affine_max(module, report, tmp_path):
    path = tmp_path / "nlaplace.json"
    path.write_text(json.dumps(report))
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert module.main([str(path)]) == 0
    assert "affine" in buf.getvalue()
    values, _ = module.affine_errors(str(path))
    assert len(values) == report["config"]["count"]
    return max(values)


def test_affine_nlaplace_rows_sit_near_zero(oracle_error, nlaplace_report, tmp_path):
    assert _affine_max(oracle_error, nlaplace_report, tmp_path) < 1e-10

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert oracle_error.main([str(tmp_path / "nlaplace.json")] * 2
                                 + ["--pool"]) == 0
    out = buf.getvalue()
    assert "pooled over 2 reports" in out
    rows = [line.split()[2] for line in out.splitlines()
            if line.split()[:2] == ["affine", "|lhs|"]]
    assert rows == ["40"]


def test_a_perturbed_affine_row_raises_the_max(oracle_error, nlaplace_report,
                                               tmp_path):
    other = copy.deepcopy(nlaplace_report)
    other["suites"][0]["rows"][7]["lhs"] = -1e-6
    assert _affine_max(oracle_error, other, tmp_path) == 1e-6
