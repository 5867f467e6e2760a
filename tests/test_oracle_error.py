"""scripts/oracle_error.py on real and edited semilinear and nlaplace reports,
its check of the nlaplace FD jets against the chain-rule jet, and its
40-digit check of the quartic numeric dual."""

import copy
import importlib.util
import io
import json
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

from finslerkelvin import (Jet2, NumericDualNorm, QuarticNorm, RiemannianNorm,
                           SamplePlan, cli, random_spd_matrix, verify)

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


def test_nlaplace_fd_jets_sit_near_the_chain_rule_jet(oracle_error,
                                                      nlaplace_report, tmp_path):
    path = tmp_path / "nlaplace.json"
    path.write_text(json.dumps(nlaplace_report))
    errors = oracle_error.fd_errors(str(path))
    assert set(errors) == {"gradient", "Hessian"}
    # the plan points are the points of the report's numeric rows
    count = nlaplace_report["config"]["count"]
    numeric = [row["point"] for row in nlaplace_report["suites"][0]["rows"][-count:]]
    for errs, where in errors.values():
        assert len(errs) == count and [w[2] for w in where] == numeric
    assert max(errors["gradient"][0]) < 1e-11
    assert max(errors["Hessian"][0]) < 1e-6

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert oracle_error.main([str(path)] * 2 + ["--pool"]) == 0
    lines = buf.getvalue().splitlines()
    at = next(i for i, line in enumerate(lines) if "nlaplace FD" in line)
    assert lines[at - 1] == "pooled over 2 reports"
    assert [line.split()[:2] for line in lines[at + 1:at + 3]] == [
        ["gradient", "40"], ["Hessian", "40"]]


def test_the_fd_oracle_sees_a_gradient_off_by_1e_9(oracle_error, monkeypatch):
    fd = verify.numeric_jet

    def scaled(field, point):
        j = fd(field, point)
        return replace(j, gradient=j.gradient * (1.0 + 1e-9))

    spec = RiemannianNorm(random_spd_matrix(3, seed=5))
    points = SamplePlan(count=20).points(spec)
    clean = oracle_error.fd_errors_at(spec, points)
    monkeypatch.setattr(verify, "numeric_jet", scaled)
    errors = oracle_error.fd_errors_at(spec, points)
    assert max(clean["gradient"]) < 1e-11 < 1e-10 < min(errors["gradient"])
    assert errors["Hessian"] == clean["Hessian"]


QUARTIC_PLAN = SamplePlan(count=1000, seed=100)


def _quartic_worst(module, points):
    """Largest relative error of each quartic-dual quantity, in units of 1."""
    errors = module.quartic_errors_at(points)
    assert set(errors) == {"H°", "grad H°", "D2H°", "bidual"}
    return {name: max(errs) * module.EPS for name, errs in errors.items()}


def test_quartic_dual_matches_the_40_digit_kkt_solve(oracle_error):
    # the decimal Newton solve and its Gaussian elimination are the
    # independent check of the closed-form Newton step and dual Hessian
    points = QUARTIC_PLAN.points(QuarticNorm())[::20]
    assert len(points) == 50
    assert max(_quartic_worst(oracle_error, points).values()) < 1e-14


def test_the_kkt_oracle_sees_a_dual_hessian_off_by_1e_9(oracle_error,
                                                        monkeypatch):
    jet = NumericDualNorm.jet

    def scaled(self, x):
        j = jet(self, x)
        return Jet2(j.value, j.gradient, j.hessian * (1.0 + 1e-9))

    monkeypatch.setattr(NumericDualNorm, "jet", scaled)
    worst = _quartic_worst(oracle_error, QUARTIC_PLAN.points(QuarticNorm())[::20])
    assert worst.pop("D2H°") > 1e-14
    assert max(worst.values()) < 1e-14


def test_a_quartic_report_gets_the_dual_section(oracle_error, tmp_path):
    path = tmp_path / "quartic.json"
    with redirect_stdout(io.StringIO()):
        assert cli.main(["all", "--norm", "quartic", "--count", "30",
                         "--seed", "3", "--out", str(path)]) == 0
    errors = oracle_error.quartic_errors(str(path))
    plan = SamplePlan(count=30, seed=3).points(QuarticNorm()).tolist()
    for errs, where in errors.values():
        assert len(errs) == 30 and [w[2] for w in where] == plan
        assert max(errs) < 1e-14 / oracle_error.EPS

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert oracle_error.main([str(path)] * 2 + ["--pool"]) == 0
    lines = buf.getvalue().splitlines()
    assert lines[0] == "pooled over 2 reports" and "quartic dual" in lines[1]
    assert [line.split()[:2] for line in lines[2:6]] == [
        ["H°", "60"], ["grad", "H°"], ["D2H°", "60"], ["bidual", "60"]]
    assert len(lines) == 10  # plus the row behind each max
