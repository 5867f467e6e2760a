"""Configuration parsing, exit codes, and report artifacts."""

import json
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from finslerkelvin import RiemannianNorm, SpdMatrix, cli, format_norm
from finslerkelvin.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_PASS,
    EXIT_VERIFICATION,
    SUITES,
    RunConfig,
    main,
    parse_config,
    serialize_config,
)
from finslerkelvin.verify import random_spd_matrix

FAST = ["--count", "25"]


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_one_line_pairs():
    cfg = parse_config("norm=riemannian:[[4,0],[0,1]] suite=identities")
    assert cfg.norm == "riemannian:[[4,0],[0,1]]"
    assert cfg.suite == "identities"
    assert cfg.dim == 2


def test_parse_config_multiline_with_comments():
    cfg = parse_config(
        """
        # verification run
        norm = euclidean:3
        suite = kelvin
        annulus = 0.5,2.0
        count = 50
        seed = 7
        format = table
        threads = 2
        """
    )
    assert cfg.suite == "kelvin"
    assert cfg.count == 50
    assert cfg.seed == 7
    assert cfg.format == "table"
    assert cfg.threads == 2


def test_parse_config_rejects_non_spd_matrix():
    with pytest.raises(ValueError, match="leading minor 2"):
        parse_config("norm=riemannian:[[1,2],[2,1]]")


def test_parse_config_quartic_forces_dim_2():
    cfg = parse_config("norm=quartic suite=counterexample")
    assert cfg.dim == 2


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("norm=euclidean:2\ncolor=red")


def test_parse_config_rejects_dim_conflict():
    with pytest.raises(ValueError, match="conflicts"):
        parse_config("norm=euclidean:3\ndim=2")


def test_parse_config_rejects_bad_suite_and_format():
    with pytest.raises(ValueError, match="unknown suite"):
        parse_config("suite=everything")
    with pytest.raises(ValueError, match="unknown format"):
        parse_config("format=xml")


def test_parse_config_rejects_theorem_suite_on_quartic():
    with pytest.raises(ValueError, match="theorem suites need a quadratic-form norm"):
        parse_config("norm=quartic suite=semilinear")


def test_config_roundtrip():
    cfg = RunConfig(norm="riemannian:[[4,0],[0,1]]", suite="identities",
                    annulus=(0.25, 3.0), count=42, seed=9, out="r.json",
                    format="csv", threads=3)
    assert parse_config(serialize_config(cfg)) == cfg


def test_pretty_table_synonym():
    cfg = parse_config("format=pretty-table")
    assert cfg.format == "table"


def test_theorem_suite_aliases():
    assert parse_config("suite=theorem-semilinear").suite == "semilinear"
    assert parse_config("suite=theorem-nlaplace").suite == "nlaplace"


# ---------------------------------------------------------------------------
# exit codes and artifacts


def test_all_euclidean3_passes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["all", "--norm", "euclidean:3", "--out", str(out)] + FAST)
    assert code == EXIT_PASS
    doc = json.loads(out.read_text())
    assert doc["schema"] == "report-v1"
    assert doc["passed"] is True
    assert [s["suite"] for s in doc["suites"]] == [
        "identities", "kelvin", "counterexample", "semilinear", "nlaplace",
    ]
    assert doc["config"]["norm"] == "euclidean:3"
    assert doc["version"].startswith("finslerkelvin ")


def test_counterexample_on_riemannian_fails_by_design(tmp_path, capsys):
    code = main(["counterexample", "--norm", "riemannian:[[4,0],[0,1]]",
                 "--out", str(tmp_path / "r.json")])
    assert code == EXIT_VERIFICATION
    assert "spread below threshold: norm is Riemannian" in capsys.readouterr().out


def test_quartic_all_skips_theorem_suites(tmp_path, capsys):
    out = tmp_path / "q.json"
    code = main(["all", "--norm", "quartic", "--out", str(out)] + FAST)
    assert code == EXIT_PASS
    printed = capsys.readouterr().out
    assert "[SKIP] semilinear" in printed
    assert "[SKIP] nlaplace" in printed


def test_bad_config_exit_code():
    assert main(["identities", "--norm", "riemannian:[[1,2],[2,1]]"]) == EXIT_CONFIG
    assert main(["identities", "--norm", "nonsense:1"]) == EXIT_CONFIG
    assert main(["nlaplace", "--norm", "euclidean:2"]) == EXIT_CONFIG
    assert main(["semilinear", "--norm", "quartic"]) == EXIT_CONFIG
    # the sample plan needs dim + 1 of the 12 Halton bases
    assert main(["identities", "--norm", "euclidean:12"]) == EXIT_CONFIG
    # an infinite bound would sample nan points and report a failure
    assert main(["kelvin", "--norm", "euclidean:3", "--count", "5",
                 "--annulus", "1,inf"]) == EXIT_CONFIG


def test_unevaluable_configuration_exits_2_without_traceback(package_env):
    # the annulus hugs the origin, so the nlaplace numeric-jet stencil
    # would cross it: the suite cannot be evaluated, which is not a
    # verification failure
    proc = subprocess.run(
        [sys.executable, "-m", "finslerkelvin", "nlaplace", "--norm",
         "euclidean:3", "--count", "5", "--annulus", "1e-7,2e-7"],
        capture_output=True, text=True, env=package_env, timeout=120)
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: stencil")
    assert "would cross the origin" in proc.stderr


@pytest.mark.parametrize("suite", ["kelvin", "semilinear", "nlaplace", "all"])
def test_ill_conditioned_norm_exits_2_without_traceback(suite, package_env):
    # condition number 1e12: the dual fails the context's duality self-check
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
    norm = format_norm(RiemannianNorm(SpdMatrix(q @ np.diag([1.0, 1e6, 1e12]) @ q.T)))
    proc = subprocess.run(
        [sys.executable, "-m", "finslerkelvin", suite, "--norm", norm,
         "--count", "20"],
        capture_output=True, text=True, env=package_env, timeout=120)
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    assert "error: dual norm inconsistent with primal" in proc.stderr


def test_all_run_does_not_import_numpy_random(tmp_path, package_env):
    code = ("import sys; from finslerkelvin.cli import main; "
            f"code = main(['all', '--norm', 'quartic', '--count', '5', "
            f"'--out', {str(tmp_path / 'r.json')!r}]); "
            "print(code, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=package_env, timeout=120)
    # the status lines come first, since the report goes to a file
    assert proc.stdout.splitlines()[-1] == f"{EXIT_PASS} False"


SKIPS = {
    "euclidean:3": {},
    "euclidean:2": {"nlaplace": "needs dimension >= 3"},
    "quartic": {"semilinear": "theorem suites need a quadratic-form norm",
                "nlaplace": "theorem suites need a quadratic-form norm"},
}


@pytest.mark.parametrize("norm", list(SKIPS))
def test_suite_and_config_key_tables(norm, tmp_path, monkeypatch):
    # every RunConfig field is both a flag and a config key
    values = {"norm": norm, "suite": "kelvin", "annulus": "0.25,3.0",
              "count": "7", "seed": "4", "out": "r.json", "format": "csv",
              "threads": "2"}
    assert list(values) == [f.name for f in fields(RunConfig)]
    from_file = parse_config(" ".join(f"{k}={v}" for k, v in values.items()))
    assert all(getattr(from_file, f.name) != f.default for f in fields(RunConfig)
               if f.name != "norm")
    seen = []
    monkeypatch.setattr(cli, "run", lambda config: seen.append(config) or 0)
    flags = [arg for k, v in values.items() if k != "suite"
             for arg in (f"--{k}", v)]
    assert main(flags + [values["suite"]]) == EXIT_PASS
    assert seen == [from_file]
    monkeypatch.undo()

    # `all` reports every suite in table order, skips with their reasons
    out = tmp_path / "all.json"
    assert main(["all", "--norm", norm, "--count", "10", "--out", str(out)]) in (
        EXIT_PASS, EXIT_VERIFICATION)
    suites = json.loads(out.read_text())["suites"]
    assert [s["suite"] for s in suites] == list(SUITES[:-1])
    assert {s["suite"]: s["details"]["skipped"] for s in suites
            if "skipped" in s["details"]} == SKIPS[norm]


def test_semilinear_dimension_5_reaches_a_verdict(tmp_path):
    out = tmp_path / "r.json"
    code = main(["semilinear", "--norm", "euclidean:5", "--count", "10",
                 "--out", str(out)])
    assert code in (EXIT_PASS, EXIT_VERIFICATION)
    assert json.loads(out.read_text())["suites"][0]["count"] == 20


def test_io_error_exit_code(tmp_path):
    code = main(["identities", "--norm", "euclidean:2",
                 "--out", str(tmp_path / "missing" / "deep" / "r.json")] + FAST)
    assert code == EXIT_IO
    assert main(["--config", str(tmp_path / "no-such-config")]) == EXIT_IO


def test_flags_override_config_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("norm = euclidean:3\nsuite = identities\nseed = 3\n")
    out = tmp_path / "r.json"
    code = main(["--config", str(cfg_file), "--seed", "11",
                 "--out", str(out), "kelvin"] + FAST)
    assert code == EXIT_PASS
    doc = json.loads(out.read_text())
    assert doc["config"]["seed"] == 11
    assert doc["config"]["suite"] == "kelvin"


def test_csv_and_table_formats(tmp_path):
    out = tmp_path / "r.csv"
    code = main(["identities", "--norm", "euclidean:2", "--format", "csv",
                 "--out", str(out)] + FAST)
    assert code == EXIT_PASS
    header = out.read_text().splitlines()[0]
    assert header == "x0,x1,lhs,rhs,abs_residual,rel_residual,flag"

    out2 = tmp_path / "r.txt"
    code = main(["identities", "--norm", "euclidean:2", "--format", "table",
                 "--out", str(out2)] + FAST)
    assert code == EXIT_PASS
    assert "PASS" in out2.read_text()


@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_csv_and_table_skip_the_json_document(fmt, tmp_path, monkeypatch):
    from finslerkelvin.report import ResidualReport

    def refuse(self):
        raise AssertionError("to_dict called outside JSON output")

    monkeypatch.setattr(ResidualReport, "to_dict", refuse)
    args = ["--format", fmt, "--out", str(tmp_path / "r")] + FAST
    assert main(["identities", "--norm", "euclidean:2"] + args) == EXIT_PASS
    # the verdict still reaches the exit code
    assert main(["counterexample", "--norm", "riemannian:[[4,0],[0,1]]"]
                + args) == EXIT_VERIFICATION


def test_all_csv_rows_have_the_header_width(tmp_path):
    out = tmp_path / "r.csv"
    code = main(["all", "--norm", "euclidean:3", "--format", "csv",
                 "--out", str(out)] + FAST)
    assert code == EXIT_PASS
    lines = out.read_text().splitlines()
    assert lines[0] == "x0,x1,x2,lhs,rhs,abs_residual,rel_residual,flag"
    assert all(line.count(",") == 7 for line in lines)


def test_json_reports_byte_identical_across_threads(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["kelvin", "--norm", "riemannian:[[4,0],[0,1]]", "--seed", "5"] + FAST
    assert main(base + ["--out", str(a), "--threads", "1"]) == EXIT_PASS
    assert main(base + ["--out", str(b), "--threads", "4"]) == EXIT_PASS
    assert a.read_bytes() == b.read_bytes()


def test_stdout_report_when_no_out(capsys):
    code = main(["identities", "--norm", "euclidean:2", "--format", "table"]
                + FAST)
    assert code == EXIT_PASS
    assert "identities" in capsys.readouterr().out


def test_stdout_report_parses_and_status_lines_go_to_stderr(package_env):
    proc = subprocess.run(
        [sys.executable, "-m", "finslerkelvin", "identities", "--norm",
         "euclidean:2", "--count", "3"],
        capture_output=True, text=True, env=package_env, timeout=120)
    assert proc.returncode == EXIT_PASS
    doc = json.loads(proc.stdout)
    assert [s["suite"] for s in doc["suites"]] == ["identities"]
    assert "[PASS] identities" in proc.stderr


@pytest.mark.parametrize("args, dim, theorem_rows", [
    # 2 x 50 semilinear rows
    (["semilinear", "--norm", format_norm(RiemannianNorm(random_spd_matrix(4, 0))),
      "--count", "50"], 4, slice(0, 100)),
    # identities 20, kelvin 20, counterexample 64, then 2 x 20 semilinear
    # and 2 x 20 nlaplace rows
    (["all", "--norm", "euclidean:3", "--count", "20"], 3, slice(104, 184)),
])
def test_csv_cells_parse_and_theorem_residuals_are_exact(tmp_path, args, dim,
                                                         theorem_rows):
    # what perfbench's CSV check asserts: a numpy scalar's repr
    # ('np.float64(0.5)') in any cell would fail the float() parse
    out = tmp_path / "report.csv"
    assert main(args + ["--format", "csv", "--out", str(out)]) in (
        EXIT_PASS, EXIT_VERIFICATION)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == theorem_rows.stop
    for cells in rows:
        assert len(cells) == dim + 5
        assert cells[-1] in ("0", "1")
        # only the point columns of a shorter (planar) point are left empty
        for cell in cells[dim:-1] + [c for c in cells[:dim] if c]:
            float(cell)
    for cells in rows[theorem_rows]:
        lhs, rhs, absr, rel = (float(c) for c in cells[dim:dim + 4])
        assert absr == abs(lhs - rhs)
        assert rel == absr / max(abs(lhs), abs(rhs), 1.0)


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "finslerkelvin" in capsys.readouterr().out
