"""Configuration parsing, exit codes, and report artifacts."""

import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from finslerkelvin import RiemannianNorm, SpdMatrix, cli
from finslerkelvin.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_PASS,
    EXIT_VERIFICATION,
    SUITES,
    RunConfig,
    main,
    parse_config,
)
from finslerkelvin.verify import random_spd_matrix

FAST = ["--count", "25"]


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_one_line_pairs():
    cfg = parse_config("norm=riemannian:[[4,0],[0,1]] suite=identities")
    assert cfg.norm == "riemannian:[[4,0],[0,1]]"
    assert cfg.suite == "identities"
    assert cfg.spec().dim == 2


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
    assert cfg.spec().dim == 2


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


@pytest.mark.parametrize("line, message", [
    ("suite = theorem-semilinear", "unknown suite"),
    ("suite = theorem-nlaplace", "unknown suite"),
    ("format = pretty-table", "unknown format"),
])
def test_former_config_aliases_are_refused(line, message, tmp_path):
    with pytest.raises(ValueError, match=message):
        parse_config(line)
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    assert main(["--config", str(path)]) == EXIT_CONFIG


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
    out = tmp_path / "r.json"
    code = main(["counterexample", "--norm", "riemannian:[[4,0],[0,1]]",
                 "--out", str(out)])
    assert code == EXIT_VERIFICATION
    # the FAIL line names the spread gate with its value and floor
    assert re.fullmatch(r"\[FAIL\] counterexample: spread (\S+) \(floor 0\.999\)"
                        r" - failed: spread \1 < 0\.999\n", capsys.readouterr().out)
    suite, = json.loads(out.read_text())["suites"]
    assert suite["details"]["message"] == "spread below threshold: norm is Riemannian"


PASS_LINE = re.compile(r"\[PASS\] (identities|kelvin|semilinear|nlaplace): worst "
                       r"residual \d\.\d{3}e[+-]\d\d \(tolerance 1e-\d\d\)"
                       r"|\[PASS\] counterexample: spread \d\.\d{3}e[+-]\d\d "
                       r"\(floor 0\.999\)")
SKIP_LINE = re.compile(r"\[SKIP\] (semilinear|nlaplace): theorem suites need a "
                       r"quadratic-form norm")


@pytest.mark.parametrize("norm,skipped", [("euclidean:3", 0), ("quartic", 2)])
def test_pass_and_skip_lines_keep_their_format(norm, skipped, tmp_path, capsys):
    # the format users and the benchmark harness parse
    code = main(["all", "--norm", norm, "--count", "50",
                 "--out", str(tmp_path / "r.json")])
    assert code == EXIT_PASS
    lines = capsys.readouterr().out.splitlines()
    assert [line[1:5] for line in lines] == (["PASS"] * (5 - skipped)
                                             + ["SKIP"] * skipped)
    assert [line[7:].split(":")[0] for line in lines] == list(cli._RUNNERS)
    for line in lines:
        assert (PASS_LINE if line.startswith("[PASS]") else SKIP_LINE).fullmatch(line)


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


def test_a_large_dimension_is_refused_before_a_matrix_is_built(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(SpdMatrix, "__init__",
                        lambda self, entries: built.append(len(entries)))
    for norm, dim in (("euclidean:3000", 3000),
                      ("riemannian:" + json.dumps(np.eye(12).tolist()), 12)):
        assert main(["identities", "--norm", norm]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: dimension {dim} is too large: sample plans support at most 11\n")
    assert built == []


def test_an_unallocatable_plan_exits_2_naming_the_suite(monkeypatch, capsys):
    try:
        from numpy._core._exceptions import _ArrayMemoryError
    except ImportError:  # numpy < 2
        from numpy.core._exceptions import _ArrayMemoryError

    def unallocatable(spec, plan):
        # numpy's own error, built without asking numpy for the array
        raise _ArrayMemoryError((10**11, 4), np.dtype(float))

    monkeypatch.setattr(cli, "run_identity_suite", unallocatable)
    assert main(["all", "--count", "100000000000"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: identities: Unable to allocate \S+ \w+ for an array "
                        r"with shape \(100000000000, 4\) and data type float64\n", err)


def test_bad_flag_value_names_its_key(capsys):
    for key in ("count", "dim"):
        assert main(["identities", f"--{key}", "abc"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {key}: invalid literal for int() with base 10: 'abc'\n")


def test_bad_config_value_names_its_line_and_key(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("count = abc\n")
    assert main(["--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: line 1: count: invalid literal for int() with base 10: 'abc'\n")
    # `dim` is a cross-check, not a RunConfig field, and is named the same way
    path.write_text("norm = euclidean:3\ndim = abc\n")
    assert main(["--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: line 2: dim: invalid literal for int() with base 10: 'abc'\n")
    path.write_text("norm = euclidean:3\ndim = 3\n")
    assert parse_config(path.read_text()).norm == "euclidean:3"


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
    assert proc.stderr.startswith("error: nlaplace: stencil")
    assert "would cross the origin" in proc.stderr


@pytest.mark.parametrize("suite", ["kelvin", "semilinear", "nlaplace", "all"])
def test_ill_conditioned_norm_exits_2_without_traceback(suite, package_env):
    # condition number 1e12: the dual fails the context's duality self-check
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
    norm = RiemannianNorm(SpdMatrix(q @ np.diag([1.0, 1e6, 1e12]) @ q.T)).canonical()
    proc = subprocess.run(
        [sys.executable, "-m", "finslerkelvin", suite, "--norm", norm,
         "--count", "20"],
        capture_output=True, text=True, env=package_env, timeout=120)
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    # the error names the suite that met it; `all` gets there at kelvin
    named = "kelvin" if suite == "all" else suite
    assert proc.stderr.startswith(
        f"error: {named}: dual norm inconsistent with primal")


# an unwritable status channel is an I/O error (exit 3), never a traceback
# (exit 1 means "verification failed"); buffered and unbuffered streams fail
# at different writes, so both are run
STREAM_MODES = ("buffered", "unbuffered")


def _stream_env(package_env, mode):
    env = dict(package_env)
    env.pop("PYTHONUNBUFFERED", None)
    return env if mode == "buffered" else dict(env, PYTHONUNBUFFERED="1")


@pytest.mark.parametrize("mode", STREAM_MODES)
def test_a_closed_stdout_pipe_exits_3_without_traceback(mode, package_env,
                                                        tmp_path):
    # `... --out r.json | head -0`: the status lines meet a pipe nobody reads
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "finslerkelvin", "all", "--norm",
             "euclidean:3", "--count", "200", "--out", str(tmp_path / "r.json")],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=_stream_env(package_env, mode), timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_IO
    assert proc.stderr.startswith("error: cannot write status lines:")
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("mode", STREAM_MODES)
def test_a_closed_stderr_exits_3_without_traceback(mode, package_env):
    # `kelvin ... 2>&-`: with no --out the status lines go to stderr; a
    # traceback would exit 1 and a failed flush at interpreter exit 120
    proc = subprocess.run(
        [sys.executable, "-m", "finslerkelvin", "kelvin", "--norm",
         "euclidean:3", "--count", "20"],
        stdout=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(2),
        env=_stream_env(package_env, mode), timeout=120)
    assert proc.returncode == EXIT_IO
    assert proc.stdout == ""


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


def test_all_passes_a_hand_written_metric_whose_weak_form_box_nearly_cancels(tmp_path):
    # box 4's source integral cancels to 2.2e-4 of its absolute integral;
    # the midpoint mesh read weak_form_worst 0.406 there
    out = tmp_path / "r.json"
    code = main(["all", "--norm", "riemannian:[[2,0.3,0],[0.3,1,0.1],[0,0.1,0.5]]",
                 "--count", "100", "--out", str(out)])
    assert code == EXIT_PASS
    semilinear = [s for s in json.loads(out.read_text())["suites"]
                  if s["suite"] == "semilinear"]
    assert semilinear[0]["details"]["weak_form_worst"] <= 1e-3


def test_semilinear_above_the_weak_form_mesh_limit_exits_2(package_env):
    # the weak-form quadrature rule would have 653,184 nodes per box
    proc = subprocess.run(
        [sys.executable, "-m", "finslerkelvin", "semilinear", "--norm",
         "euclidean:7"],
        capture_output=True, text=True, env=package_env, timeout=120)
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: semilinear: needs dimension <= 6")


def test_all_at_dimension_11_skips_semilinear_and_runs_the_rest(tmp_path):
    out = tmp_path / "r.json"
    code = main(["all", "--norm", "euclidean:11", "--count", "3",
                 "--out", str(out)])
    assert code in (EXIT_PASS, EXIT_VERIFICATION)
    suites = json.loads(out.read_text())["suites"]
    assert {s["suite"] for s in suites if "skipped" in s["details"]} == {"semilinear"}
    assert len(suites) == 5


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
    (["semilinear", "--norm", RiemannianNorm(random_spd_matrix(4, 0)).canonical(),
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


def test_the_version_is_the_package_and_project_version(capsys):
    import finslerkelvin

    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
    assert cli.VERSION == finslerkelvin.__version__ == project
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == "finslerkelvin 0.1.0\n"
