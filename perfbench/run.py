"""Suite-run benchmark for the `finsler-kelvin` CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--count K]

Run from the root of a checkout.  Every CLI run is a fresh single-process
interpreter (`perfbench/child.py`) that imports the package from `src/`
and writes its report with `--out`; runs are closed loop, one at a time.

`--trace 0` first spawns a few set-up-only interpreters, then repeats the
workload until `--seconds` is used up, and reports the end-to-end metrics
with tracing off.  `--trace 1` repeats pairs of one untraced and one traced
run and reports the per-layer metrics of the traced runs (see tracer.py).
Every run's report is checked; see `check_run`.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}, where
attempted/failed count suite verdicts, so failed/attempted is the failed
ratio.  `--count` overrides the workload's point count (for smoke tests).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, ".work")

SETUP_SPAWNS = 5
# A child still running this long after the benchmark started is killed, so
# that the benchmark itself ends within 180 s even if the program hangs.
DEADLINE_S = 165
STARTED = time.monotonic()
# The plan seed sets the Halton start index (seed * count), and the digit
# loops grow with its size; folding the workload seed into a fixed band
# keeps the work per run independent of how large the seed is.
PLAN_SEED_BASE, PLAN_SEEDS = 100, 1000
SUITE_ORDER = ("identities", "kelvin", "counterexample", "semilinear", "nlaplace")
CSV_TAIL = ["lhs", "rhs", "abs_residual", "rel_residual", "flag"]
COUNTEREXAMPLE_ROWS = 64

E2E_UNITS = {"setup_s": "s", "run_s": "s", "rows_per_s": "rows/s",
             "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.self_s": "s",
    "verify.self_s": "s",
    **{f"verify.suite_s.{suite}": "s" for suite in SUITE_ORDER},
    "verify.pool_wait_s": "s",
    "verify.pool_busy_ratio": "ratio",
    "sampling.self_s": "s",
    "sampling.points_generated": "count",
    "sampling.plan_reuse_ratio": "ratio",
    "norms.self_s": "s",
    "norms.jet_calls": "count",
    "norms.value_calls": "count",
    "norms.newton_solves": "count",
    "norms.newton_iters_mean": "iterations",
    "norms.newton_iters_max": "iterations",
    "fields.self_s": "s",
    "fields.jet_calls": "count",
    "fields.eval_calls": "count",
    "kelvin.self_s": "s",
    "kelvin.map_calls": "count",
    "kelvin.jacobian_calls": "count",
    "kelvin.context_builds": "count",
    "operators.self_s": "s",
    "operators.numeric_jets": "count",
    "operators.field_points_per_jet": "points/jet",
    "operators.operator_calls": "count",
    "report.self_s": "s",
    "report.rows": "count",
    "report.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
}


def _spd_norm(seed: int) -> str:
    from finslerkelvin.verify import random_spd_matrix

    entries = random_spd_matrix(4, seed).entries.tolist()
    return "riemannian:" + json.dumps(entries, separators=(",", ":"))


@dataclass(frozen=True)
class Workload:
    suite: str
    count: int
    format: str
    threads: int | None
    dim: int
    norm: Callable[[int], str]
    rows: Callable[[int], dict[str, int]]  # expected rows per verdict suite
    skipped: tuple[str, ...] = ()

    def cli_args(self, seed: int, count: int, out: str) -> list[str]:
        args = [self.suite, "--norm", self.norm(seed), "--count", str(count),
                "--seed", str(PLAN_SEED_BASE + seed % PLAN_SEEDS),
                "--format", self.format]
        if self.threads is not None:
            args += ["--threads", str(self.threads)]
        return args + ["--out", out]


WORKLOADS = {
    "quadratic-all": Workload(
        "all", 1000, "json", None, 3, lambda seed: "euclidean:3",
        lambda c: {"identities": c, "kelvin": c,
                   "counterexample": COUNTEREXAMPLE_ROWS,
                   "semilinear": 2 * c, "nlaplace": 2 * c}),
    "quartic-dual": Workload(
        "all", 1000, "json", None, 2, lambda seed: "quartic",
        lambda c: {"identities": c, "kelvin": c,
                   "counterexample": COUNTEREXAMPLE_ROWS},
        skipped=("semilinear", "nlaplace")),
    "riemannian-bulk": Workload(
        "semilinear", 10000, "csv", 2, 4, _spd_norm,
        lambda c: {"semilinear": 2 * c}),
}


# ---------------------------------------------------------------------------
# one CLI run


@dataclass
class Run:
    exit_code: int | None  # None: crashed, timed out, or left no result
    setup_s: float | None
    run_s: float | None
    main_s: float | None  # spawn until cli.main returned
    peak_rss_mb: float | None
    stdout: str
    report: bytes | None


def spawn(cli_args: list[str], work_dir: str, tag: str, trace: str | None = None,
          setup_only: bool = False) -> Run:
    result_path = os.path.join(work_dir, tag + ".result.json")
    out = cli_args[cli_args.index("--out") + 1]
    for path in (result_path, out):
        if os.path.exists(path):
            os.remove(path)
    cmd = [sys.executable, CHILD, "--result", result_path]
    if trace is not None:
        cmd += ["--trace", trace]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--"] + cli_args, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, STARTED + DEADLINE_S - spawned))
    except subprocess.TimeoutExpired:
        print(f"run {tag}: killed at the {DEADLINE_S} s deadline", file=sys.stderr)
        return Run(None, None, None, None, None, "", None)
    try:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        sys.stderr.write(f"run {tag}: no result (exit {proc.returncode})\n"
                         f"{proc.stderr[-2000:]}")
        return Run(None, None, None, None, None, proc.stdout, None)
    report = None
    if os.path.exists(out):
        with open(out, "rb") as fh:
            report = fh.read()
    exit_code = result["exit_code"] if result["exit_code"] == proc.returncode else None
    return Run(exit_code, result["ready"] - spawned, result.get("run_s"),
               result["done"] - spawned, result["peak_rss_kb"] / 1024.0,
               proc.stdout, report)


# ---------------------------------------------------------------------------
# checks


def _status_lines(stdout: str) -> dict[str, str]:
    """Suite -> PASS/FAIL/SKIP from the `[STATUS] suite: ...` lines."""
    status = {}
    for line in stdout.splitlines():
        if line.startswith("[") and "] " in line and ":" in line:
            tag, rest = line[1:].split("] ", 1)
            status[rest.split(":", 1)[0]] = tag
    return status


def _check_json(text: str, expected: dict[str, int], skipped, status, problems):
    doc = json.loads(text)
    if doc.get("schema") != "report-v1":
        problems.append(f"schema {doc.get('schema')!r}")
    suites = {s["suite"]: s for s in doc["suites"]}
    names = [s["suite"] for s in doc["suites"]]
    want = [s for s in SUITE_ORDER if s in expected or s in skipped]
    if names != want:
        problems.append(f"suites {names} != {want}")
        return
    for name in skipped:
        if "skipped" not in suites[name]["details"] or suites[name]["rows"]:
            problems.append(f"{name} not reported as skipped")
    for name, count in expected.items():
        rep = suites[name]
        rows = rep["rows"]
        active = [r["rel_residual"] for r in rows if not r["flag"]]
        if len(rows) != count or rep["count"] != count:
            problems.append(f"{name}: {len(rows)} rows, expected {count}")
        # report-v1 aggregates are recomputed from the rows by definition
        if (rep["flagged"] != sum(r["flag"] for r in rows)
                or rep["max_rel_residual"] != max(active, default=0.0)
                or rep["mean_rel_residual"] != (math.fsum(active) / len(active)
                                                if active else 0.0)):
            problems.append(f"{name}: aggregates disagree with rows")
        if ("PASS" if rep["passed"] else "FAIL") != status.get(name):
            problems.append(f"{name}: report verdict disagrees with status line")
    if doc["passed"] != all(suites[n]["passed"] for n in expected):
        problems.append("document verdict disagrees with suites")


def _check_csv(text: str, expected: dict[str, int], dim: int, problems):
    lines = text.splitlines()
    header = [f"x{i}" for i in range(dim)] + CSV_TAIL
    if not lines or lines[0].split(",") != header:
        problems.append("csv header")
        return
    rows = lines[1:]
    if len(rows) != sum(expected.values()):
        problems.append(f"{len(rows)} csv rows, expected {sum(expected.values())}")
    for row in rows:
        cells = row.split(",")
        if len(cells) != len(header) or cells[-1] not in ("0", "1"):
            problems.append(f"malformed csv row {row!r}")
            return
        lhs, rhs, absr, rel = (float(c) for c in cells[dim:dim + 4])
        # every theorem row is built by report.residual_rows
        if absr != abs(lhs - rhs) or rel != absr / max(abs(lhs), abs(rhs), 1.0):
            problems.append(f"residual arithmetic in csv row {row!r}")
            return


def check_run(work: Workload, count: int, run: Run,
              reference: bytes | None) -> tuple[int, int, list[str]]:
    """(verdicts attempted, verdicts failed, integrity problems) of one run.

    A verdict fails when the suite reports FAIL, or when the whole run is
    broken: a crash, an exit code other than 0 or 1, a report that does not
    parse with the expected suites and rows, or report bytes that differ
    from the first run of this benchmark invocation (report-v1 promises
    byte-identical reports for identical configurations).
    """
    expected = work.rows(count)
    attempted = len(expected)
    problems: list[str] = []
    if run.exit_code not in (0, 1):
        problems.append(f"crash or exit code {run.exit_code}")
    elif run.report is None:
        problems.append("no report written")
    else:
        status = _status_lines(run.stdout)
        if (set(status) != set(expected) | set(work.skipped)
                or any(status[n] not in ("PASS", "FAIL") for n in expected)
                or any(status[n] != "SKIP" for n in work.skipped)):
            problems.append(f"status lines {status}")
        try:
            text = run.report.decode("ascii")
            if work.format == "json":
                _check_json(text, expected, work.skipped, status, problems)
            else:
                _check_csv(text, expected, work.dim, problems)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"report does not parse: {exc!r}")
        if reference is not None and run.report != reference:
            problems.append("report bytes differ from the first run")
        if (run.exit_code == 0) != all(status.get(n) == "PASS" for n in expected):
            problems.append("exit code disagrees with the verdicts")
    if problems:
        return attempted, attempted, problems
    return attempted, sum(status[n] == "FAIL" for n in expected), problems


# ---------------------------------------------------------------------------
# measurement loops


def _summary(name: str, values: list[float], unit: str) -> str:
    """Median, quartiles and the highest percentile with ten samples beyond."""
    ordered = sorted(values)
    n = len(ordered)
    line = f"  {name}: median {statistics.median(ordered):.6g} {unit}, n={n}"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        line += f", quartiles {q1:.6g}..{q3:.6g}"
    if n > 10:
        line += f", p{100.0 * (n - 10) / n:.0f} {ordered[n - 11]:.6g}"
    else:
        line += ", no percentile has ten samples beyond it"
    return line


class Tally:
    def __init__(self, work: Workload, count: int):
        self.work, self.count = work, count
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.reference: bytes | None = None

    def check(self, run: Run, tag: str) -> None:
        attempted, failed, problems = check_run(self.work, self.count, run,
                                                self.reference)
        if self.reference is None and not problems:
            self.reference = run.report
        self.attempted += attempted
        self.failed += failed
        self.problems += [f"{tag}: {p}" for p in problems]


def _rows(work: Workload, count: int) -> int:
    return sum(work.rows(count).values())


def measure_end_to_end(work: Workload, cli_args, count: int, seconds: float,
                       work_dir: str, tally: Tally) -> dict[str, list[float]]:
    begin = time.monotonic()
    samples: dict[str, list[float]] = {name: [] for name in E2E_UNITS}
    for i in range(SETUP_SPAWNS):
        run = spawn(cli_args, work_dir, f"setup{i}", setup_only=True)
        if run.exit_code == 0:
            samples["setup_s"].append(run.setup_s)
    i = 0
    while True:
        started = time.monotonic()
        run = spawn(cli_args, work_dir, f"run{i}")
        tally.check(run, f"run {i}")
        if run.run_s is not None:
            samples["setup_s"].append(run.setup_s)
            samples["run_s"].append(run.run_s)
            samples["rows_per_s"].append(_rows(work, count) / run.run_s)
            samples["peak_rss_mb"].append(run.peak_rss_mb)
        i += 1
        now = time.monotonic()
        if now - begin + (now - started) > seconds:
            return samples


def measure_layers(work: Workload, cli_args, count: int, seconds: float,
                   work_dir: str, tally: Tally) -> dict[str, list[float]]:
    begin = time.monotonic()
    samples: dict[str, list[float]] = {name: [] for name in LAYER_UNITS}
    traced_args = list(cli_args)
    traced_args[traced_args.index("--out") + 1] += ".traced"
    i = 0
    while True:
        started = time.monotonic()
        plain = spawn(cli_args, work_dir, f"plain{i}")
        spans = os.path.join(work_dir, f"spans{i}.npz")
        traced = spawn(traced_args, work_dir, f"traced{i}", trace=spans)
        tally.check(plain, f"untraced run {i}")
        tally.check(traced, f"traced run {i}")
        if plain.report != traced.report:
            tally.problems.append(f"pair {i}: traced report differs from untraced")
        if plain.run_s is not None and traced.run_s is not None:
            layers = tracer.layer_metrics(spans, traced.main_s)
            layers["report.rows"] = float(_rows(work, count))
            layers["trace.overhead_ratio"] = traced.run_s / plain.run_s
            for name in LAYER_UNITS:
                samples[name].append(layers[name])
        if os.path.exists(spans):
            os.remove(spans)
        i += 1
        now = time.monotonic()
        if now - begin + (now - started) > seconds:
            return samples


# ---------------------------------------------------------------------------


def environment() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                           "MKL_NUM_THREADS")}
    return (f"env: python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {os.cpu_count()}, cpu {cpu}, blas threads {blas}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--count", type=int, help="override the point count")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "finslerkelvin", "cli.py")):
        print(f"error: no finslerkelvin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work = WORKLOADS[args.workload]
    count = args.count or work.count
    os.makedirs(WORK, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK)
    try:
        cli_args = work.cli_args(args.seed, count, os.path.join(work_dir, "report"))
        tally = Tally(work, count)
        print(environment())
        print(f"workload {args.workload}: finsler-kelvin {' '.join(cli_args[:-2])}")
        measure = measure_layers if args.trace else measure_end_to_end
        samples = measure(work, cli_args, count, args.seconds, work_dir, tally)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in tally.problems:
        print(f"problem: {problem}")
    print(f"  suite verdicts: {tally.failed} failed of {tally.attempted} attempted")
    units = LAYER_UNITS if args.trace else E2E_UNITS
    if not all(samples[name] for name in units):
        print("error: no run produced a usable measurement", file=sys.stderr)
        return 1
    metrics = {}
    for name, unit in units.items():
        print(_summary(name, samples[name], unit))
        metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    print(json.dumps({"correct": not tally.problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
