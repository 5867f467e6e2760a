"""Smoke test of the suite-run benchmark itself.

Runs every workload at a tiny point count, with the tracer off and on, and
checks that the result line carries every metric that BENCHMARK.json
declares, with its declared unit, and that all suite verdicts passed.

    python3 perfbench/smoke_test.py        # or: python3 -m pytest perfbench/smoke_test.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY_COUNT = 8


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _result(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--count", str(TINY_COUNT)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_is_reported_with_its_unit():
    declared = _declared()
    for workload in (w["name"] for w in declared["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = _result(workload, trace)
            where = f"{workload} --trace {trace}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            assert result["correct"] is True, where
            assert result["attempted"] >= 1 and result["failed"] == 0, where
            units = {m["name"]: m["unit"] for m in declared[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == units, f"{where}: {got} != {units}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), f"{where}: {name}"


def test_refuses_to_run_without_sources():
    """Outside a checkout (no src/) the benchmark exits non-zero, silently."""
    with tempfile.TemporaryDirectory() as scratch:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "quadratic-all",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=170)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    test_every_metric_is_reported_with_its_unit()
    test_refuses_to_run_without_sources()
    print("smoke test passed")
