"""scripts/paired_timing.py with the repository on both sides."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "paired_timing.py"


def check_two_rounds(flags: list[str], config_line: str) -> None:
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), str(ROOT),
         "--config", "all euclidean:3 --count 100 --format table",
         "--rounds", "2", *flags],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    number = r"\d+\.\d+"
    patterns = [
        config_line,
        rf"base   median {number} s",
        rf"change median {number} s",
        rf"ratio change/base median {number} \(quartiles {number}-{number}\)",
        r"faster in [012]/2",
    ]
    lines = out.stdout.splitlines()
    assert len(lines) == len(patterns)
    for line, pattern in zip(lines, patterns):
        assert re.fullmatch(pattern, line), line


def test_two_rounds_print_the_medians_the_ratio_and_the_count():
    check_two_rounds([], r"config all euclidean:3 --count 100 --format table, 2 rounds")


def test_fresh_rounds_print_the_same_summary():
    check_two_rounds(["--fresh"], r"config all euclidean:3 --count 100 "
                                  r"--format table, 2 rounds, fresh interpreters")


def test_a_fresh_call_without_a_verdict_is_an_error():
    # exit 2 (an unknown norm) is refused, not timed
    spec = importlib.util.spec_from_file_location("paired_timing", SCRIPT)
    paired_timing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(paired_timing)
    worker = paired_timing.FreshWorker(str(ROOT))
    with pytest.raises(RuntimeError, match="the CLI exited 2"):
        worker.run(["kelvin", "--norm", "nonsense:3", "--count", "10"])
