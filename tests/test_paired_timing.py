"""scripts/paired_timing.py with the repository on both sides."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "paired_timing.py"


def test_two_rounds_print_the_medians_the_ratio_and_the_count():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), str(ROOT),
         "--config", "all euclidean:3 --count 100 --format table",
         "--rounds", "2"],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    number = r"\d+\.\d+"
    patterns = [
        r"config all euclidean:3 --count 100 --format table, 2 rounds",
        rf"base   median {number} s",
        rf"change median {number} s",
        rf"ratio change/base median {number} \(quartiles {number}-{number}\)",
        r"faster in [012]/2",
    ]
    lines = out.stdout.splitlines()
    assert len(lines) == len(patterns)
    for line, pattern in zip(lines, patterns):
        assert re.fullmatch(pattern, line), line
