#!/usr/bin/env python3
"""Print the SHA-256 of the report bytes of ten fixed CLI configurations.

A refactor that must not change any reported number runs this before and
after the change and compares the two listings line by line.  Every
configuration runs in-process through ``finslerkelvin.cli.main`` and writes
its report with ``--out``; the status lines the CLI prints are discarded.
A run that ends without a report (exit 2 or 3, with the CLI's ``error:``
line on stderr) prints ``no report`` in place of the digest.

The configurations are the three benchmark workloads at plan seed 100
(``perfbench/run.py`` at workload seed 0), ``all --count 200`` on two
Euclidean and two seed-pinned Riemannian norms and on the quartic norm (a
second plan through the Newton dual), one table render, and one CSV render
of ``all`` (several row blocks, with the planar counterexample rows padded
to three point columns).

Usage (from the repository root; the package is imported from ``src/``):

    python3 scripts/report_digests.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from finslerkelvin import cli  # noqa: E402
from finslerkelvin.verify import random_spd_matrix  # noqa: E402


def _riemannian(dim: int, seed: int) -> str:
    entries = random_spd_matrix(dim, seed).entries.tolist()
    return "riemannian:" + json.dumps(entries, separators=(",", ":"))


def configurations() -> list[tuple[str, list[str]]]:
    plan = ["--seed", "100"]
    configs = [
        ("quadratic-all", ["all", "--norm", "euclidean:3", "--count", "1000",
                           "--format", "json"] + plan),
        ("quartic-dual", ["all", "--norm", "quartic", "--count", "1000",
                          "--format", "json"] + plan),
        ("riemannian-bulk", ["semilinear", "--norm", _riemannian(4, 0),
                             "--count", "10000", "--format", "csv",
                             "--threads", "2"] + plan),
    ]
    for name, norm in (("euclidean:2", "euclidean:2"),
                       ("euclidean:4", "euclidean:4"),
                       ("random_spd_matrix(3,5)", _riemannian(3, 5)),
                       ("random_spd_matrix(2,7)", _riemannian(2, 7)),
                       ("quartic", "quartic")):
        configs.append((f"all {name} --count 200",
                        ["all", "--norm", norm, "--count", "200"]))
    configs.append(("all euclidean:3 --count 100 --format table",
                    ["all", "--norm", "euclidean:3", "--count", "100",
                     "--format", "table"]))
    configs.append(("all euclidean:3 --count 200 --format csv",
                    ["all", "--norm", "euclidean:3", "--count", "200",
                     "--format", "csv"]))
    return configs


def digest(argv: list[str]) -> tuple[str | None, int]:
    """SHA-256 of the report bytes and the exit code of one CLI run; the
    digest is None when the run wrote no report (exit 2 or 3)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", out])
        if not os.path.exists(out):
            return None, code
        with open(out, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest(), code


def main() -> None:
    for name, argv in configurations():
        sha, code = digest(argv)
        print(f"{sha or 'no report'}  {name} (exit {code})", flush=True)


if __name__ == "__main__":
    main()
