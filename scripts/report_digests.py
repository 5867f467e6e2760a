#!/usr/bin/env python3
"""Print the SHA-256 of the report bytes of eleven fixed CLI configurations.

A refactor that must not change any reported number runs this before and
after the change and compares the two listings line by line.  Every
configuration runs in-process through ``finslerkelvin.cli.main`` and writes
its report with ``--out``; the status lines the CLI prints are discarded.
A run that ends without a report (exit 2 or 3, with the CLI's ``error:``
line on stderr) prints ``no report`` in place of the digest.

The configurations are the three benchmark workloads at plan seed 100
(``perfbench/run.py`` at workload seed 0), ``all --count 200`` on two
Euclidean and two seed-pinned Riemannian norms and on the quartic norm (a
second plan through the Newton dual), one table render, one CSV render
of ``all`` (several row blocks, with the planar counterexample rows padded
to three point columns), and ``all --norm euclidean:8 --count 50``, the one
configuration whose rows reach ``norms.row_sum``'s pairwise sum from 8
columns (it exits 1: ``nlaplace``'s affine family FAILs from N = 7).

``--bench-seeds A-B`` lists the three benchmark workloads at each workload
seed A..B instead, at their own point counts or at ``--count K``.  Their
arguments are ``perfbench/run.py``'s own ``WORKLOADS[name].cli_args``, so
the seed mapping (plan seed 100 + seed % 1000, and the Riemannian matrix
``random_spd_matrix(4, seed)`` of ``riemannian-bulk``) is the benchmark's.

Usage (from the repository root; the package is imported from ``src/``):

    python3 scripts/report_digests.py [--bench-seeds A-B [--count K]]
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "perfbench"))  # run.py imports its sibling tracer

from finslerkelvin import cli  # noqa: E402
from finslerkelvin.verify import random_spd_matrix  # noqa: E402


def _perfbench_run():
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  ROOT / "perfbench" / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _perfbench_run().WORKLOADS


def _riemannian(dim: int, seed: int) -> str:
    entries = random_spd_matrix(dim, seed).entries.tolist()
    return "riemannian:" + json.dumps(entries, separators=(",", ":"))


def _bench_argv(name: str, seed: int, count: int | None = None) -> list[str]:
    """The CLI arguments of benchmark workload `name` at workload `seed`:
    ``cli_args`` without its closing ``--out PATH``, which ``digest`` adds."""
    work = WORKLOADS[name]
    return work.cli_args(seed, count or work.count, "")[:-2]


def bench_configurations(first: int, last: int,
                         count: int | None = None) -> list[tuple[str, list[str]]]:
    """(name, argv) of every benchmark workload at workload seeds first..last."""
    return [(f"{name} seed {seed}", _bench_argv(name, seed, count))
            for seed in range(first, last + 1) for name in WORKLOADS]


def configurations() -> list[tuple[str, list[str]]]:
    configs = [(name, _bench_argv(name, 0)) for name in WORKLOADS]
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
    configs.append(("all euclidean:8 --count 50",
                    ["all", "--norm", "euclidean:8", "--count", "50"]))
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


def _seed_range(text: str) -> tuple[int, int]:
    first, sep, last = text.partition("-")
    if not (sep and first.isdigit() and last.isdigit()) or int(first) > int(last):
        raise argparse.ArgumentTypeError(f"expected A-B with 0 <= A <= B, got {text!r}")
    return int(first), int(last)


def main(argv=()) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bench-seeds", type=_seed_range, metavar="A-B",
                        help="list the benchmark workloads at workload seeds A..B")
    parser.add_argument("--count", type=int, metavar="K",
                        help="point count of the --bench-seeds runs")
    args = parser.parse_args(argv)
    if args.count is not None and (args.bench_seeds is None or args.count < 1):
        parser.error("--count needs --bench-seeds and must be at least 1")
    configs = (configurations() if args.bench_seeds is None
               else bench_configurations(*args.bench_seeds, args.count))
    for name, argv in configs:
        sha, code = digest(argv)
        print(f"{sha or 'no report'}  {name} (exit {code})", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
