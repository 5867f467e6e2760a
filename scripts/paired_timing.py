#!/usr/bin/env python3
"""Time one CLI configuration on two checkouts in alternating pairs.

One long-lived worker interpreter per checkout imports that checkout's
``src/`` once and then runs ``finslerkelvin.cli.main`` in-process on
request, writing the report with ``--out`` to a temporary file.  Each round
runs the configuration once on each side, back to back, and the side that
goes first alternates from round to round.  Both workers run one warm-up
call first, which is not counted.

With ``--fresh`` every call runs in a new interpreter instead, timed around
``cli.run`` as ``perfbench/child.py`` times it, so that one-time costs (a
table built on first use, the first call of a numpy loop) are counted as
the benchmark counts them; a warm worker pays them once and hides them.

The paired ratio change/base of one round cancels the drift that two runs
minutes apart share (load from other processes, CPU frequency), which
unpaired medians do not.  The script prints each side's median wall time,
the median and quartiles of the paired ratios, and in how many rounds the
change was faster.

The configuration is one entry of ``scripts/report_digests.py``'s
``configurations()``, picked by name (default ``riemannian-bulk``).

Usage (from the repository root):

    python3 scripts/paired_timing.py BASE CHANGE [--config NAME] [--rounds N]
                                     [--fresh]

BASE and CHANGE are checkout roots, e.g. a ``git archive`` of the parent
commit and ``.``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from report_digests import configurations  # noqa: E402

# Reads one JSON argv per line, answers one JSON {"seconds", "exit"} per line.
WORKER = r"""
import contextlib, io, json, os, sys, tempfile, time
sys.path.insert(0, os.path.join(sys.argv[1], "src"))
from finslerkelvin import cli
answer = sys.stdout
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "report")
    for line in sys.stdin:
        argv = json.loads(line) + ["--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - start
        answer.write(json.dumps({"seconds": seconds, "exit": code}) + "\n")
        answer.flush()
"""


# Runs the JSON argv in argv[2] once and answers the same JSON line, with
# the seconds of cli.run alone, as perfbench/child.py measures them.
FRESH = r"""
import contextlib, io, json, os, sys, tempfile, time
sys.path.insert(0, os.path.join(sys.argv[1], "src"))
from finslerkelvin import cli
dispatch, seconds = cli.run, []
def timed(config):
    start = time.perf_counter()
    code = dispatch(config)
    seconds.append(time.perf_counter() - start)
    return code
cli.run = timed
answer = sys.stdout
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[2]) + ["--out", os.path.join(tmp, "report")])
answer.write(json.dumps({"seconds": sum(seconds), "exit": code}) + "\n")
"""
ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")


def _seconds(root: str, line: str) -> float:
    """The seconds of one answer line, refusing a run that did not end in a
    verdict."""
    result = json.loads(line)
    if result["exit"] not in (0, 1):
        raise RuntimeError(f"{root}: the CLI exited {result['exit']}")
    return result["seconds"]


class Worker:
    """One interpreter importing the package of one checkout."""

    def __init__(self, root: str):
        self.root = root
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER, os.path.abspath(root)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=ENV)

    def run(self, argv: list[str]) -> float:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the worker for {self.root} ended "
                               f"(exit {self.proc.wait()})")
        return _seconds(self.root, line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class FreshWorker:
    """A new interpreter per call, importing the package of one checkout."""

    def __init__(self, root: str):
        self.root = root

    def run(self, argv: list[str]) -> float:
        proc = subprocess.run(
            [sys.executable, "-c", FRESH, os.path.abspath(self.root), json.dumps(argv)],
            stdout=subprocess.PIPE, text=True, env=ENV)
        if not proc.stdout:
            raise RuntimeError(f"the interpreter for {self.root} ended "
                               f"(exit {proc.returncode})")
        return _seconds(self.root, proc.stdout)

    def close(self) -> None:
        pass


def paired_rounds(base: Worker, change: Worker, argv: list[str],
                  rounds: int) -> tuple[list[float], list[float]]:
    """Wall times of `rounds` alternating pairs, after one warm-up each."""
    base.run(argv)
    change.run(argv)
    times = {base: [], change: []}
    for k in range(rounds):
        for worker in ((base, change) if k % 2 == 0 else (change, base)):
            times[worker].append(worker.run(argv))
    return times[base], times[change]


def summary(base: list[float], change: list[float]) -> list[str]:
    ratios = [c / b for b, c in zip(base, change)]
    q1, med, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    faster = sum(r < 1.0 for r in ratios)
    return [f"base   median {statistics.median(base):.4f} s",
            f"change median {statistics.median(change):.4f} s",
            f"ratio change/base median {med:.3f} (quartiles {q1:.3f}-{q3:.3f})",
            f"faster in {faster}/{len(ratios)}"]


def main(argv=None) -> int:
    configs = dict(configurations())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="root of the base checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--config", default="riemannian-bulk", choices=configs,
                        metavar="NAME",
                        help="a report_digests.py configuration name")
    parser.add_argument("--rounds", type=int, default=20,
                        help="alternating pairs to time (at least 2)")
    parser.add_argument("--fresh", action="store_true",
                        help="run every call in a new interpreter")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    workers = []
    try:
        for root in (args.base, args.change):
            workers.append((FreshWorker if args.fresh else Worker)(root))
        base, change = paired_rounds(*workers, configs[args.config], args.rounds)
    except (RuntimeError, BrokenPipeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        for worker in workers:
            worker.close()
    print(f"config {args.config}, {args.rounds} rounds"
          + (", fresh interpreters" if args.fresh else ""))
    print("\n".join(summary(base, change)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
