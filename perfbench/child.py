"""One `finsler-kelvin` invocation in a fresh interpreter, timed from inside.

Usage:
    python3 perfbench/child.py --result PATH [--trace PATH] [--setup-only] \
        -- CLI-ARGS...

Imports the package from `src/` of the checkout this file sits in, hooks
`cli.run` (the point where `cli.main` has parsed its arguments and the norm
and is ready to dispatch), runs `cli.main(CLI-ARGS)`, and writes a JSON
result to PATH:

    {"exit_code": int, "ready": monotonic seconds at dispatch,
     "run_s": wall seconds of cli.run, "done": monotonic seconds when
     cli.main returned, "peak_rss_kb": int}

`--setup-only` returns at dispatch without running any suite.  `--trace`
installs the span tracer before `cli.main` starts and dumps the spans to
the given path when the run ends.  The process exits with the CLI's code;
a crash leaves no result file.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    result_path = opts[opts.index("--result") + 1]
    trace_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    setup_only = "--setup-only" in opts

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from finslerkelvin import cli

    tracer = None
    if trace_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    marks = {}
    dispatch = cli.run

    def timed_run(config):
        marks["ready"] = time.monotonic()
        if setup_only:
            return cli.EXIT_PASS
        start = time.perf_counter()
        code = dispatch(config)
        marks["run_s"] = time.perf_counter() - start
        return code

    cli.run = timed_run
    code = cli.main(cli_args)
    marks["done"] = time.monotonic()
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(trace_path)
    result = dict(marks, exit_code=code,
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
