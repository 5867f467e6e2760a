"""Command-line front end: configure a norm and a sample plan, run suites.

Subcommands select the suite (`identities`, `kelvin`, `counterexample`,
`semilinear`, `nlaplace`, `all`); flags override values from an optional
`key = value` config file.  Reports embed the fully resolved configuration
and the tool version, and identical configurations produce byte-identical
JSON artifacts.  `--threads` (config key `threads`) is still accepted and
validated but has no effect: every suite runs on one thread.

One `[PASS]`, `[FAIL]` or `[SKIP]` status line per suite goes to stdout
when the report is written to a file (`--out`), and to stderr when the
report itself goes to stdout, so that stdout then holds nothing but the
report and parses as JSON or CSV.

Exit codes: 0 all suites pass, 1 verification failure, 2 usage or
configuration error (including a configuration the suites cannot evaluate),
3 I/O error.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

from . import __version__ as VERSION
from .norms import ConvergenceError, NormSpec, parse_norm
from .report import REPORT_SCHEMA, ResidualReport, render_csv, render_json, render_table
from .verify import (
    _WEAK_FORM_MAX_DIM,
    SamplePlan,
    run_counterexample_scan,
    run_identity_suite,
    run_kelvin_suite,
    run_nlaplace_suite,
    run_semilinear_suite,
)

# suite -> runner(spec, plan), in `all` order.  Runners look suites up by name
# when called, so a wrapper rebound over the name (a profiler's) sees the call.
_RUNNERS = {
    "identities": lambda spec, plan: run_identity_suite(spec, plan),
    "kelvin": lambda spec, plan: run_kelvin_suite(spec, plan),
    "counterexample": lambda spec, plan: run_counterexample_scan(spec),
    "semilinear": lambda spec, plan: run_semilinear_suite(spec, plan),
    "nlaplace": lambda spec, plan: run_nlaplace_suite(spec, plan),
}
SUITES = (*_RUNNERS, "all")
FORMATS = ("json", "csv", "table")

EXIT_PASS = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration."""

    norm: str = "euclidean:3"
    suite: str = "all"
    annulus: tuple[float, float] = (0.5, 2.0)
    count: int = 100
    seed: int = 0
    out: str | None = None
    format: str = "json"
    threads: int = 1

    def spec(self) -> NormSpec:
        return parse_norm(self.norm)

    def plan(self) -> SamplePlan:
        return SamplePlan(annulus=self.annulus, count=self.count, seed=self.seed)

    def to_dict(self) -> dict:
        # `out` and `threads` can never change a reported number, so they
        # stay out of the embedded config.
        d = asdict(self)
        del d["out"], d["threads"]
        d["annulus"] = list(self.annulus)
        return {"norm": d.pop("norm"), "dim": self.spec().dim, **d}


def _parse_annulus(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'h_min,h_max', got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not (0.0 < lo < hi < float("inf")):
        raise ValueError(
            f"bounds must be finite with 0 < h_min < h_max, got {text!r}")
    return lo, hi


# Config key -> converter from flag or config-file text: the RunConfig
# fields, plus `dim`, a cross-check against the norm.
_CONVERTERS = {**{f.name: str for f in fields(RunConfig)},
               "annulus": _parse_annulus, "count": int, "seed": int,
               "threads": int, "out": lambda text: text or None, "dim": int}


def _convert(key: str, text: str):
    """`text` as the value of config key `key`; a bad value names the key."""
    try:
        return _CONVERTERS[key](text)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _refusal(suite: str, spec: NormSpec) -> str | None:
    """Why `suite` cannot run on `spec`, or None: the transform theorems
    need a quadratic-form norm, the quasilinear one also N >= 3, and the
    semilinear weak-form quadrature a product rule small enough to build."""
    if suite in ("semilinear", "nlaplace") and spec.matrix is None:
        return "theorem suites need a quadratic-form norm"
    if suite == "nlaplace" and spec.dim < 3:
        return "needs dimension >= 3"
    if suite == "semilinear" and spec.dim > _WEAK_FORM_MAX_DIM:
        return (f"needs dimension <= {_WEAK_FORM_MAX_DIM}: its weak-form "
                f"quadrature rule has 108,864 nodes per box at N = 6 and "
                f"653,184 at N = 7")
    return None


def _validate(config: RunConfig, dim_override: int | None) -> RunConfig:
    spec = config.spec()  # raises on malformed / non-SPD norms
    if dim_override is not None and dim_override != spec.dim:
        raise ValueError(f"dim={dim_override} conflicts with norm dimension {spec.dim}")
    if config.suite not in SUITES:
        raise ValueError(f"unknown suite {config.suite!r}; choose from {SUITES}")
    if config.format not in FORMATS:
        raise ValueError(f"unknown format {config.format!r}; choose from {FORMATS}")
    if config.threads < 1:
        raise ValueError("threads must be >= 1")
    reason = _refusal(config.suite, spec)
    if reason is not None:
        raise ValueError(f"{config.suite}: {reason}")
    return config


def parse_config(text: str) -> RunConfig:
    """Parse the config format: a line holds one `key = value` pair or several
    whitespace-separated `key=value` tokens, and `#` starts a comment.

    Unknown keys are errors.  The result is validated exactly like
    command-line flags.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) > 1 and all("=" in t for t in tokens):
            pairs = tokens
        elif "=" in line:
            pairs = [line]
        else:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        for pair in pairs:
            key, _, val = pair.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _CONVERTERS:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            try:
                values[key] = _convert(key, val)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    dim = values.pop("dim", None)
    return _validate(RunConfig(**values), dim)


def _skip_report(suite: str, reason: str) -> ResidualReport:
    return ResidualReport(suite=suite, tolerance=0.0, details={"skipped": reason})


def _status_line(rep: ResidualReport) -> str:
    """A suite's `[PASS]`/`[FAIL]`/`[SKIP]` line: a floor gate at the tolerance
    (the scan's spread) or else the worst residual, then each failing gate."""
    if "skipped" in rep.details:
        return f"[SKIP] {rep.suite}: {rep.details['skipped']}"
    floor = [g for g in rep.gates if g.sense == ">=" and g.bound == rep.tolerance]
    line = f"{rep.suite}: " + (
        f"{floor[0].name} {floor[0].value:.3e} (floor {rep.tolerance:g})" if floor else
        f"worst residual {rep.max_rel_residual():.3e} (tolerance {rep.tolerance:.0e})")
    fails = [f"{g.name} {g.value:.3e} {'<' if g.sense == '>=' else '>'} {g.bound:g}"
             for g in rep.gates if not g.ok]
    return f"[FAIL] {line} - failed: {', '.join(fails)}" if fails else f"[PASS] {line}"


def _write(stream, text: str) -> None:
    """Write and flush `text`.  On OSError (a closed pipe or descriptor; one
    closed before start-up leaves the stream None) point the descriptor at
    the null device, so that the interpreter's last flush cannot fail again,
    and raise."""
    try:
        if stream is None:
            raise OSError(errno.EBADF, "stream closed at start-up")
        stream.write(text)
        stream.flush()
    except OSError:
        try:
            fd, null = stream.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        except (AttributeError, OSError):  # no descriptor, nothing to flush
            pass
        raise


def _error(message: str) -> None:
    """`error: message` on stderr, unless stderr itself cannot be written."""
    try:
        _write(sys.stderr, f"error: {message}\n")
    except OSError:
        pass


def run(config: RunConfig) -> int:
    """Execute the configured suite(s), print summaries, write the report."""
    spec, plan = config.spec(), config.plan()
    every = config.suite == "all"
    reports: list[ResidualReport] = []
    for name in _RUNNERS if every else (config.suite,):
        reason = _refusal(name, spec)
        if reason is not None:
            reports.append(_skip_report(name, reason))
            continue
        try:
            # in `all` the scan keeps its default, the quartic norm;
            # selecting the suite explicitly runs the configured norm
            reports.append(run_counterexample_scan()
                           if every and name == "counterexample"
                           else _RUNNERS[name](spec, plan))
        except (ValueError, ConvergenceError) as exc:
            exc.args = (f"{name}: {exc}",)  # name the suite that met the input
            raise
        except MemoryError as exc:
            # numpy's message ignores a rewritten `args`: wrap it instead
            raise MemoryError(f"{name}: {exc}") from exc

    # stdout carries the report itself when there is no --out
    status_out = sys.stdout if config.out is not None else sys.stderr
    try:
        _write(status_out, "".join(_status_line(rep) + "\n" for rep in reports))
    except OSError as exc:
        _error(f"cannot write status lines: {exc}")
        return EXIT_IO

    passed = all(r.passed for r in reports)
    if config.format == "json":
        text = render_json({
            "schema": REPORT_SCHEMA,
            "version": f"finslerkelvin {VERSION}",
            "config": config.to_dict(),
            "passed": passed,
            "suites": [r.to_dict() for r in reports],
        })
    elif config.format == "csv":
        text = render_csv(reports, spec.dim)
    else:
        text = render_table(reports)

    try:
        if config.out is None:
            _write(sys.stdout, text)
        else:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        _error(f"cannot write report: {exc}")
        return EXIT_IO
    return EXIT_PASS if passed else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finsler-kelvin",
        description="Verification suites for the anisotropic inversion-map "
                    "calculus.",
    )
    parser.add_argument("--version", action="version",
                        version=f"finslerkelvin {VERSION}")
    parser.add_argument("--config", metavar="FILE",
                        help="key = value config file; flags override it")
    parser.add_argument("--norm", help="riemannian:[[...]] | euclidean:N | quartic")
    parser.add_argument("--dim", help="dimension cross-check against the norm")
    parser.add_argument("--seed", help="sample-plan seed")
    parser.add_argument("--count", help="sample-plan point count")
    parser.add_argument("--annulus", metavar="H_MIN,H_MAX",
                        help="sampling annulus in norm units")
    parser.add_argument("--out", metavar="PATH", help="report path (default stdout)")
    parser.add_argument("--format", choices=FORMATS,
                        help="report format")
    parser.add_argument("--threads", metavar="K",
                        help="accepted for compatibility; has no effect")
    parser.add_argument("suite", nargs="?", choices=list(SUITES),
                        help="suite to run (default: config file or 'all')")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)

    try:
        if args.config is not None:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                _error(f"cannot read config: {exc}")
                return EXIT_IO
            config = parse_config(text)
        else:
            config = RunConfig()
        flags = vars(args)
        overrides = {key: _convert(key, flags[key]) for key in _CONVERTERS
                     if flags[key] is not None}
        dim = overrides.pop("dim", None)
        config = _validate(replace(config, **overrides), dim)
    except (ValueError, TypeError) as exc:
        _error(str(exc))
        return EXIT_CONFIG

    try:
        return run(config)
    except (ValueError, ConvergenceError, MemoryError) as exc:
        # a valid configuration the suites cannot evaluate (say, a stencil
        # that would reach the origin, or too many points to allocate) is
        # not a verification failure
        _error(str(exc))
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
