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
import sys
from dataclasses import dataclass, replace

from .norms import ConvergenceError, NormSpec, parse_norm
from .report import REPORT_SCHEMA, ResidualReport, render_csv, render_json, render_table
from .sampling import MAX_DIM
from .verify import (
    SamplePlan,
    run_counterexample_scan,
    run_identity_suite,
    run_kelvin_suite,
    run_nlaplace_suite,
    run_semilinear_suite,
)

try:
    from importlib.metadata import version as _pkg_version

    VERSION = _pkg_version("finslerkelvin")
except Exception:  # pragma: no cover - editable/dev fallback
    VERSION = "0.1.0"

SUITES = ("identities", "kelvin", "counterexample", "semilinear", "nlaplace", "all")
FORMATS = ("json", "csv", "table")

EXIT_PASS = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration; serializes losslessly."""

    norm: str = "euclidean:3"
    suite: str = "all"
    annulus: tuple[float, float] = (0.5, 2.0)
    count: int = 100
    seed: int = 0
    out: str | None = None
    format: str = "json"
    threads: int = 1

    @property
    def dim(self) -> int:
        return self.spec().dim

    def spec(self) -> NormSpec:
        return parse_norm(self.norm)

    def plan(self) -> SamplePlan:
        return SamplePlan(annulus=self.annulus, count=self.count, seed=self.seed)

    def to_dict(self) -> dict:
        # `out` and `threads` can never change a reported number, so they
        # stay out of the embedded config.
        return {
            "norm": self.norm,
            "dim": self.dim,
            "suite": self.suite,
            "annulus": list(self.annulus),
            "count": self.count,
            "seed": self.seed,
            "format": self.format,
        }


_CONFIG_KEYS = ("norm", "dim", "suite", "annulus", "count", "seed", "out",
                "format", "threads")


def _parse_annulus(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"annulus must be 'h_min,h_max', got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not (0.0 < lo < hi < float("inf")):
        raise ValueError(
            f"annulus bounds must be finite with 0 < h_min < h_max, got {text!r}")
    return lo, hi


def _validate(config: RunConfig, dim_override: int | None) -> RunConfig:
    spec = config.spec()  # raises on malformed / non-SPD norms
    if dim_override is not None and dim_override != spec.dim:
        raise ValueError(
            f"dim={dim_override} conflicts with norm dimension {spec.dim}"
        )
    aliases = {"theorem-semilinear": "semilinear", "theorem-nlaplace": "nlaplace"}
    if config.suite in aliases:
        config = replace(config, suite=aliases[config.suite])
    if config.suite not in SUITES:
        raise ValueError(f"unknown suite {config.suite!r}; choose from {SUITES}")
    if config.format == "pretty-table":
        config = replace(config, format="table")
    if config.format not in FORMATS:
        raise ValueError(f"unknown format {config.format!r}; choose from {FORMATS}")
    if config.threads < 1:
        raise ValueError("threads must be >= 1")
    if spec.dim >= MAX_DIM:
        # the sample plan draws dim + 1 Halton coordinates
        raise ValueError(f"dimension {spec.dim} is too large: sample plans "
                         f"support at most {MAX_DIM - 1}")
    if config.suite in ("semilinear", "nlaplace") and spec.matrix is None:
        raise ValueError(
            "theorem suites require a riemannian or euclidean norm"
        )
    if config.suite == "nlaplace" and spec.dim < 3:
        raise ValueError("the nlaplace suite needs dimension >= 3")
    return config


def parse_config(text: str) -> RunConfig:
    """Parse the `key = value` config format (one pair per line, # comments).

    Unknown keys are errors.  The result is validated exactly like
    command-line flags, so parse(serialize(config)) round-trips.
    """
    values: dict = {}
    dim_override = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        # several whitespace-separated key=value tokens may share a line
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
            if key not in _CONFIG_KEYS:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            if key == "dim":
                dim_override = int(val)
            elif key == "annulus":
                values[key] = _parse_annulus(val)
            elif key in ("count", "seed", "threads"):
                values[key] = int(val)
            elif key == "out":
                values[key] = val or None
            else:
                values[key] = val
    return _validate(RunConfig(**values), dim_override)


def serialize_config(config: RunConfig) -> str:
    """Config-file text that parses back to an equal RunConfig."""
    lines = [
        f"norm = {config.norm}",
        f"suite = {config.suite}",
        f"annulus = {config.annulus[0]!r},{config.annulus[1]!r}",
        f"count = {config.count}",
        f"seed = {config.seed}",
        f"format = {config.format}",
        f"threads = {config.threads}",
    ]
    if config.out is not None:
        lines.append(f"out = {config.out}")
    return "\n".join(lines) + "\n"


def _dispatch(suite: str, config: RunConfig) -> list[ResidualReport]:
    spec = config.spec()
    plan = config.plan()
    if suite == "identities":
        return [run_identity_suite(spec, plan)]
    if suite == "kelvin":
        return [run_kelvin_suite(spec, plan)]
    if suite == "counterexample":
        return [run_counterexample_scan(spec)]
    if suite == "semilinear":
        return [run_semilinear_suite(spec, plan)]
    if suite == "nlaplace":
        return [run_nlaplace_suite(spec, plan)]
    raise ValueError(f"unknown suite {suite!r}")


def _skip_report(suite: str, reason: str) -> ResidualReport:
    rep = ResidualReport(suite=suite, tolerance=0.0,
                         details={"skipped": reason})
    rep.passed = True
    return rep


def run(config: RunConfig) -> int:
    """Execute the configured suite(s), print summaries, write the report."""
    spec = config.spec()
    reports: list[ResidualReport] = []
    if config.suite == "all":
        for name in ("identities", "kelvin", "counterexample",
                     "semilinear", "nlaplace"):
            if name == "counterexample":
                # the scan is pinned to the quartic counterexample norm;
                # selecting the suite explicitly runs the configured norm
                reports.extend(_dispatch(name, replace(config, norm="quartic")))
            elif name in ("semilinear", "nlaplace") and spec.matrix is None:
                reports.append(_skip_report(
                    name, "theorem suites need a quadratic-form norm"))
            elif name == "nlaplace" and spec.dim < 3:
                reports.append(_skip_report(name, "needs dimension >= 3"))
            else:
                reports.extend(_dispatch(name, config))
    else:
        reports.extend(_dispatch(config.suite, config))

    # stdout carries the report itself when there is no --out
    status_out = sys.stdout if config.out is not None else sys.stderr
    for rep in reports:
        if "skipped" in rep.details:
            print(f"[SKIP] {rep.suite}: {rep.details['skipped']}", file=status_out)
            continue
        status = "PASS" if rep.passed else "FAIL"
        if "spread" in rep.details:
            line = (f"[{status}] {rep.suite}: spread {rep.details['spread']:.3e} "
                    f"(floor {rep.tolerance:g})")
        else:
            line = (f"[{status}] {rep.suite}: worst residual "
                    f"{rep.max_rel_residual():.3e} (tolerance {rep.tolerance:.0e})")
        if "message" in rep.details:
            line += f" - {rep.details['message']}"
        print(line, file=status_out)

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
        text = render_csv(reports, config.dim)
    else:
        text = render_table(reports)

    try:
        if config.out is None:
            sys.stdout.write(text)
        else:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
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
    parser.add_argument("--dim", type=int,
                        help="dimension cross-check against the norm")
    parser.add_argument("--seed", type=int, help="sample-plan seed")
    parser.add_argument("--count", type=int, help="sample-plan point count")
    parser.add_argument("--annulus", metavar="H_MIN,H_MAX",
                        help="sampling annulus in norm units")
    parser.add_argument("--out", metavar="PATH", help="report path (default stdout)")
    parser.add_argument("--format", choices=["json", "csv", "table"],
                        help="report format")
    parser.add_argument("--threads", type=int, metavar="K",
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
                print(f"error: cannot read config: {exc}", file=sys.stderr)
                return EXIT_IO
            config = parse_config(text)
        else:
            config = RunConfig()
        overrides = {}
        for key in ("norm", "seed", "count", "out", "format", "threads"):
            val = getattr(args, key)
            if val is not None:
                overrides[key] = val
        if args.annulus is not None:
            overrides["annulus"] = _parse_annulus(args.annulus)
        if args.suite is not None:
            overrides["suite"] = args.suite
        config = _validate(replace(config, **overrides), args.dim)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return run(config)
    except (ValueError, ConvergenceError) as exc:
        # a valid configuration the suites cannot evaluate (say, a stencil
        # that would reach the origin) is not a verification failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
