#!/usr/bin/env python3
"""Compare two report-v1 JSON files suite by suite and row by row.

For each suite of either report it prints both verdicts, the row counts,
how many rows differ (and how many of those differ in the sample point
itself), the largest |delta rel_residual| over rows matched by position,
both `max_rel_residual` aggregates, and every `details` entry side by side.
A change that may move last bits but must keep every verdict and every
sample point uses this to show exactly what moved.

Usage (from the repository root):

    python3 scripts/compare_reports.py A.json B.json

Exit status: 0 when the overall verdicts, the suite lists, every suite
verdict, the row counts and every row point agree; 1 otherwise.
"""

import argparse
import json
import sys

ROW_FIELDS = ("point", "lhs", "rhs", "abs_residual", "rel_residual", "flag")


def _verdict(passed) -> str:
    return "PASS" if passed else "FAIL"


def _suites(report: dict) -> dict:
    return {s["suite"]: s for s in report["suites"]}


def compare_suite(a: dict, b: dict) -> tuple[list[str], bool]:
    """Printed lines for one suite present in both reports, and whether its
    verdict, row count and row points agree."""
    ra, rb = a["rows"], b["rows"]
    pairs = list(zip(ra, rb))
    differing = sum(1 for x, y in pairs if any(x[f] != y[f] for f in ROW_FIELDS))
    moved = sum(1 for x, y in pairs if x["point"] != y["point"])
    delta = max((abs(x["rel_residual"] - y["rel_residual"]) for x, y in pairs),
                default=0.0)
    same = a["passed"] == b["passed"] and len(ra) == len(rb) and moved == 0
    lines = [
        f"  verdict          {_verdict(a['passed'])} -> {_verdict(b['passed'])}"
        + ("" if a["passed"] == b["passed"] else "   <- verdict differs"),
        f"  rows             {len(ra)} -> {len(rb)}; {differing} differ, "
        f"{moved} at a different point",
        f"  max |d rel|      {delta:.3e}",
        f"  max_rel_residual {a['max_rel_residual']!r} -> {b['max_rel_residual']!r}",
    ]
    da, db = a["details"], b["details"]
    width = max((len(k) for k in {**da, **db}), default=0)
    for key in sorted({**da, **db}):
        va, vb = da.get(key, "<absent>"), db.get(key, "<absent>")
        mark = "" if va == vb else "   *"
        lines.append(f"  details {key:<{width}}  {va!r} | {vb!r}{mark}")
    return lines, same


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """All printed lines for two parsed reports, and whether they agree in
    verdicts, suites, row counts and row points."""
    same = a["passed"] == b["passed"]
    lines = [f"overall verdict {_verdict(a['passed'])} -> {_verdict(b['passed'])}"]
    sa, sb = _suites(a), _suites(b)
    for name in list(sa) + [n for n in sb if n not in sa]:
        if name not in sa or name not in sb:
            lines.append(f"suite {name}: only in {'A' if name in sa else 'B'}")
            same = False
            continue
        lines.append(f"suite {name}")
        suite_lines, suite_same = compare_suite(sa[name], sb[name])
        lines.extend(suite_lines)
        same = same and suite_same
    return lines, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="first report-v1 JSON file")
    parser.add_argument("b", help="second report-v1 JSON file")
    args = parser.parse_args(argv)
    with open(args.a) as fa, open(args.b) as fb:
        lines, same = compare(json.load(fa), json.load(fb))
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
