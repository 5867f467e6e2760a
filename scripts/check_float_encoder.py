#!/usr/bin/env python3
"""Check the report's float encoder against Python's own float text.

``finslerkelvin.report._encode`` writes each float64 of a report as its
shortest round-trip repr, with integer arithmetic on uint64 arrays.  This
script compares its words, byte for byte, with the two references the
report formats stand for: ``str(list)`` (CSV cells: ``nan``, ``inf``) and
``json.dumps(list)`` (JSON cells: ``NaN``, ``Infinity``).  The cases are

* the edge cases: signed zeros, NaNs of both signs with payloads, the
  infinities, 10^k and its neighbours one ulp away for k = -323..308, both
  sides of repr's switches to exponent form (1e-4 and 1e16), the smallest
  subnormals, the smallest normal, the largest finite value and every
  power of two (the irregular rounding interval);
* every subnormal bit pattern below ``--subnormals`` (default 2^20);
* ``--count`` seeded uniformly random bit patterns (default 10^7).

It prints the number of values and mismatches of each group, and the first
few mismatches, and exits 1 on any mismatch.

Usage (from the repository root; the package is imported from ``src/``):

    python3 scripts/check_float_encoder.py [--count N] [--seed S]
                                           [--subnormals N]
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from finslerkelvin.report import _CSV_SPECIAL, _JSON_SPECIAL, _encode  # noqa: E402

BATCH = 1_000_000  # values per comparison, to bound the memory held


def edge_cases() -> np.ndarray:
    """The edge cases listed in the module docstring, as float64."""
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    switches = np.array([1e-4, 1e16])
    payloads = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
                         0x7FFFFFFFFFFFFFFF], dtype=np.uint64)
    cases = [
        [0.0, np.inf, 2.2250738585072014e-308, 1.7976931348623157e308],
        payloads.view(np.float64),
        np.arange(1, 21, dtype=np.uint64).view(np.float64),  # 5e-324 .. 1e-322
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        *(switches + k * np.spacing(switches) for k in range(-3, 4)),
        np.ldexp(1.0, np.arange(-1074, 1024)),
    ]
    values = np.concatenate(cases)
    return np.concatenate([values, -values])


def subnormals(limit: int) -> np.ndarray:
    """Every subnormal bit pattern from 1 up to, not including, `limit`."""
    return np.arange(1, limit, dtype=np.uint64).view(np.float64)


def random_patterns(count: int, seed: int):
    """`count` seeded random float64 bit patterns, in batches."""
    rng = np.random.default_rng(seed)
    for start in range(0, count, BATCH):
        size = min(BATCH, count - start)
        yield rng.integers(0, 2 ** 64, size, dtype=np.uint64, endpoint=False).view(
            np.float64)


def mismatches(values: np.ndarray) -> list[tuple[str, bytes, str]]:
    """(float.hex, encoder word, reference) of each word that differs from
    its reference, CSV words first, then JSON words."""
    bad = []
    for special, reference in ((_CSV_SPECIAL, str), (_JSON_SPECIAL, json.dumps)):
        got = _encode(values, special)
        want = reference(values.tolist())[1:-1].split(", ")
        for i in np.flatnonzero(got != np.array(want, "S24")):
            bad.append((float(values[i]).hex(), bytes(got[i]), want[i]))
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=10_000_000,
                        help="random bit patterns (default 10^7)")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--subnormals", type=int, default=2 ** 20,
                        help="check every subnormal pattern below this")
    args = parser.parse_args(argv)
    if args.count < 0 or not 1 <= args.subnormals <= 2 ** 52:
        parser.error("--count must be >= 0 and --subnormals in 1..2^52")
    groups = [("edge cases", [edge_cases()]),
              (f"subnormals below {args.subnormals}",
               (subnormals(args.subnormals)[k:k + BATCH]
                for k in range(0, args.subnormals - 1, BATCH))),
              (f"random bit patterns, seed {args.seed}",
               random_patterns(args.count, args.seed))]
    total, shown = 0, 0
    for name, batches in groups:
        count = bad = 0
        for values in batches:
            found = mismatches(values)
            count, bad = count + len(values), bad + len(found)
            for hexed, got, want in found[:max(0, 5 - shown)]:
                print(f"  mismatch {hexed}: {got!r} != {want!r}")
                shown += 1
        print(f"{name}: {count} values, {bad} mismatches")
        total += bad
    print(f"{total} mismatches")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
