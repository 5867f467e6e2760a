"""Deterministic low-discrepancy point generation.

Everything here is pure integer/float arithmetic with no RNG state, so the
same arguments always reproduce the same points bit for bit, regardless of
platform, thread count, or call order.
"""

from __future__ import annotations

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_DIM = len(_PRIMES)
# The last Halton index: indices are int64 digits to divide.
MAX_INDEX = int(np.iinfo(np.int64).max)


def halton(count: int, dim: int, skip: int = 0) -> np.ndarray:
    """First `count` Halton points in (0, 1)^dim, starting at index skip+1.

    The index offset lets callers carve disjoint deterministic subsequences
    out of the same global sequence (used for seed-dependent sample plans).
    """
    if dim > MAX_DIM:
        raise ValueError(f"halton supports at most {MAX_DIM} dimensions")
    if count < 0 or skip < 0:
        raise ValueError("count and skip must be non-negative")
    if skip + count > MAX_INDEX:
        raise ValueError(f"halton indices end at {MAX_INDEX}, got skip + count "
                         f"= {skip + count}")
    out = np.zeros((count, dim))
    for j, base in enumerate(_PRIMES[:dim]):
        # radical inverse of every index at once, digit by digit from the
        # least significant; exhausted indices only add zero digits
        rest = np.arange(skip + 1, skip + count + 1, dtype=np.int64)
        scale = 1.0 / base
        while np.any(rest > 0):
            rest, digit = np.divmod(rest, base)
            out[:, j] += digit * scale
            scale /= base
    return out


def cube_directions(count: int, dim: int, skip: int = 0) -> np.ndarray:
    """Deterministic spread of nonzero directions in the cube [-1, 1]^dim.

    Points are not Euclidean-normalised; callers rescale by the norm they
    care about. No entry of the Halton sequence maps to the zero vector
    (that would need every coordinate to equal 1/2 simultaneously, which the
    mixed-base construction never produces for dim >= 2).
    """
    return 2.0 * halton(count, dim, skip=skip) - 1.0
