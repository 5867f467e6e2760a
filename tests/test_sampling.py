"""Halton points against a scalar reference implementation."""

import numpy as np
import pytest

from finslerkelvin.sampling import MAX_DIM, halton

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def radical_inverse(index, base):
    """Scalar digit expansion: the reference `halton` must match bit for bit."""
    inv = 0.0
    scale = 1.0 / base
    while index > 0:
        index, digit = divmod(index, base)
        inv += digit * scale
        scale /= base
    return inv


def reference_halton(count, dim, skip=0):
    return np.array([[radical_inverse(skip + i + 1, _PRIMES[j])
                      for j in range(dim)] for i in range(count)]).reshape(count, dim)


@pytest.mark.parametrize("dim", range(2, 12))
@pytest.mark.parametrize("skip", [0, 1, 7, 1 + 100 * 1000, 1 + 1099 * 10000])
def test_halton_is_bitwise_equal_to_the_scalar_reference(dim, skip):
    got = halton(40, dim, skip=skip)
    want = reference_halton(40, dim, skip=skip)
    assert got.shape == (40, dim)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_halton_empty():
    assert halton(0, 4).shape == (0, 4)
    assert halton(0, 4, skip=1099 * 10000).shape == (0, 4)


def test_halton_first_points():
    expected = [[1 / 2, 1 / 3, 1 / 5],
                [1 / 4, 2 / 3, 2 / 5],
                [3 / 4, 1 / 9, 3 / 5],
                [1 / 8, 4 / 9, 4 / 5]]
    np.testing.assert_allclose(halton(4, 3), expected, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(halton(2, 3, skip=2), expected[2:], rtol=1e-15,
                               atol=0.0)


def test_halton_rejects_too_many_dimensions():
    assert halton(3, MAX_DIM).shape == (3, MAX_DIM)
    with pytest.raises(ValueError, match="at most"):
        halton(3, MAX_DIM + 1)
    with pytest.raises(ValueError, match="non-negative"):
        halton(-1, 2)
