"""Shared finite-difference and grid-search oracles, and a test norm.

The oracles are deliberately written from scratch with plain loops so that
a bug in the package's own differentiation or optimization code cannot
confirm itself through the tests.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import finslerkelvin
from finslerkelvin.norms import NormSpec, QuarticNorm


class StretchedQuartic(NormSpec):
    """The quartic norm of (x1, s x2): far from round for large s, so full
    Newton steps overshoot and the solve takes damped steps.  It defines
    only ``_eval`` and ``canonical``; the rest of the contract, the dual
    included, comes from ``NormSpec``."""

    def __init__(self, s):
        self.stretch, self.dim = np.array([1.0, s]), 2

    def _eval(self, pts, order):
        a = self.stretch
        out = QuarticNorm._eval(pts * a, order)
        if order == 0:
            return out
        h, grad = out[0], out[1] * a
        return (h, grad) if order == 1 else (h, grad, a[:, None] * out[2] * a)

    def canonical(self):
        return f"stretched-quartic:{self.stretch[1]!r}"


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fd_hessian(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = len(x)
    out = np.zeros((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        out[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            val = (f(x + ei + ej) - f(x + ei - ej)
                   - f(x - ei + ej) + f(x - ei - ej)) / (4.0 * h**2)
            out[i, j] = out[j, i] = val
    return out


def richardson_gradient(f, x, h=1e-3, levels=3):
    """Step-refined central differences: each halving cancels the h^2 term."""
    table = [fd_gradient(f, x, h * 2.0 ** (levels - 1 - k)) for k in range(levels)]
    for j in range(1, levels):
        for i in range(levels - 1, j - 1, -1):
            table[i] = (4.0**j * table[i] - table[i - 1]) / (4.0**j - 1.0)
    return table[-1]


def richardson_hessian(f, x, h=2e-2, levels=3):
    table = [fd_hessian(f, x, h * 2.0 ** (levels - 1 - k)) for k in range(levels)]
    for j in range(1, levels):
        for i in range(levels - 1, j - 1, -1):
            table[i] = (4.0**j * table[i] - table[i - 1]) / (4.0**j - 1.0)
    return table[-1]


def fd_jacobian(mapping, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    n = len(x)
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        cols.append((np.asarray(mapping(x + e)) - np.asarray(mapping(x - e)))
                    / (2.0 * h))
    return np.stack(cols, axis=-1)


def fd_divergence(vector_field, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    total = 0.0
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        total += (vector_field(x + e)[i] - vector_field(x - e)[i]) / (2.0 * h)
    return total


def grid_search_dual(norm_value, x, samples=400_000):
    """sup <xi, x> over {H(xi) = 1} in the plane by dense angle sweep."""
    theta = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    circ = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    unit = circ / np.asarray(norm_value(circ))[:, None]
    return float(np.max(unit @ np.asarray(x, dtype=float)))


def annulus_points(rng, dim, count=100, lo=0.5, hi=2.0):
    """Random Euclidean-annulus points for property sweeps."""
    pts = rng.standard_normal((count, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    radii = rng.uniform(lo, hi, size=count)
    return pts * radii[:, None]


ROW_COLUMNS = ("points", "lhs", "rhs", "abs_residual", "rel_residual", "flags")


def row_tuples(rows, columns=ROW_COLUMNS):
    """The rows of a `ResidualRows` as tuples of Python scalars, one cell per
    named column; a point is a tuple of floats."""
    cells = [map(tuple, rows.points.tolist()) if c == "points"
             else getattr(rows, c).tolist() for c in columns]
    return list(zip(*cells))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def package_env():
    """Subprocess environment whose PYTHONPATH imports the package under test."""
    src = str(Path(finslerkelvin.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)


def failed_gates(status_line: str) -> list[str]:
    """The gate names a status line lists after " - failed: ", in order."""
    _, _, failed = status_line.rstrip("\n").partition(" - failed: ")
    return [item.split(" ")[0] for item in failed.split(", ")] if failed else []
