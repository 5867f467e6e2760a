"""The per-row kernels ``row_sum`` and ``nonzero_rows`` against the numpy
reductions they replace, the origin refusals built on them, and a guard
that keeps the short-axis reductions out of the package."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from finslerkelvin import EuclideanNorm, Jet2, QuarticNorm, anisotropic_laplacian
from finslerkelvin.kelvin import _inversion
from finslerkelvin.norms import nonzero_rows, row_sum

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "finslerkelvin"

SPECIAL = [0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
           1e308, -1e308]


def _rows(d: int) -> np.ndarray:
    """Seeded rows at every magnitude from 1e-300 to 1e300, rows of special
    values (signed zeros, NaN, infinities, subnormals, overflowing sums) and
    rows of -0.0."""
    rng = np.random.default_rng(d)
    spread = (rng.uniform(-1.0, 1.0, (4000, d))
              * 10.0 ** rng.integers(-300, 301, (4000, d)))
    special = rng.choice(SPECIAL, (4000, d))
    return np.concatenate([spread, special, np.full((2, d), -0.0)])


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64)))


@pytest.mark.parametrize("d", range(2, 12))
def test_row_sum_is_numpys_sum_bit_for_bit(d):
    rows = _rows(d)
    with np.errstate(invalid="ignore", over="ignore"):
        for a in (rows, np.asfortranarray(rows), rows.reshape(2, -1, d), rows[7]):
            assert _same_bits(row_sum(a), np.sum(np.ascontiguousarray(a), axis=-1))


@pytest.mark.parametrize("d", range(8, 12))
def test_euclidean_value_is_independent_of_memory_layout(d):
    # numpy sums a Fortran-ordered batch by columns, a C-ordered one pairwise
    x = np.random.default_rng(d).standard_normal((1000, d))
    spec = EuclideanNorm(d)
    assert _same_bits(spec.value(np.asfortranarray(x)), spec.value(x))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_nonzero_rows_is_any(d):
    rng = np.random.default_rng(d)
    rows = np.concatenate([rng.choice([0.0, -0.0, np.nan, 1.0, 5e-324], (500, d)),
                           np.zeros((1, d)), np.full((1, d), -0.0)])
    for a in (rows, rows.reshape(1, -1, d), rows[-1], rows[0]):
        assert np.array_equal(nonzero_rows(a), a.any(axis=-1))


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_origin_refusals_keep_their_messages(zero):
    pts = np.array([[1.0, 2.0], [zero, zero], [3.0, -1.0]])
    with pytest.raises(ValueError, match="^inversion map is undefined at the origin$"):
        _inversion(EuclideanNorm(2), pts)
    for spec in (EuclideanNorm(2), QuarticNorm()):
        with pytest.raises(ValueError,
                           match="^norm is not differentiable at the origin$"):
            spec.jet(pts)
    jet = Jet2(np.zeros(3), pts, np.broadcast_to(np.eye(2), (3, 2, 2)))
    with pytest.raises(ValueError, match=re.escape(
            "operator coefficient undefined at a zero gradient for non-quadratic "
            "norms")):
        anisotropic_laplacian(QuarticNorm(), jet)


def _row_axis_reductions(path: Path) -> list[int]:
    """Lines of `path` with an ``np.sum``/``np.any`` call or a ``.sum``/``.any``
    method call over axis -1 or 1, except in ``row_sum``'s own fallback."""
    tree = ast.parse(path.read_text(), str(path))
    allowed = {id(node) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name == "row_sum"
               for node in ast.walk(fn)}
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("sum", "any")) or id(node) in allowed:
            continue
        is_np = isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
        axis = [kw.value for kw in node.keywords if kw.arg == "axis"]
        axis += node.args[1 if is_np else 0:][:1]
        try:
            if axis and ast.literal_eval(axis[0]) in (-1, 1):
                lines.append(node.lineno)
        except ValueError:  # an axis computed at run time
            pass
    return lines


def test_no_reduction_over_a_points_coordinates_bypasses_the_kernels():
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in _row_axis_reductions(path)]
    assert not found, ("sum or test rows with norms.row_sum / norms.nonzero_rows, "
                       "not numpy's per-row loops: " + ", ".join(found))
