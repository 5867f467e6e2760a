"""The Euclidean norm as the M = I case of ``RiemannianNorm``: one code path
for quadratic-form norms, with the Euclidean arithmetic kept bit for bit,
and the `ast` guards that keep one path per decision in the package."""

import ast
from pathlib import Path

import numpy as np
import pytest

from finslerkelvin import (EuclideanNorm, Jet2, KelvinContext, RiemannianNorm,
                           anisotropic_laplacian, finsler_n_laplacian,
                           jacobian_matrix, map_second_derivative, norms)
from finslerkelvin.norms import quadratic_form, row_dot, row_outer

from conftest import annulus_points

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "finslerkelvin"
NORM_CLASSES = {name for name, obj in vars(norms).items()
                if isinstance(obj, type) and issubclass(obj, norms.NormSpec)}


def _norm_class_checks(path: Path) -> list[int]:
    """Lines of `path` with an ``isinstance`` call whose class argument names
    a norm class."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            named = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node.args[1])
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if named & NORM_CLASSES:
                lines.append(node.lineno)
    return lines


def test_no_module_but_norms_asks_a_norm_for_its_class():
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "norms.py" for line in _norm_class_checks(path)]
    assert not found, ("ask the spec (`matrix`, `form`, `contract`), not its "
                       "class: " + ", ".join(found))


def _calls_numeric_jet(node) -> bool:
    return any(isinstance(n, ast.Call) and "numeric_jet" in (
        getattr(n.func, "id", None), getattr(n.func, "attr", None))
        for n in ast.walk(node))


def test_only_verify_chooses_finite_difference_jets():
    """``kelvin`` imports nothing from ``operators``; outside
    ``operators.py`` only ``verify.py`` calls ``numeric_jet``, and inside it
    only ``_jets`` (the checks' jets) and ``_convergence_study`` (the
    fixed-step fit) do; no function in ``src/`` takes a ``jet_mode``.  A
    transform carries an analytic jet or none, and FD runs exactly when the
    field has none."""
    kelvin = PACKAGE / "kelvin.py"
    imports = [node.lineno for node in ast.walk(ast.parse(kelvin.read_text()))
               if isinstance(node, (ast.Import, ast.ImportFrom))
               and any(name.rsplit(".", 1)[-1] == "operators" for name in
                       [getattr(node, "module", None) or "",
                        *(alias.name for alias in node.names)])]
    assert not imports, f"kelvin.py imports from operators at lines {imports}"
    sources = sorted(PACKAGE.parent.rglob("*.py"))
    assert PACKAGE / "verify.py" in sources
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    calls = [path.name for path, tree in trees.items()
             if path.name not in ("operators.py", "verify.py")
             and _calls_numeric_jet(tree)]
    assert not calls, "numeric_jet called outside verify.py: " + ", ".join(calls)
    callers = {getattr(node, "name", f"<module line {node.lineno}>")
               for node in trees[PACKAGE / "verify.py"].body
               if _calls_numeric_jet(node)}
    assert callers == {"_jets", "_convergence_study"}
    knobs = [f"{path.name}:{node.lineno}" for path, tree in trees.items()
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             and "jet_mode" in {a.arg for a in (
                 *node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                 node.args.vararg, node.args.kwarg) if a is not None}]
    assert not knobs, "a jet_mode parameter at " + ", ".join(knobs)


def test_euclidean_is_the_identity_riemannian_norm_with_its_own_form():
    spec = EuclideanNorm(3)
    assert isinstance(spec, RiemannianNorm)
    assert "_eval" not in vars(EuclideanNorm)
    assert np.array_equal(spec.matrix.entries, np.eye(3))
    # equality and hashing stay by type and canonical text
    assert spec == EuclideanNorm(3) and hash(spec) == hash(EuclideanNorm(3))
    assert spec != RiemannianNorm(np.eye(3))
    assert RiemannianNorm(np.eye(3)) != spec
    assert spec.canonical() == "euclidean:3"
    assert type(spec.dual()) is EuclideanNorm and spec.dual() == spec


def _reference_jacobian(pts):
    d = pts.shape[-1]
    mx, h2 = quadratic_form(np.eye(d), pts)
    h2 = h2[..., None, None]
    return (np.eye(d) - 2.0 * row_outer(mx, mx) / h2) / h2


def _reference_second_derivative(pts):
    m = np.eye(pts.shape[-1])
    mx, h2 = quadratic_form(m, pts)
    s = (1.0 / h2)[..., None, None, None]
    k, i, j = (mx[..., :, None, None], mx[..., None, :, None],
               mx[..., None, None, :])
    terms = m[:, None, :] * i + m[:, :, None] * j + m * k
    return -2.0 * (s * s) * terms + 8.0 * (s * s * s) * (k * i * j)


def _reference_n_laplacian(grad, hess, n):
    m = np.eye(n)
    mg, q = quadratic_form(m, grad)
    core = m + (n - 2.0) * row_outer(mg, mg) / q[:, None, None]
    return np.float_power(q, (n - 2.0) / 2.0) * row_dot(
        core.reshape(-1, n * n), hess.reshape(-1, n * n))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_euclidean_kelvin_and_operators_keep_the_identity_matrix_bits(d):
    # array_equal, not a bitwise view: I @ x can turn a -0.0 into +0.0
    rng = np.random.default_rng(100 + d)
    pts = annulus_points(rng, d, count=500)
    pts[:5, 0] = -0.0
    spec = EuclideanNorm(d)
    ctx = KelvinContext(spec)
    assert np.array_equal(jacobian_matrix(ctx, pts), _reference_jacobian(pts))
    assert np.array_equal(map_second_derivative(ctx, pts),
                          _reference_second_derivative(pts))
    grad = annulus_points(rng, d, count=500)
    hess = rng.standard_normal((500, d, d))
    hess = 0.5 * (hess + np.swapaxes(hess, -1, -2))
    jet = Jet2(np.zeros(500), grad, hess)
    assert np.array_equal(finsler_n_laplacian(spec, jet, d),
                          _reference_n_laplacian(grad, hess, d))
    assert np.array_equal(anisotropic_laplacian(spec, jet),
                          np.trace(hess, axis1=-2, axis2=-1))
