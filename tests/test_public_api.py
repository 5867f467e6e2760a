"""The public names: each module's `__all__` and the package exports agree."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import finslerkelvin

# `__main__` runs the command when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(finslerkelvin.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"finslerkelvin.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"{name}.{attr}"


def test_package_star_imports_each_layer_all():
    tree = ast.parse(Path(finslerkelvin.__file__).read_text())
    imports = [(node.module, [alias.name for alias in node.names])
               for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for module, names in imports:
        assert names == ["*"], f"{module}: {names}"
        assert module in MODULES, module
        source = importlib.import_module(f"finslerkelvin.{module}")
        assert source.__all__
        for name in source.__all__:
            assert getattr(finslerkelvin, name) is getattr(source, name), \
                f"{module}.{name}"


def test_report_exports_the_gate_record():
    from finslerkelvin import report

    assert report.__all__ == ["REPORT_SCHEMA", "Gate", "ResidualRows",
                              "ResidualReport", "residuals", "residual_rows",
                              "render_json", "render_csv", "render_table"]
    assert finslerkelvin.Gate is report.Gate


def test_fields_exports_the_constructors():
    from finslerkelvin import fields

    assert fields.__all__ == ["ScalarField", "constant_field", "linear_field",
                              "quadratic_field", "gaussian_field",
                              "norm_power_field"]


def test_verify_exports_the_checks_with_one_signature():
    from finslerkelvin import verify

    assert verify.__all__ == [
        "SamplePlan", "ManufacturedProblem", "random_spd_matrix",
        "manufacture_semilinear", "manufacture_nlaplace",
        "check_theorem_semilinear", "check_theorem_nlaplace",
        "check_fundamental_solution", "check_proof_identities",
        "run_identity_suite", "run_kelvin_suite", "run_counterexample_scan",
        "run_semilinear_suite", "run_nlaplace_suite", "weak_form_crosscheck",
        "QUARTIC_SPREAD_MIN"]
    params = {name: list(inspect.signature(getattr(verify, name)).parameters)
              for name in verify.__all__ if name.startswith("check_")}
    assert params == {
        "check_theorem_semilinear": ["ctx", "prob", "plan"],
        "check_theorem_nlaplace": ["ctx", "prob", "plan", "tolerance"],
        "check_fundamental_solution": ["ctx", "plan"],
        "check_proof_identities": ["ctx", "plan"],
    }
