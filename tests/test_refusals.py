"""Refusal paths: each input the calculus or the CLI cannot take raises (or
exits 2) with a message that names what was wrong."""

import subprocess
import sys

import numpy as np
import pytest

from finslerkelvin import (
    EuclideanNorm,
    KelvinContext,
    QuarticNorm,
    RiemannianNorm,
    SpdMatrix,
    equivalence_constants,
    gaussian_field,
    jacobian_matrix,
    map_second_derivative,
    numeric_jet,
    quadratic_field,
    star_transform,
)
from finslerkelvin.cli import EXIT_CONFIG, main
from finslerkelvin.norms import NormSpec
from finslerkelvin.sampling import halton
from finslerkelvin.verify import SamplePlan, random_spd_matrix

# -- the calculus ---------------------------------------------------------------


@pytest.mark.parametrize("spec", [EuclideanNorm(3),
                                  RiemannianNorm(random_spd_matrix(3, seed=4))],
                         ids=["euclidean", "riemannian"])
@pytest.mark.parametrize("shape", [(3,), (2, 3)])
def test_map_derivatives_refuse_the_origin(spec, shape):
    ctx = KelvinContext(spec)
    pts = np.zeros(shape)
    for fn in (jacobian_matrix, map_second_derivative):
        with pytest.raises(ValueError, match="^inversion map is undefined at the origin$"):
            fn(ctx, pts)


def test_star_transform_refuses_a_field_of_another_dimension():
    ctx = KelvinContext(EuclideanNorm(3))
    with pytest.raises(ValueError, match="^field dimension does not match the context$"):
        star_transform(ctx, quadratic_field(np.eye(2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spd_matrix_refuses_a_non_finite_entry(bad):
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        SpdMatrix([[1.0, 0.0], [0.0, bad]])


class _SpatialNorm(NormSpec):
    """A 3-D norm that is not quadratic-form; nothing evaluates it."""

    dim = 3

    def canonical(self):
        return "spatial"


def test_sampled_equivalence_constants_refuse_three_dimensions():
    with pytest.raises(ValueError, match="^sampled equivalence constants "
                                         "implemented for dim 2$"):
        equivalence_constants(_SpatialNorm())


def test_numeric_jet_refuses_bad_arguments():
    field = gaussian_field(np.zeros(3))
    point = np.array([1.0, 0.5, -0.25])
    for pts in (point[:2], np.ones((2, 4)), np.ones((2, 2, 3))):
        with pytest.raises(ValueError, match="^point dimension does not match the field$"):
            numeric_jet(field, pts)
    for refinement in (0, -2):
        with pytest.raises(ValueError, match=r"^refinement must be >= 1$"):
            numeric_jet(field, point, refinement=refinement)
    for step in (0.0, -1e-3):
        with pytest.raises(ValueError, match="^step must be positive$"):
            numeric_jet(field, point, step=step)


# -- field arithmetic takes real numbers only -------------------------------------


@pytest.mark.parametrize("other", ["1", "a", 1j, [1.0], None])
def test_field_arithmetic_refuses_what_is_not_a_real_number(other):
    u = quadratic_field(np.eye(2))
    for op in (lambda: u + other, lambda: other + u, lambda: u * other,
               lambda: u - other):
        with pytest.raises(TypeError, match="^cannot combine ScalarField with"):
            op()


@pytest.mark.parametrize("other", [2, 2.0, np.float64(2.0), np.int64(2), True])
def test_field_arithmetic_takes_any_real_number(other):
    u = quadratic_field(np.eye(2))
    x = np.array([0.5, -1.5])
    assert (u + other)(x) == u(x) + float(other)
    assert (u * other).jet(x).hessian.tolist() == (float(other) * 2.0 * np.eye(2)).tolist()


# -- the sample plan refuses an annulus outside floating-point range --------------


@pytest.mark.parametrize("spec, annulus, h", [
    (EuclideanNorm(3), (1e300, 1e301), "inf"),
    (EuclideanNorm(3), (1e-200, 2e-200), "0"),
    (RiemannianNorm(random_spd_matrix(4, seed=0)), (1e160, 1e161), "inf"),
    (QuarticNorm(), (1e200, 1e201), "inf"),
    (QuarticNorm(), (1e-100, 1e-99), "0"),
])
def test_plan_refuses_an_annulus_outside_floating_point_range(spec, annulus, h):
    plan = SamplePlan(annulus=annulus, count=5)
    lo, hi = annulus
    with pytest.raises(ValueError) as err:
        plan.points(spec)
    message = str(err.value)
    prefix = (f"annulus {lo:g},{hi:g} is outside floating-point range for "
              f"{spec.canonical()}: H = {h} at [")
    assert message.startswith(prefix)
    point = np.array([float(v) for v in message[len(prefix):-1].split(", ")])
    assert point.shape == (spec.dim,) and np.all(np.isfinite(point))


def test_plan_keeps_the_extremes_it_can_evaluate():
    for annulus in ((1e-150, 2e-150), (1e150, 2e150)):
        pts = SamplePlan(annulus=annulus, count=50).points(EuclideanNorm(3))
        h = EuclideanNorm(3).value(pts)
        assert np.all((h >= annulus[0] * (1 - 1e-12)) & (h <= annulus[1] * (1 + 1e-12)))


@pytest.mark.parametrize("argv, suite", [
    (["all", "--annulus", "1e300,1e301"], "identities"),
    (["kelvin", "--norm", "quartic", "--annulus", "1e200,1e201"], "kelvin"),
    (["all", "--annulus", "1e-200,2e-200"], "identities"),
])
def test_cli_refuses_an_annulus_outside_floating_point_range(argv, suite, package_env):
    proc = subprocess.run(
        [sys.executable, "-m", "finslerkelvin", *argv, "--count", "5"],
        capture_output=True, text=True, env=package_env, timeout=120)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr  # no traceback, no numpy warning
    assert lines[0].startswith(f"error: {suite}: annulus ")
    assert "is outside floating-point range for " in lines[0]


# -- the sample plan refuses a Halton index past int64 -----------------------------


def test_plan_refuses_a_seed_past_the_last_halton_index():
    last = np.iinfo(np.int64).max
    # seed * count + 2 .. (seed + 1) * count + 1 are the plan's indices
    pts = SamplePlan(count=1, seed=last - 2).points(EuclideanNorm(3))
    assert pts.shape == (1, 3) and np.all(np.isfinite(pts))
    for count, seed in ((1, last - 1), (10, 99999999999999999999), (2, last // 2)):
        stop = 1 + (seed + 1) * count
        with pytest.raises(ValueError, match=f"^seed {seed} with count {count} reaches "
                                             f"Halton index {stop}, past the last one, "
                                             f"{last}$"):
            SamplePlan(count=count, seed=seed)
    assert halton(1, 2, skip=last - 1).shape == (1, 2)
    with pytest.raises(ValueError, match=f"^halton indices end at {last}, "
                                         f"got skip \\+ count = {last + 1}$"):
        halton(1, 2, skip=last)


def test_cli_refuses_a_seed_past_the_last_halton_index(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["identities", "--count", "10", "--seed", "99999999999999999999",
            "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: seed 99999999999999999999 with count 10 reaches "
                            "Halton index 1000000000000000000001, past the last one, "
                            f"{np.iinfo(np.int64).max}\n")
    assert not out.exists()


# -- the command line ---------------------------------------------------------------


def test_cli_refuses_zero_threads(capsys):
    assert main(["identities", "--threads", "0"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: threads must be >= 1\n"


@pytest.mark.parametrize("text", ["1", "1,2,3"])
def test_cli_refuses_an_annulus_without_two_bounds(text, capsys):
    assert main(["identities", "--annulus", text]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: annulus: expected 'h_min,h_max', got {text!r}\n")


def test_config_refuses_a_line_without_a_key(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("norm = euclidean:3\n\nquartic\n")
    assert main(["--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: line 3: expected 'key = value', got 'quartic'\n")
