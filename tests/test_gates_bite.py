"""A planted defect in the inversion calculus fails the run, by named gates.

Each defect is patched in-process over one name that the suites look up
when called:

* T scaled: `kelvin_map` divided by 1 + eps, in both modules that call it.
  At eps = 1e-3 three suites FAIL; at 1e-7 only the kelvin round trips see
  it (tolerance 1e-8).
* The hat weight H^(2-N) raised to H^(2+eps-N): `kelvin.norm_power_field`
  gets its exponent + eps.
* D^2 T scaled: `kelvin.map_second_derivative` times 1 + eps.  Only the
  semilinear residuals see it; nlaplace's `quadratic,auto` rows, which also
  go through D^2 T, do not (a FOUND: line in CHANGES.md).
* The quartic dual scaled: the Newton solve's maximum H° times 1 + eps.  At
  eps = 1e-7 the identity suite's duality gates fail at their 1e-8 bound
  and the `KelvinContext` self-check refuses the dual.  At 1e-9 every gate
  passes (a FOUND: line in CHANGES.md).

The pinned names record which gates catch each defect; the printed FAIL
lines must name exactly the gates the reports hold as failing.
"""

import pytest

from finslerkelvin import cli, kelvin, norms, verify
from finslerkelvin.kelvin import KelvinContext
from finslerkelvin.norms import QuarticNorm
from finslerkelvin.verify import SamplePlan, run_identity_suite

from conftest import failed_gates

RUNNERS = ("run_identity_suite", "run_kelvin_suite", "run_counterexample_scan",
           "run_semilinear_suite", "run_nlaplace_suite")


def scaled_kelvin_map(eps):
    def plant(monkeypatch):
        kelvin_map = kelvin.kelvin_map
        for module in (kelvin, verify):
            monkeypatch.setattr(module, "kelvin_map",
                                lambda ctx, x: kelvin_map(ctx, x) / (1.0 + eps))
    return plant


def raised_hat_weight(eps):
    def plant(monkeypatch):
        norm_power_field = kelvin.norm_power_field
        monkeypatch.setattr(kelvin, "norm_power_field",
                            lambda spec, exponent, name=None:
                            norm_power_field(spec, exponent + eps, name))
    return plant


def scaled_map_second_derivative(eps):
    def plant(monkeypatch):
        d2t = kelvin.map_second_derivative
        monkeypatch.setattr(kelvin, "map_second_derivative",
                            lambda ctx, x: d2t(ctx, x) * (1.0 + eps))
    return plant


MUTANTS = {
    "kelvin_map/(1+1e-3)": (
        scaled_kelvin_map(1e-3),
        {"kelvin": ["roundtrip", "pullback_involution"],
         "semilinear": ["fd_order[quadratic]", "max_rel[gaussian-bump]"],
         "nlaplace": ["max_rel[quadratic,auto]", "max_rel[quadratic,numeric]"]}),
    "kelvin_map/(1+1e-7)": (
        scaled_kelvin_map(1e-7),
        {"kelvin": ["roundtrip", "pullback_involution"]}),
    "hat_weight+1e-3": (
        raised_hat_weight(1e-3),
        {"semilinear": ["max_rel[quadratic]", "max_rel[gaussian-bump]"]}),
    "map_second_derivative*(1+1e-3)": (
        scaled_map_second_derivative(1e-3),
        {"semilinear": ["max_rel[quadratic]", "max_rel[gaussian-bump]"]}),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_a_planted_defect_fails_by_named_gates(mutant, monkeypatch, tmp_path,
                                               capsys):
    plant, caught = MUTANTS[mutant]
    plant(monkeypatch)
    reports = []
    for name in RUNNERS:
        def record(*args, runner=getattr(cli, name)):
            reports.append(runner(*args))
            return reports[-1]
        monkeypatch.setattr(cli, name, record)

    code = cli.main(["all", "--norm", "euclidean:3", "--count", "50",
                     "--out", str(tmp_path / "r.json")])
    assert code == cli.EXIT_VERIFICATION
    printed = {line[len("[FAIL] "):].split(":", 1)[0]: failed_gates(line)
               for line in capsys.readouterr().out.splitlines()
               if line.startswith("[FAIL] ")}
    held = {rep.suite: [g.name for g in rep.gates if not g.ok]
            for rep in reports if not rep.passed}
    assert printed == held == caught


def test_a_scaled_quartic_dual_fails_the_duality_gates(monkeypatch, tmp_path,
                                                      capsys):
    solve = norms._support_points

    def scaled(spec, x):
        lam, xi, iters = solve(spec, x)
        return lam * (1.0 + 1e-7), xi, iters

    monkeypatch.setattr(norms, "_support_points", scaled)
    rep = run_identity_suite(QuarticNorm(), SamplePlan(count=1000, seed=100))
    assert [g.name for g in rep.gates if not g.ok] == [
        "bidual", "inverse_duality", "unit_duality"]
    with pytest.raises(ValueError, match=r"duality defect 1\.000e-07"):
        KelvinContext(QuarticNorm())
    # the kelvin suite's context refuses the dual, so `all` stops with exit 2
    # (an input the calculus cannot take), not exit 1
    code = cli.main(["all", "--norm", "quartic", "--count", "50",
                     "--out", str(tmp_path / "r.json")])
    assert code == cli.EXIT_CONFIG
    assert "kelvin: dual norm inconsistent" in capsys.readouterr().err
