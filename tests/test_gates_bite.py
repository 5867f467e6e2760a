"""A planted defect in the inversion map fails the run, by named gates.

The defect scales T: `kelvin_map` divided by 1 + eps, patched in-process
into both modules that call it.  At eps = 1e-3 three suites FAIL; at 1e-7
only the kelvin round trips see it (tolerance 1e-8).  The pinned names
record which gates catch each size of defect; the printed FAIL lines must
name exactly the gates the reports hold as failing.
"""

import pytest

from finslerkelvin import cli, kelvin, verify

from conftest import failed_gates

RUNNERS = ("run_identity_suite", "run_kelvin_suite", "run_counterexample_scan",
           "run_semilinear_suite", "run_nlaplace_suite")
CAUGHT = {
    1e-3: {"kelvin": ["roundtrip", "pullback_involution"],
           "semilinear": ["fd_order[quadratic]", "max_rel[gaussian-bump]"],
           "nlaplace": ["max_rel[quadratic,auto]", "max_rel[quadratic,numeric]"]},
    1e-7: {"kelvin": ["roundtrip", "pullback_involution"]},
}


@pytest.mark.parametrize("eps", CAUGHT)
def test_a_scaled_kelvin_map_fails_by_named_gates(eps, monkeypatch, tmp_path, capsys):
    kelvin_map = kelvin.kelvin_map

    def scaled(ctx, x):
        return kelvin_map(ctx, x) / (1.0 + eps)

    for module in (kelvin, verify):
        monkeypatch.setattr(module, "kelvin_map", scaled)
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
    assert printed == held == CAUGHT[eps]
