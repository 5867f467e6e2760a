"""Every gate a suite builds reaches its verdict, under its own name.

Each suite's gate names are pinned.  For each gate, a violating value (NaN)
or a violating bound is planted as the gate is built, through a patched
`verify.Gate`, and the suite must FAIL naming exactly that gate.  A gate
that a sub-check builds but its suite never feeds upward fails the pin.
"""

import dataclasses
import math

import pytest

from finslerkelvin import cli, verify
from finslerkelvin.norms import parse_norm
from finslerkelvin.report import Gate

from conftest import failed_gates

PLAN = verify.SamplePlan(count=20)
RIEMANNIAN = "riemannian:[[4,0],[0,1]]"
IDENTITIES = ["bidual", "equivalence", "euler", "gradient_zero_homogeneity",
              "homogeneity", "inverse_duality", "unit_duality"]
KELVIN = ["roundtrip", "reflection_determinant", "pullback_involution"]
KELVIN_MATRIX = KELVIN + ["det_invariant", "jacobian_scaling", "norm_transport",
                          "gradient_transport"]

# (suite, norm) -> the names of the gates its report holds, in order
GATES = {
    ("identities", "euclidean:3"): IDENTITIES,
    ("identities", "quartic"): IDENTITIES,
    ("kelvin", "euclidean:2"): KELVIN_MATRIX,
    ("kelvin", "euclidean:3"): KELVIN_MATRIX + ["fundamental_solution"],
    ("kelvin", "quartic"): KELVIN,
    ("counterexample", "quartic"): ["spread", "scale_invariance_defect",
                                    "control_spread"],
    ("counterexample", RIEMANNIAN): ["spread", "scale_invariance_defect"],
    ("semilinear", "euclidean:3"): ["max_rel[quadratic]", "fd_order[quadratic]",
                                    "max_rel[gaussian-bump]", "weak_form_worst",
                                    "source_roundtrip"],
    ("nlaplace", "euclidean:3"): ["max_rel[affine]", "max_rel[quadratic,auto]",
                                  "max_rel[quadratic,numeric]"],
}
# gates that fail on clean inputs: the scan on a Riemannian norm, by design
BY_DESIGN = {("counterexample", RIEMANNIAN): ["spread"]}


def _run(suite, norm):
    return cli._RUNNERS[suite](parse_norm(norm), PLAN)


@pytest.mark.parametrize("case", GATES, ids="-".join)
def test_clean_suites_report_their_pinned_gates(case):
    rep = _run(*case)
    assert [g.name for g in rep.gates] == GATES[case]
    assert [g.name for g in rep.gates if not g.ok] == BY_DESIGN.get(case, [])


@pytest.mark.parametrize("norm", ["euclidean:2", "euclidean:3", "quartic",
                                  "riemannian:[[2,0,0],[0,1,0],[0,0,1]]"])
def test_every_suite_that_runs_has_gates_with_distinct_names(norm):
    spec = parse_norm(norm)
    ran = [name for name in cli._RUNNERS if cli._refusal(name, spec) is None]
    assert "kelvin" in ran
    for name in ran:
        names = [g.name for g in cli._RUNNERS[name](spec, PLAN).gates]
        assert names, name
        assert len(set(names)) == len(names), name


def _planting(target: str, plant: str):
    """A Gate that is built violated when its name is `target`."""

    @dataclasses.dataclass(frozen=True)
    class Planted(Gate):
        def __post_init__(self):
            super().__post_init__()
            if self.name != target:
                return
            if plant == "nan":
                object.__setattr__(self, "value", math.nan)
            else:
                object.__setattr__(self, "bound",
                                   math.inf if self.sense == ">=" else -math.inf)

    return Planted


@pytest.mark.parametrize("plant", ["nan", "bound"])
@pytest.mark.parametrize("case,gate", [(case, gate) for case, names in GATES.items()
                                       for gate in names],
                         ids=lambda v: "-".join(v) if isinstance(v, tuple) else v)
def test_a_violated_gate_fails_its_suite_by_name(case, gate, plant, monkeypatch):
    monkeypatch.setattr(verify, "Gate", _planting(gate, plant))
    rep = _run(*case)
    want = sorted({gate, *BY_DESIGN.get(case, [])}, key=GATES[case].index)
    assert not rep.passed
    assert [g.name for g in rep.gates if not g.ok] == want
    line = cli._status_line(rep)
    assert line.startswith(f"[FAIL] {rep.suite}: ")
    assert failed_gates(line) == want
