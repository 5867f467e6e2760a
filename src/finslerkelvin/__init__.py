"""Inversion-map (Kelvin) calculus for uniformly elliptic anisotropic norms.

The package is organised in layers:

* :mod:`finslerkelvin.norms` - norms, derivatives, dual norms;
* :mod:`finslerkelvin.fields` - scalar fields with analytic jets;
* :mod:`finslerkelvin.operators` - pointwise divergence-form operators and
  finite-difference jets;
* :mod:`finslerkelvin.kelvin` - the inversion map, its Jacobian calculus,
  and the weighted pullbacks;
* :mod:`finslerkelvin.verify` - deterministic residual suites for every
  identity and both transform theorems;
* :mod:`finslerkelvin.cli` - the `finsler-kelvin` command.
"""

from .fields import (
    ScalarField,
    constant_field,
    cubic_axis_field,
    gaussian_field,
    linear_field,
    norm_power_field,
    quadratic_field,
)
from .kelvin import (
    KelvinContext,
    det_invariant,
    hat_transform,
    jacobian_det,
    jacobian_matrix,
    kelvin_inverse,
    kelvin_map,
    map_second_derivative,
    reflection_determinant,
    star_transform,
)
from .norms import (
    ConvergenceError,
    EuclideanNorm,
    Jet2,
    NormSpec,
    NumericDualNorm,
    QuarticNorm,
    RiemannianNorm,
    SpdMatrix,
    check_ellipticity,
    dual_norm,
    dual_spec,
    equivalence_constants,
    eval_norm,
    format_norm,
    norm_jet,
    parse_norm,
)
from .operators import (
    NLaplaceValue,
    NumericJet,
    anisotropic_laplacian,
    auto_step,
    finsler_n_laplacian,
    numeric_jet,
)
from .report import ResidualReport, ResidualRows
from .verify import (
    ManufacturedProblem,
    SamplePlan,
    check_fundamental_solution,
    check_proof_identities,
    check_theorem_nlaplace,
    check_theorem_semilinear,
    manufacture_nlaplace,
    manufacture_semilinear,
    random_spd_matrix,
    run_counterexample_scan,
    run_identity_suite,
    run_kelvin_suite,
    run_nlaplace_suite,
    run_semilinear_suite,
    weak_form_crosscheck,
)

__version__ = "0.1.0"
