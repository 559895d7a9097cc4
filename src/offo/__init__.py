"""Objective-function-free trust-region optimization toolkit."""

from .bench import (
    BenchResults,
    TheoryConstants,
    aggregate,
    constants_from_run,
    quadratic_testbed,
    run_matrix,
    series_suite,
    success,
    theory_check,
)
from .driver import RunConfig, RunRecord, astr1, fdecrease_margins, run_variant, sdba, variant_config
from .model import HessianModel, apply_model, update_model
from .problems import (
    NoisyProblem,
    Problem,
    diag_quadratic,
    load_suite,
    suite_names,
)
from .scaling import ScalingState, ScalingStrategy, init_scaling, update_scaling
from .sharpness import (
    Interpolant,
    KnotSequence,
    build_counterexample,
    interpolant_problem,
    lambert_wm1,
    verify_sharpness,
    zeta,
)
from .step import CauchyData, TrustRegion, cauchy_point, make_region, solve_tr_step

__version__ = "0.1.0"

__all__ = [
    "BenchResults", "CauchyData", "HessianModel", "Interpolant", "KnotSequence",
    "NoisyProblem", "Problem", "RunConfig", "RunRecord", "ScalingState",
    "ScalingStrategy", "TheoryConstants", "TrustRegion", "aggregate", "apply_model",
    "astr1", "build_counterexample", "cauchy_point", "constants_from_run",
    "diag_quadratic", "fdecrease_margins", "init_scaling",
    "interpolant_problem", "lambert_wm1", "load_suite", "make_region",
    "quadratic_testbed", "run_matrix", "run_variant", "sdba",
    "series_suite", "solve_tr_step", "success", "suite_names", "theory_check",
    "update_model", "update_scaling", "variant_config", "verify_sharpness", "zeta",
]
