"""Self-contained regression machinery: design matrices, OLS, nested F tests,
stepwise refinement, variance attribution, correlation, and log-ratio tables."""

from .fdist import betainc_regularized, classify_p, f_cdf, f_sf, format_p
from .formula import ModelFormula, Term, build_design_matrix
from .linmod import (
    FitResult,
    ShareDef,
    StepwiseTrace,
    f_test_from_r2,
    ols_fit,
    stepwise_refine,
    variance_attribution,
)
from .veridicality import LogRatioRow, log_ratio_table, pearson_r, unit_to_meters

__all__ = [
    "betainc_regularized",
    "classify_p",
    "f_cdf",
    "f_sf",
    "format_p",
    "ModelFormula",
    "Term",
    "build_design_matrix",
    "FitResult",
    "ShareDef",
    "StepwiseTrace",
    "f_test_from_r2",
    "ols_fit",
    "stepwise_refine",
    "variance_attribution",
    "LogRatioRow",
    "log_ratio_table",
    "pearson_r",
    "unit_to_meters",
]
