"""Ordinary least squares, nested-model F tests, and backward stepwise refinement.

The F convention throughout: when comparing a nested pair inside a chain of
models, the error variance in the denominator comes from the most complete
model of the chain, F = ((R2_large - R2_small)/ddf) / ((1 - R2_complete)/df_complete).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Mapping, Sequence

import numpy as np

from ..errors import NestingError, RankDeficiencyError, VarianceShareError
from .fdist import f_sf
from .formula import ModelFormula, build_design_matrix

__all__ = [
    "FitResult",
    "ols_fit",
    "qr_solve",
    "f_test_from_r2",
    "stepwise_refine",
    "StepwiseTrace",
    "variance_attribution",
    "ShareDef",
]


@dataclass(frozen=True)
class FitResult:
    """A fitted linear model: coefficients plus the fit summaries the reports need."""

    formula: ModelFormula
    coefficients: dict[str, float]
    r_squared: float
    residual_df: int
    n: int
    rss: float
    tss: float

    @property
    def n_coefficients(self) -> int:
        return len(self.coefficients)


def qr_solve(x: np.ndarray, y: np.ndarray, *, check_rank: bool = True) -> np.ndarray:
    """Least-squares coefficients of ``y`` on the columns of ``x`` via QR.

    With ``check_rank`` a numerically singular ``x`` raises RankDeficiencyError
    before the solve; without it only an exactly singular R fails.
    """
    q, r = np.linalg.qr(x)
    if check_rank:
        n, k = x.shape
        diag = np.abs(np.diag(r))
        if diag.min() <= max(n, k) * np.finfo(float).eps * diag.max():
            raise RankDeficiencyError("design matrix is rank deficient")
    return np.linalg.solve(r, q.T @ y)


def ols_fit(
    data: Mapping[str, Sequence],
    formula: ModelFormula | str,
    levels: Mapping[str, Sequence[str]] | None = None,
) -> FitResult:
    """Least-squares fit of ``formula`` on columnar ``data`` via QR decomposition.

    Raises RankDeficiencyError when the design matrix is singular or when
    there are no residual degrees of freedom.
    """
    if isinstance(formula, str):
        formula = ModelFormula.parse(formula)
    if formula.response not in data:
        raise RankDeficiencyError(f"response {formula.response!r} not in data")
    y = np.asarray(data[formula.response], dtype=float)
    design = build_design_matrix(data, formula, levels)
    x = design.matrix
    n, k = x.shape
    if n <= k:
        raise RankDeficiencyError(f"need more rows ({n}) than coefficients ({k})")
    beta = qr_solve(x, y)
    resid = y - x @ beta
    rss = float(resid @ resid)
    tss = float(np.sum((y - y.mean()) ** 2))
    if not formula.terms or tss <= 0.0:
        r2 = 0.0  # the intercept-only fit explains nothing by definition
    else:
        r2 = 1.0 - rss / tss
        # With an intercept column rss <= tss exactly; trim float dust at the ends.
        r2 = min(1.0, max(0.0, r2)) if -1e-9 < r2 < 1.0 + 1e-9 else r2
    coefs = dict(zip(design.column_names, (float(b) for b in beta)))
    return FitResult(formula, coefs, r2, n - k, n, rss, tss)


def f_test_from_r2(
    r2_smaller: float,
    df_smaller: int,
    r2_larger: float,
    df_larger: int,
    r2_complete: float,
    df_complete: int,
) -> tuple[int, float, float]:
    """Core F computation on (R-squared, residual df) summaries.

    Returns (delta_df, F, p). A degenerate comparison of identical summaries
    yields (0, 0.0, 1.0).
    """
    delta_df = df_smaller - df_larger
    if delta_df == 0:
        if abs(r2_larger - r2_smaller) < 1e-12:
            return 0, 0.0, 1.0
        raise NestingError("models differ in R-squared but not in residual df")
    if delta_df < 0:
        raise NestingError("smaller model must have more residual df than larger")
    if df_complete <= 0:
        raise NestingError("complete model has no residual degrees of freedom")
    num = (r2_larger - r2_smaller) / delta_df
    den = (1.0 - r2_complete) / df_complete
    f = max(0.0, num / den)
    return delta_df, f, f_sf(f, delta_df, df_complete)


def _aic(fit: FitResult) -> float:
    # R's extractAIC scale for lm: n*log(RSS/n) + 2*edf, additive constant dropped.
    return fit.n * math.log(fit.rss / fit.n) + 2.0 * fit.n_coefficients


@dataclass
class StepwiseStep:
    formula: ModelFormula
    candidates: list[dict]


@dataclass
class StepwiseTrace:
    criterion: str
    complete: FitResult
    steps: list[StepwiseStep] = field(default_factory=list)

    def reduced(self) -> FitResult | None:
        """The least harmful single-term reduction of the refined model.

        That is the highest-``p`` candidate of the last step (the first of
        tied ones), or None when the refined model has no droppable term.
        """
        candidates = self.steps[-1].candidates
        return max(candidates, key=lambda c: c["p"])["fit"] if candidates else None


def stepwise_refine(
    data: Mapping[str, Sequence],
    complete_formula: ModelFormula | str,
    criterion: Literal["f_test", "aic"] = "f_test",
    alpha: float = 0.05,
    levels: Mapping[str, Sequence[str]] | None = None,
) -> tuple[FitResult, StepwiseTrace]:
    """Backward elimination from the complete model.

    At each step, only terms not contained in a remaining interaction may be
    dropped. Under ``f_test``, the least harmful droppable term (largest p
    against the current model, error variance from the complete model) is
    removed while its p exceeds ``alpha``. Under ``aic``, the drop that most
    lowers AIC is taken while any drop lowers it. Returns the refined fit and
    the full trace of candidate evaluations: each candidate records its
    ``term``, its ``fit``, that fit's ``r_squared`` and the ``f`` and ``p`` of
    its F test against the current model under either criterion, plus its
    ``aic`` under ``aic``.
    """
    if isinstance(complete_formula, str):
        complete_formula = ModelFormula.parse(complete_formula)
    complete = ols_fit(data, complete_formula, levels)
    trace = StepwiseTrace(criterion, complete)
    current = complete
    while True:
        droppable = current.formula.droppable_terms()
        step = StepwiseStep(current.formula, [])
        trace.steps.append(step)
        if not droppable:
            return current, trace
        best: tuple[float, FitResult] | None = None
        for term in droppable:
            reduced = ols_fit(data, current.formula.without(term), levels)
            _, f, p = f_test_from_r2(
                reduced.r_squared,
                reduced.residual_df,
                current.r_squared,
                current.residual_df,
                complete.r_squared,
                complete.residual_df,
            )
            candidate = {"term": term, "fit": reduced, "r_squared": reduced.r_squared, "f": f, "p": p}
            if criterion == "f_test":
                score = p
                keep = best is None or score > best[0]
            else:
                score = candidate["aic"] = _aic(reduced)
                keep = best is None or score < best[0]
            step.candidates.append(candidate)
            if keep:
                best = (score, reduced)
        assert best is not None
        score, reduced = best
        if criterion == "f_test":
            if score <= alpha:
                return current, trace
        else:
            if score >= _aic(current):
                return current, trace
        current = reduced


@dataclass(frozen=True)
class ShareDef:
    """One variance-attribution line: (R2[hi] - R2[lo]) / R2[denominator].

    ``lo`` of None means a zero-R-squared floor, giving R2[hi]/R2[denominator].
    """

    predictor: str
    hi: str
    lo: str | None
    denominator: str


def variance_attribution(models: Mapping[str, FitResult], shares: Sequence[ShareDef]) -> dict[str, float]:
    """Explained-variance shares between named models of a refinement chain."""
    out: dict[str, float] = {}
    for s in shares:
        den = models[s.denominator].r_squared
        if den == 0.0:
            raise VarianceShareError(
                f"attribution for {s.predictor!r} undefined: model {s.denominator!r} has zero R-squared"
            )
        hi = models[s.hi].r_squared
        lo = models[s.lo].r_squared if s.lo is not None else 0.0
        out[s.predictor] = (hi - lo) / den
    return out
