"""Analysis workflows: condition tables, model chains, and report assembly.

Builds the averaged observation tables from preprocessed trials, fits the
standard model chains (complete, stepwise-fitted, reduced) on raw and
intercept-normalized vergence angles, the vergence-stability chain with the
switching-depth predictor, and the subjective-vs-measured veridicality
analysis (log ratios plus per-environment correlations).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .calibration import (
    ParticipantModel,
    environment_offsets,
    fit_participants,
    normalize_gva,
)
from .errors import DomainError, VarianceShareError
from .pipeline import validity_gate
from .recording import DepthPair
from .stats import (
    FitResult,
    ModelFormula,
    ShareDef,
    classify_p,
    f_test_from_r2,
    format_p,
    log_ratio_table,
    ols_fit,
    pearson_r,
    stepwise_refine,
    unit_to_meters,
    variance_attribution,
)
from .synth import SubjectiveReport

__all__ = [
    "ConditionCell",
    "condition_means",
    "stability_means",
    "attach_normalized",
    "analyze_depth_environment",
    "analyze_stability",
    "analyze_veridicality",
    "subjective_diopters",
    "run_analysis",
]

ENVIRONMENTS = ("Real", "AR", "VR")


@dataclass(frozen=True)
class ConditionCell(DepthPair):
    """One averaged observation: a (participant, environment, condition) mean."""

    participant_id: str
    environment: str
    start_depth_m: float | None
    end_depth_m: float
    gva_deg: float
    n_trials: int
    normalized_gva_deg: float | None = None


def _mean_cells(rows: Iterable, key_start: bool) -> list[ConditionCell]:
    groups: dict[tuple, list[float]] = defaultdict(list)
    for r in rows:
        if not r.valid or r.gva_mean_deg is None:
            continue
        key = (
            (r.participant_id, r.environment, r.start_depth_m, r.end_depth_m)
            if key_start
            else (r.participant_id, r.environment, None, r.end_depth_m)
        )
        groups[key].append(r.gva_mean_deg)
    cells = []
    for key in sorted(groups, key=lambda k: (k[0], k[1], k[3], k[2] if k[2] is not None else 0.0)):
        pid, env, start, end = key
        values = groups[key]
        cells.append(ConditionCell(pid, env, start, end, float(np.mean(values)), len(values)))
    return cells


def condition_means(rows: Iterable) -> list[ConditionCell]:
    """Average valid trials per (participant, environment, end depth)."""
    return _mean_cells(rows, key_start=False)


def stability_means(rows: Iterable) -> list[ConditionCell]:
    """Average valid trials per (participant, environment, depth pair)."""
    return _mean_cells(rows, key_start=True)


def attach_normalized(
    cells: Sequence[ConditionCell], models: Mapping[str, ParticipantModel]
) -> list[ConditionCell]:
    return [normalize_gva(c, models[c.participant_id]) for c in cells]


def _response(cells: Sequence[ConditionCell], normalized: bool) -> list[float]:
    values = [c.normalized_gva_deg if normalized else c.gva_deg for c in cells]
    if None in values:
        raise DomainError("normalized analysis requested but cells are not normalized")
    return values


def _chain(
    head: Sequence[tuple[str, FitResult]], fm: FitResult, rm: FitResult | None
) -> tuple[dict[str, FitResult], list[dict]]:
    """The printed chain: the head models, fm unless it repeats one of them, then rm.

    Each row is F-tested against the nearest model above it whose terms
    contain its terms, fm included where it is not printed; the error
    variance comes from the first head model. Returns the printed models by
    tag and the rows.
    """
    chain = [*head, ("fm", fm)] + ([("rm", rm)] if rm is not None else [])
    fm_repeats = any(fm.formula.terms == fit.formula.terms for _, fit in head)
    complete = head[0][1]
    printed, rows = {}, []
    for i, (tag, fit) in enumerate(chain):
        if tag == "fm" and fm_repeats:
            continue
        printed[tag] = fit
        row = {
            "model": tag,
            "formula": fit.formula.to_string(),
            "r_squared": fit.r_squared,
            "res_df": fit.residual_df,
            "delta_df": None,
            "f": None,
            "p": None,
            "p_label": None,
            "p_class": None,
        }
        if i:
            larger = next(up for _, up in reversed(chain[:i]) if up.formula.contains(fit.formula))
            delta_df, f, p = f_test_from_r2(
                fit.r_squared,
                fit.residual_df,
                larger.r_squared,
                larger.residual_df,
                complete.r_squared,
                complete.residual_df,
            )
            row.update(delta_df=-delta_df, f=f, p=p, p_label=format_p(p), p_class=classify_p(p))
        rows.append(row)
    return printed, rows


def _shares(models: Mapping[str, FitResult], defs: Sequence[ShareDef]) -> dict[str, float]:
    """Variance shares in percent, omitting any whose models do not nest; empty when a denominator explains nothing."""
    nested = [d for d in defs if d.lo is None or models[d.hi].formula.contains(models[d.lo].formula)]
    try:
        return {k: 100.0 * v for k, v in variance_attribution(models, nested).items()}
    except VarianceShareError:
        return {}


def _terms_with(formula: ModelFormula, name: str) -> bool:
    return any(name in t for t in formula.terms)


def analyze_depth_environment(
    cells: Sequence[ConditionCell],
    normalized: bool = False,
    criterion: str = "f_test",
    alpha: float = 0.05,
) -> dict:
    """The end-depth-by-environment chain on (optionally normalized) angles.

    Fits the complete model ``value ~ end_depth_d * environment``, refines it
    by backward stepwise elimination, reduces the fitted model once more, and
    attributes explained variance between end depth and environment following
    the table-footer conventions of the corresponding analysis."""
    data = {
        "gva": _response(cells, normalized),
        "end_depth_d": [c.end_depth_d for c in cells],
        "environment": [c.environment for c in cells],
    }
    levels = {"environment": [e for e in ENVIRONMENTS if e in set(data["environment"])]}
    fm, trace = stepwise_refine(
        data, "gva ~ end_depth_d * environment", criterion=criterion, alpha=alpha, levels=levels
    )
    cm = trace.complete
    models, rows = _chain([("cm", cm)], fm, trace.reduced())
    attribution = {}
    convention = None
    if "fm" in models and _terms_with(fm.formula, "environment") and "rm" in models:
        # Fitted model keeps environment: shares against the fitted model.
        convention = "within_fitted"
        attribution = _shares(
            models, [ShareDef("end_depth", "rm", None, "fm"), ShareDef("environment", "fm", "rm", "fm")]
        )
    elif "fm" in models:
        # Environment family dropped outright: shares against the complete model.
        convention = "within_complete"
        attribution = _shares(
            models, [ShareDef("end_depth", "fm", None, "cm"), ShareDef("environment", "cm", "fm", "cm")]
        )
    return {
        "response": "normalized_gva_deg" if normalized else "gva_deg",
        "rows": rows,
        "fitted_formula": fm.formula.to_string(),
        "fitted_coefficients": fm.coefficients,
        "attribution": attribution,
        "attribution_convention": convention,
        "n": cm.n,
    }


def _depth_label(depth_m: float) -> str:
    return f"{depth_m:g}m"


def analyze_stability(
    cells: Sequence[ConditionCell],
    normalized: bool = True,
    criterion: str = "f_test",
    alpha: float = 0.05,
) -> dict:
    """The vergence-stability chain: switching depth * end depth * environment.

    End depth enters as a categorical factor here; switching depth is the
    continuous dioptric magnitude of the eye movement. On the normalized
    response the printed chain interposes a second complete model with every
    switching-depth term removed, isolating that predictor's contribution.
    """
    depth_levels = sorted({c.end_depth_m for c in cells})
    data = {
        "gva": _response(cells, normalized),
        "switch_depth_d": [c.switch_depth_d for c in cells],
        "end_depth": [_depth_label(c.end_depth_m) for c in cells],
        "environment": [c.environment for c in cells],
    }
    levels = {
        "environment": [e for e in ENVIRONMENTS if e in set(data["environment"])],
        "end_depth": [_depth_label(d) for d in depth_levels],
    }
    cm1_formula = ModelFormula.parse("gva ~ switch_depth_d * end_depth * environment")
    fm, trace = stepwise_refine(data, cm1_formula, criterion=criterion, alpha=alpha, levels=levels)
    cm1 = trace.complete
    attribution = {}
    if normalized:
        cm2_formula = ModelFormula(
            "gva", tuple(t for t in cm1_formula.terms if "switch_depth_d" not in t)
        )
        cm2 = ols_fit(data, cm2_formula, levels)
        models, rows = _chain([("cm1", cm1), ("cm2", cm2)], fm, trace.reduced())
        if "rm" in models and "fm" in models:
            attribution = _shares(
                models,
                [
                    ShareDef("end_depth", "rm", None, "cm1"),
                    ShareDef("environment", "cm2", "rm", "cm2"),
                    ShareDef("switch_depth", "cm1", "cm2", "cm1"),
                ],
            )
    else:
        _, rows = _chain([("cm", cm1)], fm, trace.reduced())
    return {
        "response": "normalized_gva_deg" if normalized else "gva_deg",
        "rows": rows,
        "fitted_formula": fm.formula.to_string(),
        "switch_depth_retained": _terms_with(fm.formula, "switch_depth_d"),
        "attribution": attribution,
        "n": cm1.n,
    }


def subjective_diopters(reports: Sequence[SubjectiveReport]) -> dict[tuple[str, float, str], float]:
    """Average verbal reports into diopters per (participant, depth, environment)."""
    groups: dict[tuple[str, float, str], list[float]] = defaultdict(list)
    for r in reports:
        meters = unit_to_meters(r.report_value, r.unit)
        groups[(r.participant_id, r.depth_m, r.environment)].append(1.0 / meters)
    return {key: float(np.mean(v)) for key, v in sorted(groups.items())}


def analyze_veridicality(
    cells: Sequence[ConditionCell],
    reports: Sequence[SubjectiveReport],
    criterion: str = "f_test",
    alpha: float = 0.05,
) -> dict:
    """Log-ratio comparison of measured vergence angle vs subjective depth.

    Both measures are reduced to ln(XR / reference) per participant and depth;
    the chain models log ratio on end depth, environment, and measure. Also
    reports per-environment correlations between subjective depth (diopters)
    and normalized vergence angle.
    """
    gva_vals: dict[tuple[str, float, str], float] = {}
    norm_vals: dict[tuple[str, float, str], float] = {}
    for c in cells:
        key = (c.participant_id, c.end_depth_m, c.environment)
        gva_vals[key] = c.gva_deg
        if c.normalized_gva_deg is not None:
            norm_vals[key] = c.normalized_gva_deg
    subj = subjective_diopters(reports)
    rows = log_ratio_table({"gva": gva_vals, "subjective": subj})
    data = {
        "log_ratio": [r.log_ratio for r in rows],
        "end_depth_d": [1.0 / r.end_depth_m for r in rows],
        "environment": [r.environment for r in rows],
        "measure": [r.measure for r in rows],
    }
    env_levels = sorted({r.environment for r in rows})
    levels = {"environment": env_levels, "measure": ["gva", "subjective"]}
    cm_formula = "log_ratio ~ end_depth_d * environment * measure"
    fm, trace = stepwise_refine(data, cm_formula, criterion=criterion, alpha=alpha, levels=levels)
    cm = trace.complete
    models, chain_rows = _chain([("cm", cm)], fm, trace.reduced())
    attribution = {}
    if {"cm", "fm", "rm"} <= set(models):
        attribution = _shares(
            models,
            [
                ShareDef("measure", "rm", None, "cm"),
                ShareDef("environment", "fm", "rm", "fm"),
                ShareDef("end_depth", "cm", "fm", "cm"),
            ],
        )
    mean_ratios: dict[str, dict[str, float]] = defaultdict(dict)
    for measure in ("gva", "subjective"):
        for env in env_levels:
            vals = [r.log_ratio for r in rows if r.measure == measure and r.environment == env]
            if vals:
                mean_ratios[measure][env] = float(np.mean(vals))

    correlations = {}
    env_all = sorted({c.environment for c in cells})
    for env in env_all:
        xs, ys = [], []
        for c in cells:
            key = (c.participant_id, c.end_depth_m, c.environment)
            if c.environment == env and key in subj and key in norm_vals:
                xs.append(subj[key])
                ys.append(norm_vals[key])
        if len(xs) >= 3:
            r, r2 = pearson_r(xs, ys)
            correlations[env] = {"r": r, "r_squared_percent": 100.0 * r2, "n": len(xs)}

    return {
        "rows": chain_rows,
        "fitted_formula": fm.formula.to_string(),
        "attribution": attribution,
        "n": cm.n,
        "mean_log_ratios": {k: dict(v) for k, v in mean_ratios.items()},
        "ratio_factors": {
            m: {e: math.exp(v) for e, v in envs.items()} for m, envs in mean_ratios.items()
        },
        "correlations": correlations,
        "table": [
            {
                "participant_id": r.participant_id,
                "end_depth_m": r.end_depth_m,
                "environment": r.environment,
                "measure": r.measure,
                "log_ratio": r.log_ratio,
            }
            for r in rows
        ],
    }


def run_analysis(
    table_rows: Sequence,
    models: Mapping[str, ParticipantModel] | None = None,
    include_normalized: bool = True,
    include_stability: bool = False,
    subjective: Sequence[SubjectiveReport] | None = None,
    criterion: str = "f_test",
    alpha: float = 0.05,
    min_valid_trials_per_pair: int = 3,
    min_valid_pairs_per_environment: int = 6,
    required_valid_environments: int = 3,
) -> dict:
    """Run the standard analysis battery over a preprocessed trial table."""
    _, retained = validity_gate(
        table_rows,
        min_valid_trials_per_pair,
        min_valid_pairs_per_environment,
        required_valid_environments,
    )
    rows = [r for r in table_rows if r.participant_id in retained and r.valid]
    if not rows:
        raise DomainError("no valid trials from retained participants")
    cells = condition_means(rows)
    if models is None:
        models = fit_participants(cells)
    cells = attach_normalized(cells, models)
    out: dict = {
        "n_analyzed_trials": len(rows),
        "retained_participants": retained,
        "participant_models": {
            pid: models[pid].to_dict() for pid in sorted(models) if isinstance(pid, str)
        },
        "depth_environment": analyze_depth_environment(cells, False, criterion, alpha),
        "data": {
            "condition_means": [
                {
                    "participant_id": c.participant_id,
                    "environment": c.environment,
                    "end_depth_m": c.end_depth_m,
                    "end_depth_d": c.end_depth_d,
                    "gva_deg": c.gva_deg,
                    "normalized_gva_deg": c.normalized_gva_deg,
                    "n_trials": c.n_trials,
                }
                for c in cells
            ]
        },
    }
    if include_normalized:
        out["normalized"] = analyze_depth_environment(cells, True, criterion, alpha)
        try:
            out["environment_offsets"] = environment_offsets(
                cells,
                environments=[e for e in ENVIRONMENTS if any(c.environment == e for c in cells)],
            )
        except DomainError:
            pass
    if include_stability:
        st_cells = attach_normalized(stability_means(rows), models)
        out["stability"] = analyze_stability(st_cells, normalized=True, criterion=criterion, alpha=alpha)
        out["stability_raw"] = analyze_stability(st_cells, normalized=False, criterion=criterion, alpha=alpha)
        out["data"]["stability_means"] = [
            {
                "participant_id": c.participant_id,
                "environment": c.environment,
                "start_depth_m": c.start_depth_m,
                "end_depth_m": c.end_depth_m,
                "switch_depth_d": c.switch_depth_d,
                "gva_deg": c.gva_deg,
                "normalized_gva_deg": c.normalized_gva_deg,
                "n_trials": c.n_trials,
            }
            for c in st_cells
        ]
    if subjective is not None:
        out["veridicality"] = analyze_veridicality(cells, subjective, criterion=criterion, alpha=alpha)
    return out
