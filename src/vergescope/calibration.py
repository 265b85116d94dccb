"""Per-participant linear calibration between vergence angle and diopters.

The calibration line ``gva = a + b * D`` is fitted per participant in diopter
space (pooled across environments unless asked otherwise); its inverse maps a
measured vergence angle back to metric depth. Normalization subtracts the
fitted intercept, leaving slopes, residuals, and R-squared untouched.
``DepthStream`` applies the inverse to live gaze rows, behind ``estimate``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    CalibrationRangeError,
    InvalidModelError,
    MissingLevelError,
    ParticipantMismatchError,
    RankDeficiencyError,
    VergescopeError,
)
from .geometry import vergence_angle, vergence_angles
from .pipeline import VelocityGate
from .stats import ModelFormula, ols_fit
from .stats.linmod import qr_solve

__all__ = [
    "ParticipantModel",
    "GvaObservation",
    "fit_participant",
    "fit_participants",
    "normalize_gva",
    "estimate_depth",
    "DepthStream",
    "environment_offsets",
]


@dataclass(frozen=True)
class ParticipantModel:
    """Calibration line for one participant: intercept (deg), slope (deg/D)."""

    participant_id: str
    intercept_deg: float
    slope_deg_per_d: float
    residual_sd_deg: float
    n_points: int
    # Calibrated diopter range; None when the model came from serialized form.
    d_min: float | None = None
    d_max: float | None = None

    def to_dict(self) -> dict:
        return {
            "participant_id": self.participant_id,
            "intercept_deg": self.intercept_deg,
            "slope_deg_per_diopter": self.slope_deg_per_d,
            "residual_sd_deg": self.residual_sd_deg,
            "n_points": self.n_points,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "ParticipantModel":
        """The model of a ``to_dict`` mapping; a non-finite intercept, slope or residual SD raises ValueError."""
        model = cls(
            participant_id=str(d["participant_id"]),
            intercept_deg=float(d["intercept_deg"]),
            slope_deg_per_d=float(d["slope_deg_per_diopter"]),
            residual_sd_deg=float(d["residual_sd_deg"]),
            n_points=int(d["n_points"]),
        )
        if not all(map(math.isfinite, (model.intercept_deg, model.slope_deg_per_d, model.residual_sd_deg))):
            raise ValueError("intercept_deg, slope_deg_per_diopter and residual_sd_deg must be finite")
        return model


@dataclass(frozen=True)
class GvaObservation:
    """One analyzed vergence value for a (participant, environment, end depth) cell."""

    participant_id: str
    environment: str
    end_depth_d: float
    gva_deg: float
    normalized_gva_deg: float | None = None


def fit_participant(points: Sequence[tuple[float, float]], participant_id: str = "") -> ParticipantModel:
    """Ordinary least-squares line through (diopters, degrees) points.

    Needs at least two points whose diopters spread by more than 1e-9 of the
    largest |diopter|; a slope across a narrower spread is mostly rounding
    error. The residual SD uses n - 2 degrees of freedom (zero when saturated).
    """
    if len(points) < 2:
        raise RankDeficiencyError(f"need >= 2 calibration points, got {len(points)}")
    d = np.asarray([p[0] for p in points], dtype=float)
    g = np.asarray([p[1] for p in points], dtype=float)
    spread = float(np.ptp(d))
    if spread <= 1e-9 * float(np.abs(d).max()):
        raise RankDeficiencyError(f"calibration diopters spread by {spread!r} D, too little to fit a slope")
    a, b = qr_solve(np.column_stack([np.ones_like(d), d]), g, check_rank=False)
    resid = g - (a + b * d)
    df = len(points) - 2
    residual_sd = math.sqrt(float(resid @ resid) / df) if df > 0 else 0.0
    return ParticipantModel(
        participant_id=participant_id,
        intercept_deg=float(a),
        slope_deg_per_d=float(b),
        residual_sd_deg=residual_sd,
        n_points=len(points),
        d_min=float(d.min()),
        d_max=float(d.max()),
    )


def fit_participants(
    observations: Iterable[GvaObservation],
    by_environment: bool = False,
) -> dict:
    """Fit one model per participant (default) or per (participant, environment).

    Reads ``participant_id``, ``environment``, ``end_depth_d`` and ``gva_deg``
    only, so ``analysis.ConditionCell``s are accepted as they are.
    """
    groups: dict = defaultdict(list)
    for obs in observations:
        key = (obs.participant_id, obs.environment) if by_environment else obs.participant_id
        groups[key].append((obs.end_depth_d, obs.gva_deg))
    out = {}
    for key in sorted(groups):
        pid = key if isinstance(key, str) else key[0]
        out[key] = fit_participant(groups[key], participant_id=pid)
    return out


def normalize_gva(obs: GvaObservation, model: ParticipantModel) -> GvaObservation:
    """Subtract the participant's fitted intercept from the observation (or condition cell)."""
    if obs.participant_id != model.participant_id:
        raise ParticipantMismatchError(
            f"observation for {obs.participant_id!r} paired with model for {model.participant_id!r}"
        )
    return replace(obs, normalized_gva_deg=obs.gva_deg - model.intercept_deg)


def estimate_depth(gva_deg: float, model: ParticipantModel) -> tuple[float, float]:
    """Invert the calibration line: returns (diopters, meters).

    Rejects non-positive slopes, non-positive diopter estimates, and (when the
    calibrated range is known) estimates outside [d_min/2, 2*d_max]; a 1/D map
    extrapolated toward zero diopters explodes, so out-of-range values are
    errors rather than clamped.
    """
    if model.slope_deg_per_d <= 0.0:
        raise InvalidModelError(
            f"model for {model.participant_id!r} has non-positive slope {model.slope_deg_per_d}"
        )
    d_hat = (gva_deg - model.intercept_deg) / model.slope_deg_per_d
    if d_hat <= 0.0:
        raise CalibrationRangeError(
            f"estimated {d_hat:.4f} D is at or below zero (gva {gva_deg:.3f} deg)"
        )
    if model.d_min is not None and model.d_max is not None:
        if d_hat > 2.0 * model.d_max or d_hat < model.d_min / 2.0:
            raise CalibrationRangeError(
                f"estimated {d_hat:.4f} D outside trusted range "
                f"[{model.d_min / 2.0:.4f}, {2.0 * model.d_max:.4f}] D"
            )
    return d_hat, 1.0 / d_hat


class DepthStream:
    """Depth estimates for gaze rows pushed in blocks of any size; the split does not change the output.

    A row is dropped when ``min(l_conf, r_conf) < confidence``, when its angle
    is NaN (NaN or all-zero vectors), or when one ``pipeline.VelocityGate``,
    held across pushes as ``velocity_filter`` holds one over a trial, drops it:
    the rows that reach it need strictly increasing timestamps.
    A push of several rows makes one ``geometry.vergence_angles`` call; a push
    left with one row calls ``geometry.vergence_angle``, which gives the same
    bits.
    """

    def __init__(self, model: ParticipantModel, confidence: float = 0.75, max_velocity: float = 5000.0):
        self.model = model
        self.confidence = confidence
        self._gate = VelocityGate(max_velocity)

    def push(self, rows: Sequence[Sequence[float]]) -> Iterator[tuple[float, float, float]]:
        """Yield ``(t_s, gva_deg, meters)`` for each kept row of 15 floats in gaze-CSV column order.

        ``meters`` is NaN where ``estimate_depth`` refuses the angle. The rows
        before a repeated timestamp are yielded before its DomainError.
        """
        rows = [row for row in rows if min(row[1], row[2]) >= self.confidence]
        if not rows:
            return
        if len(rows) == 1:
            (row,) = rows
            angles = [vergence_angle(row[6:9], row[12:15])]
        else:
            table = np.array(rows, dtype=float)
            angles = vergence_angles(table[:, 6:9], table[:, 12:15]).tolist()
        for row, gva in zip(rows, angles):
            t = row[0]
            if gva != gva or not self._gate.keep(t, gva):
                continue
            try:
                meters = estimate_depth(gva, self.model)[1]
            except VergescopeError:
                meters = math.nan
            yield t, gva, meters


def environment_offsets(
    observations: Sequence[GvaObservation],
    environments: Sequence[str] = ("Real", "AR", "VR"),
) -> dict:
    """Per-environment intercepts of the additive model on normalized values.

    Fits ``gva ~ end_depth_d + environment`` with the first environment as
    reference and reports each environment's intercept relative to the common
    one plus the pairwise differences against the reference. Raises
    MissingLevelError when any requested environment has no data. Like
    ``fit_participants``, it accepts ``analysis.ConditionCell``s as they are.
    """
    present = {obs.environment for obs in observations}
    missing = [e for e in environments if e not in present]
    if missing:
        raise MissingLevelError(f"no observations for environment(s) {missing}")
    values = []
    for obs in observations:
        v = obs.normalized_gva_deg
        if v is None:
            raise MissingLevelError(
                f"observation for {obs.participant_id!r} lacks a normalized value"
            )
        values.append(v)
    data = {
        "gva": values,
        "end_depth_d": [obs.end_depth_d for obs in observations],
        "environment": [obs.environment for obs in observations],
    }
    fit = ols_fit(
        data,
        ModelFormula.parse("gva ~ end_depth_d + environment"),
        levels={"environment": list(environments)},
    )
    reference = environments[0]
    offsets = {reference: 0.0}
    for env in environments[1:]:
        offsets[env] = fit.coefficients[f"environment[{env}]"]
    differences = {f"{env}-{reference}": offsets[env] for env in environments[1:]}
    return {
        "reference": reference,
        "intercept_deg": fit.coefficients["intercept"],
        "slope_deg_per_d": fit.coefficients["end_depth_d"],
        "offsets_deg": offsets,
        "differences_deg": differences,
        "r_squared": fit.r_squared,
    }
