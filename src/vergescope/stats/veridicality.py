"""Pearson correlation, XR/reference log-ratio tables, and unit conversion."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..errors import CorrelationError, DomainError, MissingBaselineError, UnitError

__all__ = ["pearson_r", "LogRatioRow", "log_ratio_table", "unit_to_meters"]

_UNIT_TO_METERS = {
    "m": 1.0,
    "meter": 1.0,
    "meters": 1.0,
    "metre": 1.0,
    "metres": 1.0,
    "ft": 0.3048,
    "foot": 0.3048,
    "feet": 0.3048,
    "in": 0.0254,
    "inch": 0.0254,
    "inches": 0.0254,
    "cm": 0.01,
    "centimeter": 0.01,
    "centimeters": 0.01,
}


def unit_to_meters(value: float, unit: str) -> float:
    """Convert a reported distance to meters (1 ft = 0.3048 m, 1 in = 0.0254 m)."""
    if not (value > 0.0):
        raise DomainError(f"distance must be positive, got {value}")
    factor = _UNIT_TO_METERS.get(unit.strip().lower())
    if factor is None:
        raise UnitError(f"unknown distance unit {unit!r}")
    return value * factor


def pearson_r(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Pearson product-moment correlation and its square.

    Requires equal lengths of at least 3 and nonzero variance in both series.
    """
    if len(x) != len(y):
        raise CorrelationError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise CorrelationError(f"need at least 3 points, got {n}")
    mx = sum(x) / n
    my = sum(y) / n
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        raise CorrelationError("correlation undefined for a zero-variance series")
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    r = sxy / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    return r, r * r


REFERENCE_ENV = "Real"


@dataclass(frozen=True)
class LogRatioRow:
    participant_id: str
    end_depth_m: float
    environment: str
    measure: str
    log_ratio: float


def log_ratio_table(
    values_by_measure: Mapping[str, Mapping[tuple[str, float, str], float]],
) -> list[LogRatioRow]:
    """Natural-log ratios of each XR environment against ``REFERENCE_ENV`` ("Real").

    ``values_by_measure`` maps a measure name to per-(participant, depth,
    environment) positive values; every (participant, depth) cell must carry
    the reference environment for each measure it appears in. One output row
    per (participant, depth, XR environment, measure).
    """
    rows: list[LogRatioRow] = []
    for measure in sorted(values_by_measure):
        cells = values_by_measure[measure]
        grouped: dict[tuple[str, float], dict[str, float]] = {}
        for (pid, depth, env), value in cells.items():
            grouped.setdefault((pid, depth), {})[env] = value
        for (pid, depth) in sorted(grouped):
            envs = grouped[(pid, depth)]
            if REFERENCE_ENV not in envs:
                raise MissingBaselineError(
                    f"no {REFERENCE_ENV!r} value for participant {pid!r} at {depth} m ({measure})"
                )
            ref = envs[REFERENCE_ENV]
            if not (ref > 0.0):
                raise DomainError(f"non-positive reference value {ref} ({pid}, {depth} m, {measure})")
            for env in sorted(envs):
                if env == REFERENCE_ENV:
                    continue
                val = envs[env]
                if not (val > 0.0):
                    raise DomainError(f"non-positive value {val} ({pid}, {depth} m, {env}, {measure})")
                rows.append(LogRatioRow(pid, depth, env, measure, math.log(val / ref)))
    return rows
