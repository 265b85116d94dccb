"""Sample and trial containers for binocular recordings.

Series are stored column-wise (numpy arrays) so the cleaning cascade can run
vectorized over full trials. Invalidated samples keep their slot in the series
so the temporal structure of the raw recording is never lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DomainError
from .geometry import vergence_angles

__all__ = [
    "SampleStatus",
    "GazeSeries",
    "DepthPair",
    "TrialRecord",
    "LANDOLT_DIRECTIONS",
]

LANDOLT_DIRECTIONS = ("left", "right", "top", "bottom")


class SampleStatus:
    """Tri-state sample validity, with invalidation reasons."""

    VALID = 0
    LOW_CONFIDENCE = 1
    VELOCITY_SPIKE = 2
    OUTLIER = 3
    MISSING = 4

    NAMES = {
        VALID: "valid",
        LOW_CONFIDENCE: "low_confidence",
        VELOCITY_SPIKE: "velocity_spike",
        OUTLIER: "outlier",
        MISSING: "missing",
    }


class GazeSeries:
    """Column-oriented series of binocular samples.

    Vergence angles are computed once at construction; samples whose vectors
    are unusable (NaN or zero norm) are marked missing.
    """

    def __init__(
        self,
        t_s: np.ndarray,
        l_origin: np.ndarray,
        l_dir: np.ndarray,
        r_origin: np.ndarray,
        r_dir: np.ndarray,
        l_conf: np.ndarray,
        r_conf: np.ndarray,
        status: np.ndarray | None = None,
        gva_deg: np.ndarray | None = None,
    ):
        self.t_s = np.asarray(t_s, dtype=float)
        n = len(self.t_s)
        self.l_origin = np.asarray(l_origin, dtype=float).reshape(n, 3)
        self.l_dir = np.asarray(l_dir, dtype=float).reshape(n, 3)
        self.r_origin = np.asarray(r_origin, dtype=float).reshape(n, 3)
        self.r_dir = np.asarray(r_dir, dtype=float).reshape(n, 3)
        self.l_conf = np.asarray(l_conf, dtype=float)
        self.r_conf = np.asarray(r_conf, dtype=float)
        if n and np.any(np.diff(self.t_s) < 0):
            raise DomainError("sample timestamps must be non-decreasing")
        if status is None:
            status = np.zeros(n, dtype=np.int8)
        self.status = np.asarray(status, dtype=np.int8).copy()
        if gva_deg is None:
            gva_deg = vergence_angles(self.l_dir, self.r_dir)
            self.status[np.isnan(gva_deg) & (self.status == SampleStatus.VALID)] = SampleStatus.MISSING
        self.gva_deg = np.asarray(gva_deg, dtype=float)

    def __len__(self) -> int:
        return len(self.t_s)

    def copy(self) -> "GazeSeries":
        return GazeSeries(
            self.t_s,
            self.l_origin,
            self.l_dir,
            self.r_origin,
            self.r_dir,
            self.l_conf,
            self.r_conf,
            status=self.status,
            gva_deg=self.gva_deg,
        )

    @property
    def valid_mask(self) -> np.ndarray:
        return self.status == SampleStatus.VALID

    def status_counts(self) -> dict[str, int]:
        counts = {name: 0 for name in SampleStatus.NAMES.values()}
        values, tallies = np.unique(self.status, return_counts=True)
        for v, c in zip(values, tallies):
            counts[SampleStatus.NAMES[int(v)]] = int(c)
        return counts

    def cyclopean_angles(self) -> tuple[np.ndarray, np.ndarray]:
        """Azimuth and elevation (degrees) of the mean gaze direction per sample."""
        mean = 0.5 * (self.l_dir + self.r_dir)
        with np.errstate(invalid="ignore"):
            az = np.degrees(np.arctan2(mean[:, 0], mean[:, 2]))
            el = np.degrees(np.arctan2(mean[:, 1], np.hypot(mean[:, 0], mean[:, 2])))
        return az, el


class DepthPair:
    """Field-less mixin: the diopter views of ``start_depth_m`` -> ``end_depth_m``.

    A cell averaged over start depths has ``start_depth_m`` None and no start
    or switching depth.
    """

    @property
    def end_depth_d(self) -> float:
        return 1.0 / self.end_depth_m

    @property
    def start_depth_d(self) -> float:
        if self.start_depth_m is None:
            raise DomainError("cell was averaged over start depths")
        return 1.0 / self.start_depth_m

    @property
    def switch_depth_d(self) -> float:
        """Magnitude of the dioptric change from start to end depth."""
        return abs(self.start_depth_d - self.end_depth_d)


@dataclass(frozen=True)
class TrialRecord(DepthPair):
    """One vergence eye-movement trial with its metadata and sample series."""

    participant_id: str
    environment: str
    trial_id: str
    start_depth_m: float
    end_depth_m: float
    stimulus_onset_s: float
    response_s: float | None
    samples: GazeSeries
    landolt_direction: str = "right"
    landolt_response: str = "right"
    fixation_onset_s: float | None = None

    def __post_init__(self):
        if not (self.start_depth_m > 0.0) or not (self.end_depth_m > 0.0):
            raise DomainError("trial depths must be positive")
        if self.start_depth_m == self.end_depth_m:
            raise DomainError("start and end depth must differ")
        if self.landolt_response not in LANDOLT_DIRECTIONS + ("timeout",):
            raise DomainError(f"bad landolt response {self.landolt_response!r}")
        if self.fixation_onset_s is not None:
            if self.fixation_onset_s < self.stimulus_onset_s:
                raise DomainError("fixation onset precedes stimulus onset")
            if self.response_s is not None and self.fixation_onset_s > self.response_s:
                raise DomainError("fixation onset follows the button response")

    @property
    def landolt_correct(self) -> bool:
        return self.landolt_response == self.landolt_direction

    def with_samples(self, samples: GazeSeries) -> "TrialRecord":
        return replace(self, samples=samples)

    def with_fixation_onset(self, onset_s: float | None) -> "TrialRecord":
        return replace(self, fixation_onset_s=onset_s)


def depth_pair_label(start_depth_m: float, end_depth_m: float) -> str:
    return f"{start_depth_m:g}->{end_depth_m:g}"


def depths_in_set(trial: TrialRecord, depth_set: Sequence[float]) -> bool:
    """Whether both trial depths come from the declared depth set, to within 1e-9 m."""
    return any(math.isclose(trial.start_depth_m, d, abs_tol=1e-9) for d in depth_set) and any(
        math.isclose(trial.end_depth_m, d, abs_tol=1e-9) for d in depth_set
    )
