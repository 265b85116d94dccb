"""Cleaning cascade and validity gates for binocular recordings.

Filter order is fixed: confidence, then vergence-velocity, then SD outliers,
then fixation windowing. Every filter returns a new trial, never deletes
sample slots, only shrinks the valid set, and is idempotent. Boundary
semantics: confidence strictly below threshold, velocity strictly above,
outlier at or beyond k standard deviations, trial validity strictly above 50%.
``VelocityGate`` holds the velocity rule, for ``calibration.DepthStream`` too.

``PipelineConfig`` holds the filter thresholds and the outlier scope, one
field per ``preprocess`` flag. The rest of the method is fixed where it is
applied: the dispersion fixation rule in the ``FIXATION_*`` constants beside
``detect_fixation_onset``, the 1-2 s window after onset in
``analysis_window``, the 50 % validity bar in ``trial_validity``, and the
3/6/3 pair, environment and participant gate in ``validity_gate``'s
defaults, which ``cascade_validity`` applies and ``analyze --min-*`` sets.
"""

from __future__ import annotations

import math
import warnings
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, NoFixationError, ShortTrialError
from .recording import DepthPair, SampleStatus, TrialRecord, depth_pair_label

__all__ = [
    "PipelineConfig",
    "confidence_filter",
    "VelocityGate",
    "velocity_filter",
    "outlier_filter",
    "session_gva_stats",
    "detect_fixation_onset",
    "analysis_window",
    "trial_mean_gva",
    "trial_validity",
    "ProcessedTrial",
    "process_session",
    "collect_processed",
    "preprocess_dataset",
    "validity_gate",
    "cascade_validity",
    "ValidityReport",
]


@dataclass(frozen=True)
class PipelineConfig:
    confidence_threshold: float = 0.75
    max_velocity_deg_s: float = 5000.0
    outlier_k_sd: float = 2.5
    outlier_scope: str = "session"  # "session" (per participant+environment) or "trial"


def confidence_filter(trial: TrialRecord, threshold: float = 0.75) -> TrialRecord:
    """Invalidate samples where either eye's confidence is below ``threshold``."""
    series = trial.samples.copy()
    conf = np.minimum(series.l_conf, series.r_conf)
    hit = (conf < threshold) & (series.status == SampleStatus.VALID)
    series.status[hit] = SampleStatus.LOW_CONFIDENCE
    return trial.with_samples(series)


class VelocityGate:
    """The velocity rule, one candidate at a time, in strictly increasing time order.

    A candidate is kept unless its vergence angle moves faster than
    ``max_velocity`` deg/s from the last kept candidate.
    """

    def __init__(self, max_velocity: float):
        self.max_velocity = max_velocity
        self._last_t = -math.inf  # the last candidate's timestamp
        self._kept: tuple[float, float] | None = None  # (t, gva) of the last kept candidate

    def keep(self, t: float, gva: float) -> bool:
        """Whether the candidate at ``t`` with angle ``gva`` passes; raises DomainError unless ``t`` follows the last."""
        if not t > self._last_t:
            raise DomainError(f"velocity gate requires strictly increasing timestamps: t={t!r} after {self._last_t!r}")
        self._last_t = t
        if self._kept is not None:
            t0, g0 = self._kept
            if abs((gva - g0) / (t - t0)) > self.max_velocity:
                return False
        self._kept = (t, gva)
        return True


def velocity_filter(trial: TrialRecord, max_velocity: float = 5000.0) -> TrialRecord:
    """Invalidate samples whose vergence-angle velocity exceeds ``max_velocity`` deg/s.

    Velocity is measured from the previous surviving sample, so an isolated
    single-sample spike costs exactly one sample: once it is removed, its
    successor is compared against the sample before the spike (``VelocityGate``).
    """
    series = trial.samples.copy()
    candidates = np.flatnonzero(
        (series.status == SampleStatus.VALID) | (series.status == SampleStatus.VELOCITY_SPIKE)
    )
    gate = VelocityGate(max_velocity)
    try:
        kept = list(map(gate.keep, series.t_s[candidates].tolist(), series.gva_deg[candidates].tolist()))
    except DomainError:
        raise DomainError(
            f"participant {trial.participant_id} environment {trial.environment} trial {trial.trial_id}: "
            "velocity filter requires strictly increasing timestamps"
        ) from None
    series.status[candidates] = np.where(kept, SampleStatus.VALID, SampleStatus.VELOCITY_SPIKE)
    return trial.with_samples(series)


def session_gva_stats(trials: Iterable[TrialRecord]) -> tuple[float, float] | None:
    """Pooled mean and sample SD of vergence angles over the trials' valid samples."""
    chunks = [t.samples.gva_deg[t.samples.valid_mask] for t in trials]
    values = np.concatenate(chunks) if chunks else np.empty(0)
    if len(values) < 2:
        return None
    return float(values.mean()), float(values.std(ddof=1))


def outlier_filter(
    trial: TrialRecord,
    k_sd: float = 2.5,
    stats: tuple[float, float] | None = None,
) -> TrialRecord:
    """Invalidate samples at or beyond ``k_sd`` standard deviations from the mean.

    ``stats`` supplies a precomputed (mean, SD) reference, e.g. pooled over a
    whole recording session; otherwise the trial's own valid samples are used.
    The reference is computed once over the samples valid before this filter
    (previous outlier marks are ignored for the statistics), single pass, no
    re-trimming.
    """
    series = trial.samples.copy()
    testable = (series.status == SampleStatus.VALID) | (series.status == SampleStatus.OUTLIER)
    series.status[series.status == SampleStatus.OUTLIER] = SampleStatus.VALID
    if stats is None:
        values = series.gva_deg[testable]
        if len(values) < 2:
            return trial.with_samples(series)
        mean, sd = float(values.mean()), float(values.std(ddof=1))
    else:
        mean, sd = stats
    if sd <= 0.0:
        return trial.with_samples(series)
    hit = testable & (np.abs(series.gva_deg - mean) >= k_sd * sd)
    series.status[hit] = SampleStatus.OUTLIER
    return trial.with_samples(series)


def _window_dispersions(az: np.ndarray, el: np.ndarray, w: int, min_valid: int) -> np.ndarray:
    """Azimuth range + elevation range over each length-w window (NaN-aware)."""
    win_az = np.lib.stride_tricks.sliding_window_view(az, w)
    win_el = np.lib.stride_tricks.sliding_window_view(el, w)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        # All-NaN windows (a fully invalidated stretch) legitimately occur and
        # are rejected below via the valid-sample count.
        warnings.simplefilter("ignore", RuntimeWarning)
        disp = (np.nanmax(win_az, axis=1) - np.nanmin(win_az, axis=1)) + (
            np.nanmax(win_el, axis=1) - np.nanmin(win_el, axis=1)
        )
        n_ok = np.sum(~np.isnan(win_az), axis=1)
    disp = np.where(np.isnan(disp), np.inf, disp)
    disp[n_ok < min_valid] = np.inf
    return disp


FIXATION_DISPERSION_DEG = 1.5
FIXATION_MIN_DURATION_S = 0.100
FIXATION_MIN_LATENCY_S = 0.250
FIXATION_MIN_VALID_SHARE = 0.5


def detect_fixation_onset(trial: TrialRecord) -> float:
    """Onset time of the first qualifying dispersion-based fixation.

    A fixation starts at a window of ``FIXATION_MIN_DURATION_S`` whose
    cyclopean gaze direction stays within ``FIXATION_DISPERSION_DEG``
    (azimuth range plus elevation range), with at least
    ``FIXATION_MIN_VALID_SHARE`` of its samples valid. Runs on the filtered
    series. The search starts ``FIXATION_MIN_LATENCY_S`` after stimulus onset
    (gaze stable from the stimulus on therefore yields that boundary,
    adjusted to the first sample) and must land before the button response
    when one is present; raises NoFixationError when no window ever stabilizes.
    """
    series = trial.samples
    n = len(series)
    if n == 0:
        raise NoFixationError(f"trial {trial.trial_id}: no samples")
    dt = float(np.median(np.diff(series.t_s))) if n > 1 else 0.0
    if dt <= 0.0:
        raise NoFixationError(f"trial {trial.trial_id}: cannot infer sample interval")
    w = max(2, int(round(FIXATION_MIN_DURATION_S / dt)))
    if n < w:
        raise NoFixationError(f"trial {trial.trial_id}: too short for a fixation window")
    az, el = series.cyclopean_angles()
    invalid = ~series.valid_mask
    az = az.copy()
    el = el.copy()
    az[invalid] = np.nan
    el[invalid] = np.nan
    min_valid = max(2, int(math.ceil(w * FIXATION_MIN_VALID_SHARE)))
    disp = _window_dispersions(az, el, w, min_valid)
    stable = disp <= FIXATION_DISPERSION_DEG
    earliest = trial.stimulus_onset_s + FIXATION_MIN_LATENCY_S
    for i in np.flatnonzero(stable):
        onset = float(series.t_s[i])
        if onset < earliest:
            continue
        if trial.response_s is not None and onset >= trial.response_s:
            break
        return onset
    raise NoFixationError(
        f"trial {trial.trial_id}: no stable fixation window from {earliest:.3f}s to the response"
    )


def analysis_window(trial: TrialRecord) -> tuple[float, float]:
    """The [onset + 1 s, onset + 2 s) window used for the trial mean."""
    if trial.fixation_onset_s is None:
        raise DomainError(f"trial {trial.trial_id}: fixation onset not set")
    t0 = trial.fixation_onset_s + 1.0
    t1 = t0 + 1.0
    series = trial.samples
    if len(series) == 0:
        raise ShortTrialError(f"trial {trial.trial_id}: no samples")
    dt = float(np.median(np.diff(series.t_s))) if len(series) > 1 else 0.0
    if float(series.t_s[-1]) < t1 - dt - 1e-9:
        raise ShortTrialError(
            f"trial {trial.trial_id}: samples end at {series.t_s[-1]:.3f}s, window ends at {t1:.3f}s"
        )
    return t0, t1


def trial_mean_gva(trial: TrialRecord) -> tuple[float, float]:
    """Mean vergence angle over valid samples in ``analysis_window``.

    Returns (mean_deg, valid_fraction); the fraction counts valid samples
    against all sample slots inside the window. Raises ShortTrialError when
    the samples end before the window does, and DomainError when the window
    holds no valid samples.
    """
    t0, t1 = analysis_window(trial)
    series = trial.samples
    in_window = (series.t_s >= t0 - 1e-12) & (series.t_s < t1 - 1e-12)
    n_total = int(np.count_nonzero(in_window))
    if n_total == 0:
        raise DomainError(f"trial {trial.trial_id}: analysis window holds no samples")
    ok = in_window & series.valid_mask
    n_valid = int(np.count_nonzero(ok))
    if n_valid == 0:
        raise DomainError(f"trial {trial.trial_id}: no valid samples in window")
    return float(series.gva_deg[ok].mean()), n_valid / n_total


def trial_validity(valid_fraction: float) -> bool:
    """A trial is valid when strictly more than half of its window samples survive.

    ``valid_fraction`` is the second value ``trial_mean_gva`` returns.
    """
    return valid_fraction > 0.5


@dataclass(frozen=True)
class ProcessedTrial(DepthPair):
    """One GVA-table row: the cleaning cascade's outcome for one trial.

    A row parsed from a table file has no fixation onset or sample counts.
    Only ``cascade_validity`` reads ``n_samples`` and ``sample_counts``, and
    only on pipeline output.
    """

    participant_id: str
    environment: str
    trial_id: str
    start_depth_m: float
    end_depth_m: float
    status: str  # ok | no_fixation | short_trial | no_valid_samples
    gva_mean_deg: float | None
    valid_fraction: float
    valid: bool
    landolt_correct: bool
    fixation_onset_s: float | None = None
    n_samples: int | None = None
    sample_counts: dict[str, int] | None = None


def _finish_trial(trial: TrialRecord) -> ProcessedTrial:
    status = "ok"
    onset = None
    mean = None
    fraction = 0.0
    try:
        onset = detect_fixation_onset(trial)
        trial = trial.with_fixation_onset(onset)
        mean, fraction = trial_mean_gva(trial)
    except NoFixationError:
        status = "no_fixation"
    except ShortTrialError:
        status = "short_trial"
    except DomainError:
        status = "no_valid_samples"
    valid = status == "ok" and trial_validity(fraction)
    return ProcessedTrial(
        participant_id=trial.participant_id,
        environment=trial.environment,
        trial_id=trial.trial_id,
        start_depth_m=trial.start_depth_m,
        end_depth_m=trial.end_depth_m,
        status=status,
        fixation_onset_s=onset,
        gva_mean_deg=mean,
        valid_fraction=fraction,
        valid=valid,
        landolt_correct=trial.landolt_correct,
        n_samples=len(trial.samples),
        sample_counts=trial.samples.status_counts(),
    )


def process_session(trials: Sequence[TrialRecord], config: PipelineConfig | None = None) -> list[ProcessedTrial]:
    """Run the full cascade over one participant+environment recording session."""
    config = config or PipelineConfig()
    filtered = [
        velocity_filter(confidence_filter(t, config.confidence_threshold), config.max_velocity_deg_s)
        for t in trials
    ]
    stats = session_gva_stats(filtered) if config.outlier_scope == "session" else None
    cleaned = [outlier_filter(t, config.outlier_k_sd, stats) for t in filtered]
    return [_finish_trial(t) for t in cleaned]


def collect_processed(
    session_rows: Iterable[Iterable[ProcessedTrial]],
) -> tuple[list[ProcessedTrial], "ValidityReport"]:
    """Every session's ``process_session`` rows, sorted by (participant, environment, trial), and their validity report.

    The sort is stable over the sessions' order, so two manifests of one
    session keep their trials in the order the sessions list them.
    """
    processed = list(chain.from_iterable(session_rows))
    processed.sort(key=lambda p: (p.participant_id, p.environment, p.trial_id))
    return processed, cascade_validity(processed)


def preprocess_dataset(
    trials: Iterable[TrialRecord],
    config: PipelineConfig | None = None,
) -> tuple[list[ProcessedTrial], "ValidityReport"]:
    """Clean every trial and compute the hierarchical validity report.

    The trials are grouped into (participant, environment) sessions, in the
    order they arrive within each session; ``process_session`` cleans the
    sessions in sorted order, and ``collect_processed`` sorts and counts
    their rows.
    """
    sessions: dict[tuple[str, str], list[TrialRecord]] = defaultdict(list)
    for t in trials:
        sessions[(t.participant_id, t.environment)].append(t)
    ordered = (sessions[k] for k in sorted(sessions))
    return collect_processed(map(partial(process_session, config=config), ordered))


@dataclass
class ValidityReport:
    """Exclusion accounting and the three-level validity verdicts."""

    total_samples: int
    samples_by_status: dict[str, int]
    percent_excluded: float
    per_environment_exclusion: dict[str, dict[str, float]]
    n_trials: int
    n_valid_trials: int
    trials_by_status: dict[str, int]
    trials_per_environment: dict[str, dict[str, float]]
    participants: dict[str, dict]
    retained_participants: list[str]
    landolt_accuracy: float | None
    landolt_per_environment: dict[str, float]

    def to_dict(self) -> dict:
        total = self.total_samples
        by_status_percent = {
            k: (100.0 * v / total if total else 0.0) for k, v in self.samples_by_status.items()
        }
        return {
            "samples": {
                "total": self.total_samples,
                "by_status": self.samples_by_status,
                "by_status_percent": by_status_percent,
                "percent_excluded": self.percent_excluded,
                "per_environment": self.per_environment_exclusion,
            },
            "trials": {
                "total": self.n_trials,
                "valid": self.n_valid_trials,
                "by_status": self.trials_by_status,
                "per_environment": self.trials_per_environment,
            },
            "participants": self.participants,
            "retained_participants": self.retained_participants,
            "landolt": {
                "overall_accuracy": self.landolt_accuracy,
                "per_environment": self.landolt_per_environment,
            },
        }


def validity_gate(
    rows: Iterable,
    min_valid_trials_per_pair: int = 3,
    min_valid_pairs_per_environment: int = 6,
    required_valid_environments: int = 3,
) -> tuple[dict[str, dict], list[str]]:
    """The hierarchical gates: depth pairs, environments, participants.

    A depth pair (keyed by ``depth_pair_label``) is valid with at least
    ``min_valid_trials_per_pair`` valid trials, an environment with at least
    ``min_valid_pairs_per_environment`` valid pairs, a participant with
    ``required_valid_environments`` valid environments. ``rows`` are
    ``ProcessedTrial``s, from the pipeline or parsed from a table. Returns
    the nested verdicts per participant and the sorted retained participant
    ids.
    """
    pair_valid: dict[tuple[str, str, str], dict] = {}
    for r in rows:
        key = (r.participant_id, r.environment, depth_pair_label(r.start_depth_m, r.end_depth_m))
        rec = pair_valid.setdefault(key, {"n_trials": 0, "n_valid": 0})
        rec["n_trials"] += 1
        rec["n_valid"] += int(r.valid)
    participants: dict[str, dict] = {}
    for (pid, env, pair), rec in sorted(pair_valid.items()):
        rec["valid"] = rec["n_valid"] >= min_valid_trials_per_pair
        env_block = participants.setdefault(pid, {"environments": {}})["environments"].setdefault(
            env, {"pairs": {}}
        )
        env_block["pairs"][pair] = rec
    retained = []
    for pid in sorted(participants):
        envs = participants[pid]["environments"]
        for env, block in envs.items():
            n_valid_pairs = sum(p["valid"] for p in block["pairs"].values())
            block["n_valid_pairs"] = n_valid_pairs
            block["valid"] = n_valid_pairs >= min_valid_pairs_per_environment
        n_valid_envs = sum(block["valid"] for block in envs.values())
        participants[pid]["n_valid_environments"] = n_valid_envs
        participants[pid]["valid"] = n_valid_envs >= required_valid_environments
        if participants[pid]["valid"]:
            retained.append(pid)
    return participants, retained


def cascade_validity(processed: Sequence[ProcessedTrial]) -> ValidityReport:
    """Exclusion accounting plus the ``validity_gate`` verdicts at its default thresholds."""
    by_status: dict[str, int] = defaultdict(int)
    total_samples = 0
    for p in processed:
        total_samples += p.n_samples
        for k, v in p.sample_counts.items():
            by_status[k] += v
    excluded = total_samples - by_status.get("valid", 0)
    percent_excluded = 100.0 * excluded / total_samples if total_samples else 0.0

    # Per-environment exclusion percentages, aggregated over participants the
    # same way the per-participant spread is usually reported: mean, min, max.
    per_participant_env: dict[str, dict[str, tuple[int, int]]] = defaultdict(dict)
    for p in processed:
        n_excl = p.n_samples - p.sample_counts.get("valid", 0)
        prev = per_participant_env[p.environment].get(p.participant_id, (0, 0))
        per_participant_env[p.environment][p.participant_id] = (prev[0] + n_excl, prev[1] + p.n_samples)
    per_env_excl: dict[str, dict[str, float]] = {}
    for env in sorted(per_participant_env):
        pcts = [
            100.0 * e / n if n else 0.0 for e, n in per_participant_env[env].values()
        ]
        per_env_excl[env] = {
            "mean_percent": float(np.mean(pcts)),
            "min_percent": float(np.min(pcts)),
            "max_percent": float(np.max(pcts)),
        }

    trials_env: dict[str, dict[str, float]] = {}
    for env in sorted({p.environment for p in processed}):
        env_trials = [p for p in processed if p.environment == env]
        n_valid = sum(p.valid for p in env_trials)
        trials_env[env] = {
            "total": len(env_trials),
            "valid": n_valid,
            "percent_valid": 100.0 * n_valid / len(env_trials) if env_trials else 0.0,
        }

    participants, retained = validity_gate(processed)

    landolt_all = [p.landolt_correct for p in processed]
    landolt_env = {
        env: float(np.mean([p.landolt_correct for p in processed if p.environment == env]))
        for env in sorted({p.environment for p in processed})
    }
    trial_status: dict[str, int] = defaultdict(int)
    for p in processed:
        trial_status["valid" if p.valid else ("low_valid_fraction" if p.status == "ok" else p.status)] += 1
    return ValidityReport(
        total_samples=total_samples,
        samples_by_status=dict(sorted(by_status.items())),
        percent_excluded=percent_excluded,
        per_environment_exclusion=per_env_excl,
        n_trials=len(processed),
        n_valid_trials=sum(p.valid for p in processed),
        trials_by_status=dict(sorted(trial_status.items())),
        trials_per_environment=trials_env,
        participants=participants,
        retained_participants=retained,
        landolt_accuracy=float(np.mean(landolt_all)) if landolt_all else None,
        landolt_per_environment=landolt_env,
    )
