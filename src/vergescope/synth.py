"""Ground-truth simulator for vergence eye-movement experiments.

Generates raw binocular sample streams for a repeated-measures design:
chained depth-pair sequences, a pre-saccade dwell followed by a version
saccade and an exponential vergence settle, per-participant response
parameters, per-environment additive offsets, measurement noise, and tagged
artifacts (dropouts, velocity spikes, amplitude outliers). Every injected
effect is recorded in a ledger so the cleaning pipeline can be scored
exactly.

``SimulatedDataset`` is the one simulated-data type, for one session or a
whole cohort. ``simulate_session`` generates one (participant, environment)
session from the cohort seed and the session's indices alone, each session
from its own child ``SeedSequence``, and keeps a trial's artifact tags in the
compact ``TrialArtifacts`` form. ``SimulatedDataset.merged`` joins sessions
in the order given: ``simulate_cohort`` merges every session held in memory,
and ``dataio`` simulates and writes each session in its own task, then merges
the sessions without their trials.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from itertools import chain, repeat
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import DomainError
from .geometry import ideal_vergence, to_diopters
from .recording import GazeSeries, LANDOLT_DIRECTIONS, TrialRecord

__all__ = [
    "ExperimentDesign",
    "NoiseModel",
    "EnvironmentEffect",
    "PhysiologyParams",
    "CohortConfig",
    "TrialSpec",
    "ArtifactTag",
    "TrialArtifacts",
    "SubjectiveReport",
    "SimulatedDataset",
    "implied_response_line",
    "solve_effective_ipd",
    "generate_sequence",
    "simulate_trial",
    "simulate_session",
    "simulate_cohort",
]


def _is_count(value) -> bool:
    """Whether ``value`` is an integer (a numpy one too) and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_depth(value) -> bool:
    """Whether ``value`` is a positive finite number (a numpy one too) and not a bool."""
    numeric = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    return numeric and 0 < value < math.inf


def _is_file_name(value) -> bool:
    """Whether ``value`` can be one path component: a non-empty ``str``, not ``.`` or ``..``, without ``/``, ``\\`` or NUL."""
    return isinstance(value, str) and value not in ("", ".", "..") and not any(c in value for c in "/\\\0")


@dataclass(frozen=True)
class ExperimentDesign:
    """The repeated-measures design: depth set, environments, repetitions, timing."""

    depths_m: tuple[float, ...] = (0.25, 0.75, 1.50, 4.0)
    environments: tuple[str, ...] = ("Real", "AR", "VR")
    repetitions: int = 6
    n_participants: int = 13
    sample_rate_hz: float = 200.0
    response_window_s: float = 3.0
    iti_range_s: tuple[float, float] = (3.0, 6.0)
    post_response_dwell_s: float = 0.5

    def __post_init__(self):
        if not all(isinstance(v, (list, tuple)) for v in (self.depths_m, self.environments, self.iti_range_s)):
            raise DomainError("depths_m, environments and iti_range_s must be lists, not a string or a number")
        if not all(map(_is_depth, self.depths_m)) or len(set(self.depths_m)) != len(self.depths_m):
            raise DomainError(f"depths must be distinct positive finite numbers, got {self.depths_m!r}")
        if len(self.depths_m) < 2:
            raise DomainError("a design needs at least two depths")
        # An environment name becomes part of the session's file names.
        if not all(map(_is_file_name, self.environments)):
            raise DomainError(
                f"environments must be non-empty strings without '/', '\\' or NUL, and not '.' or '..', "
                f"got {self.environments!r}"
            )
        if not self.environments or len(set(self.environments)) != len(self.environments):
            raise DomainError("environments must be distinct and at least one")
        if not all(_is_count(v) and v >= 1 for v in (self.repetitions, self.n_participants)):
            raise DomainError("repetitions and participants must be integers >= 1")
        if not (self.sample_rate_hz > 0 and math.isfinite(self.sample_rate_hz)):
            raise DomainError(f"sample_rate_hz must be positive and finite, got {self.sample_rate_hz}")
        if not (self.response_window_s > 0 and math.isfinite(self.response_window_s)):
            raise DomainError(f"response_window_s must be positive and finite, got {self.response_window_s}")
        if not (self.post_response_dwell_s >= 0 and math.isfinite(self.post_response_dwell_s)):
            raise DomainError(f"post_response_dwell_s must be >= 0 and finite, got {self.post_response_dwell_s}")
        iti = self.iti_range_s
        if not (len(iti) == 2 and all(0 <= v < math.inf for v in iti) and iti[0] <= iti[1]):
            raise DomainError(f"iti_range_s must be two finite numbers with 0 <= low <= high, got {iti!r}")

    @property
    def depth_pairs(self) -> tuple[tuple[float, float], ...]:
        """All ordered pairs of distinct depths (12 for the default 4-depth set)."""
        return tuple(
            (a, b) for a in self.depths_m for b in self.depths_m if a != b
        )

    @property
    def diopters(self) -> tuple[float, ...]:
        return tuple(to_diopters(d) for d in self.depths_m)

    @property
    def trial_duration_s(self) -> float:
        return self.response_window_s + self.post_response_dwell_s

    @property
    def trials_per_session(self) -> int:
        return len(self.depth_pairs) * self.repetitions

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "ExperimentDesign":
        """The design from a JSON object's fields (lists become tuples); an unknown key raises TypeError."""
        return cls(**{key: tuple(v) if isinstance(v, list) else v for key, v in d.items()})


@dataclass(frozen=True)
class NoiseModel:
    """Measurement-noise and artifact processes.

    ``sample_noise_sd_deg`` jitters the vergence angle itself;
    ``direction_noise_sd_deg`` jitters the shared (cyclopean) pointing
    direction, which is what fixation detection sees. Artifact rates are
    fractions of samples per trial, placed isolated from each other.
    """

    sample_noise_sd_deg: float = 0.6
    direction_noise_sd_deg: float = 0.02
    # Default rates put overall sample exclusion in the mid-teens percent,
    # the regime reported for headset recordings of this kind.
    dropout_rate: float = 0.15
    spike_rate: float = 0.004
    outlier_rate: float = 0.004
    spike_magnitude_deg: float = 35.0
    outlier_magnitude_deg: float = 15.0
    settle_time_s: float = 0.25
    latency_s: float = 0.26
    saccade_duration_s: float = 0.08
    saccade_amplitude_deg: float = 6.0

    def __post_init__(self):
        for rate in (self.dropout_rate, self.spike_rate, self.outlier_rate):
            if not (0.0 <= rate <= 1.0):
                raise DomainError(f"artifact rates must be in [0, 1], got {rate}")
        for sd in (self.sample_noise_sd_deg, self.direction_noise_sd_deg):
            if sd < 0.0:
                raise DomainError(f"noise SDs must be >= 0, got {sd}")
        if not (self.settle_time_s > 0.0 and self.saccade_duration_s > 0.0):
            raise DomainError("settle time and saccade duration must be positive")

    @classmethod
    def quiet(cls, **overrides) -> "NoiseModel":
        """Noiseless, artifact-free configuration (the oracle setting)."""
        base = dict(
            sample_noise_sd_deg=0.0,
            direction_noise_sd_deg=0.0,
            dropout_rate=0.0,
            spike_rate=0.0,
            outlier_rate=0.0,
        )
        base.update(overrides)
        return cls(**base)


@dataclass(frozen=True)
class EnvironmentEffect:
    """Additive vergence-angle offset per environment; the reference is zero."""

    offsets_deg: Mapping[str, float] = field(
        default_factory=lambda: {"Real": 0.0, "AR": -0.8, "VR": -1.3}
    )
    reference: str = "Real"

    def __post_init__(self):
        if self.offsets_deg.get(self.reference, 0.0) != 0.0:
            raise DomainError(f"reference environment {self.reference!r} must have zero offset")

    def offset(self, environment: str) -> float:
        return float(self.offsets_deg.get(environment, 0.0))

    @classmethod
    def none(cls, environments: Sequence[str] = ("Real", "AR", "VR")) -> "EnvironmentEffect":
        return cls({env: 0.0 for env in environments})


def implied_response_line(
    steady_gva: Sequence[float], diopters: Sequence[float]
) -> tuple[float, float]:
    """Least-squares (intercept, slope) of steady-state angles against diopters."""
    d = np.asarray(diopters, dtype=float)
    g = np.asarray(steady_gva, dtype=float)
    x = np.column_stack([np.ones_like(d), d])
    (a, b), *_ = np.linalg.lstsq(x, g, rcond=None)
    return float(a), float(b)


def solve_effective_ipd(slope_deg_per_d: float, diopters: Sequence[float]) -> float:
    """Binocular baseline whose ideal-vergence line has the given diopter slope.

    The vergence-vs-diopter relation is almost exactly proportional to the
    baseline, so a few fixed-point iterations reach machine precision (a
    relative step below 1e-12).
    """
    if slope_deg_per_d <= 0.0:
        raise DomainError(f"slope must be positive, got {slope_deg_per_d}")
    ipd = slope_deg_per_d / math.degrees(1.0)  # first-order guess: slope = deg(1)*ipd
    for _ in range(60):
        _, b = implied_response_line([ideal_vergence(1.0 / d, ipd) for d in diopters], diopters)
        ratio = slope_deg_per_d / b
        ipd *= ratio
        if abs(ratio - 1.0) < 1e-12:
            break
    return ipd


@dataclass(frozen=True)
class PhysiologyParams:
    """Per-participant response parameters.

    ``geometric`` mode derives the steady-state vergence angle from the
    effective binocular baseline via the midline closed form plus the additive
    bias; ``linear`` mode responds exactly as intercept + slope * diopters,
    useful when tests need a response the diopter-space calibration can invert
    without linearization error.
    """

    participant_id: str
    ipd_m: float
    intercept_bias_deg: float
    response_mode: str = "geometric"
    slope_deg_per_d: float | None = None

    def __post_init__(self):
        if self.response_mode not in ("geometric", "linear"):
            raise DomainError(f"unknown response mode {self.response_mode!r}")
        if self.response_mode == "linear" and self.slope_deg_per_d is None:
            raise DomainError("linear response mode needs an explicit slope")
        if self.ipd_m <= 0.0:
            raise DomainError(f"ipd must be positive, got {self.ipd_m}")

    def steady_gva(self, depth_m: float) -> float:
        """Noise-free vergence angle at a fixated depth, before environment offsets."""
        if self.response_mode == "linear":
            return self.intercept_bias_deg + self.slope_deg_per_d * to_diopters(depth_m)
        return ideal_vergence(depth_m, self.ipd_m) + self.intercept_bias_deg

    def implied_line(self, depths_m: Sequence[float]) -> tuple[float, float]:
        """(intercept, slope) a diopter-space calibration recovers from this physiology."""
        dpt = [to_diopters(d) for d in depths_m]
        return implied_response_line([self.steady_gva(d) for d in depths_m], dpt)


@dataclass(frozen=True)
class CohortConfig:
    """Population-level parameters for a simulated cohort."""

    slope_mean_deg_per_d: float = 1.7
    slope_sd_deg_per_d: float = 0.37
    intercept_mean_deg: float = 17.5
    intercept_sd_deg: float = 8.6
    min_slope_deg_per_d: float = 0.3
    min_steady_gva_deg: float = 0.5
    response_mode: str = "geometric"
    noise: NoiseModel = field(default_factory=NoiseModel)
    environment: EnvironmentEffect = field(default_factory=EnvironmentEffect)
    landolt_accuracy: float = 0.98
    timeout_rate: float = 0.0
    subjective_factors: Mapping[str, float] = field(
        default_factory=lambda: {"AR": 1.17, "VR": 1.377}
    )
    subjective_jitter_sd: float = 0.05
    subjective_repetitions: int = 3

    def __post_init__(self):
        if not (_is_count(self.subjective_repetitions) and self.subjective_repetitions >= 0):
            raise DomainError(f"subjective_repetitions must be an integer >= 0, got {self.subjective_repetitions!r}")

    @classmethod
    def from_dict(cls, d: Mapping) -> "CohortConfig":
        kwargs = dict(d)
        if "noise" in kwargs:
            kwargs["noise"] = NoiseModel(**kwargs["noise"])
        if "environment" in kwargs:
            kwargs["environment"] = EnvironmentEffect(**kwargs["environment"])
        return cls(**kwargs)


@dataclass(frozen=True)
class TrialSpec:
    participant_id: str
    environment: str
    trial_id: str
    start_depth_m: float
    end_depth_m: float
    stimulus_onset_s: float
    sample_rate_hz: float
    duration_s: float


ARTIFACT_KINDS = ("dropout", "spike", "outlier")


@dataclass(frozen=True)
class ArtifactTag:
    participant_id: str
    environment: str
    trial_id: str
    t_s: float
    kind: str  # one of ARTIFACT_KINDS


@dataclass(frozen=True, eq=False)
class TrialArtifacts:
    """One trial's artifact tags in compact form.

    ``t_s`` holds the tag times, the dropouts first, then the spikes, then the
    outliers; ``counts`` holds how many tags of each of ``ARTIFACT_KINDS``
    there are.
    """

    participant_id: str
    environment: str
    trial_id: str
    t_s: np.ndarray
    counts: tuple[int, int, int]

    def tags(self) -> list[ArtifactTag]:
        kinds = chain.from_iterable(map(repeat, ARTIFACT_KINDS, self.counts))
        ids = self.participant_id, self.environment, self.trial_id
        return [ArtifactTag(*ids, t, kind) for t, kind in zip(self.t_s.tolist(), kinds)]


@dataclass(frozen=True)
class LedgerArtifacts:
    """The ledger's ``artifacts`` list: every tag of ``trials``, in order, as a five-key dict when iterated.

    ``dataio`` writes it from each trial's ``t_s`` and ``counts``, without
    building an ``ArtifactTag`` or a dict.
    """

    trials: Sequence[TrialArtifacts]

    def __iter__(self) -> Iterator[dict]:
        for trial in self.trials:
            yield from map(asdict, trial.tags())


@dataclass(frozen=True)
class SubjectiveReport:
    participant_id: str
    environment: str
    depth_m: float
    report_value: float
    unit: str
    repetition: int


def generate_sequence(design: ExperimentDesign, rng: np.random.Generator) -> list[tuple[float, float]]:
    """A chained trial sequence: every ordered depth pair exactly ``repetitions`` times.

    Consecutive trials share an endpoint (the end depth of one trial is the
    start depth of the next). The pair multiset is balanced (equal in- and
    out-degree at every depth), so an Eulerian circuit always exists; this is
    a randomized Hierholzer construction, deterministic given the generator.
    """
    remaining = {pair: design.repetitions for pair in design.depth_pairs}
    depths = design.depths_m
    start = depths[int(rng.integers(len(depths)))]
    stack = [start]
    circuit: list[float] = []
    while stack:
        v = stack[-1]
        options = [b for (a, b) in remaining if a == v and remaining[(a, b)] > 0]
        if options:
            nxt = options[int(rng.integers(len(options)))]
            remaining[(v, nxt)] -= 1
            stack.append(nxt)
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    assert all(c == 0 for c in remaining.values())
    return list(zip(circuit[:-1], circuit[1:]))


def _shaped_settle(u: np.ndarray, shape: float = 3.0) -> np.ndarray:
    """Exponential-shaped ramp from 1 at u=0 to exactly 0 at u=1 (0 beyond)."""
    out = np.zeros_like(u)
    out[u <= 0.0] = 1.0
    mid = (u > 0.0) & (u < 1.0)
    scale = 1.0 - math.exp(-shape)
    out[mid] = (np.exp(-shape * u[mid]) - math.exp(-shape)) / scale
    return out


def _place_artifacts(
    rng: np.random.Generator, n: int, counts: Sequence[int], min_gap: int = 3
) -> list[np.ndarray]:
    """Isolated artifact slots: no two closer than ``min_gap``, never at the edges.

    Walks one ``rng.permutation`` of the interior slots and keeps each slot
    that no earlier pick blocks; keeping slot ``i`` blocks
    ``[i - min_gap + 1, i + min_gap - 1]``, so the walk is O(n) and keeps
    exactly the slots a pairwise ``abs(i - j) >= min_gap`` test would. The
    first ``counts[0]`` picks form the first group, and so on; when fewer
    slots fit than ``sum(counts)``, the last groups come up short.
    """
    total = sum(counts)
    chosen: list[int] = []
    if total:
        reach = max(min_gap - 1, 0)
        mark = b"\x01" * (2 * reach + 1)
        blocked = bytearray(n + 2 * reach)  # slot i lives at blocked[i + reach]
        for i in rng.permutation(np.arange(1, n - 1)).tolist():
            if not blocked[i + reach]:
                chosen.append(i)
                if len(chosen) == total:
                    break
                blocked[i : i + 2 * reach + 1] = mark
    out = []
    pos = 0
    for c in counts:
        out.append(np.asarray(sorted(chosen[pos : pos + c]), dtype=int))
        pos += c
    return out


def simulate_trial(
    spec: TrialSpec,
    physiology: PhysiologyParams,
    noise: NoiseModel,
    env_offset_deg: float,
    rng: np.random.Generator,
    landolt_accuracy: float = 0.98,
    timeout_rate: float = 0.0,
) -> tuple[TrialRecord, TrialArtifacts, dict]:
    """Synthesize one trial's sample stream.

    The vergence angle dwells at the start-depth level, then settles
    exponentially onto the end-depth level beginning ``latency_s`` after
    stimulus onset and completing at latency + settle time; a half-sine
    version saccade sweeps the shared gaze direction during the transition so
    that a dispersion detector sees the target switch. Returns the trial, its
    artifact tags as ``TrialArtifacts``, and a ground-truth dict with the
    stabilization time and noise-free steady angle.
    """
    rate = spec.sample_rate_hz
    n = int(round(spec.duration_s * rate))
    t_rel = np.arange(n) / rate
    t_abs = spec.stimulus_onset_s + t_rel

    v_start = physiology.steady_gva(spec.start_depth_m) + env_offset_deg
    v_end = physiology.steady_gva(spec.end_depth_m) + env_offset_deg
    u = (t_rel - noise.latency_s) / noise.settle_time_s
    gva = v_end + (v_start - v_end) * _shaped_settle(u)
    if noise.sample_noise_sd_deg > 0.0:
        gva = gva + rng.normal(0.0, noise.sample_noise_sd_deg, n)

    counts = [
        int(round(noise.dropout_rate * n)),
        int(round(noise.spike_rate * n)),
        int(round(noise.outlier_rate * n)),
    ]
    dropouts, spikes, outliers = _place_artifacts(rng, n, counts)
    gva[spikes] += noise.spike_magnitude_deg
    gva[outliers] += noise.outlier_magnitude_deg

    # Version saccade: the cyclopean azimuth sweeps out and back during the
    # transition, landing exactly at the latency + saccade duration sample.
    az = np.zeros(n)
    sweep = (t_rel >= noise.latency_s) & (t_rel < noise.latency_s + noise.saccade_duration_s)
    az[sweep] = noise.saccade_amplitude_deg * np.sin(
        math.pi * (t_rel[sweep] - noise.latency_s) / noise.saccade_duration_s
    )
    el = np.zeros(n)
    if noise.direction_noise_sd_deg > 0.0:
        az = az + rng.normal(0.0, noise.direction_noise_sd_deg, n)
        el = el + rng.normal(0.0, noise.direction_noise_sd_deg, n)

    half = np.radians(np.maximum(gva, 1e-9)) / 2.0
    az_rad = np.radians(az)
    el_rad = np.radians(el)
    cos_el = np.cos(el_rad)
    sin_el = np.sin(el_rad)
    a_left = az_rad + half
    a_right = az_rad - half
    l_dir = np.column_stack([np.sin(a_left) * cos_el, sin_el, np.cos(a_left) * cos_el])
    r_dir = np.column_stack([np.sin(a_right) * cos_el, sin_el, np.cos(a_right) * cos_el])
    l_origin = np.tile([-physiology.ipd_m / 2.0, 0.0, 0.0], (n, 1))
    r_origin = np.tile([physiology.ipd_m / 2.0, 0.0, 0.0], (n, 1))

    conf = rng.uniform(0.9, 1.0, size=(n, 2))
    conf[dropouts] = 0.0

    direction = LANDOLT_DIRECTIONS[int(rng.integers(4))]
    timed_out = bool(rng.random() < timeout_rate)
    if timed_out:
        response = "timeout"
        response_s = None
    else:
        if rng.random() < landolt_accuracy:
            response = direction
        else:
            others = [d for d in LANDOLT_DIRECTIONS if d != direction]
            response = others[int(rng.integers(3))]
        response_s = spec.stimulus_onset_s + float(rng.uniform(1.0, 2.5))

    series = GazeSeries(t_abs, l_origin, l_dir, r_origin, r_dir, conf[:, 0], conf[:, 1])
    trial = TrialRecord(
        participant_id=spec.participant_id,
        environment=spec.environment,
        trial_id=spec.trial_id,
        start_depth_m=spec.start_depth_m,
        end_depth_m=spec.end_depth_m,
        stimulus_onset_s=spec.stimulus_onset_s,
        response_s=response_s,
        samples=series,
        landolt_direction=direction,
        landolt_response=response,
    )
    artifacts = TrialArtifacts(
        spec.participant_id,
        spec.environment,
        spec.trial_id,
        t_abs[np.concatenate((dropouts, spikes, outliers))],
        (len(dropouts), len(spikes), len(outliers)),
    )
    truth = {
        "stable_from_s": spec.stimulus_onset_s + noise.latency_s + noise.saccade_duration_s,
        "steady_gva_deg": v_end,
        "settled_from_s": spec.stimulus_onset_s + noise.latency_s + noise.settle_time_s,
    }
    return trial, artifacts, truth


def _draw_physiology(
    pid: str, design: ExperimentDesign, config: CohortConfig, rng: np.random.Generator
) -> PhysiologyParams:
    min_offset = min(config.environment.offsets_deg.get(e, 0.0) for e in design.environments)
    for _ in range(1000):
        slope = float(rng.normal(config.slope_mean_deg_per_d, config.slope_sd_deg_per_d))
        if slope < config.min_slope_deg_per_d:
            continue
        target_intercept = float(rng.normal(config.intercept_mean_deg, config.intercept_sd_deg))
        if config.response_mode == "linear":
            phys = PhysiologyParams(pid, 0.063, target_intercept, "linear", slope)
        else:
            ipd = solve_effective_ipd(slope, design.diopters)
            baseline, _ = implied_response_line(
                [ideal_vergence(d, ipd) for d in design.depths_m], design.diopters
            )
            phys = PhysiologyParams(pid, ipd, target_intercept - baseline, "geometric")
        floor = min(phys.steady_gva(d) for d in design.depths_m) + min_offset
        if floor >= config.min_steady_gva_deg:
            return phys
    raise DomainError("could not draw physiology satisfying the positivity floor")


@dataclass
class SimulatedDataset:
    """Simulated sessions plus their ground truth, held in memory: one session, or a cohort merged from them.

    ``subjective`` holds a participant's distance reports in the
    participant's first session, so each report comes once.
    """

    design: ExperimentDesign
    config: CohortConfig
    seed: int
    trials: list[TrialRecord]
    physiology: dict[str, PhysiologyParams]
    trial_artifacts: list[TrialArtifacts]
    trial_truth: dict[tuple[str, str, str], dict]
    subjective: list[SubjectiveReport]

    @classmethod
    def merged(cls, parts: Sequence["SimulatedDataset"]) -> "SimulatedDataset":
        """The parts' trials, tags, truth and reports joined in order, under the first part's design, config and seed."""
        first = parts[0]
        return cls(
            first.design,
            first.config,
            first.seed,
            trials=[t for p in parts for t in p.trials],
            physiology={pid: phys for p in parts for pid, phys in p.physiology.items()},
            trial_artifacts=[a for p in parts for a in p.trial_artifacts],
            trial_truth={key: truth for p in parts for key, truth in p.trial_truth.items()},
            subjective=[r for p in parts for r in p.subjective],
        )

    @property
    def artifacts(self) -> list[ArtifactTag]:
        """Every trial's artifact tags, one ``ArtifactTag`` each, in trial order."""
        return [tag for a in self.trial_artifacts for tag in a.tags()]

    def ledger(self) -> dict:
        """The ground-truth ledger; its ``artifacts`` entry is a ``LedgerArtifacts`` over the trials' tags, in trial order."""
        participants = {}
        for pid, phys in sorted(self.physiology.items()):
            a, b = phys.implied_line(self.design.depths_m)
            participants[pid] = {
                "ipd_m": phys.ipd_m,
                "intercept_bias_deg": phys.intercept_bias_deg,
                "response_mode": phys.response_mode,
                "slope_implied_deg_per_d": b,
                "intercept_implied_deg": a,
            }
        return {
            "seed": self.seed,
            "participants": participants,
            "env_offsets_deg": dict(self.config.environment.offsets_deg),
            "subjective_factors": dict(self.config.subjective_factors),
            "artifacts": LedgerArtifacts(self.trial_artifacts),
            "trials": [
                {
                    "participant_id": pid,
                    "environment": env,
                    "trial_id": tid,
                    **truth,
                }
                for (pid, env, tid), truth in sorted(self.trial_truth.items())
            ],
        }

    def ledger_dict(self) -> dict:
        """``ledger()`` with its artifacts listed as dicts."""
        ledger = self.ledger()
        ledger["artifacts"] = list(ledger["artifacts"])
        return ledger


def _participant_subjective(
    pid: str,
    design: ExperimentDesign,
    config: CohortConfig,
    rng: np.random.Generator,
) -> list[SubjectiveReport]:
    unit = ("meters", "feet", "inches")[int(rng.integers(3))]
    to_unit = {"meters": 1.0, "feet": 1.0 / 0.3048, "inches": 1.0 / 0.0254}[unit]
    out = []
    for env in design.environments:
        factor = float(config.subjective_factors.get(env, 1.0))
        for depth in design.depths_m:
            for rep in range(1, config.subjective_repetitions + 1):
                jitter = math.exp(float(rng.normal(0.0, config.subjective_jitter_sd)))
                reported_d = to_diopters(depth) * factor * jitter
                reported_m = 1.0 / reported_d
                out.append(SubjectiveReport(pid, env, depth, reported_m * to_unit, unit, rep))
    return out


def simulate_session(
    design: ExperimentDesign, config: CohortConfig, seed: int, p_index: int, e_index: int
) -> SimulatedDataset:
    """Session ``e_index`` of participant ``p_index`` as a one-session ``SimulatedDataset``.

    The participant's seed is re-derived as
    ``SeedSequence(seed).spawn(design.n_participants)[p_index]``, and from it
    the participant's physiology and the session's own generator, so a
    session is the same whether it is simulated alone or in a cohort, in this
    process or another.
    """
    participant_seq = np.random.SeedSequence(seed).spawn(design.n_participants)[p_index]
    pid = f"p{p_index + 1:02d}"
    seqs = participant_seq.spawn(len(design.environments) + 1)
    prng = np.random.default_rng(seqs[0])
    phys = _draw_physiology(pid, design, config, prng)
    # The reports come after the physiology on the participant's generator,
    # so skipping them leaves the other sessions' draws as they are.
    subjective = _participant_subjective(pid, design, config, prng) if e_index == 0 else []
    env = design.environments[e_index]
    srng = np.random.default_rng(seqs[e_index + 1])
    session = SimulatedDataset(design, config, seed, [], {pid: phys}, [], {}, subjective)
    sequence = generate_sequence(design, srng)
    onset = 0.0
    offset_deg = config.environment.offset(env)
    for t_index, (start, end) in enumerate(sequence):
        spec = TrialSpec(
            participant_id=pid,
            environment=env,
            trial_id=f"t{t_index:03d}",
            start_depth_m=start,
            end_depth_m=end,
            stimulus_onset_s=onset,
            sample_rate_hz=design.sample_rate_hz,
            duration_s=design.trial_duration_s,
        )
        trial, artifacts, truth = simulate_trial(
            spec,
            phys,
            config.noise,
            offset_deg,
            srng,
            config.landolt_accuracy,
            config.timeout_rate,
        )
        session.trials.append(trial)
        session.trial_artifacts.append(artifacts)
        session.trial_truth[(pid, env, spec.trial_id)] = truth
        onset += design.trial_duration_s + float(srng.uniform(*design.iti_range_s))
    return session


def simulate_cohort(
    design: ExperimentDesign | None = None,
    config: CohortConfig | None = None,
    seed: int = 0,
) -> SimulatedDataset:
    """Simulate the whole cohort deterministically from ``seed`` and hold it in memory.

    Merges every ``simulate_session``, participant by participant and in
    ``design.environments`` order within a participant, so the trials, tags
    and reports are those that ``dataio.write_dataset`` writes for the same
    design, config and seed.
    """
    design = design or ExperimentDesign()
    config = config or CohortConfig()
    return SimulatedDataset.merged(
        [
            simulate_session(design, config, seed, p_index, e_index)
            for p_index in range(design.n_participants)
            for e_index in range(len(design.environments))
        ]
    )
