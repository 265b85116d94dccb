import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import trial_from_gva
from vergescope.calibration import DepthStream, ParticipantModel
from vergescope.errors import DomainError, NoFixationError, ShortTrialError
from vergescope.pipeline import (
    analysis_window,
    cascade_validity,
    confidence_filter,
    detect_fixation_onset,
    outlier_filter,
    process_session,
    session_gva_stats,
    trial_mean_gva,
    trial_validity,
    velocity_filter,
)
from vergescope.recording import GazeSeries, SampleStatus
from vergescope.synth import (
    ExperimentDesign,
    NoiseModel,
    PhysiologyParams,
    TrialSpec,
    simulate_trial,
)


def n_valid(series: GazeSeries) -> int:
    return int(np.count_nonzero(series.valid_mask))


class TestConfidenceFilter:
    def test_full_confidence_untouched(self, flat_trial):
        out = confidence_filter(flat_trial)
        assert n_valid(out.samples) == len(out.samples)

    def test_boundary_just_below_threshold(self):
        lc = np.ones(100)
        lc[42] = 0.74
        trial = trial_from_gva(np.full(100, 10.0), l_conf=lc)
        out = confidence_filter(trial)
        assert out.samples.status[42] == SampleStatus.LOW_CONFIDENCE
        assert n_valid(out.samples) == 99

    def test_threshold_value_is_kept(self):
        lc = np.ones(10)
        lc[3] = 0.75  # strictly-below rule: 0.75 itself survives
        trial = trial_from_gva(np.full(10, 10.0), l_conf=lc)
        assert n_valid(confidence_filter(trial).samples) == 10

    def test_either_eye_counts(self):
        rc = np.ones(10)
        rc[5] = 0.2
        trial = trial_from_gva(np.full(10, 10.0), r_conf=rc)
        out = confidence_filter(trial)
        assert out.samples.status[5] == SampleStatus.LOW_CONFIDENCE

    def test_exact_injected_fraction(self):
        rng = np.random.default_rng(0)
        n = 1000
        lc = np.ones(n)
        dropped = rng.choice(n, size=100, replace=False)
        lc[dropped] = 0.0
        trial = trial_from_gva(np.full(n, 10.0), l_conf=lc)
        out = confidence_filter(trial)
        assert out.samples.status_counts()["low_confidence"] == 100

    def test_idempotent(self, flat_trial):
        once = confidence_filter(flat_trial)
        twice = confidence_filter(once)
        np.testing.assert_array_equal(once.samples.status, twice.samples.status)


class TestVelocityFilter:
    def test_smooth_ramp_untouched(self):
        # 50 deg/s ramp at 200 Hz
        gva = 10.0 + 0.25 * np.arange(400)
        out = velocity_filter(trial_from_gva(gva))
        assert n_valid(out.samples) == 400

    def test_single_spike_invalidates_one_sample(self):
        gva = np.full(200, 10.0)
        gva[80] += 30.0  # 6000 deg/s at 200 Hz
        out = velocity_filter(trial_from_gva(gva))
        counts = out.samples.status_counts()
        assert counts["velocity_spike"] == 1
        assert out.samples.status[80] == SampleStatus.VELOCITY_SPIKE

    def test_k_spikes_k_invalidations(self):
        rng = np.random.default_rng(1)
        gva = np.full(2000, 12.0)
        spikes = np.arange(50, 1950, 97)[:15]
        gva[spikes] += 40.0
        out = velocity_filter(trial_from_gva(gva))
        assert out.samples.status_counts()["velocity_spike"] == len(spikes)
        assert set(np.flatnonzero(out.samples.status == SampleStatus.VELOCITY_SPIKE)) == set(spikes)

    def test_at_threshold_kept(self):
        gva = np.full(100, 10.0)
        gva[50] += 24.9  # 4980 deg/s at 200 Hz: at or below the limit survives
        out = velocity_filter(trial_from_gva(gva))
        assert out.samples.status_counts()["velocity_spike"] == 0

    def test_idempotent(self):
        gva = np.full(200, 10.0)
        gva[60] += 30.0
        once = velocity_filter(trial_from_gva(gva))
        twice = velocity_filter(once)
        np.testing.assert_array_equal(once.samples.status, twice.samples.status)

    def test_skips_confidence_gaps(self):
        # invalidated sample between two valid ones; velocity measured across it
        gva = np.full(100, 10.0)
        gva[40] = 500.0
        lc = np.ones(100)
        lc[40] = 0.0
        trial = confidence_filter(trial_from_gva(gva, l_conf=lc))
        out = velocity_filter(trial)
        assert out.samples.status[40] == SampleStatus.LOW_CONFIDENCE
        assert out.samples.status_counts()["velocity_spike"] == 0


def reference_velocity_scan(t, gva, idx, max_velocity):
    """Indices to invalidate: each candidate is tested against the last kept one."""
    bad = []
    ref = -1
    for i in idx:
        if ref < 0:
            ref = i
            continue
        v = (gva[i] - gva[ref]) / (t[i] - t[ref])
        if abs(v) > max_velocity:
            bad.append(i)
        else:
            ref = i
    return np.asarray(bad, dtype=int)


def reference_velocity_filter(trial, max_velocity=5000.0):
    """``velocity_filter`` as it was before ``VelocityGate``: an adjacent-pair fast path, then the scan."""
    series = trial.samples.copy()
    candidates = np.flatnonzero(
        (series.status == SampleStatus.VALID) | (series.status == SampleStatus.VELOCITY_SPIKE)
    )
    series.status[series.status == SampleStatus.VELOCITY_SPIKE] = SampleStatus.VALID
    if len(candidates) < 2:
        return trial.with_samples(series)
    t = series.t_s
    g = series.gva_deg
    dt = np.diff(t[candidates])
    if np.any(dt <= 0):
        raise DomainError(
            f"participant {trial.participant_id} environment {trial.environment} trial {trial.trial_id}: "
            "velocity filter requires strictly increasing timestamps"
        )
    adjacent = np.abs(np.diff(g[candidates]) / dt)
    if np.any(adjacent > max_velocity):
        bad = reference_velocity_scan(t, g, candidates, max_velocity)
        series.status[bad] = SampleStatus.VELOCITY_SPIKE
    return trial.with_samples(series)


def _filtered(velocity, trial, max_velocity):
    """(status array, None) or (None, error message)."""
    try:
        return velocity(trial, max_velocity).samples.status, None
    except DomainError as exc:
        return None, str(exc)


# Slot kinds: a steady sample, a jump of up to 80 deg from the baseline (many
# above the limit, some below), low confidence, a NaN vector (missing), and a
# timestamp repeating the previous slot's.
SLOT_KINDS = ["steady", "steady", "jump", "jump", "low_confidence", "missing", "repeat"]


def spike_train(kinds, jumps, rate_hz=200.0, base=10.0, exact=False):
    """A confidence-filtered trial built slot by slot from ``kinds`` and the angle ``jumps`` of its jump slots.

    ``exact`` sets the angles themselves instead of the ones the gaze vectors
    give, so that with 256 Hz timestamps a jump can hit the limit exactly.
    """
    gva = [base + j if k == "jump" else math.nan if k == "missing" else base for k, j in zip(kinds, jumps)]
    l_conf = [0.0 if k == "low_confidence" else 1.0 for k in kinds]
    trial = trial_from_gva(gva, rate_hz=rate_hz, l_conf=l_conf)
    s = trial.samples
    t = s.t_s.copy()
    for i, k in enumerate(kinds):
        if k == "repeat" and i:
            t[i] = t[i - 1]
    exact_gva = np.array(gva) if exact else None
    series = GazeSeries(t, s.l_origin, s.l_dir, s.r_origin, s.r_dir, s.l_conf, s.r_conf, s.status, exact_gva)
    return confidence_filter(trial.with_samples(series))


# Multiples of 1000/256 deg: at 256 Hz, a jump of 1000/256 * k deg over k slots
# moves at exactly 1,000 deg/s, one of 5000/256 * k at exactly 5,000 deg/s.
TIE_JUMPS = st.integers(-2, 25).map(lambda j: j * 1000.0 / 256.0)


@st.composite
def spike_trains(draw, ties=True):
    """Spike trains; with ``ties``, half of them have exact angles that can move at exactly the limit."""
    kinds = draw(st.lists(st.sampled_from(SLOT_KINDS), min_size=1, max_size=40))
    if draw(st.booleans()):
        kinds = ["steady"] + [k for k in kinds if k != "repeat"]
    if ties and draw(st.booleans()):
        jumps = draw(st.lists(TIE_JUMPS, min_size=len(kinds), max_size=len(kinds)))
        return spike_train(kinds, jumps, 256.0, float(draw(st.integers(2, 15))), exact=True)
    jumps = draw(st.lists(st.floats(-8.0, 80.0), min_size=len(kinds), max_size=len(kinds)))
    return spike_train(kinds, jumps, draw(st.sampled_from([60.0, 200.0, 1000.0])), draw(st.floats(2.0, 15.0)))


# name -> (slot kinds, jump per slot in deg); at 200 Hz a 25 deg jump in one
# slot is 5,000 deg/s.
TRAIN_EXAMPLES = {
    "consecutive_spikes": (["steady", "jump", "jump", "jump", "steady", "steady"], [0, 60, 70, 80, 0, 0]),
    "spikes_first_and_last": (["jump", "steady", "steady", "steady", "jump"], [40, 0, 0, 0, 40]),
    "all_spikes": (["jump"] * 6, [0, 30, 60, 90, 120, 150]),
    "gaps": (["steady", "low_confidence", "jump", "missing", "low_confidence", "jump", "steady", "missing", "steady"],
             [0, 0, 60, 0, 0, 26, 0, 0, 0]),
    "repeat_after_gap": (["steady", "low_confidence", "repeat", "steady"], [0] * 4),
    "at_the_limit": (["steady", "jump", "steady", "jump", "jump"], [0, 5000.0 / 256, 0, 10000.0 / 256, 20000.0 / 256],
                     256.0, 10.0, True),
}
MODEL = ParticipantModel("p01", 0.5, 3.5, 0.1, 8)


class TestVelocityOracle:
    """``velocity_filter`` and ``DepthStream``, both on ``VelocityGate``, against the scan the gate replaced."""

    @settings(max_examples=300, deadline=None)
    @given(spike_trains(), st.sampled_from([1000.0, 5000.0]))
    def test_statuses_bitwise_equal_to_reference(self, trial, max_velocity):
        self._check(trial, max_velocity)

    @pytest.mark.parametrize("name", sorted(TRAIN_EXAMPLES))
    @pytest.mark.parametrize("max_velocity", [1000.0, 5000.0])
    def test_named_trains(self, name, max_velocity):
        self._check(spike_train(*TRAIN_EXAMPLES[name]), max_velocity)

    def _check(self, trial, max_velocity):
        got, error = _filtered(velocity_filter, trial, max_velocity)
        expected, expected_error = _filtered(reference_velocity_filter, trial, max_velocity)
        assert error == expected_error
        if error is None:
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)
            # re-filtering is idempotent, and spike marks are re-tested as the reference re-tests them
            again = trial.with_samples(trial.samples.copy())
            again.samples.status[:] = got
            np.testing.assert_array_equal(velocity_filter(again, max_velocity).samples.status, got)
            np.testing.assert_array_equal(reference_velocity_filter(again, max_velocity).samples.status, got)

    @settings(max_examples=200, deadline=None)
    @example(spike_train(*TRAIN_EXAMPLES["consecutive_spikes"]), [1], 5000.0)
    @example(spike_train(*TRAIN_EXAMPLES["repeat_after_gap"]), [2, 9], 5000.0)
    @given(spike_trains(ties=False), st.lists(st.integers(1, 9), min_size=1, max_size=5),
           st.sampled_from([1000.0, 5000.0]))
    def test_depth_stream_keeps_the_valid_rows(self, trial, sizes, max_velocity):
        s = trial.samples
        rows = np.column_stack([s.t_s, s.l_conf, s.r_conf, s.l_origin, s.l_dir, s.r_origin, s.r_dir]).tolist()
        stream = DepthStream(MODEL, 0.75, max_velocity)
        kept, error, start = [], None, 0
        try:
            while start < len(rows):
                block = rows[start : start + sizes[len(kept) % len(sizes)]]
                start += len(block)
                kept.extend((t, gva) for t, gva, _ in stream.push(block))
        except DomainError:
            error = DomainError
        status, filter_error = _filtered(velocity_filter, trial, max_velocity)
        assert error is (None if filter_error is None else DomainError)
        if error is None:
            valid = status == SampleStatus.VALID
            assert repr(kept) == repr(list(zip(s.t_s[valid].tolist(), s.gva_deg[valid].tolist())))


class TestOutlierFilter:
    def test_constant_series_untouched(self):
        out = outlier_filter(trial_from_gva(np.full(300, 10.0)))
        assert n_valid(out.samples) == 300

    def test_single_outlier(self):
        gva = np.concatenate([np.full(100, 10.0), [50.0]])
        out = outlier_filter(trial_from_gva(gva))
        assert out.samples.status_counts()["outlier"] == 1
        assert out.samples.status[100] == SampleStatus.OUTLIER
        # direct check of the rule on the pre-filter set
        mean, sd = float(gva.mean()), float(gva.std(ddof=1))
        assert abs(50.0 - mean) >= 2.5 * sd

    def test_gaussian_tail_fraction(self):
        rng = np.random.default_rng(2)
        gva = 10.0 + rng.normal(0.0, 1.0, size=10000)
        out = outlier_filter(trial_from_gva(gva))
        frac = out.samples.status_counts()["outlier"] / 10000.0
        # two-sided mass beyond 2.5 SD is ~1.24%
        assert frac == pytest.approx(0.0124, abs=0.003)

    def test_fewer_than_two_valid_is_noop(self):
        trial = trial_from_gva(np.array([10.0]))
        assert n_valid(outlier_filter(trial).samples) == 1

    def test_precomputed_stats(self):
        gva = np.full(50, 10.0)
        gva[10] = 14.0
        trial = trial_from_gva(gva)
        out = outlier_filter(trial, stats=(10.0, 1.0))
        assert out.samples.status[10] == SampleStatus.OUTLIER
        assert out.samples.status_counts()["outlier"] == 1

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        trial = trial_from_gva(10.0 + rng.normal(0, 1, size=5000))
        once = outlier_filter(trial)
        twice = outlier_filter(once)
        np.testing.assert_array_equal(once.samples.status, twice.samples.status)


class TestCascadeProperties:
    def noisy_trial(self):
        rng = np.random.default_rng(4)
        gva = 10.0 + rng.normal(0, 0.6, size=600)
        gva[100] += 40.0
        lc = np.ones(600)
        lc[np.arange(30, 500, 61)] = 0.1
        return trial_from_gva(gva, l_conf=lc)

    def test_slots_preserved(self):
        trial = self.noisy_trial()
        out = outlier_filter(velocity_filter(confidence_filter(trial)))
        assert len(out.samples) == len(trial.samples)
        np.testing.assert_array_equal(out.samples.t_s, trial.samples.t_s)

    def test_valid_set_shrinks_monotonically(self):
        trial = self.noisy_trial()
        stage1 = confidence_filter(trial)
        stage2 = velocity_filter(stage1)
        stage3 = outlier_filter(stage2)
        v1 = set(np.flatnonzero(stage1.samples.valid_mask))
        v2 = set(np.flatnonzero(stage2.samples.valid_mask))
        v3 = set(np.flatnonzero(stage3.samples.valid_mask))
        assert v3 <= v2 <= v1

    def test_first_reason_wins(self):
        gva = np.full(100, 10.0)
        gva[50] += 30.0
        lc = np.ones(100)
        lc[50] = 0.0  # low confidence and spike at once
        out = velocity_filter(confidence_filter(trial_from_gva(gva, l_conf=lc)))
        assert out.samples.status[50] == SampleStatus.LOW_CONFIDENCE


def scripted_saccade_trial(rate=200.0, latency=0.26, sacc_dur=0.08, amp=6.0, duration=3.5):
    """Dwell, half-sine azimuth sweep, steady fixation; vergence steps with it."""
    n = int(duration * rate)
    t = np.arange(n) / rate
    gva = np.where(t < latency, 2.0, 12.0)
    az = np.zeros(n)
    sweep = (t >= latency) & (t < latency + sacc_dur)
    az[sweep] = amp * np.sin(np.pi * (t[sweep] - latency) / sacc_dur)
    return trial_from_gva(gva, rate_hz=rate, az_deg=az), latency + sacc_dur


class TestFixationDetection:
    def test_saccade_landing_detected(self):
        trial, landing = scripted_saccade_trial()
        onset = detect_fixation_onset(trial)
        assert abs(onset - landing) <= 1.0 / 200.0 + 1e-9

    def test_stable_from_onset_gives_boundary(self):
        trial = trial_from_gva(np.full(700, 8.0))
        onset = detect_fixation_onset(trial)
        assert onset == pytest.approx(0.250, abs=1.0 / 200.0 + 1e-9)

    def test_continuous_pursuit_never_stabilizes(self):
        n = 700
        t = np.arange(n) / 200.0
        az = 40.0 * t  # 40 deg/s drift: every window exceeds the threshold
        trial = trial_from_gva(np.full(n, 8.0), az_deg=az)
        with pytest.raises(NoFixationError):
            detect_fixation_onset(trial)

    def test_fixation_must_precede_response(self):
        import dataclasses

        trial, landing = scripted_saccade_trial()
        early_response = dataclasses.replace(trial, response_s=0.30)
        with pytest.raises(NoFixationError):
            detect_fixation_onset(early_response)

    def test_simulator_ground_truth(self):
        phys = PhysiologyParams("p01", 0.0648, 0.0)
        spec = TrialSpec("p01", "Real", "t000", 0.25, 4.0, 0.0, 200.0, 3.5)
        trial, _, truth = simulate_trial(spec, phys, NoiseModel.quiet(), 0.0, np.random.default_rng(0))
        onset = detect_fixation_onset(trial)
        assert abs(onset - truth["stable_from_s"]) <= 1.0 / 200.0 + 1e-9


class TestAnalysisWindow:
    def test_window_arithmetic(self):
        trial, _ = scripted_saccade_trial()
        trial = trial.with_fixation_onset(0.40)
        assert analysis_window(trial) == (pytest.approx(1.40), pytest.approx(2.40))

    def test_zero_onset(self):
        trial = trial_from_gva(np.full(700, 8.0)).with_fixation_onset(0.0)
        assert analysis_window(trial) == (pytest.approx(1.0), pytest.approx(2.0))

    def test_short_trial(self):
        trial = trial_from_gva(np.full(int(2.1 * 200), 8.0)).with_fixation_onset(1.2)
        with pytest.raises(ShortTrialError):
            analysis_window(trial)


class TestTrialMean:
    def test_noiseless_simulated_trial(self):
        phys = PhysiologyParams("p01", 0.0648, 0.0)
        spec = TrialSpec("p01", "Real", "t000", 4.0, 0.25, 0.0, 200.0, 3.5)
        trial, _, _ = simulate_trial(spec, phys, NoiseModel.quiet(), 0.0, np.random.default_rng(0))
        result = process_session([trial])[0]
        expected = 2.0 * math.degrees(math.atan(0.0648 / 0.5))
        assert result.gva_mean_deg == pytest.approx(expected, abs=1e-6)

    def test_half_valid_window(self):
        gva = np.full(700, 10.0)
        lc = np.ones(700)
        window = np.arange(200, 400)
        lc[window[::2]] = 0.0  # half of the window slots
        trial = confidence_filter(trial_from_gva(gva, l_conf=lc)).with_fixation_onset(0.0)
        mean, fraction = trial_mean_gva(trial)
        assert mean == pytest.approx(10.0, abs=1e-12)
        assert fraction == pytest.approx(0.5)

    def test_gaussian_mean_concentrates(self):
        rng = np.random.default_rng(5)
        gva = 4.0 + rng.normal(0.0, 0.5, size=700)
        trial = trial_from_gva(gva).with_fixation_onset(0.0)
        mean, _ = trial_mean_gva(trial)
        assert abs(mean - 4.0) < 4.0 * 0.5 / math.sqrt(200)

    def test_empty_window_is_error(self):
        gva = np.full(700, 10.0)
        lc = np.zeros(700)
        trial = confidence_filter(trial_from_gva(gva, l_conf=lc)).with_fixation_onset(0.0)
        with pytest.raises(DomainError):
            trial_mean_gva(trial)


class TestTrialValidity:
    def test_boundaries(self):
        assert trial_validity(0.51)
        assert not trial_validity(0.50)  # strictly greater than half
        assert trial_validity(1.0)

    def test_accepts_trial(self):
        gva = np.full(700, 10.0)
        lc = np.ones(700)
        lc[200:301] = 0.0  # 101 of 200 window slots invalid
        trial = confidence_filter(trial_from_gva(gva, l_conf=lc)).with_fixation_onset(0.0)
        assert not trial_validity(trial_mean_gva(trial)[1])
        assert trial_validity(trial_mean_gva(trial_from_gva(gva).with_fixation_onset(0.0))[1])


def processed_stub(pid, env, pair, valid, n=6):
    from vergescope.pipeline import ProcessedTrial

    out = []
    for i in range(n):
        out.append(
            ProcessedTrial(
                participant_id=pid,
                environment=env,
                trial_id=f"{pair[0]}-{pair[1]}-{i}",
                start_depth_m=pair[0],
                end_depth_m=pair[1],
                status="ok",
                fixation_onset_s=0.3,
                gva_mean_deg=5.0,
                valid_fraction=1.0 if i < valid else 0.0,
                valid=i < valid,
                landolt_correct=True,
                n_samples=700,
                sample_counts={"valid": 700},
            )
        )
    return out


class TestCascadeValidity:
    def make_participant(self, pid, env_valid_pairs):
        design = ExperimentDesign()
        trials = []
        for env, n_valid_pairs in env_valid_pairs.items():
            for j, pair in enumerate(design.depth_pairs):
                valid = 3 if j < n_valid_pairs else 2  # 3/6 passes, 2/6 fails
                trials.extend(processed_stub(pid, env, pair, valid))
        return trials

    def test_pair_boundary(self):
        trials = processed_stub("p01", "Real", (0.25, 0.75), valid=3)
        report = cascade_validity(trials)
        pair = report.participants["p01"]["environments"]["Real"]["pairs"]["0.25->0.75"]
        assert pair["valid"] is True
        report2 = cascade_validity(processed_stub("p01", "Real", (0.25, 0.75), valid=2))
        pair2 = report2.participants["p01"]["environments"]["Real"]["pairs"]["0.25->0.75"]
        assert pair2["valid"] is False

    def test_environment_boundary(self):
        ok = cascade_validity(self.make_participant("p01", {"Real": 6}))
        assert ok.participants["p01"]["environments"]["Real"]["valid"] is True
        bad = cascade_validity(self.make_participant("p01", {"Real": 5}))
        assert bad.participants["p01"]["environments"]["Real"]["valid"] is False

    def test_participant_needs_three_valid_environments(self):
        two_of_three = self.make_participant("p01", {"Real": 12, "AR": 12, "VR": 5})
        report = cascade_validity(two_of_three)
        assert report.participants["p01"]["valid"] is False
        assert report.retained_participants == []
        all_three = self.make_participant("p02", {"Real": 12, "AR": 12, "VR": 6})
        assert cascade_validity(all_three).retained_participants == ["p02"]

    def test_sample_counts_sum(self):
        trials = self.make_participant("p01", {"Real": 12})
        report = cascade_validity(trials)
        assert sum(report.samples_by_status.values()) == report.total_samples

    def test_empty_dataset_yields_empty_report(self):
        report = cascade_validity([])
        assert report.total_samples == 0
        assert report.n_trials == 0
        assert report.retained_participants == []
        assert report.landolt_accuracy is None
        assert report.to_dict()["samples"]["percent_excluded"] == 0.0


class TestPreprocessDataset:
    def test_session_stats_pool_trials(self):
        trials = [
            trial_from_gva(np.full(100, 5.0)),
            trial_from_gva(np.full(100, 15.0)),
        ]
        stats = session_gva_stats(trials)
        assert stats[0] == pytest.approx(10.0)
