import math

import numpy as np
import pytest

from conftest import trial_from_gva
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
from vergescope.recording import SampleStatus
from vergescope.synth import (
    ExperimentDesign,
    NoiseModel,
    PhysiologyParams,
    TrialSpec,
    simulate_trial,
)


class TestConfidenceFilter:
    def test_full_confidence_untouched(self, flat_trial):
        out = confidence_filter(flat_trial)
        assert out.samples.n_valid == len(out.samples)

    def test_boundary_just_below_threshold(self):
        lc = np.ones(100)
        lc[42] = 0.74
        trial = trial_from_gva(np.full(100, 10.0), l_conf=lc)
        out = confidence_filter(trial)
        assert out.samples.status[42] == SampleStatus.LOW_CONFIDENCE
        assert out.samples.n_valid == 99

    def test_threshold_value_is_kept(self):
        lc = np.ones(10)
        lc[3] = 0.75  # strictly-below rule: 0.75 itself survives
        trial = trial_from_gva(np.full(10, 10.0), l_conf=lc)
        assert confidence_filter(trial).samples.n_valid == 10

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
        assert out.samples.n_valid == 400

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


class TestOutlierFilter:
    def test_constant_series_untouched(self):
        out = outlier_filter(trial_from_gva(np.full(300, 10.0)))
        assert out.samples.n_valid == 300

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
        assert outlier_filter(trial).samples.n_valid == 1

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
        assert not trial_validity(trial)
        assert trial_validity(trial_from_gva(gva).with_fixation_onset(0.0))


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
