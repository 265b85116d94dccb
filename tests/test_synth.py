import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vergescope import synth
from vergescope.calibration import fit_participant
from vergescope.errors import DomainError
from vergescope.geometry import ideal_vergence
from vergescope.pipeline import preprocess_dataset
from vergescope.synth import (
    CohortConfig,
    EnvironmentEffect,
    ExperimentDesign,
    NoiseModel,
    PhysiologyParams,
    SimulatedDataset,
    TrialSpec,
    _place_artifacts,
    generate_sequence,
    implied_response_line,
    simulate_cohort,
    simulate_session,
    simulate_trial,
    solve_effective_ipd,
)


class TestDesign:
    def test_depth_pairs(self):
        design = ExperimentDesign()
        pairs = design.depth_pairs
        assert len(pairs) == 12
        assert all(a != b for a, b in pairs)
        converging = sum(1 for a, b in pairs if b < a)
        assert converging == 6  # six converging, six diverging

    def test_trials_per_session(self):
        assert ExperimentDesign().trials_per_session == 72

    def test_rejects_duplicate_depths(self):
        with pytest.raises(DomainError):
            ExperimentDesign(depths_m=(0.25, 0.25, 1.0, 4.0))

    @pytest.mark.parametrize(
        "kwargs", [{"depths_m": (1.0,)}, {"environments": ()}, {"environments": ("Real", "AR", "Real")}]
    )
    def test_rejects_designs_whose_sessions_would_be_empty_or_collide(self, kwargs):
        # One depth gives no depth pair, so no trial; two sessions of one
        # environment would write the same manifest and gaze files.
        with pytest.raises(DomainError):
            ExperimentDesign(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"repetitions": 1.5},
            {"repetitions": True},
            {"n_participants": 2.0},
            {"sample_rate_hz": 0},
            {"sample_rate_hz": math.inf},
            {"sample_rate_hz": math.nan},
            {"depths_m": 4.0},
            {"environments": "Real"},
            {"response_window_s": 0.0},
            {"response_window_s": math.inf},
            {"post_response_dwell_s": -0.5},
            {"post_response_dwell_s": math.nan},
            {"iti_range_s": (6.0, 3.0)},
            {"iti_range_s": (-1.0, 3.0)},
            {"iti_range_s": (3.0, math.inf)},
            {"iti_range_s": (3.0,)},
            {"iti_range_s": 3.0},
        ],
    )
    def test_rejects_designs_the_simulator_cannot_run(self, kwargs):
        with pytest.raises(DomainError):
            ExperimentDesign(**kwargs)

    def test_dict_round_trip_and_unknown_key(self):
        design = ExperimentDesign(depths_m=(0.5, 2.0), iti_range_s=(0.0, 0.0), post_response_dwell_s=0.0)
        assert ExperimentDesign.from_dict(json.loads(json.dumps(design.to_dict()))) == design
        with pytest.raises(TypeError):
            ExperimentDesign.from_dict({"n_participant": 1})

    @pytest.mark.parametrize("value", [-1, 1.5, "x", False])
    def test_rejects_a_bad_subjective_repetition_count(self, value):
        with pytest.raises(DomainError):
            CohortConfig(subjective_repetitions=value)

    def test_accepts_numpy_integer_counts(self):
        assert CohortConfig(subjective_repetitions=np.int64(0)).subjective_repetitions == 0
        assert ExperimentDesign(repetitions=np.int64(2)).trials_per_session == 24


class TestSequence:
    def test_chaining_and_counts(self):
        design = ExperimentDesign()
        for seed in range(5):
            seq = generate_sequence(design, np.random.default_rng(seed))
            assert len(seq) == 72
            assert all(seq[i][1] == seq[i + 1][0] for i in range(len(seq) - 1))
            assert all(a != b for a, b in seq)  # no back-to-back same depth
            counts = Counter(seq)
            assert set(counts.values()) == {design.repetitions}
            assert len(counts) == 12

    def test_deterministic_given_seed(self):
        design = ExperimentDesign()
        s1 = generate_sequence(design, np.random.default_rng(123))
        s2 = generate_sequence(design, np.random.default_rng(123))
        assert s1 == s2


class TestEffectiveIpd:
    def test_solves_target_slope(self):
        design = ExperimentDesign()
        for slope in (0.8, 1.7, 2.8):
            ipd = solve_effective_ipd(slope, design.diopters)
            steady = [ideal_vergence(d, ipd) for d in design.depths_m]
            _, b = implied_response_line(steady, design.diopters)
            assert b == pytest.approx(slope, rel=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            solve_effective_ipd(0.0, ExperimentDesign().diopters)


def quiet_trial(start=4.0, end=0.25, ipd=0.0648, bias=0.0, offset=0.0, seed=0, mode="geometric", slope=None):
    phys = PhysiologyParams("p01", ipd, bias, mode, slope)
    spec = TrialSpec("p01", "Real", "t000", start, end, 0.0, 200.0, 3.5)
    return simulate_trial(spec, phys, NoiseModel.quiet(), offset, np.random.default_rng(seed))


class TestSimulateTrial:
    def test_steady_state_matches_geometry(self):
        trial, _, truth = quiet_trial()
        steady = trial.samples.gva_deg[trial.samples.t_s >= truth["settled_from_s"]]
        expected = ideal_vergence(0.25, 0.0648)
        np.testing.assert_allclose(steady, expected, atol=1e-9)
        assert truth["steady_gva_deg"] == pytest.approx(expected, abs=1e-12)

    def test_bias_shifts_everything(self):
        base, _, _ = quiet_trial()
        shifted, _, _ = quiet_trial(bias=5.0)
        np.testing.assert_allclose(shifted.samples.gva_deg, base.samples.gva_deg + 5.0, atol=1e-9)

    def test_environment_offset_is_additive(self):
        # positive bias keeps the whole trace a realizable (positive) angle
        base, _, t_base = quiet_trial(bias=10.0)
        vr, _, t_vr = quiet_trial(bias=10.0, offset=-1.3)
        assert t_vr["steady_gva_deg"] == pytest.approx(t_base["steady_gva_deg"] - 1.3, abs=1e-12)
        np.testing.assert_allclose(vr.samples.gva_deg, base.samples.gva_deg - 1.3, atol=1e-9)

    def test_linear_mode_is_exactly_linear(self):
        trials = {}
        for end, start in ((0.25, 4.0), (0.75, 4.0), (1.5, 0.25), (4.0, 0.25)):
            trial, _, truth = quiet_trial(start=start, end=end, mode="linear", bias=17.5, slope=1.7)
            trials[end] = truth["steady_gva_deg"]
        for end, steady in trials.items():
            assert steady == pytest.approx(17.5 + 1.7 / end, abs=1e-12)

    def test_dwell_holds_start_vergence(self):
        trial, _, _ = quiet_trial()
        dwell = trial.samples.gva_deg[trial.samples.t_s < 0.26]
        np.testing.assert_allclose(dwell, ideal_vergence(4.0, 0.0648), atol=1e-9)

    def test_artifacts_are_tagged_exactly(self):
        phys = PhysiologyParams("p01", 0.0648, 10.0)
        spec = TrialSpec("p01", "Real", "t000", 4.0, 0.25, 0.0, 200.0, 3.5)
        noise = NoiseModel.quiet(dropout_rate=0.05, spike_rate=0.01, outlier_rate=0.01)
        trial, artifacts, _ = simulate_trial(spec, phys, noise, 0.0, np.random.default_rng(5))
        tags = artifacts.tags()
        n = len(trial.samples)
        by_kind = Counter(tag.kind for tag in tags)
        assert by_kind["dropout"] == round(0.05 * n)
        assert by_kind["spike"] == round(0.01 * n)
        assert by_kind["outlier"] == round(0.01 * n)
        # tags are isolated from each other
        times = sorted(tag.t_s for tag in tags)
        assert min(np.diff(times)) >= 3 / 200.0 - 1e-9

    def test_determinism(self):
        t1, artifacts1, _ = quiet_trial(seed=9)
        t2, artifacts2, _ = quiet_trial(seed=9)
        np.testing.assert_array_equal(t1.samples.gva_deg, t2.samples.gva_deg)
        assert artifacts1.tags() == artifacts2.tags()


class TestSimulateCohort:
    def test_full_design_trial_count(self):
        design = ExperimentDesign(n_participants=2)
        ds = simulate_cohort(design, CohortConfig(), seed=1)
        assert len(ds.trials) == 2 * 3 * 72

    def test_identical_seeds_identical_output(self):
        design = ExperimentDesign(n_participants=2, repetitions=1)
        a = simulate_cohort(design, CohortConfig(), seed=11)
        b = simulate_cohort(design, CohortConfig(), seed=11)
        assert a.ledger_dict() == b.ledger_dict()
        for ta, tb in zip(a.trials, b.trials):
            np.testing.assert_array_equal(ta.samples.gva_deg, tb.samples.gva_deg)
            np.testing.assert_array_equal(ta.samples.l_dir, tb.samples.l_dir)

    def test_zero_noise_cohort_fully_clean(self):
        design = ExperimentDesign(n_participants=2, repetitions=1)
        config = CohortConfig(noise=NoiseModel.quiet())
        ds = simulate_cohort(design, config, seed=2)
        processed, report = preprocess_dataset(ds.trials)
        assert report.percent_excluded == 0.0
        assert report.n_valid_trials == report.n_trials

    def test_ledger_implied_line_matches_fit(self):
        design = ExperimentDesign(n_participants=1, repetitions=1)
        config = CohortConfig(
            noise=NoiseModel.quiet(), environment=EnvironmentEffect.none()
        )
        ds = simulate_cohort(design, config, seed=3)
        processed, _ = preprocess_dataset(ds.trials)
        by_depth = {}
        for p in processed:
            by_depth.setdefault(p.end_depth_d, []).append(p.gva_mean_deg)
        points = [(d, float(np.mean(v))) for d, v in sorted(by_depth.items())]
        model = fit_participant(points, "p01")
        ledger = ds.ledger_dict()["participants"]["p01"]
        assert model.intercept_deg == pytest.approx(ledger["intercept_implied_deg"], abs=1e-9)
        assert model.slope_deg_per_d == pytest.approx(ledger["slope_implied_deg_per_d"], abs=1e-9)

    def test_steady_state_independent_of_start_depth(self):
        # the built-in stability property: end depth determines the level
        design = ExperimentDesign(n_participants=1, repetitions=2)
        config = CohortConfig(noise=NoiseModel.quiet())
        ds = simulate_cohort(design, config, seed=4)
        by_end: dict[tuple[str, float], set] = {}
        for (pid, env, tid), truth in ds.trial_truth.items():
            trial = next(t for t in ds.trials if (t.participant_id, t.environment, t.trial_id) == (pid, env, tid))
            by_end.setdefault((env, trial.end_depth_m), set()).add(round(truth["steady_gva_deg"], 12))
        for levels in by_end.values():
            assert len(levels) == 1

    def test_subjective_reports_shape_and_factors(self):
        design = ExperimentDesign(n_participants=4, repetitions=1)
        ds = simulate_cohort(design, CohortConfig(), seed=6)
        assert len(ds.subjective) == 4 * 3 * 4 * 3
        from vergescope.analysis import subjective_diopters

        cells = subjective_diopters(ds.subjective)
        ratios = {"AR": [], "VR": []}
        for (pid, depth, env), value in cells.items():
            if env in ratios:
                ratios[env].append(math.log(value / cells[(pid, depth, "Real")]))
        assert np.mean(ratios["AR"]) == pytest.approx(math.log(1.17), abs=0.05)
        assert np.mean(ratios["VR"]) == pytest.approx(math.log(1.377), abs=0.05)

    def test_landolt_accuracy_close_to_configured(self):
        design = ExperimentDesign(n_participants=3, repetitions=2)
        ds = simulate_cohort(design, CohortConfig(), seed=7)
        correct = np.mean([t.landolt_correct for t in ds.trials])
        n = len(ds.trials)
        assert abs(correct - 0.98) < 4.0 * math.sqrt(0.98 * 0.02 / n)

    def test_sessions_are_generated_on_demand(self, monkeypatch):
        calls = []
        real = synth.simulate_trial

        def counted(spec, *args):
            calls.append(spec)
            return real(spec, *args)

        monkeypatch.setattr(synth, "simulate_trial", counted)
        design = ExperimentDesign(n_participants=2, repetitions=1)
        first = simulate_session(design, CohortConfig(), 3, 0, 0)
        assert len(calls) == design.trials_per_session
        assert {(s.participant_id, s.environment) for s in calls} == {("p01", "Real")}
        assert list(first.physiology) == ["p01"]
        assert len(first.trials) == len(first.trial_artifacts) == len(first.trial_truth) == design.trials_per_session

    def test_sessions_come_participant_by_participant(self):
        design = ExperimentDesign(n_participants=2, repetitions=1)
        sessions = [simulate_session(design, CohortConfig(), 5, p, e) for p in range(2) for e in range(3)]
        assert [(*s.physiology, s.trials[0].environment) for s in sessions] == [
            (pid, env) for pid in ("p01", "p02") for env in design.environments
        ]
        # Each participant's reports come once, on the participant's first session.
        assert [len(s.subjective) for s in sessions] == [36, 0, 0, 36, 0, 0]
        cohort = simulate_cohort(design, CohortConfig(), seed=5)
        assert [(t.participant_id, t.environment) for t in cohort.trials[:: design.trials_per_session]] == [
            (pid, env) for pid in ("p01", "p02") for env in design.environments
        ]

    def test_merged_sessions_are_the_cohort(self):
        design = ExperimentDesign(n_participants=2, repetitions=1)
        config = CohortConfig()
        merged = SimulatedDataset.merged(
            [simulate_session(design, config, 9, p, e) for p in range(2) for e in range(3)]
        )
        cohort = simulate_cohort(design, config, seed=9)
        assert merged.ledger_dict() == cohort.ledger_dict()
        assert len(merged.ledger_dict()["artifacts"]) > 100
        assert merged.subjective == cohort.subjective and len(cohort.subjective) == 2 * 36
        assert len(merged.trials) == len(cohort.trials) == 6 * design.trials_per_session
        for a, b in zip(merged.trials, cohort.trials):
            assert (a.participant_id, a.environment, a.trial_id, a.start_depth_m, a.end_depth_m) == (
                b.participant_id, b.environment, b.trial_id, b.start_depth_m, b.end_depth_m
            )
            for name in ("t_s", "l_dir", "r_dir", "l_conf", "r_conf"):
                np.testing.assert_array_equal(getattr(a.samples, name), getattr(b.samples, name))

    def test_default_exclusion_in_reported_regime(self):
        # default artifact rates are tuned so the cascade excludes a mid-teens
        # percentage of samples, the regime reported for this hardware class
        design = ExperimentDesign(n_participants=2, repetitions=2)
        ds = simulate_cohort(design, CohortConfig(), seed=8)
        _, report = preprocess_dataset(ds.trials)
        assert 10.0 < report.percent_excluded < 25.0


def reference_place_artifacts(rng, n, counts, min_gap=3):
    """The pairwise-scan placement that the blocked-slot walk replaced."""
    total = sum(counts)
    chosen = []
    if total:
        for i in rng.permutation(np.arange(1, n - 1)):
            if all(abs(int(i) - j) >= min_gap for j in chosen):
                chosen.append(int(i))
                if len(chosen) == total:
                    break
    out = []
    pos = 0
    for c in counts:
        out.append(np.asarray(sorted(chosen[pos : pos + c]), dtype=int))
        pos += c
    return out


def assert_placement_matches_reference(seed, n, counts, min_gap):
    rng_fast, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    fast = _place_artifacts(rng_fast, n, counts, min_gap)
    ref = reference_place_artifacts(rng_ref, n, counts, min_gap)
    assert len(fast) == len(ref)
    for a, b in zip(fast, ref):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    # Both consumed the same draws, so the stream continues identically.
    assert rng_fast.integers(2**63) == rng_ref.integers(2**63)


class TestPlaceArtifactsOracle:
    @pytest.mark.parametrize("min_gap", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "n,counts",
        [
            (700, [7, 1, 1]),  # a simulated trial's default rates
            (700, [0, 0, 0]),
            (700, [0, 3, 0]),
            (40, [30, 30, 30]),  # more than fit: the later groups come up short
            (12, [2, 2, 2]),
            (3, [1, 1, 1]),  # one interior slot
            (2, [1, 0, 0]),  # no interior slot
            (0, [1, 0, 0]),
        ],
    )
    def test_matches_reference(self, n, counts, min_gap):
        for seed in (0, 1, 7, 23):
            assert_placement_matches_reference(seed, n, counts, min_gap)

    def test_oversubscribed_slots_are_isolated(self):
        dropouts, spikes, outliers = _place_artifacts(np.random.default_rng(5), 40, [30, 30, 30], 3)
        chosen = np.sort(np.concatenate([dropouts, spikes, outliers]))
        assert len(chosen) < 90 and len(outliers) < 30
        assert np.diff(chosen).min() >= 3 and chosen.min() >= 1 and chosen.max() <= 38

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 300),
        counts=st.lists(st.integers(0, 40), min_size=1, max_size=4),
        min_gap=st.integers(1, 5),
    )
    def test_property_matches_reference(self, seed, n, counts, min_gap):
        assert_placement_matches_reference(seed, n, counts, min_gap)
