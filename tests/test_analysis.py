from dataclasses import replace

import numpy as np
import pytest

from vergescope.analysis import (
    analyze_stability,
    attach_normalized,
    condition_means,
    run_analysis,
    stability_means,
)
from vergescope.calibration import fit_participants, GvaObservation
from vergescope.pipeline import ProcessedTrial, preprocess_dataset, validity_gate
from vergescope.stats import f_test_from_r2
from vergescope.synth import (
    CohortConfig,
    ExperimentDesign,
    NoiseModel,
    simulate_cohort,
)


def table_row(pid, env, start, end, gva, valid=True):
    return ProcessedTrial(pid, env, "t", start, end, "ok", gva, 1.0, valid, True)


class TestTables:
    def test_condition_means_average_trials(self):
        rows = [
            table_row("p01", "Real", 4.0, 0.25, 10.0),
            table_row("p01", "Real", 1.5, 0.25, 12.0),
            table_row("p01", "Real", 4.0, 0.75, 5.0),
        ]
        cells = condition_means(rows)
        assert len(cells) == 2
        quarter = next(c for c in cells if c.end_depth_m == 0.25)
        assert quarter.gva_deg == pytest.approx(11.0)
        assert quarter.n_trials == 2

    def test_invalid_trials_excluded(self):
        rows = [
            table_row("p01", "Real", 4.0, 0.25, 10.0),
            table_row("p01", "Real", 1.5, 0.25, 99.0, valid=False),
        ]
        cells = condition_means(rows)
        assert cells[0].gva_deg == pytest.approx(10.0)

    def test_stability_means_keep_pairs(self):
        rows = [
            table_row("p01", "Real", 4.0, 0.25, 10.0),
            table_row("p01", "Real", 1.5, 0.25, 12.0),
        ]
        cells = stability_means(rows)
        assert len(cells) == 2
        assert sorted(c.switch_depth_d for c in cells) == pytest.approx([10.0 / 3.0, 3.75])


class TestRetention:
    def full_rows(self, pid="p01", skip_env=None, valid_per_pair=6):
        design = ExperimentDesign()
        rows = []
        for env in design.environments:
            if env == skip_env:
                continue
            for start, end in design.depth_pairs:
                for i in range(6):
                    rows.append(table_row(pid, env, start, end, 10.0, valid=i < valid_per_pair))
        return rows

    def retained(self, rows):
        return validity_gate(rows)[1]

    def test_fully_valid_participant_retained(self):
        assert self.retained(self.full_rows()) == ["p01"]

    def test_two_environments_not_enough(self):
        assert self.retained(self.full_rows(skip_env="VR")) == []

    def test_sparse_pairs_fail_gate(self):
        assert self.retained(self.full_rows(valid_per_pair=2)) == []


def _stability_with_switch_effect(end_depth_m=None):
    """Stability chain on seed 3 (2 x 1) with 3 deg/D of switching depth added in VR.

    ``end_depth_m`` limits the added effect to the VR cells at that end depth.
    """
    ds = simulate_cohort(ExperimentDesign(n_participants=2, repetitions=1), CohortConfig(), seed=3)
    processed, _ = preprocess_dataset(ds.trials)
    models = fit_participants(condition_means(processed))
    cells = [
        replace(c, normalized_gva_deg=c.normalized_gva_deg + 3.0 * c.switch_depth_d)
        if c.environment == "VR" and end_depth_m in (None, c.end_depth_m)
        else c
        for c in attach_normalized(stability_means(processed), models)
    ]
    result = analyze_stability(cells, normalized=True)
    return result, {r["model"]: r for r in result["rows"]}


def _f_test_row(row, larger, complete):
    delta_df, f, p = f_test_from_r2(
        row["r_squared"], row["res_df"], larger["r_squared"], larger["res_df"], complete["r_squared"], complete["res_df"]
    )
    return -delta_df, f, p


class TestStabilityChain:
    def test_rm_is_tested_against_the_hidden_fitted_model(self):
        # A switching-depth effect in VR at 0.25 m keeps the full three-way
        # model, so fm equals cm1 and is not printed; rm reduces fm and is
        # F-tested against it, not against cm2, which does not contain it.
        result, rows = _stability_with_switch_effect(end_depth_m=0.25)
        assert list(rows) == ["cm1", "cm2", "rm"]
        assert result["fitted_formula"] == rows["cm1"]["formula"]
        cm1, rm = rows["cm1"], rows["rm"]
        assert (rm["delta_df"], rm["f"], rm["p"]) == _f_test_row(rm, cm1, cm1)

    def test_fm_outside_cm2_is_tested_against_cm1(self):
        # The effect in every VR cell keeps environment:switch_depth_d, so the
        # printed fm is not nested in cm2, which has no switching-depth term.
        # fm is tested against cm1, and the environment share, cm2 - rm, is
        # omitted because rm is not nested in cm2 either.
        result, rows = _stability_with_switch_effect()
        assert list(rows) == ["cm1", "cm2", "fm", "rm"]
        cm1, fm = rows["cm1"], rows["fm"]
        assert fm["formula"] == "gva ~ end_depth + environment + switch_depth_d + environment:switch_depth_d"
        assert (fm["delta_df"], fm["f"], fm["p"]) == _f_test_row(fm, cm1, cm1)
        assert fm["f"] > 0.0
        assert "environment" not in result["attribution"]
        assert set(result["attribution"]) == {"end_depth", "switch_depth"}


@pytest.fixture(scope="module")
def small_cohort_analysis():
    design = ExperimentDesign(n_participants=5, repetitions=6)
    config = CohortConfig(
        noise=NoiseModel.quiet(sample_noise_sd_deg=0.3, direction_noise_sd_deg=0.02),
    )
    ds = simulate_cohort(design, config, seed=21)
    processed, _ = preprocess_dataset(ds.trials)
    report = run_analysis(
        processed,
        include_normalized=True,
        include_stability=True,
        subjective=ds.subjective,
    )
    return ds, report


class TestRunAnalysis:
    def test_condition_cell_count(self, small_cohort_analysis):
        _, report = small_cohort_analysis
        assert len(report["data"]["condition_means"]) == 5 * 3 * 4
        assert report["depth_environment"]["n"] == 60

    def test_normalized_chain_keeps_environment(self, small_cohort_analysis):
        _, report = small_cohort_analysis
        assert "environment" in report["normalized"]["fitted_formula"]
        assert "end_depth_d" in report["normalized"]["fitted_formula"]

    def test_offsets_recovered(self, small_cohort_analysis):
        _, report = small_cohort_analysis
        diffs = report["environment_offsets"]["differences_deg"]
        assert diffs["AR-Real"] == pytest.approx(-0.8, abs=0.15)
        assert diffs["VR-Real"] == pytest.approx(-1.3, abs=0.15)

    def test_stability_rows_shape(self, small_cohort_analysis):
        _, report = small_cohort_analysis
        tags = [r["model"] for r in report["stability"]["rows"]]
        assert tags[0] == "cm1"
        assert "cm2" in tags
        # residual dfs drop monotonically along the printed chain
        dfs = [r["res_df"] for r in report["stability"]["rows"]]
        assert dfs == sorted(dfs)
        assert report["stability"]["switch_depth_retained"] is False

    def test_stability_factor_coding_dfs(self, small_cohort_analysis):
        _, report = small_cohort_analysis
        rows = {r["model"]: r for r in report["stability"]["rows"]}
        n = report["stability"]["n"]
        # full three-way model with a 4-level factor and 3 environments: 24 columns
        assert rows["cm1"]["res_df"] == n - 24
        assert rows["cm2"]["res_df"] == n - 12

    def test_veridicality_block(self, small_cohort_analysis):
        ds, report = small_cohort_analysis
        verid = report["veridicality"]
        assert verid["n"] == 5 * 4 * 2 * 2
        assert verid["mean_log_ratios"]["subjective"]["AR"] == pytest.approx(np.log(1.17), abs=0.06)
        assert verid["mean_log_ratios"]["subjective"]["VR"] == pytest.approx(np.log(1.377), abs=0.06)
        for env in ("Real", "AR", "VR"):
            assert env in verid["correlations"]

    def test_attribution_sums_sensible(self, small_cohort_analysis):
        _, report = small_cohort_analysis
        att = report["normalized"]["attribution"]
        assert att
        assert all(0.0 <= v <= 100.0 for v in att.values())


class TestRawVsNormalizedSelection:
    def test_intercept_variance_masks_environment(self):
        # large per-participant intercept spread hides the environment effect
        # in raw angles; removing it makes the effect detectable
        design = ExperimentDesign(n_participants=13, repetitions=6)
        config = CohortConfig(noise=NoiseModel.quiet(sample_noise_sd_deg=0.6, direction_noise_sd_deg=0.02))
        ds = simulate_cohort(design, config, seed=33)
        processed, _ = preprocess_dataset(ds.trials)
        report = run_analysis(processed, include_normalized=True)
        assert report["depth_environment"]["fitted_formula"] == "gva ~ end_depth_d"
        assert report["normalized"]["fitted_formula"] == "gva ~ end_depth_d + environment"


class TestShiftInvariance:
    def test_slope_and_interaction_invariant_under_normalization(self):
        # balanced design: subtracting per-participant constants only moves
        # the intercept-family coefficients
        from vergescope.stats import ModelFormula, ols_fit

        rng = np.random.default_rng(3)
        rows = []
        for p in range(6):
            a = rng.normal(17.5, 8.6)
            for env, off in (("Real", 0.0), ("AR", -0.8), ("VR", -1.3)):
                for d in (0.25, 2 / 3, 4 / 3, 4.0):
                    rows.append((f"p{p}", env, d, a + 1.7 * d + off + rng.normal(0, 0.1)))
        models = fit_participants(
            [GvaObservation(pid, env, d, g) for pid, env, d, g in rows]
        )
        raw = {
            "gva": [g for _, _, _, g in rows],
            "d": [d for _, _, d, _ in rows],
            "env": [env for _, env, _, _ in rows],
        }
        norm = dict(raw)
        norm["gva"] = [g - models[pid].intercept_deg for pid, _, _, g in rows]
        levels = {"env": ["Real", "AR", "VR"]}
        f = ModelFormula.parse("gva ~ d * env")
        fit_raw = ols_fit(raw, f, levels)
        fit_norm = ols_fit(norm, f, levels)
        for name in ("d", "d:env[AR]", "d:env[VR]"):
            assert fit_raw.coefficients[name] == pytest.approx(fit_norm.coefficients[name], abs=1e-9)
        assert fit_raw.coefficients["intercept"] != pytest.approx(fit_norm.coefficients["intercept"], abs=1e-3)
