import numpy as np
import pytest

from vergescope.errors import NestingError, RankDeficiencyError, VarianceShareError
from vergescope.stats import (
    FitResult,
    ModelFormula,
    ShareDef,
    f_test_from_r2,
    ols_fit,
    stepwise_refine,
    variance_attribution,
)


def normal_equations(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.linalg.solve(x.T @ x, x.T @ y)


class TestOls:
    def test_exact_line(self):
        data = {"x": [0.0, 1.0, 2.0], "y": [1.0, 3.0, 5.0]}
        fit = ols_fit(data, "y ~ x")
        assert fit.coefficients["intercept"] == pytest.approx(1.0, abs=1e-12)
        assert fit.coefficients["x"] == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.rss == pytest.approx(0.0, abs=1e-20)
        assert fit.residual_df == 1

    def test_intercept_only_r2_is_zero(self):
        rng = np.random.default_rng(0)
        fit = ols_fit({"y": rng.normal(size=50)}, "y ~ 1")
        assert fit.r_squared == 0.0
        assert fit.residual_df == 49

    def test_r2_definition_invariant(self):
        rng = np.random.default_rng(1)
        data = {"x": rng.normal(size=40), "y": rng.normal(size=40)}
        fit = ols_fit(data, "y ~ x")
        assert fit.r_squared == pytest.approx(1.0 - fit.rss / fit.tss, abs=1e-12)
        assert fit.residual_df == fit.n - fit.n_coefficients

    def test_matches_normal_equations_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(8, 21))
            k = int(rng.integers(1, 5))
            x_cols = {f"x{j}": rng.normal(size=n) for j in range(k)}
            beta_true = rng.normal(size=k + 1)
            x = np.column_stack([np.ones(n)] + [x_cols[f"x{j}"] for j in range(k)])
            y = x @ beta_true + rng.normal(scale=0.3, size=n)
            data = {"y": y, **x_cols}
            formula = "y ~ " + " + ".join(f"x{j}" for j in range(k))
            fit = ols_fit(data, formula)
            expected = normal_equations(x, y)
            got = np.array([fit.coefficients["intercept"]] + [fit.coefficients[f"x{j}"] for j in range(k)])
            np.testing.assert_allclose(got, expected, rtol=1e-8, atol=1e-10)

    def test_rank_deficiency(self):
        data = {"a": [1.0, 2.0, 3.0, 4.0], "b": [2.0, 4.0, 6.0, 8.0], "y": [1.0, 2.0, 3.0, 4.0]}
        with pytest.raises(RankDeficiencyError):
            ols_fit(data, "y ~ a + b")

    def test_needs_residual_df(self):
        with pytest.raises(RankDeficiencyError):
            ols_fit({"x": [0.0, 1.0], "y": [1.0, 2.0]}, "y ~ x")

    def test_nested_r2_monotone_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(10, 40))
            data = {
                "y": rng.normal(size=n),
                "a": rng.normal(size=n),
                "b": rng.normal(size=n),
            }
            small = ols_fit(data, "y ~ a")
            large = ols_fit(data, "y ~ a + b")
            assert large.r_squared >= small.r_squared - 1e-12


class TestNestedF:
    def fits(self):
        rng = np.random.default_rng(5)
        n = 60
        data = {
            "a": rng.normal(size=n),
            "b": rng.normal(size=n),
        }
        data["y"] = 1.0 + 2.0 * data["a"] + rng.normal(size=n)
        cm = ols_fit(data, "y ~ a * b")
        fm = ols_fit(data, "y ~ a")
        rm = ols_fit(data, "y ~ 1")
        return rm, fm, cm

    @staticmethod
    def f_test(smaller, larger, complete):
        return f_test_from_r2(
            smaller.r_squared,
            smaller.residual_df,
            larger.r_squared,
            larger.residual_df,
            complete.r_squared,
            complete.residual_df,
        )

    def test_comparison_structure(self):
        rm, fm, cm = self.fits()
        delta_df, f, p = self.f_test(fm, cm, cm)
        assert delta_df == 2
        assert f >= 0.0
        assert 0.0 <= p <= 1.0

    def test_identical_models(self):
        _, fm, cm = self.fits()
        assert self.f_test(fm, fm, cm) == (0, 0.0, 1.0)

    @pytest.mark.parametrize(
        "summaries",
        [
            (0.1, 20, 0.2, 20, 0.3, 18),  # R-squared differs but the residual df do not
            (0.2, 18, 0.1, 20, 0.3, 17),  # the smaller model has fewer residual df
            (0.1, 20, 0.2, 18, 1.0, 0),  # the complete model has no residual df
        ],
    )
    def test_inconsistent_summaries_rejected(self, summaries):
        with pytest.raises(NestingError):
            f_test_from_r2(*summaries)

    def test_summary_core_reproduces_published_tables(self):
        # Values as printed in the source analyses; F to +/-0.1.
        cases = [
            # (r2_small, df_small, r2_large, df_large, r2_c, df_c, f_expected)
            (0.0839, 154, 0.0876, 150, 0.0876, 150, 0.2),
            (0.0, 155, 0.0839, 154, 0.0876, 150, 13.8),
            (0.6772, 152, 0.6797, 150, 0.6797, 150, 0.6),
            (0.6513, 154, 0.6772, 152, 0.6797, 150, 6.1),
            (0.6135, 453, 0.6188, 441, 0.6188, 441, 0.5),
            (0.6066, 459, 0.6135, 453, 0.6188, 441, 1.3),
            (0.5828, 461, 0.6066, 459, 0.6188, 441, 13.8),
            (0.091, 461, 0.096, 441, 0.096, 441, 0.1),
            (0.0, 464, 0.091, 461, 0.096, 441, 14.8),
            (0.20, 204, 0.201, 200, 0.201, 200, 0.1),
            (0.1736, 206, 0.20, 204, 0.201, 200, 3.3),
        ]
        for r2s, dfs, r2l, dfl, r2c, dfc, f_expected in cases:
            _, f, _ = f_test_from_r2(r2s, dfs, r2l, dfl, r2c, dfc)
            assert f == pytest.approx(f_expected, abs=0.1)


class TestStepwise:
    def make_data(self, env_offsets, interaction=0.0, seed=2, n_per_cell=8, noise=0.5):
        rng = np.random.default_rng(seed)
        rows_d, rows_env, rows_y = [], [], []
        for env, off in env_offsets.items():
            for d in (0.25, 0.67, 1.33, 4.0):
                for _ in range(n_per_cell):
                    rows_d.append(d)
                    rows_env.append(env)
                    rows_y.append(5.0 + 1.7 * d + off + interaction * d * (env == "VR") + rng.normal(0, noise))
        return {"y": rows_y, "d": rows_d, "env": rows_env}

    def test_drops_null_environment(self):
        data = self.make_data({"Real": 0.0, "AR": 0.0, "VR": 0.0})
        fit, trace = stepwise_refine(data, "y ~ d * env", levels={"env": ["Real", "AR", "VR"]})
        assert set(fit.formula.terms) == {("d",)}

    def test_keeps_additive_environment(self):
        data = self.make_data({"Real": 0.0, "AR": -0.8, "VR": -1.3}, noise=0.3)
        fit, _ = stepwise_refine(data, "y ~ d * env", levels={"env": ["Real", "AR", "VR"]})
        assert set(fit.formula.terms) == {("d",), ("env",)}

    def test_pure_noise_reduces_to_intercept(self):
        rng = np.random.default_rng(3)
        data = {"y": rng.normal(size=120), "d": rng.normal(size=120), "env": ["Real", "AR", "VR"] * 40}
        fit, _ = stepwise_refine(data, "y ~ d * env", levels={"env": ["Real", "AR", "VR"]})
        assert fit.formula.terms == ()

    def test_aic_criterion_selects_same_strong_structure(self):
        data = self.make_data({"Real": 0.0, "AR": -0.8, "VR": -1.3}, noise=0.3)
        fit, trace = stepwise_refine(
            data, "y ~ d * env", criterion="aic", levels={"env": ["Real", "AR", "VR"]}
        )
        assert trace.criterion == "aic"
        assert ("d",) in fit.formula.terms
        assert ("env",) in fit.formula.terms

    def test_marginality_invariant_on_random_lattices(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = 80
            data = {
                "y": rng.normal(size=n),
                "a": rng.normal(size=n),
                "b": rng.normal(size=n),
                "c": rng.normal(size=n),
            }
            complete = ModelFormula.parse("y ~ a * b * c")
            fit, trace = stepwise_refine(data, complete)
            for step in trace.steps:
                step.formula.validate_marginality()
                for term in step.formula.droppable_terms():
                    assert not any(set(term) < set(other) for other in step.formula.terms)
            fit.formula.validate_marginality()

    def test_final_model_not_significantly_worse_than_complete(self):
        data = self.make_data({"Real": 0.0, "AR": 0.0, "VR": 0.0})
        fit, trace = stepwise_refine(data, "y ~ d * env", levels={"env": ["Real", "AR", "VR"]})
        cm = trace.complete
        _, _, p = f_test_from_r2(
            fit.r_squared, fit.residual_df, cm.r_squared, cm.residual_df, cm.r_squared, cm.residual_df
        )
        assert p > 0.05


class TestAttribution:
    def summary(self, r2, df, formula="y ~ 1"):
        return FitResult(ModelFormula.parse(formula), {}, r2, df, df + 1, float("nan"), float("nan"))

    def test_depth_environment_footer(self):
        models = {"cm": self.summary(0.0876, 150), "fm": self.summary(0.0839, 154)}
        shares = variance_attribution(
            models,
            [ShareDef("end_depth", "fm", None, "cm"), ShareDef("environment", "cm", "fm", "cm")],
        )
        assert round(100 * shares["end_depth"], 1) == 95.8
        assert round(100 * shares["environment"], 1) == 4.2

    def test_normalized_footer(self):
        models = {"fm": self.summary(0.6772, 152), "rm": self.summary(0.6513, 154)}
        shares = variance_attribution(
            models,
            [ShareDef("end_depth", "rm", None, "fm"), ShareDef("environment", "fm", "rm", "fm")],
        )
        assert round(100 * shares["end_depth"], 1) == 96.2
        assert round(100 * shares["environment"], 1) == 3.8

    def test_stability_footer(self):
        models = {
            "cm1": self.summary(0.6188, 441),
            "cm2": self.summary(0.6135, 453),
            "rm": self.summary(0.5828, 461),
        }
        shares = variance_attribution(
            models,
            [
                ShareDef("end_depth", "rm", None, "cm1"),
                ShareDef("environment", "cm2", "rm", "cm2"),
                ShareDef("switch_depth", "cm1", "cm2", "cm1"),
            ],
        )
        assert round(100 * shares["end_depth"], 1) == 94.2
        assert round(100 * shares["environment"], 1) == 5.0
        assert round(100 * shares["switch_depth"], 1) == 0.9

    def test_log_ratio_footer(self):
        models = {
            "cm": self.summary(0.201, 200),
            "fm": self.summary(0.20, 204),
            "rm": self.summary(0.1736, 206),
        }
        shares = variance_attribution(
            models,
            [
                ShareDef("measure", "rm", None, "cm"),
                ShareDef("environment", "fm", "rm", "fm"),
                ShareDef("end_depth", "cm", "fm", "cm"),
            ],
        )
        assert round(100 * shares["measure"], 1) == 86.4
        assert round(100 * shares["environment"], 1) == 13.2
        assert round(100 * shares["end_depth"], 1) == 0.5

    def test_zero_denominator(self):
        models = {"cm": self.summary(0.0, 10), "fm": self.summary(0.0, 12)}
        with pytest.raises(VarianceShareError):
            variance_attribution(models, [ShareDef("x", "fm", None, "cm")])
