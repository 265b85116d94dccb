import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from vergescope.calibration import (
    GvaObservation,
    ParticipantModel,
    environment_offsets,
    estimate_depth,
    fit_participant,
    fit_participants,
    normalize_gva,
)
from vergescope.errors import (
    CalibrationRangeError,
    InvalidModelError,
    MissingLevelError,
    ParticipantMismatchError,
    RankDeficiencyError,
)
from vergescope.stats import ModelFormula, ols_fit

DIOPTERS = (0.25, 2.0 / 3.0, 4.0 / 3.0, 4.0)


def reference_fit_participant(points, participant_id=""):
    """``fit_participant`` with its own QR solve, as it was before sharing ``qr_solve``."""
    if len(points) < 2:
        raise RankDeficiencyError(f"need >= 2 calibration points, got {len(points)}")
    d = np.asarray([p[0] for p in points], dtype=float)
    g = np.asarray([p[1] for p in points], dtype=float)
    if np.ptp(d) == 0.0:
        raise RankDeficiencyError("all calibration points share one diopter value")
    x = np.column_stack([np.ones_like(d), d])
    q, r = np.linalg.qr(x)
    a, b = np.linalg.solve(r, q.T @ g)
    resid = g - (a + b * d)
    df = len(points) - 2
    residual_sd = math.sqrt(float(resid @ resid) / df) if df > 0 else 0.0
    return ParticipantModel(
        participant_id, float(a), float(b), residual_sd, len(points), float(d.min()), float(d.max())
    )


POINT_SETS = st.lists(st.tuples(st.floats(0.05, 20.0), st.floats(-100.0, 100.0)), min_size=2, max_size=12)


class TestFitParticipant:
    def test_noiseless_recovery(self):
        points = [(d, 17.5 + 1.7 * d) for d in DIOPTERS]
        model = fit_participant(points, "p01")
        assert model.intercept_deg == pytest.approx(17.5, abs=1e-9)
        assert model.slope_deg_per_d == pytest.approx(1.7, abs=1e-9)
        assert model.residual_sd_deg == pytest.approx(0.0, abs=1e-9)
        assert model.n_points == 4

    def test_two_point_line(self):
        model = fit_participant([(0.25, 1.0), (4.0, 2.0)])
        assert model.slope_deg_per_d == pytest.approx(1.0 / 3.75, abs=1e-12)
        assert model.intercept_deg == pytest.approx(1.0 - 0.25 / 3.75, abs=1e-12)
        assert model.residual_sd_deg == 0.0

    def test_residual_sd_uses_n_minus_2(self):
        rng = np.random.default_rng(0)
        d = np.tile(DIOPTERS, 25)
        g = 10.0 + 2.0 * d + rng.normal(0, 0.5, size=len(d))
        model = fit_participant(list(zip(d, g)))
        resid = g - (model.intercept_deg + model.slope_deg_per_d * d)
        expected = np.sqrt(np.sum(resid**2) / (len(d) - 2))
        assert model.residual_sd_deg == pytest.approx(expected, rel=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(RankDeficiencyError):
            fit_participant([(1.0, 5.0)])
        with pytest.raises(RankDeficiencyError):
            fit_participant([(1.0, 5.0), (1.0, 6.0), (1.0, 7.0)])
        # One ulp apart at 0.5 D: the old fit returned a slope of 8.1e15 deg/D.
        with pytest.raises(RankDeficiencyError):
            fit_participant([(0.5, 3.0), (0.5000000000000001, 4.0)])
        with pytest.raises(RankDeficiencyError):
            fit_participant([(0.0, 3.0), (0.0, 4.0)])

    @given(
        st.floats(-30, 30),
        st.floats(0.2, 5.0),
    )
    def test_line_roundtrip_any_parameters(self, a, b):
        model = fit_participant([(d, a + b * d) for d in DIOPTERS])
        assert model.intercept_deg == pytest.approx(a, abs=1e-8)
        assert model.slope_deg_per_d == pytest.approx(b, abs=1e-9)


class TestFitParticipantOracle:
    """``fit_participant`` and ``ols_fit`` share one QR solve; the old inline fit is the reference.

    The reference predates the diopter-spread tolerance, so it is compared
    only on point sets whose spread passes it.
    """

    @given(POINT_SETS)
    @example([(0.25, 1.0), (4.0, 2.0)])
    @example([(1.0, 5.0), (1.0, 6.0)])
    @example([(0.5, 3.0), (0.5000000000000001, 4.0)])
    @example([(0.5, 3.0), (0.5000001, 4.0)])
    def test_bitwise_equal_to_reference(self, points):
        d = [p[0] for p in points]
        if max(d) - min(d) <= 1e-9 * max(d):  # POINT_SETS diopters are positive
            with pytest.raises(RankDeficiencyError, match="too little to fit a slope"):
                fit_participant(points, "p01")
            return
        expected = reference_fit_participant(points, "p01")
        # repr round-trips a double exactly, so equal reprs are equal bits.
        assert repr(fit_participant(points, "p01")) == repr(expected)

    @given(POINT_SETS.filter(lambda pts: len(pts) > 2))
    def test_line_coefficients_equal_ols_fit(self, points):
        d = [p[0] for p in points]
        assume(np.ptp(d) > 1e-6)
        fit = ols_fit({"gva": [p[1] for p in points], "d": d}, "gva ~ d")
        model = fit_participant(points)
        assert repr((model.intercept_deg, model.slope_deg_per_d)) == repr(
            (fit.coefficients["intercept"], fit.coefficients["d"])
        )


class TestNormalize:
    def test_subtracts_intercept(self):
        model = ParticipantModel("p01", 17.5, 1.7, 0.0, 4)
        obs = GvaObservation("p01", "Real", 4.0, 24.3)
        assert normalize_gva(obs, model).normalized_gva_deg == pytest.approx(6.8)
        zero = GvaObservation("p01", "Real", 0.25, 17.5)
        assert normalize_gva(zero, model).normalized_gva_deg == pytest.approx(0.0)

    def test_mismatched_participant(self):
        model = ParticipantModel("p02", 17.5, 1.7, 0.0, 4)
        with pytest.raises(ParticipantMismatchError):
            normalize_gva(GvaObservation("p01", "Real", 4.0, 24.3), model)

    def test_refit_on_normalized_preserves_slope(self):
        rng = np.random.default_rng(1)
        points = [(d, 12.0 + 2.1 * d + rng.normal(0, 0.2)) for d in DIOPTERS for _ in range(5)]
        model = fit_participant(points, "p01")
        shifted = [(d, g - model.intercept_deg) for d, g in points]
        refit = fit_participant(shifted, "p01")
        assert refit.intercept_deg == pytest.approx(0.0, abs=1e-9)
        assert refit.slope_deg_per_d == pytest.approx(model.slope_deg_per_d, abs=1e-9)
        assert refit.residual_sd_deg == pytest.approx(model.residual_sd_deg, abs=1e-9)

    def test_cohort_normalized_intercepts_vanish(self):
        rng = np.random.default_rng(2)
        observations = []
        for p in range(8):
            a, b = rng.normal(17.5, 8.6), rng.normal(1.7, 0.37)
            for env in ("Real", "AR", "VR"):
                for d in DIOPTERS:
                    observations.append(GvaObservation(f"p{p}", env, d, a + b * d))
        models = fit_participants(observations)
        refit_intercepts = []
        for pid, model in models.items():
            normalized = [
                (o.end_depth_d, normalize_gva(o, model).normalized_gva_deg)
                for o in observations
                if o.participant_id == pid
            ]
            refit_intercepts.append(fit_participant(normalized, pid).intercept_deg)
        assert np.var(refit_intercepts) == pytest.approx(0.0, abs=1e-18)


class TestEstimateDepth:
    def test_forward_inverse(self):
        model = ParticipantModel("p01", 17.5, 1.7, 0.0, 4)
        d_hat, meters = estimate_depth(17.5 + 1.7 * 4.0, model)
        assert d_hat == pytest.approx(4.0, abs=1e-12)
        assert meters == pytest.approx(0.25, abs=1e-12)

    def test_zero_diopter_boundary(self):
        model = ParticipantModel("p01", 17.5, 1.7, 0.0, 4)
        with pytest.raises(CalibrationRangeError):
            estimate_depth(17.5, model)

    def test_nonpositive_slope_rejected(self):
        model = ParticipantModel("p01", 17.5, -0.2, 0.0, 4)
        with pytest.raises(InvalidModelError):
            estimate_depth(20.0, model)

    def test_range_guard_when_span_known(self):
        model = ParticipantModel("p01", 10.0, 2.0, 0.0, 4, d_min=0.25, d_max=4.0)
        with pytest.raises(CalibrationRangeError):
            estimate_depth(10.0 + 2.0 * 9.0, model)  # 9 D > 2 * 4 D
        with pytest.raises(CalibrationRangeError):
            estimate_depth(10.0 + 2.0 * 0.1, model)  # 0.1 D < 0.25/2 D
        estimate_depth(10.0 + 2.0 * 7.9, model)  # inside the widened envelope

    @given(st.floats(0.3, 7.9))
    def test_algebraic_inverse_everywhere(self, d_true):
        model = ParticipantModel("p01", 5.0, 2.0, 0.0, 4, d_min=0.25, d_max=4.0)
        d_hat, meters = estimate_depth(5.0 + 2.0 * d_true, model)
        assert d_hat == pytest.approx(d_true, rel=1e-12)
        assert meters == pytest.approx(1.0 / d_true, rel=1e-12)

    def test_serialized_model_roundtrip(self):
        model = fit_participant([(d, 17.5 + 1.7 * d) for d in DIOPTERS], "p01")
        restored = ParticipantModel.from_dict(model.to_dict())
        assert restored.participant_id == "p01"
        assert restored.intercept_deg == pytest.approx(model.intercept_deg)
        assert restored.d_min is None  # the wire format carries no range


class TestEnvironmentOffsets:
    def make_observations(self, offsets):
        observations = []
        rng = np.random.default_rng(3)
        for p in range(10):
            a, b = rng.normal(17.5, 8.6), rng.normal(1.7, 0.2)
            for env, off in offsets.items():
                for d in DIOPTERS:
                    gva = a + b * d + off
                    observations.append(GvaObservation(f"p{p:02d}", env, d, gva))
        models = fit_participants(observations)
        return [normalize_gva(o, models[o.participant_id]) for o in observations]

    def test_recovers_configured_offsets(self):
        observations = self.make_observations({"Real": 0.0, "AR": -0.8, "VR": -1.3})
        result = environment_offsets(observations)
        assert result["differences_deg"]["AR-Real"] == pytest.approx(-0.8, abs=1e-9)
        assert result["differences_deg"]["VR-Real"] == pytest.approx(-1.3, abs=1e-9)

    def test_identical_environments_give_zero(self):
        observations = self.make_observations({"Real": 0.0, "AR": 0.0, "VR": 0.0})
        result = environment_offsets(observations)
        assert result["differences_deg"]["AR-Real"] == pytest.approx(0.0, abs=1e-9)
        assert result["differences_deg"]["VR-Real"] == pytest.approx(0.0, abs=1e-9)

    def test_missing_environment(self):
        observations = self.make_observations({"Real": 0.0})
        with pytest.raises(MissingLevelError):
            environment_offsets(observations)


def test_intercept_unrelated_to_ipd_regression():
    # With biases drawn independently of the baseline, a regression of fitted
    # intercepts on baseline separation should explain nothing.
    rng = np.random.default_rng(8)
    n = 13
    ipds = rng.uniform(0.055, 0.075, size=n)
    intercepts = rng.normal(17.5, 8.6, size=n)
    fit = ols_fit({"intercept": intercepts, "ipd": ipds}, ModelFormula.parse("intercept ~ ipd"))
    from vergescope.stats import f_test_from_r2

    rm = 0.0
    _, _, p = f_test_from_r2(rm, n - 1, fit.r_squared, n - 2, fit.r_squared, n - 2)
    assert p > 0.05
