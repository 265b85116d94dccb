import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from vergescope.errors import DegenerateInputError, DomainError
from vergescope.geometry import (
    EyeConfig,
    GazeRay,
    TargetSpec,
    Vec3,
    forward_gaze,
    gva_velocity,
    ideal_vergence,
    to_diopters,
    vergence_angle,
)

IPD = 0.0648


def brute_force_vergence(depth_m: float, ipd: float) -> float:
    """Independent oracle: angle between rays constructed eye-to-target."""
    left_eye = np.array([-ipd / 2.0, 0.0, 0.0])
    right_eye = np.array([ipd / 2.0, 0.0, 0.0])
    target = np.array([0.0, 0.0, depth_m])
    ld = target - left_eye
    rd = target - right_eye
    c = ld @ rd / (np.linalg.norm(ld) * np.linalg.norm(rd))
    return math.degrees(math.acos(c))


class TestVergenceAngle:
    def test_identical_vectors(self):
        assert vergence_angle(Vec3(0, 0, 1), Vec3(0, 0, 1)) == 0.0

    def test_orthogonal_vectors(self):
        assert vergence_angle(Vec3(1, 0, 0), Vec3(0, 0, 1)) == pytest.approx(90.0)

    def test_matches_midline_closed_form(self):
        left, right = forward_gaze(TargetSpec.midline(0.25), EyeConfig(IPD))
        angle = vergence_angle(left.direction, right.direction)
        assert angle == pytest.approx(2.0 * math.degrees(math.atan(IPD / 0.5)), abs=1e-9)
        assert angle == pytest.approx(brute_force_vergence(0.25, IPD), abs=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            vergence_angle(Vec3(0, 0, 0), Vec3(0, 0, 1))

    def test_projection_mode_drops_elevation(self):
        up_tilted = Vec3(0.1, 0.5, 1.0)
        flat = Vec3(0.1, 0.0, 1.0)
        assert vergence_angle(up_tilted, flat, project_horizontal=True) == pytest.approx(0.0, abs=1e-9)

    @given(
        st.floats(-1, 1), st.floats(-1, 1), st.floats(0.1, 1),
        st.floats(-1, 1), st.floats(-1, 1), st.floats(0.1, 1),
        st.floats(0.01, 100.0),
    )
    def test_symmetry_and_scale_invariance(self, lx, ly, lz, rx, ry, rz, k):
        left, right = Vec3(lx, ly, lz), Vec3(rx, ry, rz)
        a = vergence_angle(left, right)
        assert a == pytest.approx(vergence_angle(right, left), abs=1e-9)
        # arccos conditioning near 0/180 deg bounds the achievable agreement
        assert a == pytest.approx(vergence_angle(left.scaled(k), right), abs=2e-5)
        assert 0.0 <= a <= 180.0


class TestIdealVergence:
    def test_infinity_limit(self):
        assert ideal_vergence(1e9, IPD) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("depth_m", [0.25, 0.75, 1.50, 4.0])
    def test_matches_brute_force(self, depth_m):
        assert ideal_vergence(depth_m, IPD) == pytest.approx(
            brute_force_vergence(depth_m, IPD), abs=1e-9
        )

    def test_quarter_meter(self):
        assert ideal_vergence(0.25, IPD) == pytest.approx(2 * math.degrees(math.atan(0.1296)), abs=1e-12)

    def test_four_meters(self):
        assert ideal_vergence(4.0, IPD) == pytest.approx(2 * math.degrees(math.atan(0.0081)), abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            ideal_vergence(bad, IPD)
        with pytest.raises(DomainError):
            ideal_vergence(1.0, bad)

    @given(st.floats(0.05, 50.0), st.floats(0.05, 50.0), st.floats(0.01, 0.12))
    @example(0.05, 0.05000000000000001, 0.0625)  # both angles round to 64.01076641616699
    def test_monotone_decreasing_in_depth(self, d1, d2, ipd):
        if d1 == d2:
            return
        lo, hi = sorted((d1, d2))
        near, far = ideal_vergence(lo, ipd), ideal_vergence(hi, ipd)
        assert near >= far
        # Depths a few ulps apart can round to the same angle; a relative
        # step of 1e-9 moves the angle by >= ~5e-10, far above one ulp.
        if hi > lo * (1 + 1e-9):
            assert near > far

    @given(st.floats(0.05, 50.0), st.floats(0.01, 0.12), st.floats(0.01, 0.12))
    def test_monotone_increasing_in_ipd(self, depth, i1, i2):
        if i1 == i2:
            return
        lo, hi = sorted((i1, i2))
        assert ideal_vergence(depth, lo) < ideal_vergence(depth, hi)

    def test_near_linear_in_diopters(self):
        # Over the working diopter range the angle-vs-diopter relation is a
        # line to better than 99.9% of variance, which is what justifies
        # fitting calibration in diopter space.
        d = np.linspace(0.25, 4.0, 200)
        v = np.array([ideal_vergence(1.0 / x, 0.065) for x in d])
        x = np.column_stack([np.ones_like(d), d])
        beta, *_ = np.linalg.lstsq(x, v, rcond=None)
        rss = float(np.sum((v - x @ beta) ** 2))
        tss = float(np.sum((v - v.mean()) ** 2))
        assert 1.0 - rss / tss > 0.999


class TestToDiopters:
    @pytest.mark.parametrize(
        "meters,diopters", [(0.25, 4.0), (0.75, 4.0 / 3.0), (1.50, 2.0 / 3.0), (4.0, 0.25)]
    )
    def test_table_values(self, meters, diopters):
        assert to_diopters(meters) == pytest.approx(diopters, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            to_diopters(0.0)
        with pytest.raises(DomainError):
            to_diopters(-2.0)

    @given(st.floats(1e-6, 1e6))
    def test_self_inverse(self, x):
        assert to_diopters(to_diopters(x)) == pytest.approx(x, rel=1e-12)


class TestForwardGaze:
    def test_far_midline_nearly_parallel(self):
        left, right = forward_gaze(TargetSpec.midline(4.0), EyeConfig(IPD))
        angle = vergence_angle(left.direction, right.direction)
        assert angle == pytest.approx(ideal_vergence(4.0, IPD), abs=1e-9)
        assert angle < 1.0

    def test_rotation_invariance_with_compensating_yaw(self):
        eyes = EyeConfig(IPD)
        base = vergence_angle(*[r.direction for r in forward_gaze(TargetSpec.midline(0.75), eyes)])
        for yaw in (25.0, -7.6, 5.71, 120.0):
            lateral = TargetSpec.at_azimuth(0.75, yaw)
            left, right = forward_gaze(lateral, eyes, head_yaw=yaw)
            assert vergence_angle(left.direction, right.direction) == pytest.approx(base, abs=1e-9)

    def test_vanishing_ipd_limit(self):
        left, right = forward_gaze(TargetSpec.midline(0.5), EyeConfig(1e-9))
        assert vergence_angle(left.direction, right.direction) == pytest.approx(0.0, abs=1e-6)
        # exactly coincident eyes: identical directions, zero angle
        ray = GazeRay(Vec3(0, 0, 0), Vec3(0, 0, 1))
        assert vergence_angle(ray.direction, ray.direction) == 0.0

    def test_target_at_eye_center_rejected(self):
        eyes = EyeConfig(IPD)
        target = TargetSpec(eyes.left_center, 1.0, 1.0)
        with pytest.raises(DegenerateInputError):
            forward_gaze(target, eyes)

    def test_origins_rotate_with_head(self):
        eyes = EyeConfig(IPD)
        left, right = forward_gaze(TargetSpec.midline(1.0), eyes, head_yaw=90.0)
        # turning right swings the left eye forward, the right eye back
        assert left.origin.z == pytest.approx(IPD / 2.0, abs=1e-12)
        assert right.origin.z == pytest.approx(-IPD / 2.0, abs=1e-12)


class TestGvaVelocity:
    def test_constant_series(self):
        series = [(i * 0.005, 5.0) for i in range(10)]
        out = gva_velocity(series)
        assert len(out) == 9
        assert all(v == 0.0 for _, v in out)

    def test_step_velocity(self):
        series = [(0.0, 10.0), (0.005, 20.0), (0.010, 20.0)]
        out = gva_velocity(series)
        assert out[0] == (0.005, pytest.approx(2000.0))
        assert out[1][1] == pytest.approx(0.0)

    def test_gap_blocks_velocity(self):
        series = [(0.0, 10.0), (0.005, math.nan), (0.010, 10.0), (0.015, 10.0)]
        out = gva_velocity(series)
        # only the adjacent valid pair after the gap produces a velocity
        assert [t for t, _ in out] == [0.015]

    def test_too_short(self):
        assert gva_velocity([(0.0, 1.0)]) == []
        assert gva_velocity([]) == []

    def test_requires_increasing_time(self):
        with pytest.raises(DomainError):
            gva_velocity([(0.0, 1.0), (0.0, 2.0)])


class TestTypes:
    def test_eye_config_separation_invariant(self):
        with pytest.raises(DomainError):
            EyeConfig(0.06, Vec3(-0.03, 0, 0), Vec3(0.04, 0, 0))
        cfg = EyeConfig(0.06)
        assert (cfg.left_center - cfg.right_center).norm() == pytest.approx(0.06, abs=1e-12)

    def test_target_spec_consistency(self):
        with pytest.raises(DomainError):
            TargetSpec(Vec3(0, 0, 1), 1.0, 2.0)
        with pytest.raises(DomainError):
            TargetSpec.midline(-1.0)

    def test_gaze_ray_normalizes(self):
        ray = GazeRay(Vec3(0, 0, 0), Vec3(0, 0, 10.0))
        assert ray.direction.norm() == pytest.approx(1.0, abs=1e-9)

    def test_nonfinite_component_rejected(self):
        with pytest.raises(DegenerateInputError):
            Vec3(math.nan, 0, 0)
