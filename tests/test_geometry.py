import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vergescope.errors import DegenerateInputError, DomainError
from vergescope.geometry import (
    EyeConfig,
    GazeRay,
    TargetSpec,
    Vec3,
    forward_gaze,
    ideal_vergence,
    _vergence_angle_pair,
    to_diopters,
    vergence_angle,
    vergence_angles,
)
from vergescope.synth import CohortConfig, ExperimentDesign, simulate_cohort

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


def reference_vergence_angle(left_dir: Vec3, right_dir: Vec3, *, project_horizontal: bool = False) -> float:
    """The scalar acos maths ``vergence_angle`` used before it wrapped the array kernel."""
    if project_horizontal:
        left_dir = Vec3(left_dir.x, 0.0, left_dir.z)
        right_dir = Vec3(right_dir.x, 0.0, right_dir.z)
    nl, nr = left_dir.norm(), right_dir.norm()
    c = left_dir.dot(right_dir) / (nl * nr)
    c = max(-1.0, min(1.0, c))
    return math.degrees(math.acos(c))


class TestVergenceKernelOracle:
    def test_bitwise_equal_to_gaze_series(self):
        dataset = simulate_cohort(ExperimentDesign(n_participants=1, repetitions=1), CohortConfig(), seed=7)
        checked = 0
        for trial in dataset.trials[:20]:
            s = trial.samples
            rows = np.flatnonzero(~np.isnan(s.gva_deg))
            angles = [vergence_angle(Vec3(*s.l_dir[i]), Vec3(*s.r_dir[i])) for i in rows]
            np.testing.assert_array_equal(np.array(angles).view(np.uint64), s.gva_deg[rows].view(np.uint64))
            checked += len(rows)
        assert checked > 10_000

    @given(
        st.floats(-1, 1), st.floats(-1, 1), st.floats(0.1, 1),
        st.floats(-1, 1), st.floats(-1, 1), st.floats(0.1, 1),
        st.booleans(),
    )
    def test_matches_scalar_reference(self, lx, ly, lz, rx, ry, rz, horizontal):
        left, right = Vec3(lx, ly, lz), Vec3(rx, ry, rz)
        expected = reference_vergence_angle(left, right, project_horizontal=horizontal)
        # the tolerance of the scale-invariance property above: arccos near 0/180 deg
        assert vergence_angle(left, right, project_horizontal=horizontal) == pytest.approx(expected, abs=2e-5)


def reference_vergence_angles(l_dir: np.ndarray, r_dir: np.ndarray) -> np.ndarray:
    """The array kernel before it rescaled rows whose norms overflow, warnings silenced."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        nl = np.linalg.norm(l_dir, axis=1)
        nr = np.linalg.norm(r_dir, axis=1)
        cos = np.einsum("ij,ij->i", l_dir, r_dir) / (nl * nr)
        out = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
    out[(nl == 0.0) | (nr == 0.0)] = np.nan
    return out


def _same_bits(a, b) -> np.ndarray:
    """Elementwise bitwise equality; any two NaNs count as equal."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.view(np.uint64) == b.view(np.uint64)) | (np.isnan(a) & np.isnan(b))


# Component magnitudes: ordinary, subnormal, small enough that the squares are
# subnormal or zero (so the norms, and their product, sit near the underflow
# floor), and above 1.3e154, where the squares overflow.
COMPONENT = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.floats(-1e-300, 1e-300),
    st.floats(1e-170, 1e-150).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(1.3e154, 1.7e308).flatmap(lambda x: st.sampled_from([x, -x])),
)
VECTOR = st.tuples(COMPONENT, COMPONENT, COMPONENT)
SCALE = st.sampled_from([1.0, 3.0, 0.5, 1e-160, 1e160, 2.0**-537, 2.0**500])


@st.composite
def vector_pairs(draw):
    """A pair of 3-vectors: independent, or parallel or antiparallel up to a scale."""
    left = draw(VECTOR)
    kind = draw(st.sampled_from(["independent", "parallel", "antiparallel"]))
    if kind == "independent":
        return left, draw(VECTOR)
    k = draw(SCALE) * (1.0 if kind == "parallel" else -1.0)
    return left, tuple(c * k for c in left)


class TestOnePairKernel:
    """``_vergence_angle_pair`` (behind ``vergence_angle`` and one-row pushes) against ``vergence_angles``."""

    @settings(max_examples=500, deadline=None)
    @example([((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)), ((math.nan, 0.0, 1.0), (0.0, 0.0, 1.0))])
    @example([((1e-160, 0.0, 1e-160), (1e-162, 1e-162, 0.0)), ((5e-324, 0.0, 0.0), (0.0, 5e-324, 0.0))])
    @example([((1e200, 0.0, 1e200), (1.0, 0.0, 1.0)), ((1e300, -1e300, 1.0), (-1e300, 1e300, -1.0))])
    @example([((0.1, 0.2, 0.9), (0.2, 0.4, 1.8)), ((0.1, 0.2, 0.9), (-0.1, -0.2, -0.9))])
    @given(st.lists(vector_pairs(), min_size=1, max_size=30))
    def test_bitwise_equal_to_array_kernel_row_by_row(self, pairs):
        left = np.array([p[0] for p in pairs], dtype=float)
        right = np.array([p[1] for p in pairs], dtype=float)
        batch = vergence_angles(left, right)
        for i, (l_dir, r_dir) in enumerate(pairs):
            one_row = vergence_angles(left[i : i + 1], right[i : i + 1])
            angle = _vergence_angle_pair(l_dir, r_dir)
            assert type(angle) is float
            assert _same_bits(angle, batch[i]) and _same_bits(angle, one_row[0]), (l_dir, r_dir, angle, batch[i])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(vector_pairs(), min_size=1, max_size=30))
    def test_only_overflowing_rows_change(self, pairs):
        left = np.array([p[0] for p in pairs], dtype=float)
        right = np.array([p[1] for p in pairs], dtype=float)
        got = vergence_angles(left, right)
        old = reference_vergence_angles(left, right)
        with np.errstate(over="ignore", invalid="ignore"):
            nl, nr = np.linalg.norm(left, axis=1), np.linalg.norm(right, axis=1)
            norms = nl * nr
        # rows of finite components whose norm product overflows; a norm
        # that underflows to zero still gives NaN
        finite_rows = np.isfinite(left).all(axis=1) & np.isfinite(right).all(axis=1)
        rescued = finite_rows & ~np.isfinite(norms) & (nl != 0.0) & (nr != 0.0)
        assert _same_bits(got[~rescued], old[~rescued]).all()
        if rescued.any():
            left, right = left[rescued], right[rescued]
            scaled = reference_vergence_angles(
                left / np.abs(left).max(axis=1, keepdims=True), right / np.abs(right).max(axis=1, keepdims=True)
            )
            assert _same_bits(got[rescued], scaled).all()

    def test_overflowing_vector_keeps_its_angle(self):
        big = vergence_angles(np.array([[1e200, 0.0, 1e200]]), np.array([[-1e200, 0.0, 1e200]]))
        assert big[0] == pytest.approx(90.0)
        assert _vergence_angle_pair((3e300, 0.0, 3e300), (-1.0, 0.0, 1.0)) == pytest.approx(90.0)
        assert vergence_angle(Vec3(1e300, 0.0, 0.0), Vec3(0.0, 1.0, 0.0)) == pytest.approx(90.0)


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
