import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vergescope.errors import DomainError
from vergescope.geometry import ideal_vergence, to_diopters, vergence_angle, vergence_angles
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
        assert vergence_angle((0, 0, 1), (0, 0, 1)) == 0.0

    def test_orthogonal_vectors(self):
        assert vergence_angle((1, 0, 0), (0, 0, 1)) == pytest.approx(90.0)

    def test_matches_midline_closed_form(self):
        # Each eye looks from its center at (+-IPD/2, 0, 0) to the target at (0, 0, 0.25).
        angle = vergence_angle((IPD / 2.0, 0.0, 0.25), (-IPD / 2.0, 0.0, 0.25))
        assert angle == pytest.approx(2.0 * math.degrees(math.atan(IPD / 0.5)), abs=1e-9)
        assert angle == pytest.approx(brute_force_vergence(0.25, IPD), abs=1e-9)

    @pytest.mark.parametrize("zero", [(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0)])
    def test_all_zero_vector_gives_nan(self, zero):
        assert math.isnan(vergence_angle((0, 0, 1), zero))
        assert math.isnan(vergence_angle(zero, (0, 0, 1)))
        assert math.isnan(vergence_angles(np.array([zero]), np.array([[0.0, 0.0, 1.0]]))[0])

    def test_tiny_vectors_get_the_kernel_angle(self):
        # The sums of squares underflow to 0 here, but the vectors are not zero.
        left, right = (1e-170, 0, 1e-170), (-1e-170, 0, 1e-170)
        assert vergence_angle(left, right) == 90.0
        assert vergence_angle(left, right) == vergence_angles(np.array([left]), np.array([right]))[0]

    @given(*[st.one_of(st.just(0.0), st.floats(1e-6, 1), st.floats(-1, -1e-6))] * 4,
           st.floats(0.1, 1), st.floats(0.1, 1))
    def test_tiny_vectors_are_rescaled_by_their_largest_component(self, lx, ly, rx, ry, lz, rz):
        # Scaling by 2**-600 is exact for these components, so dividing the
        # tiny vector by its largest component gives the unscaled quotient.
        tiny = 2.0**-600
        left, right = (lx, ly, lz), (rx, ry, rz)
        ml, mr = max(map(abs, left)), max(map(abs, right))
        expected = vergence_angles(np.array([left]) / ml, np.array([right]) / mr)[0]
        assert _same_bits(vergence_angle([c * tiny for c in left], [c * tiny for c in right]), expected)

    def test_huge_vectors_get_the_kernel_angle(self):
        # The sum of squares overflows to inf here, but the vectors are finite.
        assert vergence_angle((1e200, 0, 1e200), (-1e200, 0, 1e200)) == 90.0

    @given(
        st.floats(-1, 1), st.floats(-1, 1), st.floats(0.1, 1),
        st.floats(-1, 1), st.floats(-1, 1), st.floats(0.1, 1),
        st.floats(0.01, 100.0),
    )
    def test_symmetry_and_scale_invariance(self, lx, ly, lz, rx, ry, rz, k):
        left, right = (lx, ly, lz), (rx, ry, rz)
        a = vergence_angle(left, right)
        assert a == pytest.approx(vergence_angle(right, left), abs=1e-9)
        # arccos conditioning near 0/180 deg bounds the achievable agreement
        assert a == pytest.approx(vergence_angle([c * k for c in left], right), abs=2e-5)
        assert 0.0 <= a <= 180.0


def reference_vergence_angle(left_dir, right_dir) -> float:
    """The scalar acos maths ``vergence_angle`` used before it shared the array kernel's bits."""
    nl, nr = math.sqrt(sum(c * c for c in left_dir)), math.sqrt(sum(c * c for c in right_dir))
    c = sum(a * b for a, b in zip(left_dir, right_dir)) / (nl * nr)
    c = max(-1.0, min(1.0, c))
    return math.degrees(math.acos(c))


class TestVergenceKernelOracle:
    def test_bitwise_equal_to_gaze_series(self):
        dataset = simulate_cohort(ExperimentDesign(n_participants=1, repetitions=1), CohortConfig(), seed=7)
        checked = 0
        for trial in dataset.trials[:20]:
            s = trial.samples
            rows = np.flatnonzero(~np.isnan(s.gva_deg))
            angles = [vergence_angle(tuple(s.l_dir[i]), tuple(s.r_dir[i])) for i in rows]
            np.testing.assert_array_equal(np.array(angles).view(np.uint64), s.gva_deg[rows].view(np.uint64))
            checked += len(rows)
        assert checked > 10_000

    @given(
        st.floats(-1, 1), st.floats(-1, 1), st.floats(0.1, 1),
        st.floats(-1, 1), st.floats(-1, 1), st.floats(0.1, 1),
    )
    def test_matches_scalar_reference(self, lx, ly, lz, rx, ry, rz):
        left, right = (lx, ly, lz), (rx, ry, rz)
        expected = reference_vergence_angle(left, right)
        # the tolerance of the scale-invariance property above: arccos near 0/180 deg
        assert vergence_angle(left, right) == pytest.approx(expected, abs=2e-5)


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
    """``vergence_angle`` (behind one-row pushes) against ``vergence_angles``."""

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
            angle = vergence_angle(l_dir, r_dir)
            assert type(angle) is float
            assert _same_bits(angle, batch[i]) and _same_bits(angle, one_row[0]), (l_dir, r_dir, angle, batch[i])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(vector_pairs(), min_size=1, max_size=30))
    def test_only_rescaled_rows_change(self, pairs):
        left = np.array([p[0] for p in pairs], dtype=float)
        right = np.array([p[1] for p in pairs], dtype=float)
        got = vergence_angles(left, right)
        old = reference_vergence_angles(left, right)
        with np.errstate(over="ignore", invalid="ignore"):
            nl, nr = np.linalg.norm(left, axis=1), np.linalg.norm(right, axis=1)
            norms = nl * nr
        # rows of finite, not-all-zero vectors whose norm product overflows or
        # whose norms are below 2**-511, where the sum of squares is subnormal
        # or zero
        finite_rows = np.isfinite(left).all(axis=1) & np.isfinite(right).all(axis=1)
        nonzero_rows = left.any(axis=1) & right.any(axis=1)
        short = (nl < 2.0**-511) | (nr < 2.0**-511)
        rescued = finite_rows & nonzero_rows & (~np.isfinite(norms) | short)
        assert _same_bits(got[~rescued], old[~rescued]).all()
        if rescued.any():
            left, right = left[rescued], right[rescued]
            scaled = reference_vergence_angles(
                left / np.abs(left).max(axis=1, keepdims=True), right / np.abs(right).max(axis=1, keepdims=True)
            )
            assert _same_bits(got[rescued], scaled).all()

    @pytest.mark.parametrize("scale", [1e-160, 1e-162, 1e-170, 1e-300])
    def test_underflowing_vector_keeps_its_angle(self, scale):
        half = math.radians(5.5997) / 2.0
        l_dir, r_dir = (math.sin(half), 0.01, math.cos(half)), (-math.sin(half), 0.01, math.cos(half))
        unscaled = vergence_angles(np.array([l_dir]), np.array([r_dir]))[0]
        tiny = vergence_angles(np.array([l_dir]) * scale, np.array([r_dir]) * scale)[0]
        assert tiny == pytest.approx(unscaled, abs=1e-12)
        assert _same_bits(vergence_angle([c * scale for c in l_dir], [c * scale for c in r_dir]), tiny)
        assert math.isnan(vergence_angles(np.array([[0.0, -0.0, 0.0]]), np.array([r_dir]))[0])

    def test_overflowing_vector_keeps_its_angle(self):
        big = vergence_angles(np.array([[1e200, 0.0, 1e200]]), np.array([[-1e200, 0.0, 1e200]]))
        assert big[0] == pytest.approx(90.0)
        assert vergence_angle((3e300, 0.0, 3e300), (-1.0, 0.0, 1.0)) == pytest.approx(90.0)
        assert vergence_angle((1e300, 0.0, 0.0), (0.0, 1.0, 0.0)) == pytest.approx(90.0)


class TestDotProductOrder:
    """Both kernels sum the dot product as ``(l0*r0 + l2*r2) + l1*r1``, on rows where the order shows."""

    def test_both_kernels_use_the_written_order(self):
        rng = np.random.default_rng(20)
        left, right = rng.standard_normal((100_000, 3)), rng.standard_normal((100_000, 3))
        x0, x1, x2 = (left[:, i] * right[:, i] for i in range(3))
        norms = np.sqrt(np.add.reduce(left * left, axis=1)) * np.sqrt(np.add.reduce(right * right, axis=1))
        cosines = [dot / norms for dot in ((x0 + x1) + x2, x0 + (x1 + x2), (x0 + x2) + x1)]
        first_two, last_two, written = (np.degrees(np.arccos(np.clip(c, -1.0, 1.0))) for c in cosines)
        # rows where the three orders give three cosines, and the written
        # order an angle of its own
        rows = np.flatnonzero(
            ~_same_bits(cosines[0], cosines[1])
            & ~_same_bits(cosines[0], cosines[2])
            & ~_same_bits(cosines[1], cosines[2])
            & ~_same_bits(first_two, written)
            & ~_same_bits(last_two, written)
        )
        assert len(rows) > 100
        left, right, written = left[rows], right[rows], written[rows]
        assert _same_bits(vergence_angles(left, right), written).all()
        one_row = [vergence_angle(tuple(left[i]), tuple(right[i])) for i in range(len(rows))]
        assert _same_bits(one_row, written).all()


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
