"""``calibration.DepthStream`` against the per-row loop ``estimate`` used to run.

``reference_estimate`` is that loop: one one-row ``GazeSeries`` per row, the
confidence, NaN and velocity gates inline, and ``estimate_depth`` per kept
row. Its one change is the repeated-timestamp rule: a velocity candidate whose
timestamp does not follow the previous candidate's raises ``DomainError``, as
``pipeline.velocity_filter`` does, where the loop used to skip the velocity
test and emit the row.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import run_cli
from vergescope import analysis, calibration, dataio, pipeline, synth
from vergescope.calibration import DepthStream, ParticipantModel, estimate_depth
from vergescope.errors import DomainError, VergescopeError
from vergescope.recording import GazeSeries

MODEL = ParticipantModel("p01", 0.5, 3.5, 0.1, 8, d_min=0.25, d_max=4.0)


def reference_estimate(rows, model, confidence=0.75, max_velocity=5000.0):
    """Yield (t, gva, meters) for each kept row, building a GazeSeries per row."""
    last_candidate_t = -math.inf
    last_valid = None
    for values in rows:
        t = values[0]
        if min(values[1], values[2]) < confidence:
            continue
        series = GazeSeries(
            t_s=[t],
            l_origin=[values[3:6]],
            l_dir=[values[6:9]],
            r_origin=[values[9:12]],
            r_dir=[values[12:15]],
            l_conf=[values[1]],
            r_conf=[values[2]],
        )
        gva = float(series.gva_deg[0])
        if gva != gva:
            continue
        if not t > last_candidate_t:
            raise DomainError(f"repeated timestamp {t}")
        last_candidate_t = t
        if last_valid is not None:
            t0, g0 = last_valid
            if abs((gva - g0) / (t - t0)) > max_velocity:
                continue
        last_valid = (t, gva)
        try:
            _, meters = estimate_depth(gva, model)
        except VergescopeError:
            meters = float("nan")
        yield t, gva, meters


def _run(outputs):
    """Collect a generator's rows until it ends or raises; returns (rows, error type or None)."""
    got = []
    try:
        for row in outputs:
            got.append(row)
    except DomainError as exc:
        return got, type(exc)
    return got, None


def _pushed(rows, sizes, model, confidence, max_velocity):
    """DepthStream over ``rows`` cut into blocks whose sizes cycle through ``sizes``."""
    stream = DepthStream(model, confidence, max_velocity)
    start, i = 0, 0
    while start < len(rows):
        block = rows[start : start + sizes[i % len(sizes)]]
        start += len(block)
        i += 1
        yield from stream.push(block)


# Both vectors scaled: squares that are subnormal (1e-160), that underflow to
# zero (1e-170), and that overflow (above 1.3e154); each keeps its angle.
SCALED_KINDS = {"subnormal": 1e-160, "underflow": 1e-170, "huge": 1e200, "huger": 3e300}


def _row(t, conf, gva_deg, kind):
    half = math.radians(gva_deg) / 2.0
    l_dir = [math.sin(half), 0.01, math.cos(half)]
    r_dir = [-math.sin(half), 0.01, math.cos(half)]
    if kind == "nan":
        l_dir[1] = math.nan
    elif kind == "zero":
        r_dir = [0.0, 0.0, 0.0]
    elif kind == "parallel":
        r_dir = [2.0 * c for c in l_dir]
    elif kind == "antiparallel":
        r_dir = [-3.0 * c for c in l_dir]
    elif kind in SCALED_KINDS:
        l_dir = [c * SCALED_KINDS[kind] for c in l_dir]
        r_dir = [c * SCALED_KINDS[kind] for c in r_dir]
    return [t, conf, 1.0, -0.032, 0.0, 0.0, *l_dir, 0.032, 0.0, 0.0, *r_dir]


# normal rows cover the calibrated range; spikes jump by tens of degrees in a
# 5 ms step; "far" and "near" angles lie outside it, so their meters are NaN,
# as are those of parallel (0 deg) and antiparallel (180 deg) pairs.
ROW_KINDS = {
    "normal": st.floats(1.5, 14.0),
    "spike": st.floats(40.0, 90.0),
    "far": st.floats(0.0, 0.9),
    "near": st.floats(30.0, 35.0),
    "nan": st.just(5.0),
    "zero": st.just(5.0),
    "parallel": st.floats(1.5, 14.0),
    "antiparallel": st.floats(1.5, 14.0),
    **{kind: st.floats(1.5, 14.0) for kind in SCALED_KINDS},
}


@st.composite
def gaze_rows(draw):
    n = draw(st.integers(1, 40))
    rows, t = [], 0.0
    for _ in range(n):
        t += draw(st.sampled_from([0.0, 0.005, 0.005, 0.005, 0.2]))
        kind = draw(st.sampled_from(sorted(ROW_KINDS)))
        conf = draw(st.sampled_from([1.0, 0.9, 0.75, 0.3]))
        rows.append(_row(t, conf, draw(ROW_KINDS[kind]), kind))
    return rows


class TestDepthStreamOracle:
    @settings(max_examples=300, deadline=None)
    @example(  # spikes at the first and last row, and two in a row
        [_row(0.005 * i, 1.0, g, "normal") for i, g in enumerate([60.0, 5.0, 60.0, 70.0, 5.1, 60.0])],
        [1],
        0.75,
        5000.0,
    )
    @given(
        gaze_rows(),
        st.lists(st.sampled_from([1, 2, 7, 4096]), min_size=1, max_size=6),
        st.sampled_from([0.5, 0.75, 1.0]),
        st.sampled_from([1000.0, 5000.0]),
    )
    def test_bitwise_equal_to_reference_under_any_partition(self, rows, sizes, confidence, max_velocity):
        expected, expected_error = _run(reference_estimate(rows, MODEL, confidence, max_velocity))
        got, error = _run(_pushed(rows, sizes, MODEL, confidence, max_velocity))
        # repr round-trips a double exactly, so equal reprs are equal bits.
        assert repr(got) == repr(expected)
        assert error is expected_error

    def test_gates(self):
        rows = [
            _row(0.000, 1.0, 5.0, "normal"),
            _row(0.005, 0.3, 5.0, "normal"),  # low confidence
            _row(0.010, 1.0, 5.0, "nan"),  # NaN vector
            _row(0.015, 1.0, 5.0, "zero"),  # zero-norm vector
            _row(0.020, 1.0, 60.0, "spike"),  # 2,750 deg/s from the row at t = 0
            _row(0.025, 1.0, 5.5, "normal"),
            _row(0.030, 1.0, 5.6, "huge"),  # its norms overflow, its angle does not
            _row(0.035, 1.0, 5.7, "subnormal"),  # its squares are subnormal, its angle is not
            _row(0.040, 1.0, 5.8, "underflow"),  # its squares underflow to zero, its angle does not
            _row(0.200, 1.0, 0.2, "far"),  # kept, but outside the calibrated range
        ]
        got = list(DepthStream(MODEL, 0.75, 1000.0).push(rows))
        assert [round(t, 3) for t, _, _ in got] == [0.0, 0.025, 0.03, 0.035, 0.04, 0.2]
        assert got[1][2] == estimate_depth(got[1][1], MODEL)[1]
        for i, gva in ((2, 5.6), (3, 5.7), (4, 5.8)):
            (unscaled,) = DepthStream(MODEL).push([_row(got[i][0], 1.0, gva, "normal")])
            assert got[i][1] == pytest.approx(unscaled[1], abs=1e-12)
        assert math.isnan(got[5][2])
        one_row = DepthStream(MODEL, 0.75, 1000.0)
        assert repr([out for row in rows for out in one_row.push([row])]) == repr(got)

    def test_repeated_candidate_timestamp_raises_after_earlier_rows(self):
        rows = [_row(0.0, 1.0, 5.0, "normal"), _row(0.005, 0.3, 5.0, "normal"), _row(0.005, 1.0, 5.0, "normal"),
                _row(0.005, 1.0, 5.1, "normal")]
        outputs = DepthStream(MODEL).push(rows)
        assert [round(t, 3) for t, _, _ in [next(outputs), next(outputs)]] == [0.0, 0.005]
        with pytest.raises(DomainError, match="strictly increasing timestamps"):
            next(outputs)


def _estimate(model_path, text, *extra):
    return run_cli("estimate", "--model", str(model_path), *extra, input_text=text)


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """One simulated participant's Real session (seed 7) as estimate's stdin, and its model file."""
    design = synth.ExperimentDesign(n_participants=1, repetitions=1)
    dataset = synth.simulate_cohort(design, synth.CohortConfig(), 7)
    processed, _ = pipeline.preprocess_dataset(dataset.trials)
    models = calibration.fit_participants(analysis.condition_means(processed))
    model_path = tmp_path_factory.mktemp("estimate") / "models.json"
    dataio.write_models_json(str(model_path), models)
    samples = [t.samples for t in dataset.trials if t.environment == "Real"]
    table = np.concatenate(
        [np.column_stack([s.t_s, s.l_conf, s.r_conf, s.l_origin, s.l_dir, s.r_origin, s.r_dir]) for s in samples]
    )
    (model,) = dataio.load_models_json(str(model_path)).values()  # what estimate reads
    return model_path, model, table.tolist()


def _csv(rows):
    return ",".join(dataio.GAZE_CSV_HEADER) + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows)


def _lines(rows):
    return "".join(f"{t!r},{gva!r},{meters!r}\n" for t, gva, meters in rows)


class TestEstimateModes:
    def test_stream_and_block_stdout_identical_to_reference(self, session):
        model_path, model, rows = session
        assert len(rows) > 4096
        block = _estimate(model_path, _csv(rows))
        stream = _estimate(model_path, _csv(rows), "--stream")
        assert block.returncode == stream.returncode == 0, block.stderr + stream.stderr
        assert block.stderr == stream.stderr == ""
        assert block.stdout == stream.stdout == _lines(reference_estimate(rows, model))

    def test_malformed_line_mid_block(self, session):
        model_path, model, rows = session
        bad = 5000  # in the second 4,096-row block
        lines = _csv(rows).splitlines(keepends=True)
        fields = lines[bad + 1].split(",")
        fields[2] = "1.5"
        lines[bad + 1] = ",".join(fields)
        block = _estimate(model_path, "".join(lines))
        stream = _estimate(model_path, "".join(lines), "--stream")
        assert block.returncode == stream.returncode == 2
        assert block.stderr == stream.stderr
        assert json.loads(block.stderr)["error"] == {
            "type": "GazeParseError",
            "message": f"r_conf 1.5 outside [0, 1] [<stdin>:{bad + 2}]",
        }
        assert block.stdout == stream.stdout == _lines(reference_estimate(rows[:bad], model))

    def test_repeated_candidate_timestamp_exits_2(self, session):
        model_path, model, rows = session
        rows = [list(r) for r in rows]
        i = next(
            i for i in range(5000, len(rows))
            if min(rows[i][1:3]) >= 0.75 and min(rows[i + 1][1:3]) >= 0.75
        )
        rows[i + 1][0] = rows[i][0]
        block = _estimate(model_path, _csv(rows))
        stream = _estimate(model_path, _csv(rows), "--stream")
        assert block.returncode == stream.returncode == 2
        assert block.stderr == stream.stderr
        (line,) = block.stderr.splitlines()
        assert json.loads(line)["error"] == {
            "type": "DomainError",
            "message": f"velocity gate requires strictly increasing timestamps: t={rows[i][0]!r} after {rows[i][0]!r}",
        }
        assert block.stdout == stream.stdout == _lines(reference_estimate(rows[: i + 1], model))
