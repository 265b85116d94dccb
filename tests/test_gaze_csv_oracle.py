"""The vectorised gaze-CSV writer and reader against their record-by-record references.

``reference_write_gaze_csv`` is the ``csv.writer`` loop the fast writer
replaced; ``dataio._parse_gaze_csv_lines`` is the per-line reader that the
fast reader hands every file it does not accept. Files must match byte for
byte, parsed arrays bit for bit (NaN-aware), and on malformed input the two
readers must agree on the exception type and message.
"""

import csv
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import series_from_gva
from vergescope import dataio
from vergescope.errors import GazeParseError
from vergescope.recording import GazeSeries
from vergescope.synth import CohortConfig, ExperimentDesign, simulate_cohort

HEADER = ",".join(dataio.GAZE_CSV_HEADER)
ARRAYS = ("t_s", "l_conf", "r_conf", "l_origin", "l_dir", "r_origin", "r_dir", "gva_deg", "status")


def reference_write_gaze_csv(path, series):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataio.GAZE_CSV_HEADER)
        for i in range(len(series)):
            row = [
                repr(float(series.t_s[i])),
                repr(float(series.l_conf[i])),
                repr(float(series.r_conf[i])),
            ]
            for block in (series.l_origin, series.l_dir, series.r_origin, series.r_dir):
                row.extend(repr(float(v)) for v in block[i])
            writer.writerow(row)


def assert_series_bitwise_equal(a, b):
    assert len(a) == len(b)
    for name in ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape, name
        assert x.dtype == y.dtype, name
        if x.dtype.kind == "f":
            # Bit patterns, with every NaN counted as one value.
            xb = np.where(np.isnan(x), np.nan, x).view(np.int64)
            yb = np.where(np.isnan(y), np.nan, y).view(np.int64)
            np.testing.assert_array_equal(xb, yb, err_msg=name)
        else:
            np.testing.assert_array_equal(x, y, err_msg=name)


def outcome(reader, path):
    try:
        return "ok", reader(path)
    except Exception as exc:  # the exception itself is the outcome under test
        return "raised", (type(exc), str(exc))


def assert_readers_agree(path):
    fast = outcome(dataio.parse_gaze_csv, path)
    ref = outcome(dataio._parse_gaze_csv_lines, path)
    assert fast[0] == ref[0], (fast, ref)
    if fast[0] == "ok":
        assert_series_bitwise_equal(fast[1], ref[1])
    else:
        assert fast[1] == ref[1]
    return fast


def awkward_series():
    """Values the simulator never writes: NaN vectors, -0.0, subnormal, huge, conf at 0 and 1."""
    n = 6
    series = series_from_gva(np.linspace(8.0, 12.0, n), l_conf=[0.0, 1.0, 0.5, 1.0, 0.0, 1.0])
    l_dir = series.l_dir.copy()
    r_dir = series.r_dir.copy()
    l_origin = series.l_origin.copy()
    l_dir[1] = np.nan
    r_dir[3] = [np.nan, -0.0, np.nan]
    l_origin[2] = [-0.0, 5e-324, 1e308]
    l_origin[4] = [-5e-324, -1e308, 2.2250738585072014e-308]
    t_s = series.t_s.copy()
    t_s[0] = -0.0
    r_conf = np.array([1.0, 0.0, 1.0, 0.25, 1.0, 0.0])
    return GazeSeries(t_s, l_origin, l_dir, series.r_origin, r_dir, series.l_conf, r_conf)


def series_of(table):
    """The series whose columns, in gaze-CSV order, are those of ``table``."""
    return GazeSeries(
        table[:, 0], table[:, 3:6], table[:, 6:9], table[:, 9:12], table[:, 12:15], table[:, 1], table[:, 2]
    )


def assert_round_trip_matches_references(tmp_path, series):
    """Same bytes as the reference writer, read back on the fast path, bit for bit."""
    fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
    dataio.write_gaze_csv(str(fast), series)
    reference_write_gaze_csv(str(ref), series)
    assert fast.read_bytes() == ref.read_bytes()
    assert dataio._gaze_table_fast(str(fast)) is not None
    kind, back = assert_readers_agree(str(fast))
    assert kind == "ok"
    assert_series_bitwise_equal(back, series)


def _constant_column_tables():
    base = np.column_stack(
        [np.arange(5) / 200.0, np.full((5, 2), 0.95), np.tile([-0.032, 0.0, 0.0], (5, 1)),
         np.linspace(0.1, 0.2, 15).reshape(5, 3), np.tile([0.032, 0.0, 0.0], (5, 1)),
         np.linspace(-0.2, -0.1, 15).reshape(5, 3)]
    )
    all_nan = base.copy()
    all_nan[:, 7] = np.nan
    signed_zero = base.copy()
    signed_zero[:, 4] = [0.0, -0.0, 0.0, 0.0, -0.0]
    signed_zero[:, 10] = [-0.0] * 4 + [0.0]
    payloads = base.copy()
    bits = np.full(5, np.nan).view(np.uint64) | np.arange(5, dtype=np.uint64)
    payloads[:, 13] = bits.view(np.float64)
    every_column = np.tile(base[2], (4, 1))
    return {
        "constant_columns": base,
        "all_nan_column": all_nan,
        "mixed_signed_zero": signed_zero,
        "nan_payloads": payloads,
        "every_column_constant": every_column,
        "one_row": base[:1].copy(),
        "zero_rows": base[:0].copy(),
    }


CONSTANT_COLUMN_TABLES = _constant_column_tables()


class TestWriterBytes:
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_simulated_cohort_files_identical(self, tmp_path, seed):
        design = ExperimentDesign(n_participants=1, repetitions=1)
        ds = simulate_cohort(design, CohortConfig(), seed=seed)
        for trial in ds.trials[::4]:
            fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
            dataio.write_gaze_csv(str(fast), trial.samples)
            reference_write_gaze_csv(str(ref), trial.samples)
            assert fast.read_bytes() == ref.read_bytes()
            assert_series_bitwise_equal(dataio.parse_gaze_csv(str(fast)), trial.samples)

    def test_awkward_values_identical(self, tmp_path):
        series = awkward_series()
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        dataio.write_gaze_csv(str(fast), series)
        reference_write_gaze_csv(str(ref), series)
        assert fast.read_bytes() == ref.read_bytes()
        assert b"-0.0," in fast.read_bytes() and b"5e-324" in fast.read_bytes()
        back = dataio.parse_gaze_csv(str(fast))
        assert_series_bitwise_equal(back, dataio._parse_gaze_csv_lines(str(fast)))
        assert_series_bitwise_equal(back, series)

    def test_empty_series_identical(self, tmp_path):
        series = series_from_gva(np.array([]))
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        dataio.write_gaze_csv(str(fast), series)
        reference_write_gaze_csv(str(ref), series)
        assert fast.read_bytes() == ref.read_bytes() == (HEADER + "\r\n").encode()
        assert len(dataio.parse_gaze_csv(str(fast))) == 0

    @pytest.mark.parametrize("name", sorted(CONSTANT_COLUMN_TABLES))
    def test_constant_column_series_identical(self, tmp_path, name):
        assert_round_trip_matches_references(tmp_path, series_of(CONSTANT_COLUMN_TABLES[name]))

    def test_lines_end_with_crlf(self, tmp_path):
        path = tmp_path / "g.csv"
        dataio.write_gaze_csv(str(path), series_from_gva(np.full(3, 10.0)))
        raw = path.read_bytes()
        assert raw.count(b"\r\n") == 4 and raw.count(b"\n") == 4


finite = st.floats(allow_nan=False, allow_infinity=False)
vector_value = st.one_of(finite, st.just(math.nan), st.just(-0.0), st.just(5e-324))
unit = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, -0.0]))


@st.composite
def gaze_tables(draw):
    n = draw(st.integers(0, 12))
    start = draw(st.floats(-1e6, 1e6))
    steps = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    t = np.cumsum([start] + steps)[:n] if n else np.zeros(0)
    conf = draw(st.lists(unit, min_size=2 * n, max_size=2 * n))
    vec = draw(st.lists(vector_value, min_size=12 * n, max_size=12 * n))
    table = np.column_stack(
        [t, np.reshape(conf, (n, 2)), np.reshape(vec, (n, 12))]
    ) if n else np.zeros((0, 15))
    return table


# A value for each column that is valid there in every row.
column_value = [st.floats(-1e6, 1e6), unit, unit] + [vector_value] * 12


@st.composite
def tables_with_constant_columns(draw):
    table = draw(gaze_tables())
    for j in draw(st.sets(st.integers(0, 14))):
        table[:, j] = draw(column_value[j])
    return table


# Single tokens that are valid, or break one rule, in some column.
tokens = st.sampled_from(
    ["0.5", "1", "0", "-0.0", "1.0", "nan", "NaN", "inf", "-inf", "1_0", " 0.25 ", "1.0000001",
     "", "x", '"0.5"', "5e-324", "1e308", "1e309", "-1"]
)


@st.composite
def mutated_files(draw):
    table = draw(gaze_tables())
    rows = [list(map(repr, row)) for row in table.tolist()]
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, 14))
        rows[i][j] = draw(tokens)
    lines = [HEADER] + [",".join(r) for r in rows]
    ending = draw(st.sampled_from(["\r\n", "\n"]))
    return ending.join(lines) + draw(st.sampled_from([ending, ""]))


class TestReaderOracle:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=gaze_tables())
    def test_parsed_arrays_match_line_reader(self, tmp_path, table):
        series = series_of(table)
        path = tmp_path / "g.csv"
        reference_write_gaze_csv(str(path), series)
        assert dataio._gaze_table_fast(str(path)) is not None
        kind, back = assert_readers_agree(str(path))
        assert kind == "ok"
        assert_series_bitwise_equal(back, series)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=tables_with_constant_columns())
    def test_constant_columns_write_and_parse_like_references(self, tmp_path, table):
        assert_round_trip_matches_references(tmp_path, series_of(table))

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=tables_with_constant_columns(), column=st.integers(0, 14), token=tokens)
    def test_identical_token_column_agrees(self, tmp_path, table, column, token):
        rows = [list(map(repr, row)) for row in table.tolist()]
        for row in rows:
            row[column] = token
        path = tmp_path / "g.csv"
        path.write_bytes(("\r\n".join([HEADER] + [",".join(r) for r in rows]) + "\r\n").encode())
        assert_readers_agree(str(path))

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=mutated_files())
    def test_mutated_files_agree(self, tmp_path, text):
        path = tmp_path / "g.csv"
        path.write_bytes(text.encode())
        assert_readers_agree(str(path))


ROW = ["0.0", "1.0", "1.0"] + ["0.0", "0.0", "0.0", "0.0", "0.0", "1.0"] * 2


def body(*rows, ending="\n"):
    return HEADER + ending + "".join(",".join(r) + ending for r in rows)


def with_field(i, value, row=ROW):
    out = list(row)
    out[i] = value
    return out


MALFORMED = {
    "empty_file": ("", GazeParseError),
    "bad_header": ("time,stuff\n1,2\n", GazeParseError),
    "blank_first_line": ("\n" + body(ROW), GazeParseError),
    "header_with_bom": ("\ufeff" + body(ROW), GazeParseError),
    "fourteen_fields": (body(ROW, ROW[:14]), GazeParseError),
    "sixteen_fields": (body(ROW, ROW + ["0.0"]), GazeParseError),
    "fourteen_then_sixteen": (body(ROW[:14], ROW + ["0.0"]), GazeParseError),
    "blank_lines": (HEADER + "\n\n" + ",".join(ROW) + "\r\n\r\n" + ",".join(with_field(0, "1.0")) + "\n\n", None),
    "quoted_field": (body(with_field(3, '"0.5"')), None),
    "quoted_comma": (body(with_field(3, '"0,5"')), GazeParseError),
    "lone_cr_endings": (body(ROW, with_field(0, "0.5"), ending="\r"), None),
    "lone_cr_mid_row": (HEADER + "\n" + ",".join(ROW[:5]) + "\r" + ",".join(ROW[5:]) + "\n", GazeParseError),
    "crlf_endings": (body(ROW, with_field(0, "0.5"), ending="\r\n"), None),
    "no_final_newline": (body(ROW)[:-1], None),
    "inf_time": (body(with_field(0, "inf")), GazeParseError),
    "inf_vector": (body(with_field(7, "-inf")), GazeParseError),
    "overflowing_vector": (body(with_field(7, "1e309")), GazeParseError),
    "nan_time": (body(with_field(0, "nan")), GazeParseError),
    "nan_conf": (body(with_field(2, "NaN")), GazeParseError),
    "conf_above_one": (body(with_field(1, "1.0000001")), GazeParseError),
    "conf_below_zero": (body(with_field(2, "-1e-300")), GazeParseError),
    "conf_negative_zero": (body(with_field(2, "-0.0")), None),
    "non_monotone_time": (body(with_field(0, "0.5"), with_field(0, "0.4")), GazeParseError),
    "equal_times": (body(ROW, ROW), None),
    "underscore_digits": (body(with_field(0, "1_0")), None),
    "padded_whitespace": (body(with_field(4, " 0.5 "), with_field(0, "\t2.0")), None),
    "empty_field": (body(with_field(5, "")), GazeParseError),
    "unparseable": (body(with_field(3, "x")), GazeParseError),
    "nul_byte": (body(with_field(3, "0\x00")), (GazeParseError, csv.Error)),  # csv.Error before Python 3.11
    "nan_vector_ok": (body(with_field(6, "nan")), None),
}


class TestMalformedTable:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_fast_and_reference_agree(self, tmp_path, name):
        text, expected = MALFORMED[name]
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode())
        kind, result = assert_readers_agree(str(path))
        if expected is None:
            assert kind == "ok"
        else:
            assert kind == "raised" and issubclass(result[0], expected), result

    @pytest.mark.parametrize(
        "column,token,message", [(4, "x", "unparseable l_oy value 'x'"), (2, "1.5", "r_conf 1.5 outside [0, 1]")]
    )
    def test_identical_bad_tokens_fail_on_the_first_line(self, tmp_path, column, token, message):
        path = tmp_path / "same.csv"
        path.write_text(body(*[with_field(column, token, with_field(0, str(i))) for i in range(3)]))
        assert dataio._gaze_table_fast(str(path)) is None
        with pytest.raises(GazeParseError) as err:
            dataio.parse_gaze_csv(str(path))
        assert err.value.line == 2
        assert str(err.value) == f"{message} [{path}:2]"

    def test_line_numbers_survive_the_fallback(self, tmp_path):
        path = tmp_path / "late.csv"
        path.write_text(body(ROW, with_field(0, "1.0"), with_field(1, "1.5", with_field(0, "2.0"))))
        with pytest.raises(GazeParseError) as err:
            dataio.parse_gaze_csv(str(path))
        assert err.value.line == 4
        assert str(err.value) == f"l_conf 1.5 outside [0, 1] [{path}:4]"

    def test_invalid_utf8_agrees(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(body(ROW).encode() + b"\xff\n")
        assert_readers_agree(str(path))
