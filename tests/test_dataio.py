import csv
import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import series_from_gva
from vergescope import dataio
from vergescope.analysis import ConditionCell
from vergescope.calibration import ParticipantModel
from vergescope.errors import DomainError, GazeParseError
from vergescope.pipeline import ProcessedTrial
from vergescope.recording import GazeSeries, SampleStatus, TrialRecord
from vergescope.synth import CohortConfig, ExperimentDesign, NoiseModel, simulate_cohort


class TestGazeCsv:
    def test_roundtrip_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        series = series_from_gva(10.0 + rng.normal(0, 1, size=50))
        path = tmp_path / "gaze.csv"
        dataio.write_gaze_csv(str(path), series)
        back = dataio.parse_gaze_csv(str(path))
        np.testing.assert_array_equal(back.t_s, series.t_s)
        np.testing.assert_array_equal(back.l_dir, series.l_dir)
        np.testing.assert_array_equal(back.gva_deg, series.gva_deg)
        # writing again produces identical bytes
        path2 = tmp_path / "gaze2.csv"
        dataio.write_gaze_csv(str(path2), back)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,stuff\n1,2\n")
        with pytest.raises(GazeParseError):
            dataio.parse_gaze_csv(str(path))

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(dataio.GAZE_CSV_HEADER) + "\n")
        series = dataio.parse_gaze_csv(str(path))
        assert len(series) == 0

    def test_confidence_out_of_range(self, tmp_path):
        path = tmp_path / "conf.csv"
        row = ["0.0", "1.2", "1.0"] + ["0.0"] * 12
        path.write_text(",".join(dataio.GAZE_CSV_HEADER) + "\n" + ",".join(row) + "\n")
        with pytest.raises(GazeParseError) as err:
            dataio.parse_gaze_csv(str(path))
        assert err.value.line == 2

    def test_non_monotone_time(self, tmp_path):
        path = tmp_path / "time.csv"
        rows = [
            ["0.5", "1", "1"] + ["0", "0", "0", "0", "0", "1"] * 2,
            ["0.4", "1", "1"] + ["0", "0", "0", "0", "0", "1"] * 2,
        ]
        text = ",".join(dataio.GAZE_CSV_HEADER) + "\n" + "\n".join(",".join(r) for r in rows) + "\n"
        path.write_text(text)
        with pytest.raises(GazeParseError):
            dataio.parse_gaze_csv(str(path))

    def test_unparseable_field_reports_line(self, tmp_path):
        path = tmp_path / "field.csv"
        row = ["0.0", "1", "1"] + ["x"] + ["0"] * 11
        path.write_text(",".join(dataio.GAZE_CSV_HEADER) + "\n" + ",".join(row) + "\n")
        with pytest.raises(GazeParseError) as err:
            dataio.parse_gaze_csv(str(path))
        assert err.value.line == 2

    def test_nan_vectors_become_missing(self, tmp_path):
        path = tmp_path / "nan.csv"
        row = ["0.0", "1", "1"] + ["nan"] * 12
        path.write_text(",".join(dataio.GAZE_CSV_HEADER) + "\n" + ",".join(row) + "\n")
        series = dataio.parse_gaze_csv(str(path))
        assert series.status[0] == SampleStatus.MISSING
        assert math.isnan(series.gva_deg[0])

    def test_nan_time_rejected(self, tmp_path):
        path = tmp_path / "nant.csv"
        row = ["nan", "1", "1"] + ["0"] * 12
        path.write_text(",".join(dataio.GAZE_CSV_HEADER) + "\n" + ",".join(row) + "\n")
        with pytest.raises(GazeParseError):
            dataio.parse_gaze_csv(str(path))


class TestCanonicalJson:
    def test_floats_limited_to_nine_digits(self):
        text = dataio.canonical_json({"x": 1.2345678901234567})
        assert json.loads(text)["x"] == float("1.23456789")

    def test_deterministic_key_order(self):
        a = dataio.canonical_json({"b": 1, "a": 2})
        b = dataio.canonical_json({"a": 2, "b": 1})
        assert a == b

    def test_numpy_scalars(self):
        text = dataio.canonical_json({"x": np.float64(0.5), "n": np.int64(3), "b": np.bool_(True)})
        assert json.loads(text) == {"x": 0.5, "n": 3, "b": True}

    def test_non_finite_becomes_null(self):
        assert json.loads(dataio.canonical_json({"x": math.nan}))["x"] is None


class TestDatasetRoundtrip:
    def test_write_and_load(self, tmp_path):
        design = ExperimentDesign(n_participants=1, repetitions=1, response_window_s=2.0)
        ds = simulate_cohort(design, CohortConfig(noise=NoiseModel.quiet()), seed=5)
        out = tmp_path / "data"
        dataio.write_dataset(str(out), ds)
        assert (out / "ledger.json").exists()
        assert (out / "config.json").exists()
        trials = dataio.load_dataset_trials(str(out))
        assert len(trials) == len(ds.trials)
        original = {(t.participant_id, t.environment, t.trial_id): t for t in ds.trials}
        for t in trials:
            src = original[(t.participant_id, t.environment, t.trial_id)]
            np.testing.assert_array_equal(t.samples.gva_deg, src.samples.gva_deg)
            assert t.start_depth_m == src.start_depth_m
            assert t.response_s == src.response_s

    def test_subjective_roundtrip(self, tmp_path):
        design = ExperimentDesign(n_participants=2, repetitions=1)
        ds = simulate_cohort(design, CohortConfig(), seed=6)
        path = tmp_path / "subjective.csv"
        dataio.write_subjective_csv(str(path), ds.subjective)
        back = dataio.parse_subjective_csv(str(path))
        assert back == ds.subjective

    def test_manifest_chaining_validation(self, tmp_path):
        design = ExperimentDesign(n_participants=1, repetitions=1, response_window_s=2.0)
        ds = simulate_cohort(design, CohortConfig(noise=NoiseModel.quiet()), seed=9)
        out = tmp_path / "data"
        dataio.write_dataset(str(out), ds)
        manifest = next((out / "manifests").glob("*.json"))
        dataio.load_session_trials(str(manifest), validate_chaining=True)
        doc = json.loads(manifest.read_text())
        doc["trials"][1]["start_depth_m"] = 9.9
        manifest.write_text(json.dumps(doc))
        with pytest.raises(GazeParseError):
            dataio.load_session_trials(str(manifest), validate_chaining=True)


@dataclass(frozen=True)
class ReferenceGvaTableRow:
    """The table row type ``parse_gva_table_csv`` returned before ``ProcessedTrial`` took its place."""

    participant_id: str
    environment: str
    trial_id: str
    start_depth_m: float
    end_depth_m: float
    status: str
    gva_mean_deg: float | None
    valid_fraction: float
    valid: bool
    landolt_correct: bool


def reference_parse_gva_table_csv(path: str) -> list[ReferenceGvaTableRow]:
    """The table reader that returned ``ReferenceGvaTableRow``s, kept as it was."""
    out = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != dataio._GVA_TABLE_HEADER:
            raise GazeParseError(f"bad gva table header {reader.fieldnames!r}", path, 1)
        for line_no, row in enumerate(reader, start=2):
            if None in row or None in row.values():
                raise GazeParseError(f"expected {len(dataio._GVA_TABLE_HEADER)} fields", path, line_no)
            try:
                out.append(
                    ReferenceGvaTableRow(
                        participant_id=row["participant_id"],
                        environment=row["environment"],
                        trial_id=row["trial_id"],
                        start_depth_m=float(row["start_depth_m"]),
                        end_depth_m=float(row["end_depth_m"]),
                        status=row["status"],
                        gva_mean_deg=float(row["gva_mean_deg"]) if row["gva_mean_deg"] else None,
                        valid_fraction=float(row["valid_fraction"]),
                        valid=row["valid"] == "true",
                        landolt_correct=row["landolt_correct"] == "true",
                    )
                )
            except ValueError as exc:
                raise GazeParseError(f"bad gva table row: {exc}", path, line_no) from None
    return out


class TestGvaTable:
    def test_roundtrip(self, tmp_path):
        from vergescope.pipeline import preprocess_dataset

        design = ExperimentDesign(n_participants=1, repetitions=1)
        ds = simulate_cohort(design, CohortConfig(), seed=7)
        # A response before the earliest allowed onset leaves a trial without
        # a fixation, so the table holds rows with an empty gva_mean_deg.
        trials = [replace(t, response_s=t.stimulus_onset_s) if i % 5 == 0 else t for i, t in enumerate(ds.trials)]
        processed, _ = preprocess_dataset(trials)
        assert any(p.status == "no_fixation" and p.gva_mean_deg is None for p in processed)
        path = tmp_path / "table.csv"
        dataio.write_gva_table_csv(str(path), processed)
        rows = dataio.parse_gva_table_csv(str(path))
        reference = reference_parse_gva_table_csv(str(path))
        assert len(rows) == len(reference) == len(processed)
        for row, ref, p in zip(rows, reference, processed):
            for f in fields(ReferenceGvaTableRow):
                assert repr(getattr(row, f.name)) == repr(getattr(ref, f.name)) == repr(getattr(p, f.name))
            assert (row.fixation_onset_s, row.n_samples, row.sample_counts) == (None, None, None)
        again = tmp_path / "again.csv"
        dataio.write_gva_table_csv(str(again), rows)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "valid, gva, landolt, message",
        [
            ("true", "", "true", "valid row without gva_mean_deg"),
            ("True", "10.0", "true", "valid must be true or false, got 'True'"),
            ("false", "", "1", "landolt_correct must be true or false, got '1'"),
        ],
    )
    def test_inconsistent_row_names_its_line(self, tmp_path, valid, gva, landolt, message):
        good = "p01,Real,t000,4.0,0.25,ok,10.0,1.0,true,true"
        bad = f"p01,Real,t001,0.25,4.0,ok,{gva},1.0,{valid},{landolt}"
        path = tmp_path / "table.csv"
        path.write_text("\n".join([",".join(dataio._GVA_TABLE_HEADER), good, bad, ""]))
        with pytest.raises(GazeParseError) as exc:
            dataio.parse_gva_table_csv(str(path))
        assert str(exc.value) == f"{message} [{path}:3]"


POSITIVE_DEPTHS = st.floats(min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=300, deadline=None)
@given(start=POSITIVE_DEPTHS, end=POSITIVE_DEPTHS)
def test_depth_pair_matches_the_formulas_it_replaced(start, end):
    """DepthPair's views equal the old TrialRecord and ConditionCell formulas bit for bit."""
    old_end_d = 1.0 / end
    old_trial_start_d = 1.0 / start
    old_trial_switch_d = abs(old_trial_start_d - old_end_d)
    old_cell_switch_d = abs(1.0 / start - 1.0 / end)
    cell = ConditionCell("p01", "Real", start, end, 10.0, 1)
    row = ProcessedTrial("p01", "Real", "t", start, end, "ok", 10.0, 1.0, True, True)
    pairs = [cell, row]
    if start != end:
        empty = GazeSeries(np.empty(0), *[np.empty((0, 3))] * 4, np.empty(0), np.empty(0))
        pairs.append(TrialRecord("p01", "Real", "t", start, end, 0.0, None, empty))
    for pair in pairs:
        assert _bits(pair.end_depth_d) == _bits(old_end_d)
        assert _bits(pair.start_depth_d) == _bits(old_trial_start_d)
        assert _bits(pair.switch_depth_d) == _bits(old_trial_switch_d) == _bits(old_cell_switch_d)
    averaged = ConditionCell("p01", "Real", None, end, 10.0, 1)
    assert _bits(averaged.end_depth_d) == _bits(old_end_d)
    for view in ("start_depth_d", "switch_depth_d"):
        with pytest.raises(DomainError):
            getattr(averaged, view)


class TestModelsJson:
    def test_roundtrip(self, tmp_path):
        models = {
            "p01": ParticipantModel("p01", 17.5, 1.7, 0.3, 12),
            "p02": ParticipantModel("p02", 9.0, 2.2, 0.1, 12),
        }
        path = tmp_path / "models.json"
        dataio.write_models_json(str(path), models)
        back = dataio.load_models_json(str(path))
        assert set(back) == {"p01", "p02"}
        assert back["p01"].intercept_deg == pytest.approx(17.5)
        assert back["p02"].slope_deg_per_d == pytest.approx(2.2)
        doc = json.loads(path.read_text())
        assert set(doc["models"][0]) == {
            "participant_id",
            "intercept_deg",
            "slope_deg_per_diopter",
            "residual_sd_deg",
            "n_points",
        }
