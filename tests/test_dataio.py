import csv
import gc
import json
import math
import multiprocessing
import os
import weakref
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import force_cpus, load_dataset_sessions, series_from_gva
from vergescope import dataio, synth
from vergescope.analysis import ConditionCell
from vergescope.calibration import ParticipantModel
from vergescope.errors import DomainError, GazeParseError
from vergescope.pipeline import PipelineConfig, ProcessedTrial
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


def reference_jsonable(obj, quantize: bool):
    """The deep copy ``canonical_json`` made before it became a one-pass writer."""
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v, quantize) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v, quantize) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if not math.isfinite(x):
            return None
        return float(f"{x:.9g}") if quantize else x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def reference_canonical_json(obj, precise: bool = False) -> str:
    return json.dumps(reference_jsonable(obj, not precise), sort_keys=True, indent=2, allow_nan=False) + "\n"


JSON_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072014e-308, 1.2345678901234567]),
)
JSON_SCALARS = st.one_of(
    st.text(max_size=5),
    st.integers(),
    st.booleans(),
    st.none(),
    JSON_FLOATS,
    JSON_FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.booleans().map(np.bool_),
)
# Keys that are not str collide with str keys after str(); the last one wins in both writers.
JSON_KEYS = st.one_of(st.text(max_size=3), st.integers(-3, 3), st.booleans(), st.none(), st.floats(allow_nan=False))
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(JSON_KEYS, children, max_size=4),
    ),
    max_leaves=25,
)


# Ids with a quote, a backslash, non-ASCII and control characters, which the
# encoder escapes; times at zero, subnormal, huge and not finite.
TAG_IDS = st.text(alphabet=st.sampled_from('aZ0 "\\\t\n\x00\x1f\x7féR€😀'), max_size=4)
TAG_TIMES = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 1.5e-310, 1e300, -1e300, 1.2345678901234567, math.nan, math.inf]),
)


@st.composite
def trial_artifacts(draw):
    counts = tuple(draw(st.lists(st.integers(0, 3), min_size=3, max_size=3)))
    times = draw(st.lists(TAG_TIMES, min_size=sum(counts), max_size=sum(counts)))
    return synth.TrialArtifacts(draw(TAG_IDS), draw(TAG_IDS), draw(TAG_IDS), np.array(times, dtype=float), counts)


@pytest.fixture(scope="module")
def json_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("json")


class TestCanonicalJsonOracle:
    """The one-pass writer against ``json.dumps`` on the deep copy it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(tree=JSON_TREES, precise=st.booleans())
    def test_trees_match_the_reference(self, json_dir, tree, precise):
        expected = reference_canonical_json(tree, precise)
        assert dataio.canonical_json(tree, precise) == expected
        path = json_dir / "tree.json"
        dataio.write_json(str(path), tree, precise)
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize(
        "tree",
        [{}, [], (), {"a": {}, "b": []}, [[], [[]]], [1, [2]], {"k": (1, 2.5)}, {1: "int", "1": "str"}, "ü\n"],
    )
    def test_empty_scalar_only_and_mixed_containers(self, tree):
        for precise in (False, True):
            assert dataio.canonical_json(tree, precise) == reference_canonical_json(tree, precise)

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_cli_artifacts_match_the_reference(self, json_dir, seed):
        from vergescope.analysis import condition_means, run_analysis
        from vergescope.calibration import fit_participants
        from vergescope.pipeline import preprocess_dataset

        ds = simulate_cohort(ExperimentDesign(n_participants=2, repetitions=1), CohortConfig(), seed=seed)
        processed, validity = preprocess_dataset(ds.trials)
        models = fit_participants(condition_means([p for p in processed if p.valid]))
        analysis = run_analysis(processed, models=models, include_normalized=True, include_stability=True,
                                subjective=ds.subjective, min_valid_trials_per_pair=1)
        artifacts = {
            "ledger.json": (ds.ledger_dict(), True),
            "validity_report.json": (validity.to_dict(), False),
            "analysis.json": (analysis, False),
        }
        for name, (obj, precise) in artifacts.items():
            path = json_dir / f"{seed}_{name}"
            dataio.write_json(str(path), obj, precise)
            assert path.read_text(encoding="utf-8") == reference_canonical_json(obj, precise), name
        assert len(artifacts["ledger.json"][0]["artifacts"]) > 100

    @pytest.mark.parametrize("bad", [{1, 2}, np.arange(3), object(), {"x": [1, {"y": b"bytes"}]}, [np.datetime64(0, "s")]])
    def test_unserializable_value_raises_type_error(self, json_dir, bad):
        with pytest.raises(TypeError):
            reference_canonical_json(bad)
        with pytest.raises(TypeError):
            dataio.canonical_json(bad)
        with pytest.raises(TypeError):
            dataio.write_json(str(json_dir / "bad.json"), bad)

    @settings(max_examples=200, deadline=None)
    @given(tree=JSON_TREES, trials=st.lists(trial_artifacts(), max_size=3), precise=st.booleans())
    def test_iterators_write_as_the_lists_they_yield(self, json_dir, tree, trials, precise):
        # A LedgerArtifacts in every container of the tree, so at every nesting level.
        entries = synth.LedgerArtifacts(trials)
        expected = reference_canonical_json(in_every_container(tree, list(entries)), precise)
        assert dataio.canonical_json(in_every_container(tree, entries), precise) == expected
        path = json_dir / "entries.json"
        dataio.write_json(str(path), in_every_container(tree, entries), precise)
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("tree", [[], {"a": [], "b": [[], {}]}, [[]], [1, []], {"k": [{"x": []}]}])
    def test_empty_iterators_write_as_empty_lists(self, json_dir, tree):
        # Every empty list becomes a LedgerArtifacts with no tags.
        assert dataio.canonical_json(synth.LedgerArtifacts([])) == "[]\n"
        no_tags = synth.TrialArtifacts("p01", "Real", "t000", np.empty(0), (0, 0, 0))
        for empty in (synth.LedgerArtifacts([]), synth.LedgerArtifacts([no_tags, no_tags])):
            for precise in (False, True):
                expected = reference_canonical_json(tree, precise)
                assert dataio.canonical_json(empty_lists_as(tree, empty), precise) == expected
                path = json_dir / "empty.json"
                dataio.write_json(str(path), empty_lists_as(tree, empty), precise)
                assert path.read_text(encoding="utf-8") == expected

    def test_failed_write_leaves_the_file_unchanged(self, tmp_path):
        path = tmp_path / "kept.json"
        dataio.write_json(str(path), {"kept": [1, 2]})
        before = path.read_bytes()
        # The first item is written before the unserializable one is reached.
        with pytest.raises(TypeError):
            dataio.write_json(str(path), {"kept": [[1], [object()]]})
        assert path.read_bytes() == before
        with pytest.raises(TypeError):
            dataio.write_json(str(tmp_path / "new.json"), [[1], {2, 3}])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json"]


def ledger_with(artifacts: synth.LedgerArtifacts, as_dicts: bool) -> dict:
    """A ledger-shaped document whose ``artifacts`` is ``artifacts``, or the list of dicts it iterates as."""
    return {"artifacts": list(artifacts) if as_dicts else artifacts, "seed": 7, "trials": [{"trial_id": "t000"}]}


class TestLedgerArtifactsOracle:
    """The ledger's template writer against ``json.dumps`` on the per-tag dicts."""

    def check(self, json_dir, artifacts: synth.LedgerArtifacts, precise: bool) -> None:
        expected = reference_canonical_json(ledger_with(artifacts, as_dicts=True), precise)
        assert dataio.canonical_json(ledger_with(artifacts, as_dicts=False), precise) == expected
        path = json_dir / "ledger.json"
        dataio.write_json(str(path), ledger_with(artifacts, as_dicts=False), precise)
        assert path.read_bytes() == expected.encode("utf-8")

    @settings(max_examples=300, deadline=None)
    @given(trials=st.lists(trial_artifacts(), max_size=4), precise=st.booleans())
    def test_trials_match_the_reference(self, json_dir, trials, precise):
        self.check(json_dir, synth.LedgerArtifacts(trials), precise)

    @pytest.mark.parametrize(
        "counts, times",
        [((0, 0, 0), []), ((2, 0, 0), [0.0, 5e-324]), ((0, 1, 0), [1e300]), ((0, 0, 2), [math.nan, -0.0])],
    )
    def test_empty_and_one_kind_trials(self, json_dir, counts, times):
        trial = synth.TrialArtifacts("p01", 'A"R', "t000", np.array(times, dtype=float), counts)
        for trials in ([], [trial], [trial, trial]):
            for precise in (False, True):
                self.check(json_dir, synth.LedgerArtifacts(trials), precise)

    def test_tags_iterate_as_their_dicts(self):
        trial = synth.TrialArtifacts("p01", "Real", "t003", np.array([0.5, 0.25, 2.0]), (1, 0, 2))
        assert list(synth.LedgerArtifacts([trial])) == [
            {"participant_id": "p01", "environment": "Real", "trial_id": "t003", "t_s": t, "kind": kind}
            for t, kind in ((0.5, "dropout"), (0.25, "outlier"), (2.0, "outlier"))
        ]


def in_every_container(tree, value):
    """``tree`` with ``value`` added to every dict (under the key ``"entries"``) and appended to every list."""
    if isinstance(tree, dict):
        return {**{k: in_every_container(v, value) for k, v in tree.items()}, "entries": value}
    if isinstance(tree, (list, tuple)):
        return [in_every_container(v, value) for v in tree] + [value]
    return tree


def empty_lists_as(tree, empty):
    """``tree`` with every empty list replaced by ``empty``."""
    if isinstance(tree, dict):
        return {k: empty_lists_as(v, empty) for k, v in tree.items()}
    if isinstance(tree, list):
        return [empty_lists_as(v, empty) for v in tree] if tree else empty
    return tree


class TestDatasetRoundtrip:
    def test_write_and_load(self, tmp_path):
        design = ExperimentDesign(n_participants=1, repetitions=1, response_window_s=2.0)
        ds = simulate_cohort(design, CohortConfig(noise=NoiseModel.quiet()), seed=5)
        out = tmp_path / "data"
        assert dataio.write_dataset(str(out), design, ds.config, 5) == len(ds.trials)
        assert (out / "ledger.json").exists()
        assert (out / "config.json").exists()
        trials = [t for session in load_dataset_sessions(out) for t in session]
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


def reference_write_dataset(outdir: str, dataset) -> None:
    """The whole-cohort writer that ``write_dataset`` replaced: it wrote a ``simulate_cohort`` result."""
    os.makedirs(outdir, exist_ok=True)
    os.makedirs(os.path.join(outdir, "manifests"), exist_ok=True)
    dataio.write_json(
        os.path.join(outdir, "config.json"),
        {"design": dataset.design.to_dict(), "seed": dataset.seed},
    )
    dataio.write_json(os.path.join(outdir, "ledger.json"), dataset.ledger_dict(), precise=True)
    dataio.write_subjective_csv(os.path.join(outdir, "subjective.csv"), dataset.subjective)
    sessions: dict[tuple[str, str], list[TrialRecord]] = {}
    for t in dataset.trials:
        sessions.setdefault((t.participant_id, t.environment), []).append(t)
    for (pid, env), trials in sorted(sessions.items()):
        gaze_dir = os.path.join(outdir, "gaze", f"{pid}_{env}")
        os.makedirs(gaze_dir, exist_ok=True)
        rel_files = []
        for t in trials:
            rel = os.path.join("..", "gaze", f"{pid}_{env}", f"{t.trial_id}.csv")
            dataio.write_gaze_csv(os.path.join(gaze_dir, f"{t.trial_id}.csv"), t.samples)
            rel_files.append(rel)
        dataio.write_manifest(
            os.path.join(outdir, "manifests", f"{pid}_{env}.json"),
            trials,
            rel_files,
            dataset.design.depths_m,
        )


def tree_bytes(root) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestWriteDataset:
    """The session-at-a-time writer against the whole-cohort writer it replaced."""

    @pytest.mark.parametrize(
        "seed, config",
        [
            (3, CohortConfig()),
            (7, CohortConfig()),
            (11, CohortConfig()),
            (7, CohortConfig(noise=NoiseModel.quiet(), timeout_rate=0.3, response_mode="linear")),
        ],
    )
    def test_trees_match_the_reference(self, tmp_path, seed, config):
        design = ExperimentDesign(n_participants=2, repetitions=1)
        reference_write_dataset(str(tmp_path / "reference"), simulate_cohort(design, config, seed))
        assert dataio.write_dataset(str(tmp_path / "streamed"), design, config, seed) == 72
        expected = tree_bytes(tmp_path / "reference")
        assert len(expected) == 3 + 6 + 72
        assert tree_bytes(tmp_path / "streamed") == expected
        if config.timeout_rate:
            assert b'"landolt_response": "timeout"' in expected["manifests/p01_Real.json"]

    def test_environment_names_that_need_escaping(self, tmp_path):
        design = ExperimentDesign(n_participants=1, repetitions=1, environments=("Réal", 'A"R', "V\tR"))
        reference_write_dataset(str(tmp_path / "reference"), simulate_cohort(design, CohortConfig(), 7))
        assert dataio.write_dataset(str(tmp_path / "streamed"), design, CohortConfig(), 7) == 36
        expected = tree_bytes(tmp_path / "reference")
        assert tree_bytes(tmp_path / "streamed") == expected
        ledger = expected["ledger.json"]
        assert all(name in ledger for name in (b'"R\\u00e9al"', b'"A\\"R"', b'"V\\tR"'))
        assert len(json.loads(ledger)["artifacts"]) > 100

    def test_a_written_session_is_released(self, tmp_path, monkeypatch):
        # One CPU: the sessions are written in this process, where the watcher sees them.
        force_cpus(monkeypatch, 1)
        design = ExperimentDesign(n_participants=2, repetitions=1)
        written: dict[str, list] = {}
        checked = []
        real = dataio.write_gaze_csv

        def watched(path, series):
            session = os.path.basename(os.path.dirname(path))
            if session not in written:
                gc.collect()
                checked.append(session)
                assert all(ref() is None for refs in written.values() for ref in refs), session
                written[session] = []
            written[session].append(weakref.ref(series))
            real(path, series)

        monkeypatch.setattr(dataio, "write_gaze_csv", watched)
        dataio.write_dataset(str(tmp_path / "data"), design, CohortConfig(), 3)
        assert len(checked) == 6

    @staticmethod
    def fail_the_second_session(monkeypatch):
        def failing(design, config, seed, p_index, e_index):
            if (p_index, e_index) == (0, 1):
                raise RuntimeError("session 2 failed")
            return synth.simulate_session(design, config, seed, p_index, e_index)

        # The workers are forked, so they see the patched module too.
        monkeypatch.setattr(dataio, "simulate_session", failing)

    def test_a_failure_part_way_leaves_no_ledger(self, tmp_path, monkeypatch):
        force_cpus(monkeypatch, 1)
        self.fail_the_second_session(monkeypatch)
        design = ExperimentDesign(n_participants=2, repetitions=1)
        out = tmp_path / "data"
        with pytest.raises(RuntimeError, match="session 2"):
            dataio.write_dataset(str(out), design, CohortConfig(), 3)
        assert sorted(p.name for p in out.iterdir()) == ["config.json", "gaze", "manifests"]
        assert [p.name for p in (out / "manifests").iterdir()] == ["p01_Real.json"]

    def test_a_failing_worker_leaves_no_ledger(self, tmp_path, monkeypatch):
        force_cpus(monkeypatch, 2)
        self.fail_the_second_session(monkeypatch)
        design = ExperimentDesign(n_participants=2, repetitions=1)
        out = tmp_path / "data"
        with pytest.raises(RuntimeError, match="session 2"):
            dataio.write_dataset(str(out), design, CohortConfig(), 3)
        # Other sessions may be written or cancelled; the dataset is never finished.
        names = {p.name for p in out.iterdir()}
        assert {"config.json", "manifests"} <= names and not names & {"ledger.json", "subjective.csv"}
        assert "p01_AR.json" not in {p.name for p in (out / "manifests").iterdir()}
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_the_pool_writes_and_preprocesses_the_same_bytes(self, tmp_path, monkeypatch, seed):
        design = ExperimentDesign(n_participants=2, repetitions=1)
        pids_path = tmp_path / "pids"
        real = dataio.write_manifest

        def recorded(path, *args):
            with open(pids_path, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            real(path, *args)

        monkeypatch.setattr(dataio, "write_manifest", recorded)
        trees, writers = {}, {}
        for cpus in (1, 2):
            force_cpus(monkeypatch, cpus)
            pids_path.write_text("")
            out = tmp_path / f"cpus{cpus}"
            assert dataio.write_dataset(str(out), design, CohortConfig(), seed) == 72
            processed, validity = dataio.preprocess_dir(str(out), PipelineConfig())
            dataio.write_gva_table_csv(str(out / "gva_table.csv"), processed)
            dataio.write_json(str(out / "validity_report.json"), validity.to_dict())
            trees[cpus] = tree_bytes(out)
            writers[cpus] = set(pids_path.read_text().split())
            assert multiprocessing.active_children() == []
        assert writers[1] == {str(os.getpid())}
        assert writers[2] and str(os.getpid()) not in writers[2]
        assert len(trees[1]) == 3 + 6 + 72 + 2
        assert trees[2] == trees[1]


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
            ("true", "nan", "true", "valid row with non-finite gva_mean_deg nan"),
            ("true", "-inf", "true", "valid row with non-finite gva_mean_deg -inf"),
        ],
    )
    def test_inconsistent_row_names_its_line(self, tmp_path, valid, gva, landolt, message):
        self._assert_bad_row(tmp_path, f"p01,Real,t001,0.25,4.0,ok,{gva},1.0,{valid},{landolt}", message)

    @pytest.mark.parametrize(
        "start, end, valid, gva, message",
        [
            ("0.0", "4.0", "false", "", "start_depth_m must be positive and finite, got 0.0"),
            ("0.25", "-4.0", "true", "10.0", "end_depth_m must be positive and finite, got -4.0"),
            ("inf", "4.0", "true", "10.0", "start_depth_m must be positive and finite, got inf"),
            ("0.25", "nan", "false", "", "end_depth_m must be positive and finite, got nan"),
        ],
    )
    def test_bad_depth_names_its_line(self, tmp_path, start, end, valid, gva, message):
        self._assert_bad_row(tmp_path, f"p01,Real,t001,{start},{end},ok,{gva},1.0,{valid},true", message)

    @staticmethod
    def _assert_bad_row(tmp_path, bad, message):
        good = "p01,Real,t000,4.0,0.25,ok,10.0,1.0,true,true"
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
