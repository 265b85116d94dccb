"""The benchmark's three workloads: cohort_cli, cohort_memory, estimate_stream.

Each workload builds its inputs from the seed in ``setup``, runs one timed
pass in ``run_pass`` and checks outputs in ``check``, outside the timed pass.
Calls go through module attributes (``cli.main``, ``pipeline.preprocess_dataset``)
so that the traced run's wrappers see them. Why each workload exists is in
``bench/README.md``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from vergescope import analysis, calibration, cli, dataio, pipeline, report, synth
from vergescope.errors import VergescopeError
from vergescope.recording import SampleStatus

# A fitted calibration slope must lie within this many deg/D of the ledger's
# implied slope. Over seeds 0-39 of cohort_cli's two-participant cohort the
# largest deviation was 0.0104 deg/D; the tolerance leaves twice that.
SLOPE_TOLERANCE_DEG_PER_D = 0.02

# Trials in each session of the default design: 12 depth pairs x 6 repetitions.
DEPTH_PAIRS = 12
TRIALS_PER_SESSION = DEPTH_PAIRS * 6
# cohort_cli and estimate_stream run each depth pair once per session, so
# that a pass is short and a run's median is taken over dozens of passes.
REPETITIONS = 1
ENVIRONMENTS = ("Real", "AR", "VR")

# Gaze CSVs of cohort_cli parsed back against the in-memory cohort.
CSV_SAMPLE_STRIDE = 6

# estimate's defaults, used to predict which stream rows it drops.
ESTIMATE_CONFIDENCE = 0.75
ESTIMATE_MAX_VELOCITY = 5000.0


@dataclass
class PassResult:
    """What one timed pass produced; only ``wall_s`` and ``stages`` are timed."""

    wall_s: float
    # Seconds per stage, in pass order: the subcommands or library calls of a
    # cohort pass, or the one session a stream pass ran.
    stages: dict[str, float] = field(default_factory=dict)
    latencies_ns: np.ndarray | None = None
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digest: str = ""
    counts: dict[str, float] = field(default_factory=dict)


class CheckLog:
    """Named pass/fail output checks; each counts as one attempted operation."""

    def __init__(self):
        self.results: list[dict] = []
        self.failed_rows = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append({"check": name, "ok": bool(ok), "detail": detail})

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


def _digest_tree(path: str) -> str:
    h = hashlib.sha256()
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(root, name)
            h.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _bits_match(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise bitwise equality that treats any two NaNs as equal."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return (a.view(np.uint64) == b.view(np.uint64)) | (np.isnan(a) & np.isnan(b))


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(_bits_match(a, b).all())


def _estimated_meters(gva: float, model) -> float:
    """What ``estimate`` should print for an angle: the depth, or NaN where it is refused."""
    try:
        return calibration.estimate_depth(gva, model)[1]
    except VergescopeError:
        return math.nan


def _series_columns(series) -> np.ndarray:
    """The 15 gaze-CSV columns of a series, in schema order."""
    return np.column_stack(
        [series.t_s, series.l_conf, series.r_conf, series.l_origin, series.l_dir, series.r_origin, series.r_dir]
    )


def _observations(cells) -> list:
    return [calibration.GvaObservation(c.participant_id, c.environment, c.end_depth_d, c.gva_deg) for c in cells]


def _check_slopes(log: CheckLog, fitted: dict[str, float], implied: dict[str, float]) -> None:
    worst = max(abs(fitted[pid] - implied[pid]) for pid in fitted) if fitted else math.inf
    log.check(
        "slope_within_tolerance",
        bool(fitted) and set(fitted) <= set(implied) and worst <= SLOPE_TOLERANCE_DEG_PER_D,
        f"max |fitted - implied| = {worst:.4f} deg/D over {len(fitted)} model(s), "
        f"tolerance {SLOPE_TOLERANCE_DEG_PER_D}",
    )


def _pipeline_counts(by_status: dict, n_trials: int, n_valid: int) -> dict[str, float]:
    return {
        "pipeline.samples": sum(by_status.values()),
        "pipeline.excluded.low_confidence": by_status.get("low_confidence", 0),
        "pipeline.excluded.velocity_spike": by_status.get("velocity_spike", 0),
        "pipeline.excluded.outlier": by_status.get("outlier", 0),
        "pipeline.excluded.missing": by_status.get("missing", 0),
        "pipeline.trials_valid_ratio": n_valid / n_trials if n_trials else 0.0,
    }


class CohortCli:
    """Two-participant cohort through the CLI: simulate, preprocess, fit, analyze, report."""

    name = "cohort_cli"
    min_passes = 2
    # The stage after which every row's per-trial output exists.
    table_stage = "preprocess"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.design = synth.ExperimentDesign(n_participants=2, repetitions=REPETITIONS)
        self.samples = 0
        self.design_path = os.path.join(workdir, "design.json")
        self.first_pass_dir: str | None = None
        self.digests: list[str] = []

    def setup(self) -> None:
        with open(self.design_path, "w", encoding="utf-8") as fh:
            json.dump({"design": self.design.to_dict()}, fh)
        n = int(round(self.design.trial_duration_s * self.design.sample_rate_hz))
        self.samples = self.design.n_participants * len(self.design.environments) * self.design.trials_per_session * n

    def sizes(self) -> dict:
        return {
            "participants": self.design.n_participants,
            "trials": self.design.n_participants * len(self.design.environments) * self.design.trials_per_session,
            "samples": self.samples,
        }

    def run_pass(self, index: int) -> PassResult:
        data = os.path.join(self.workdir, f"pass{index}")
        table = os.path.join(data, "gva_table.csv")
        models = os.path.join(data, "models.json")
        result_path = os.path.join(data, "analysis.json")
        steps = [
            ["simulate", "--design", self.design_path, "--seed", str(self.seed), "--out", data],
            ["preprocess", "--in", data],
            ["fit", "--gva-table", table, "--out", models],
            # One trial per depth pair, so a pair is retained on its one valid trial.
            ["analyze", "--gva-table", table, "--models", models, "--normalized", "--stability",
             "--logratio", "--min-pair-trials", str(REPETITIONS),
             "--subjective", os.path.join(data, "subjective.csv"), "--out", result_path],
            ["report", "--analysis", result_path, "--out", os.path.join(data, "report")],
        ]
        out = PassResult(wall_s=0.0)
        captured_out, captured_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(captured_out), contextlib.redirect_stderr(captured_err):
            t0 = time.perf_counter()
            for argv in steps:
                out.attempted += 1
                t_stage = time.perf_counter()
                try:
                    rc = cli.main(argv)
                except (Exception, SystemExit) as exc:  # a crash is a failed operation, not a harness crash
                    rc = repr(exc)
                out.stages[argv[0]] = time.perf_counter() - t_stage
                if rc != 0:
                    out.failed += 1
                    out.errors.append(f"{argv[0]}: {rc!r} {captured_err.getvalue().strip()}")
                    break
            out.wall_s = time.perf_counter() - t0
        if out.failed:
            return out
        with open(os.path.join(data, "validity_report.json"), encoding="utf-8") as fh:
            validity = json.load(fh)
        out.counts = _pipeline_counts(
            validity["samples"]["by_status"], validity["trials"]["total"], validity["trials"]["valid"]
        )
        out.digest = _digest_tree(data)
        if self.first_pass_dir is None:
            self.first_pass_dir = data
        else:
            shutil.rmtree(data)
        self.digests.append(out.digest)
        return out

    def check(self, log: CheckLog) -> None:
        data = self.first_pass_dir
        if data is None:
            log.check("first_pass_completed", False)
            return
        with open(os.path.join(data, "gva_table.csv"), newline="", encoding="utf-8") as fh:
            n_rows = sum(1 for _ in csv.DictReader(fh))
        expected = self.design.n_participants * len(ENVIRONMENTS) * DEPTH_PAIRS * REPETITIONS
        log.check("trial_count", n_rows == expected, f"{n_rows} table rows, expected {expected}")

        with open(os.path.join(data, "ledger.json"), encoding="utf-8") as fh:
            ledger = json.load(fh)
        with open(os.path.join(data, "validity_report.json"), encoding="utf-8") as fh:
            validity = json.load(fh)
        dropouts = sum(1 for a in ledger["artifacts"] if a["kind"] == "dropout")
        low = validity["samples"]["by_status"].get("low_confidence", 0)
        log.check("low_confidence_equals_dropouts", low == dropouts, f"{low} low_confidence, {dropouts} dropout tags")

        with open(os.path.join(data, "models.json"), encoding="utf-8") as fh:
            fitted = {m["participant_id"]: m["slope_deg_per_diopter"] for m in json.load(fh)["models"]}
        implied = {pid: p["slope_implied_deg_per_d"] for pid, p in ledger["participants"].items()}
        _check_slopes(log, fitted, implied)

        log.check(
            "artifacts_identical_across_passes",
            len(set(self.digests)) == 1,
            f"{len(self.digests)} passes, {len(set(self.digests))} distinct digest(s)",
        )

        dataset = synth.simulate_cohort(self.design, synth.CohortConfig(), self.seed)
        sample = dataset.trials[::CSV_SAMPLE_STRIDE]
        written_ok = parsed_ok = True
        for trial in sample:
            path = os.path.join(data, "gaze", f"{trial.participant_id}_{trial.environment}", f"{trial.trial_id}.csv")
            expected_cols = _series_columns(trial.samples)
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            written = np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)
            written_ok &= rows[0] == dataio.GAZE_CSV_HEADER and _bits_equal(written, expected_cols)
            parsed_ok &= _bits_equal(_series_columns(dataio.parse_gaze_csv(path)), expected_cols)
        log.check("gaze_csv_text_matches_memory", written_ok, f"{len(sample)} files read with float()")
        log.check("gaze_csv_parse_matches_memory", parsed_ok, f"{len(sample)} files read with parse_gaze_csv")


class CohortMemory:
    """The paper-scale default cohort through the library, in memory and serially."""

    name = "cohort_memory"
    min_passes = 2
    table_stage = "preprocess_dataset"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.design = synth.ExperimentDesign()
        self.dataset = None
        self.first: tuple | None = None
        self.digests: list[str] = []

    def setup(self) -> None:
        self.dataset = None  # release the previous set-up's cohort before building the next
        self.dataset = synth.simulate_cohort(self.design, synth.CohortConfig(), self.seed)
        self.samples = sum(len(t.samples) for t in self.dataset.trials)

    def sizes(self) -> dict:
        return {
            "participants": self.design.n_participants,
            "trials": len(self.dataset.trials),
            "samples": self.samples,
        }

    def run_pass(self, index: int) -> PassResult:
        outdir = os.path.join(self.workdir, f"report{index}")
        out = PassResult(wall_s=0.0)
        trials, subjective = self.dataset.trials, self.dataset.subjective
        stage_outputs = {}
        stages = [
            ("preprocess_dataset", lambda: pipeline.preprocess_dataset(trials)),
            ("condition_means", lambda: analysis.condition_means(stage_outputs["preprocess_dataset"][0])),
            ("fit_participants", lambda: calibration.fit_participants(_observations(stage_outputs["condition_means"]))),
            ("run_analysis", lambda: analysis.run_analysis(
                stage_outputs["preprocess_dataset"][0],
                models=stage_outputs["fit_participants"],
                include_normalized=True,
                include_stability=True,
                subjective=subjective,
            )),
            ("render_analysis", lambda: report.render_analysis(stage_outputs["run_analysis"], outdir)),
        ]
        t0 = time.perf_counter()
        for name, stage in stages:
            out.attempted += 1
            t_stage = time.perf_counter()
            try:
                stage_outputs[name] = stage()
            except Exception as exc:  # a crash is a failed operation, not a harness crash
                out.failed += 1
                out.errors.append(f"{name}: {exc!r}")
                break
            finally:
                out.stages[name] = time.perf_counter() - t_stage
        out.wall_s = time.perf_counter() - t0
        if out.failed:
            return out
        processed, validity = stage_outputs["preprocess_dataset"]
        out.counts = _pipeline_counts(validity.samples_by_status, validity.n_trials, validity.n_valid_trials)
        h = hashlib.sha256(repr(processed).encode())
        h.update(json.dumps(stage_outputs["run_analysis"], sort_keys=True).encode())
        h.update(_digest_tree(outdir).encode())
        out.digest = h.hexdigest()
        shutil.rmtree(outdir)
        self.digests.append(out.digest)
        if self.first is None:
            self.first = (processed, validity, stage_outputs["fit_participants"])
        return out

    def check(self, log: CheckLog) -> None:
        if self.first is None:
            log.check("first_pass_completed", False)
            return
        processed, validity, models = self.first
        expected = self.design.n_participants * len(ENVIRONMENTS) * TRIALS_PER_SESSION
        log.check("trial_count", len(processed) == expected, f"{len(processed)} trials, expected {expected}")
        dropouts = sum(1 for a in self.dataset.artifacts if a.kind == "dropout")
        low = validity.samples_by_status.get("low_confidence", 0)
        log.check("low_confidence_equals_dropouts", low == dropouts, f"{low} low_confidence, {dropouts} dropout tags")
        implied = {
            pid: phys.implied_line(self.design.depths_m)[1] for pid, phys in self.dataset.physiology.items()
        }
        _check_slopes(log, {pid: m.slope_deg_per_d for pid, m in models.items()}, implied)
        log.check(
            "artifacts_identical_across_passes",
            len(set(self.digests)) == 1,
            f"{len(self.digests)} passes, {len(set(self.digests))} distinct digest(s)",
        )


class _LineFeed:
    """stdin for ``estimate``: hands over one line at a time and stamps the handover."""

    def __init__(self, lines: list[str]):
        self._lines = lines
        self._next = 0
        self.stamp = 0

    def __iter__(self):
        return self

    def __next__(self) -> str:
        i = self._next
        if i >= len(self._lines):
            raise StopIteration
        self._next = i + 1
        self.stamp = time.perf_counter_ns()
        return self._lines[i]


class _LineSink:
    """stdout for ``estimate``: keeps each output line and its delay since the handover."""

    def __init__(self, feed: _LineFeed):
        self._feed = feed
        self.lines: list[str] = []
        self.latencies: list[int] = []

    def write(self, text: str) -> int:
        self.latencies.append(time.perf_counter_ns() - self._feed.stamp)
        self.lines.append(text)
        return len(text)

    def flush(self) -> None:
        pass


class EstimateStream:
    """One participant's three sessions streamed row by row through ``estimate``.

    A pass streams one session; passes cycle Real, AR, VR, so a run with the
    minimum number of passes streams every session twice.
    """

    name = "estimate_stream"
    min_passes = 2 * len(ENVIRONMENTS)
    table_stage = None

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.design = synth.ExperimentDesign(n_participants=1, repetitions=REPETITIONS)
        self.models_path = os.path.join(workdir, "models.json")
        self.first_outputs: dict[str, list[str]] = {}
        self.digests: dict[str, set[str]] = {}

    def setup(self) -> None:
        dataset = synth.simulate_cohort(self.design, synth.CohortConfig(), self.seed)
        processed, validity = pipeline.preprocess_dataset(dataset.trials)
        self.models = calibration.fit_participants(_observations(analysis.condition_means(processed)))
        dataio.write_models_json(self.models_path, self.models)
        self.dataset, self.validity = dataset, validity
        header = ",".join(dataio.GAZE_CSV_HEADER) + "\n"
        self.sessions: dict[str, list] = {}
        self.lines: dict[str, list[str]] = {}
        self.low_confidence_rows: dict[str, int] = {}
        for env in self.design.environments:
            trials = [t for t in dataset.trials if t.environment == env]
            cols = np.concatenate([_series_columns(t.samples) for t in trials])
            self.sessions[env] = trials
            self.lines[env] = [header] + [",".join(map(repr, row)) + "\n" for row in cols.tolist()]
            self.low_confidence_rows[env] = int(
                np.count_nonzero(np.minimum(cols[:, 1], cols[:, 2]) < ESTIMATE_CONFIDENCE)
            )
        self.samples = sum(len(lines) - 1 for lines in self.lines.values())
        self.input_bytes = sum(len(line) for lines in self.lines.values() for line in lines)

    def sizes(self) -> dict:
        return {
            "participants": self.design.n_participants,
            "sessions": len(self.lines),
            "trials": len(self.dataset.trials),
            "rows": self.samples,
            "input_bytes": self.input_bytes,
        }

    def run_pass(self, index: int) -> PassResult:
        env = self.design.environments[index % len(self.design.environments)]
        lines = self.lines[env]
        out = PassResult(wall_s=0.0)
        captured_err = io.StringIO()
        feed = _LineFeed(lines)
        sink = _LineSink(feed)
        saved = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = feed, sink
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(captured_err):
                rc = cli.main(["estimate", "--model", self.models_path, "--stream"])
        except (Exception, SystemExit) as exc:  # a crash is a failed operation, not a harness crash
            rc = repr(exc)
        finally:
            out.wall_s = time.perf_counter() - t0
            sys.stdin, sys.stdout = saved
        out.stages[env] = out.wall_s
        rows_in = len(lines) - 1
        out.attempted = rows_in
        if rc != 0:
            out.failed = rows_in
            out.errors.append(f"estimate {env}: {rc!r} {captured_err.getvalue().strip()}")
        out.latencies_ns = np.asarray(sink.latencies, dtype=np.int64)
        rows_out = len(sink.lines)
        nan_meters = sum(line.endswith(",nan\n") for line in sink.lines)
        low = self.low_confidence_rows[env]
        out.counts = {
            "cli.estimate.rows_in": rows_in,
            "cli.estimate.rows_out": rows_out,
            "cli.estimate.dropped_low_confidence": low,
            "cli.estimate.dropped_other": rows_in - rows_out - low,
            "cli.estimate.nan_meters": nan_meters,
            "cli.estimate.useful_ratio": (rows_out - nan_meters) / rows_in,
        }
        out.digest = hashlib.sha256("".join(sink.lines).encode()).hexdigest()
        self.digests.setdefault(env, set()).add(out.digest)
        self.first_outputs.setdefault(env, sink.lines)
        return out

    def check(self, log: CheckLog) -> None:
        expected = self.design.n_participants * len(ENVIRONMENTS) * DEPTH_PAIRS * REPETITIONS
        n_trials = len(self.dataset.trials)
        log.check("trial_count", n_trials == expected, f"{n_trials} trials, expected {expected}")
        dropouts = sum(1 for a in self.dataset.artifacts if a.kind == "dropout")
        low = self.validity.samples_by_status.get("low_confidence", 0)
        log.check(
            "low_confidence_equals_dropouts",
            low == dropouts == sum(self.low_confidence_rows.values()),
            f"{low} low_confidence, {dropouts} dropout tags, {sum(self.low_confidence_rows.values())} stream rows under "
            f"{ESTIMATE_CONFIDENCE}",
        )
        (phys,) = self.dataset.physiology.values()
        implied = {phys.participant_id: phys.implied_line(self.design.depths_m)[1]}
        _check_slopes(log, {pid: m.slope_deg_per_d for pid, m in self.models.items()}, implied)
        streamed = [env for env in self.design.environments if env in self.first_outputs]
        log.check(
            "outputs_identical_across_passes",
            all(len(self.digests[env]) == 1 for env in streamed),
            f"distinct output digests per session: {[len(self.digests[env]) for env in streamed]}",
        )
        (model,) = dataio.load_models_json(self.models_path).values()
        log.check("every_session_streamed", len(streamed) == len(self.design.environments), f"{streamed}")
        for env in streamed:
            trials = self.sessions[env]
            expected_rows = sum(
                int(np.count_nonzero(
                    pipeline.velocity_filter(
                        pipeline.confidence_filter(t, ESTIMATE_CONFIDENCE), ESTIMATE_MAX_VELOCITY
                    ).samples.status == SampleStatus.VALID
                ))
                for t in trials
            )
            lines = self.first_outputs[env]
            log.check(
                f"row_count_{env}",
                len(lines) == expected_rows,
                f"{len(lines)} rows emitted, {expected_rows} left valid by the batch filters",
            )
            gva_at = {}
            for t in trials:
                gva_at.update(zip(t.samples.t_s.tolist(), t.samples.gva_deg.tolist()))
            emitted = np.array([[float(v) for v in line.split(",")] for line in lines], dtype=float).reshape(-1, 3)
            source = np.array([gva_at.get(t, math.nan) for t in emitted[:, 0].tolist()], dtype=float)
            want = np.array([_estimated_meters(g, model) for g in emitted[:, 1].tolist()], dtype=float)
            known = np.array([t in gva_at for t in emitted[:, 0].tolist()], dtype=bool)
            ok = known & _bits_match(emitted[:, 1], source) & _bits_match(emitted[:, 2], want)
            bad = int(np.count_nonzero(~ok))
            log.failed_rows += bad
            log.check(f"row_values_{env}", bad == 0, f"{bad} of {len(lines)} rows differ from the library")


WORKLOADS = {w.name: w for w in (CohortCli, CohortMemory, EstimateStream)}
