"""File formats: gaze CSV, trial manifests, subjective reports, tables, JSON.

The gaze CSV is the bulk format (one file per trial, strict fixed header,
CRLF line endings as the excel ``csv`` dialect writes them); everything
structured travels as JSON. Report JSON floats are fixed at nine significant
digits so repeated runs are byte-identical; gaze CSV floats use ``repr`` so
emit/parse round-trips are lossless.

``write_gaze_csv`` formats the table column by column: a column whose 64-bit
patterns are all equal (a simulated trial's eye origins) gets one ``repr``
reused for every row, so ``-0.0`` and ``0.0`` never share a string.
``parse_gaze_csv`` first reads a whole file as one table, column by column: a
column whose tokens are all the same string gets one ``float()``, every other
field its own, then the schema checks run as array masks. Any file that this
fast path cannot tokenise exactly as ``csv.reader`` would, or that fails a
check or a conversion, goes to the record-by-record reader
``_parse_gaze_csv_lines``, which is the only place that raises, so every
error names the same message, path and line.

The GVA table holds one ``pipeline.ProcessedTrial`` per line, and
``parse_gva_table_csv`` reads the same type back, without the fixation onset
and sample counts that the table does not carry.
"""

from __future__ import annotations

import csv
import json
import math
import os
from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .calibration import ParticipantModel
from .errors import GazeParseError
from .pipeline import ProcessedTrial
from .recording import GazeSeries, TrialRecord, depths_in_set
from .synth import SimulatedDataset, SubjectiveReport

__all__ = [
    "GAZE_CSV_HEADER",
    "write_gaze_csv",
    "parse_gaze_csv",
    "parse_gaze_row",
    "write_manifest",
    "load_manifest",
    "load_session_trials",
    "write_subjective_csv",
    "parse_subjective_csv",
    "write_gva_table_csv",
    "parse_gva_table_csv",
    "write_models_json",
    "load_models_json",
    "canonical_json",
    "write_json",
    "write_dataset",
    "load_dataset_trials",
]

GAZE_CSV_HEADER = [
    "t_s",
    "l_conf",
    "r_conf",
    "l_ox",
    "l_oy",
    "l_oz",
    "l_dx",
    "l_dy",
    "l_dz",
    "r_ox",
    "r_oy",
    "r_oz",
    "r_dx",
    "r_dy",
    "r_dz",
]
_GAZE_CSV_HEADER_LINE = ",".join(GAZE_CSV_HEADER)


def _round9(x: float) -> float:
    return float(f"{x:.9g}")


def _jsonable(obj, quantize: bool):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v, quantize) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, quantize) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if not math.isfinite(x):
            return None
        return _round9(x) if quantize else x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(obj, precise: bool = False) -> str:
    """Deterministic JSON text: sorted keys; floats at 9 significant digits.

    ``precise`` keeps full float precision, for data files (manifests, the
    ground-truth ledger) whose values must round-trip exactly.
    """
    return json.dumps(_jsonable(obj, not precise), sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path: str, obj, precise: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj, precise))


def write_gaze_csv(path: str, series: GazeSeries) -> None:
    table = np.column_stack(
        (series.t_s, series.l_conf, series.r_conf, series.l_origin, series.l_dir, series.r_origin, series.r_dir)
    )
    n = len(table)
    lines = [_GAZE_CSV_HEADER_LINE]
    if n:
        # A column whose 64-bit patterns are all equal is formatted once;
        # comparing bits keeps -0.0 apart from 0.0.
        bits = table.view(np.uint64)
        constant = (bits == bits[0]).all(axis=0).tolist()
        columns = [
            [repr(col[0].item())] * n if same else map(repr, col.tolist())
            for col, same in zip(table.T, constant)
        ]
        lines.extend(map(",".join, zip(*columns)))
    lines.append("")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines))


def _parse_float(text: str, field: str, path: str, line: int, allow_nan: bool) -> float:
    try:
        value = float(text)
    except ValueError:
        raise GazeParseError(f"unparseable {field} value {text!r}", path, line) from None
    if math.isnan(value) and not allow_nan:
        raise GazeParseError(f"NaN not allowed in {field}", path, line)
    if math.isinf(value):
        raise GazeParseError(f"non-finite {field} value", path, line)
    return value


def parse_gaze_row(raw: Sequence[str], path: str, line: int, prev_t: float) -> list[float]:
    """Strictly parse one gaze record (15 fields) that follows timestamp ``prev_t``.

    Raises :class:`GazeParseError` naming the first fault: field count,
    unparseable or non-finite values, a NaN outside the vector fields, a
    timestamp before ``prev_t``, or a confidence outside [0, 1].
    """
    if len(raw) != len(GAZE_CSV_HEADER):
        raise GazeParseError(f"expected {len(GAZE_CSV_HEADER)} fields, got {len(raw)}", path, line)
    t = _parse_float(raw[0], "t_s", path, line, allow_nan=False)
    if t < prev_t:
        raise GazeParseError(f"non-monotone timestamp {t}", path, line)
    lc = _parse_float(raw[1], "l_conf", path, line, allow_nan=False)
    rc = _parse_float(raw[2], "r_conf", path, line, allow_nan=False)
    for name, v in (("l_conf", lc), ("r_conf", rc)):
        if not (0.0 <= v <= 1.0):
            raise GazeParseError(f"{name} {v} outside [0, 1]", path, line)
    vec = [_parse_float(raw[i], GAZE_CSV_HEADER[i], path, line, allow_nan=True) for i in range(3, 15)]
    return [t, lc, rc] + vec


def _series_from_table(table: np.ndarray) -> GazeSeries:
    return GazeSeries(
        t_s=table[:, 0],
        l_conf=table[:, 1],
        r_conf=table[:, 2],
        l_origin=table[:, 3:6],
        l_dir=table[:, 6:9],
        r_origin=table[:, 9:12],
        r_dir=table[:, 12:15],
    )


def _gaze_table_fast(path: str) -> np.ndarray | None:
    """The (n, 15) table of a gaze CSV, or None where the file needs the per-line parser.

    Accepts exactly the files ``_parse_gaze_csv_lines`` accepts, minus any it
    cannot tokenise the way ``csv.reader`` does (quotes, lone CR, lines longer
    than the csv field limit). Every field goes through ``float()``, once per
    column where all of the column's tokens are the same string.
    """
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    if '"' in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != _GAZE_CSV_HEADER_LINE or max(map(len, lines)) > csv.field_size_limit():
        return None
    body = [line for line in lines[1:] if line]  # csv.reader yields [] for a blank line; both skip it
    n_fields = len(GAZE_CSV_HEADER)
    if not body:
        return np.empty((0, n_fields))
    if set(map(str.count, body, repeat(","))) != {n_fields - 1}:
        return None
    fields = ",".join(body).split(",")
    n = len(body)
    table = np.empty((n, n_fields))
    try:
        for j in range(n_fields):
            tokens = fields[j::n_fields]
            if tokens[0] == tokens[-1] and tokens.count(tokens[0]) == n:
                table[:, j] = float(tokens[0])
            else:
                table[:, j] = np.fromiter(map(float, tokens), dtype=float, count=n)
    except ValueError:
        return None
    t, conf = table[:, 0], table[:, 1:3]
    if (
        np.isfinite(t).all()
        and not (t[1:] < t[:-1]).any()
        and ((conf >= 0.0) & (conf <= 1.0)).all()
        and not np.isinf(table[:, 3:]).any()
    ):
        return table
    return None


def parse_gaze_csv(path: str) -> GazeSeries:
    """Strictly parse a gaze CSV into a series.

    The header must match the schema exactly; timestamps must be
    non-decreasing; confidences must lie in [0, 1]. NaN literals are accepted
    in the vector fields only and mark the sample as missing.
    """
    table = _gaze_table_fast(path)
    if table is None:
        return _parse_gaze_csv_lines(path)
    return _series_from_table(table)


def _parse_gaze_csv_lines(path: str) -> GazeSeries:
    """Record-by-record reader behind ``parse_gaze_csv``; raises on the first bad line."""
    rows: list[list[float]] = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise GazeParseError("empty file (missing header)", path, 1) from None
        if header != GAZE_CSV_HEADER:
            raise GazeParseError(
                f"bad header {header!r}, expected {GAZE_CSV_HEADER!r}", path, 1
            )
        prev_t = -math.inf
        for line_no, raw in enumerate(reader, start=2):
            if not raw:
                continue
            row = parse_gaze_row(raw, path, line_no, prev_t)
            prev_t = row[0]
            rows.append(row)
    return _series_from_table(np.asarray(rows, dtype=float).reshape(len(rows), 15))


def write_manifest(path: str, trials: Sequence[TrialRecord], gaze_files: Sequence[str], depth_set_m: Sequence[float]) -> None:
    if len(trials) != len(gaze_files):
        raise ValueError("one gaze file per trial required")
    doc = {
        "participant_id": trials[0].participant_id,
        "environment": trials[0].environment,
        "depth_set_m": list(depth_set_m),
        "trials": [
            {
                "trial_id": t.trial_id,
                "start_depth_m": t.start_depth_m,
                "end_depth_m": t.end_depth_m,
                "stimulus_onset_s": t.stimulus_onset_s,
                "response_s": t.response_s,
                "landolt_direction": t.landolt_direction,
                "landolt_response": t.landolt_response,
                "gaze_file": gaze_files[i],
            }
            for i, t in enumerate(trials)
        ],
    }
    write_json(path, doc, precise=True)


def load_manifest(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GazeParseError(f"invalid manifest JSON: {exc}", path) from None
    for key in ("participant_id", "environment", "trials"):
        if key not in doc:
            raise GazeParseError(f"manifest missing {key!r}", path)
    return doc


def load_session_trials(manifest_path: str, validate_chaining: bool = False) -> list[TrialRecord]:
    """Materialize one session's trials, reading gaze files relative to the manifest.

    ``validate_chaining`` additionally checks that each trial starts at the
    previous trial's end depth.
    """
    doc = load_manifest(manifest_path)
    if validate_chaining:
        entries = doc["trials"]
        for i in range(1, len(entries)):
            if entries[i]["start_depth_m"] != entries[i - 1]["end_depth_m"]:
                raise GazeParseError(
                    f"trial {entries[i]['trial_id']} starts at {entries[i]['start_depth_m']} m "
                    f"but the previous trial ended at {entries[i - 1]['end_depth_m']} m",
                    manifest_path,
                )
    depth_set = [float(d) for d in doc.get("depth_set_m", [])]
    base = os.path.dirname(os.path.abspath(manifest_path))
    out = []
    for entry in doc["trials"]:
        series = parse_gaze_csv(os.path.join(base, entry["gaze_file"]))
        trial = TrialRecord(
            participant_id=doc["participant_id"],
            environment=doc["environment"],
            trial_id=str(entry["trial_id"]),
            start_depth_m=float(entry["start_depth_m"]),
            end_depth_m=float(entry["end_depth_m"]),
            stimulus_onset_s=float(entry["stimulus_onset_s"]),
            response_s=None if entry.get("response_s") is None else float(entry["response_s"]),
            samples=series,
            landolt_direction=entry.get("landolt_direction", "right"),
            landolt_response=entry.get("landolt_response", "right"),
        )
        if depth_set and not depths_in_set(trial, depth_set):
            raise GazeParseError(
                f"trial {trial.trial_id} depths ({trial.start_depth_m}, {trial.end_depth_m}) "
                f"not in the declared depth set {depth_set}",
                manifest_path,
            )
        out.append(trial)
    return out


def write_subjective_csv(path: str, reports: Iterable[SubjectiveReport]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["participant_id", "environment", "depth_m", "report_value", "unit", "repetition"])
        for r in reports:
            writer.writerow(
                [r.participant_id, r.environment, repr(r.depth_m), repr(r.report_value), r.unit, r.repetition]
            )


def parse_subjective_csv(path: str) -> list[SubjectiveReport]:
    out = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for line_no, row in enumerate(reader, start=2):
            if None in row or None in row.values():
                raise GazeParseError(f"expected {len(reader.fieldnames)} fields", path, line_no)
            try:
                value = float(row["report_value"])
                depth = float(row["depth_m"])
                rep = int(row["repetition"])
            except (KeyError, ValueError) as exc:
                raise GazeParseError(f"bad subjective row: {exc}", path, line_no) from None
            if value <= 0.0:
                raise GazeParseError(f"report_value must be positive, got {value}", path, line_no)
            out.append(
                SubjectiveReport(row["participant_id"], row["environment"], depth, value, row["unit"], rep)
            )
    return out


_GVA_TABLE_HEADER = [
    "participant_id",
    "environment",
    "trial_id",
    "start_depth_m",
    "end_depth_m",
    "status",
    "gva_mean_deg",
    "valid_fraction",
    "valid",
    "landolt_correct",
]


def write_gva_table_csv(path: str, rows: Iterable[ProcessedTrial]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_GVA_TABLE_HEADER)
        for r in rows:
            writer.writerow(
                [
                    r.participant_id,
                    r.environment,
                    r.trial_id,
                    repr(r.start_depth_m),
                    repr(r.end_depth_m),
                    r.status,
                    "" if r.gva_mean_deg is None else repr(r.gva_mean_deg),
                    repr(r.valid_fraction),
                    "true" if r.valid else "false",
                    "true" if r.landolt_correct else "false",
                ]
            )


def parse_gva_table_csv(path: str) -> list[ProcessedTrial]:
    """Strictly parse a GVA table into rows without onsets or sample counts.

    ``valid`` and ``landolt_correct`` must read ``true`` or ``false``, both
    depths must be positive and finite, and a valid row must have a finite
    ``gva_mean_deg``; any other row raises :class:`GazeParseError` naming its
    line.
    """
    out = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != _GVA_TABLE_HEADER:
            raise GazeParseError(f"bad gva table header {reader.fieldnames!r}", path, 1)
        for line_no, row in enumerate(reader, start=2):
            if None in row or None in row.values():
                raise GazeParseError(f"expected {len(_GVA_TABLE_HEADER)} fields", path, line_no)
            for name in ("valid", "landolt_correct"):
                if row[name] not in ("true", "false"):
                    raise GazeParseError(f"{name} must be true or false, got {row[name]!r}", path, line_no)
            if row["valid"] == "true" and not row["gva_mean_deg"]:
                raise GazeParseError("valid row without gva_mean_deg", path, line_no)
            try:
                depths = float(row["start_depth_m"]), float(row["end_depth_m"])
                gva = float(row["gva_mean_deg"]) if row["gva_mean_deg"] else None
                fraction = float(row["valid_fraction"])
            except ValueError as exc:
                raise GazeParseError(f"bad gva table row: {exc}", path, line_no) from None
            for name, depth in zip(("start_depth_m", "end_depth_m"), depths):
                if not 0.0 < depth < math.inf:
                    raise GazeParseError(f"{name} must be positive and finite, got {depth!r}", path, line_no)
            if row["valid"] == "true" and not math.isfinite(gva):
                raise GazeParseError(f"valid row with non-finite gva_mean_deg {gva!r}", path, line_no)
            valid, landolt_correct = row["valid"] == "true", row["landolt_correct"] == "true"
            ids = row["participant_id"], row["environment"], row["trial_id"]
            out.append(ProcessedTrial(*ids, *depths, row["status"], gva, fraction, valid, landolt_correct))
    return out


def write_models_json(path: str, models: Mapping) -> None:
    entries = []
    for key in sorted(models, key=str):
        model: ParticipantModel = models[key]
        entry = model.to_dict()
        if isinstance(key, tuple):
            entry["environment"] = key[1]
        entries.append(entry)
    write_json(path, {"models": entries})


def load_models_json(path: str) -> dict[str, ParticipantModel]:
    """Read a models file written by ``write_models_json``; at least one model.

    Keys are participant ids, suffixed ``:<environment>`` for per-environment
    models. A file of any other shape raises :class:`GazeParseError`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GazeParseError(f"invalid models JSON: {exc}", path) from None
    entries = doc.get("models") if isinstance(doc, dict) else None
    if not isinstance(entries, list) or not entries:
        raise GazeParseError('expected an object whose "models" is a non-empty list', path)
    out: dict[str, ParticipantModel] = {}
    for i, entry in enumerate(entries):
        try:
            model = ParticipantModel.from_dict(entry)
        except (KeyError, TypeError, ValueError) as exc:
            raise GazeParseError(f"bad model entry {i}: {type(exc).__name__}: {exc}", path) from None
        key = model.participant_id
        if "environment" in entry:
            key = f"{key}:{entry['environment']}"
        out[key] = model
    return out


def write_dataset(outdir: str, dataset: SimulatedDataset) -> None:
    """Emit a simulated cohort: config echo, ledger, subjective CSV, manifests, gaze files."""
    os.makedirs(outdir, exist_ok=True)
    os.makedirs(os.path.join(outdir, "manifests"), exist_ok=True)
    write_json(
        os.path.join(outdir, "config.json"),
        {"design": dataset.design.to_dict(), "seed": dataset.seed},
    )
    write_json(os.path.join(outdir, "ledger.json"), dataset.ledger_dict(), precise=True)
    write_subjective_csv(os.path.join(outdir, "subjective.csv"), dataset.subjective)
    sessions: dict[tuple[str, str], list[TrialRecord]] = {}
    for t in dataset.trials:
        sessions.setdefault((t.participant_id, t.environment), []).append(t)
    for (pid, env), trials in sorted(sessions.items()):
        gaze_dir = os.path.join(outdir, "gaze", f"{pid}_{env}")
        os.makedirs(gaze_dir, exist_ok=True)
        rel_files = []
        for t in trials:
            rel = os.path.join("..", "gaze", f"{pid}_{env}", f"{t.trial_id}.csv")
            write_gaze_csv(os.path.join(gaze_dir, f"{t.trial_id}.csv"), t.samples)
            rel_files.append(rel)
        write_manifest(
            os.path.join(outdir, "manifests", f"{pid}_{env}.json"),
            trials,
            rel_files,
            dataset.design.depths_m,
        )


def load_dataset_trials(datadir: str) -> list[TrialRecord]:
    """Load every session manifest under ``datadir/manifests``."""
    mandir = os.path.join(datadir, "manifests")
    if not os.path.isdir(mandir):
        raise GazeParseError(f"no manifests directory under {datadir!r}", datadir)
    trials: list[TrialRecord] = []
    for name in sorted(os.listdir(mandir)):
        if name.endswith(".json"):
            trials.extend(load_session_trials(os.path.join(mandir, name)))
    return trials
