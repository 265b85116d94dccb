"""File formats: gaze CSV, trial manifests, subjective reports, tables, JSON.

The gaze CSV is the bulk format (one file per trial, strict fixed header,
CRLF line endings as the excel ``csv`` dialect writes them); everything
structured travels as JSON. Report JSON floats are fixed at nine significant
digits so repeated runs are byte-identical; gaze CSV floats use ``repr`` so
emit/parse round-trips are lossless.

``write_gaze_csv`` formats the table column by column: a column whose 64-bit
patterns are all equal (a simulated trial's eye origins) gets one ``repr``
reused for every row, so ``-0.0`` and ``0.0`` never share a string.
``read_gaze_rows`` owns the gaze-row rules, for files and for ``estimate``'s
stdin. ``parse_gaze_csv`` first reads a whole file as one table, column by
column: a column whose tokens are all the same string gets one ``float()``,
every other field its own, then the row rules run as array masks. Any file
this fast path does not accept goes to ``read_gaze_rows``, whose
``_parse_gaze_row`` is the only place that raises, so every error names the
same message, path and line.

The GVA table holds one ``pipeline.ProcessedTrial`` per line, and
``parse_gva_table_csv`` reads the same type back, without the fixation onset
and sample counts that the table does not carry.

``canonical_json`` gives the text of ``json.dumps(..., sort_keys=True,
indent=2, allow_nan=False)`` plus a newline, after dict keys become ``str``,
tuples lists, numpy scalars Python ones and non-finite floats ``None``. It is
made in one pass over the object, with no converted copy: a container whose
values are all scalars is encoded in one call to a ``json.JSONEncoder`` kept
per nesting level, whose item separator carries that level's indent, and
every other piece is written as it is made.
The ledger's artifact list, a ``synth.LedgerArtifacts``, is written as the
list of five-key dicts it iterates as, one trial at a time from a template:
the trial's ids are encoded once, and each tag is its kind's head, its time
and the trial's tail, so no tag's dict is built. ``write_json`` sends those
pieces to a temporary file beside its path and renames it into place only
when the text is complete; a value that cannot be serialized raises
``TypeError``, and any file already at the path is left as it was.

``write_dataset`` and ``preprocess_dir`` (``simulate`` and ``preprocess``)
run one (participant, environment) session per task of ``_map_sessions``:
in forked worker processes, ``min(sessions, len(os.sched_getaffinity(0)))``
of them, or in this process when that is below two, with no flag or setting
to choose. Each process holds one session's samples at a time, and the bytes
written are the same either way. A ``write_dataset`` task simulates a session
and writes its gaze files and manifest, and hands back the session's
``synth.SimulatedDataset`` without its trials; the parent merges them and
writes ``subjective.csv`` and last ``ledger.json``, so a dataset with a
ledger is complete. A ``preprocess_dir`` task parses one session's gaze
files and hands back its cleaned rows. A failure raises the error of the
first failing session in sorted order, or ``ChildProcessError`` when a
worker dies, and leaves no worker process behind.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .calibration import ParticipantModel
from .errors import GazeParseError, UnitError
from .pipeline import PipelineConfig, ProcessedTrial, ValidityReport, collect_processed, process_session
from .recording import GazeSeries, TrialRecord, depths_in_set
from .stats.veridicality import unit_to_meters
from .synth import (
    ARTIFACT_KINDS,
    CohortConfig,
    ExperimentDesign,
    LedgerArtifacts,
    SimulatedDataset,
    SubjectiveReport,
    simulate_session,
)

__all__ = [
    "GAZE_CSV_HEADER",
    "write_gaze_csv",
    "parse_gaze_csv",
    "read_gaze_rows",
    "write_manifest",
    "load_manifest",
    "write_subjective_csv",
    "parse_subjective_csv",
    "write_gva_table_csv",
    "parse_gva_table_csv",
    "write_models_json",
    "load_models_json",
    "canonical_json",
    "write_json",
    "write_dataset",
    "preprocess_dir",
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
    """One scalar as JSON sees it: floats rounded (or None when not finite), numpy scalars as Python ones."""
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if not math.isfinite(x):
            return None
        return _round9(x) if quantize else x
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


# Values of these types are encoded as they are, by one encoder call per
# container; a value of any other type (a container, or one JSON cannot hold)
# is written on its own.
_SCALARS = (str, int, float, type(None), np.generic)


@functools.lru_cache(maxsize=None)
def _level_encoder(level: int) -> json.JSONEncoder:
    """Encodes a container at nesting ``level`` whose values are all scalars, as ``indent=2`` lays out its items."""
    return json.JSONEncoder(sort_keys=True, allow_nan=False, separators=(",\n" + "  " * (level + 1), ": "))


def _write_canonical(write, obj, quantize: bool, level: int = 0) -> None:
    """Write ``obj`` at nesting ``level`` as ``json.dumps(..., sort_keys=True, indent=2)`` lays it out, piece by piece."""
    if isinstance(obj, LedgerArtifacts):
        _write_artifact_entries(write, obj, quantize, level)
        return
    encode = _level_encoder(level).encode
    if isinstance(obj, dict):
        obj = {str(k): v for k, v in obj.items()}
        values, opening, closing = obj.values(), "{", "}"
    elif isinstance(obj, (list, tuple)):
        values, opening, closing = obj, "[", "]"
    else:
        write(encode(_jsonable(obj, quantize)))
        return
    if not obj:
        write(opening + closing)
        return
    inner = "\n" + "  " * (level + 1)
    outer = "\n" + "  " * level
    if all(isinstance(v, _SCALARS) for v in values):
        if opening == "{":
            flat = {k: _jsonable(v, quantize) for k, v in obj.items()}
        else:
            flat = [_jsonable(v, quantize) for v in obj]
        write(opening + inner + encode(flat)[1:-1] + outer + closing)
        return
    if opening == "{":
        items = ((encode_basestring_ascii(k) + ": ", v) for k, v in sorted(obj.items()))
    else:
        items = zip(repeat(""), obj)
    separator = opening + inner
    for prefix, value in items:
        write(separator + prefix)
        separator = "," + inner
        _write_canonical(write, value, quantize, level + 1)
    write(outer + closing)


def _write_artifact_entries(write, entries: LedgerArtifacts, quantize: bool, level: int) -> None:
    """Write ``list(entries)`` at nesting ``level`` as ``_write_canonical`` would, one piece per trial.

    An entry's five keys are fixed and already sorted, so a tag's text is
    the head of its kind, its time as the encoder writes
    ``_jsonable(t, quantize)``, and the tail of its trial. The ids are
    encoded once per trial with ``encode_basestring_ascii``, as the encoder
    encodes strings.
    """
    inner = "\n" + "  " * (level + 1)
    field = "\n" + "  " * (level + 2)
    separator = "[" + inner
    for trial in entries.trials:
        if not trial.t_s.size:
            continue
        pid, env, tid = map(encode_basestring_ascii, (trial.participant_id, trial.environment, trial.trial_id))
        heads = [
            f'{{{field}"environment": {env},{field}"kind": "{kind}",{field}"participant_id": {pid},{field}"t_s": '
            for kind in ARTIFACT_KINDS
        ]
        tail = f',{field}"trial_id": {tid}{inner}}}'
        times = trial.t_s.tolist()
        if quantize or not np.isfinite(trial.t_s).all():
            times = [_jsonable(t, quantize) for t in times]
        texts = ["null" if t is None else float.__repr__(t) for t in times]
        kinds = chain.from_iterable(map(repeat, heads, trial.counts))
        write(separator + ("," + inner).join([head + text + tail for head, text in zip(kinds, texts)]))
        separator = "," + inner
    write("[]" if separator == "[" + inner else "\n" + "  " * level + "]")


def canonical_json(obj, precise: bool = False) -> str:
    """Deterministic JSON text: sorted keys; floats at 9 significant digits.

    The text is ``json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False)`` plus a newline, after every dict key is made a
    ``str``, every tuple a list, every ``synth.LedgerArtifacts`` the list
    of its dicts, every numpy scalar a Python one and every non-finite float
    ``None``. ``precise`` keeps full float precision, for data files
    (manifests, the ground-truth ledger) whose values must round-trip
    exactly. A value JSON cannot hold raises ``TypeError``.
    """
    buffer = io.StringIO()
    _write_canonical(buffer.write, obj, not precise)
    buffer.write("\n")
    return buffer.getvalue()


def write_json(path: str, obj, precise: bool = False) -> None:
    """Write ``canonical_json(obj, precise)`` to ``path`` without building the text first.

    The text goes to a temporary file in the same directory, which replaces
    ``path`` only once it is complete; on any error the temporary file is
    removed and a file already at ``path`` is left unchanged.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            _write_canonical(fh.write, obj, not precise)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


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


def _parse_gaze_row(raw: Sequence[str], path: str, line: int, prev_t: float) -> list[float]:
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
    """The (n, 15) table of a gaze CSV, or None where the file needs ``read_gaze_rows``.

    Accepts only files that ``read_gaze_rows`` accepts, with the same values:
    an exact header line, then blank lines and rows of 15 fields that pass
    the row rules. Every field goes through ``float()``, once per column
    where all of the column's tokens are the same string.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != _GAZE_CSV_HEADER_LINE:
        return None
    body = [line for line in lines[1:] if line]
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
    """Strictly parse a gaze CSV into a series, under the rules of ``read_gaze_rows``.

    The header must match the schema exactly; timestamps must be
    non-decreasing; confidences must lie in [0, 1]. NaN literals are accepted
    in the vector fields only and mark the sample as missing.
    """
    table = _gaze_table_fast(path)
    if table is None:
        return _parse_gaze_csv_lines(path)
    return _series_from_table(table)


def _parse_gaze_csv_lines(path: str) -> GazeSeries:
    """Line-by-line reader behind ``parse_gaze_csv``; raises on the first bad line."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(read_gaze_rows(fh, path))
    return _series_from_table(np.asarray(rows, dtype=float).reshape(len(rows), 15))


def read_gaze_rows(lines: Iterable[str], path: str) -> Iterator[list[float]]:
    """Yield the 15 floats of each record in a gaze CSV's lines (a file or stream in universal-newline mode).

    The header comes first; every line is stripped, blank lines are skipped,
    and fields are split on ``,``, so a quoted field is refused. A bad line
    raises :class:`GazeParseError` naming ``path`` and the line, after the
    records before it.
    """
    lines = iter(lines)
    first = next(lines, None)
    if first is None:
        raise GazeParseError("empty file (missing header)", path, 1)
    header = first.strip().split(",")
    if header != GAZE_CSV_HEADER:
        raise GazeParseError(f"bad header {header!r}, expected {GAZE_CSV_HEADER!r}", path, 1)
    n_fields = len(GAZE_CSV_HEADER)
    inf = math.inf
    prev_t = -inf
    for line_no, raw in enumerate(lines, start=2):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        try:
            values = list(map(float, fields))
        except ValueError:
            values = []
        # The row rules as plain comparisons; _parse_gaze_row names the fault.
        if (
            len(values) != n_fields
            or not (prev_t <= values[0] < inf and 0.0 <= values[1] <= 1.0 and 0.0 <= values[2] <= 1.0)
            or inf in values
            or -inf in values
        ):
            _parse_gaze_row(fields, path, line_no, prev_t)
        prev_t = values[0]
        yield values


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


def _manifest_trials(doc: dict, manifest_path: str) -> list[TrialRecord]:
    """The trials of a loaded manifest, with their gaze files parsed."""
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
    """Read ``subjective.csv``; a row that would skew the log ratios raises a GazeParseError naming its line.

    Depths and report values are positive and finite, the unit is one
    ``stats.veridicality.unit_to_meters`` knows, and no two rows share a
    participant, environment, depth and repetition.
    """
    out = []
    seen = {}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for line_no, row in enumerate(reader, start=2):
            if None in row or None in row.values():
                raise GazeParseError(f"expected {len(reader.fieldnames)} fields", path, line_no)
            try:
                value = float(row["report_value"])
                depth = float(row["depth_m"])
                rep = int(row["repetition"])
                unit = row["unit"]
            except (KeyError, ValueError) as exc:
                raise GazeParseError(f"bad subjective row: {exc}", path, line_no) from None
            for name, v in (("depth_m", depth), ("report_value", value)):
                if not 0.0 < v < math.inf:
                    raise GazeParseError(f"{name} must be positive and finite, got {v!r}", path, line_no)
            try:
                unit_to_meters(value, unit)
            except UnitError as exc:
                raise GazeParseError(str(exc), path, line_no) from None
            key = (row["participant_id"], row["environment"], depth, rep)
            if key in seen:
                raise GazeParseError(f"repeats the report of line {seen[key]}", path, line_no)
            seen[key] = line_no
            out.append(SubjectiveReport(row["participant_id"], row["environment"], depth, value, unit, rep))
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


def _map_sessions(fn, tasks: Sequence) -> list:
    """``list(map(fn, tasks))``, computed in forked worker processes, each taking one task at a time.

    The workers number ``min(len(tasks), len(os.sched_getaffinity(0)))``;
    below two, ``fn`` runs here, task by task. The workers are forked, so
    they start with this process's modules and need no import; ``fn`` and
    each task are pickled going in and each result coming back. Results
    are read in task order, so a failure raises the error of the first
    failing task in that order, after the queued tasks are cancelled and
    the running ones finished. A worker that dies (a signal, the OOM killer)
    raises ``ChildProcessError`` naming the sessions left unfinished. The
    pool lives for this call only, and no worker is left when it returns or
    raises.
    """
    # Without sched_getaffinity (macOS, Windows) there is no fork pool here.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(tasks), cpus)
    if workers < 2:
        return list(map(fn, tasks))
    import concurrent.futures.process
    import multiprocessing

    context = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(workers, mp_context=context) as pool:
        futures = [pool.submit(fn, task) for task in tasks]
        try:
            return [future.result() for future in futures]
        except concurrent.futures.process.BrokenProcessPool as exc:
            lost = [str(i + 1) for i, future in enumerate(futures) if isinstance(future.exception(), type(exc))]
            raise ChildProcessError(
                f"a worker process died, so sessions {', '.join(lost)} of {len(tasks)} were not done"
            ) from exc
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _write_session(task) -> SimulatedDataset:
    """Simulate one session and write its gaze files and manifest.

    ``task`` is ``(outdir, design, config, seed, p_index, e_index)``. Returns
    the session without its trials.
    """
    outdir, design, config, seed, p_index, e_index = task
    session = simulate_session(design, config, seed, p_index, e_index)
    (pid,), env = session.physiology, design.environments[e_index]
    gaze_dir = os.path.join(outdir, "gaze", f"{pid}_{env}")
    os.makedirs(gaze_dir, exist_ok=True)
    rel_files = []
    for t in session.trials:
        write_gaze_csv(os.path.join(gaze_dir, f"{t.trial_id}.csv"), t.samples)
        rel_files.append(os.path.join("..", "gaze", f"{pid}_{env}", f"{t.trial_id}.csv"))
    write_manifest(os.path.join(outdir, "manifests", f"{pid}_{env}.json"), session.trials, rel_files, design.depths_m)
    session.trials = []
    return session


def write_dataset(outdir: str, design: ExperimentDesign, config: CohortConfig, seed: int) -> int:
    """Simulate a cohort and write it; returns the number of trials written.

    ``config.json`` is written first. Each session is simulated and has its
    gaze files and manifest written by one task of ``_map_sessions``.
    ``subjective.csv`` and ``ledger.json`` come last, once every session is
    written, from the sessions merged in task order, the ledger's artifact
    entries written trial by trial from their ``TrialArtifacts``; a failure
    part way leaves the sessions written so far and neither of the two.
    """
    os.makedirs(os.path.join(outdir, "manifests"), exist_ok=True)
    write_json(os.path.join(outdir, "config.json"), {"design": design.to_dict(), "seed": seed})
    tasks = [
        (outdir, design, config, seed, p_index, e_index)
        for p_index in range(design.n_participants)
        for e_index in range(len(design.environments))
    ]
    merged = SimulatedDataset.merged(_map_sessions(_write_session, tasks))
    write_subjective_csv(os.path.join(outdir, "subjective.csv"), merged.subjective)
    write_json(os.path.join(outdir, "ledger.json"), merged.ledger(), precise=True)
    return len(merged.trial_truth)


def _dataset_sessions(datadir: str) -> list[list[tuple[str, dict]]]:
    """The ``(path, manifest)`` pairs under ``datadir/manifests``, grouped by (participant, environment) session.

    Every manifest is read here. The sessions come in sorted order, each
    holding its manifests in file-name order, so a session split across
    manifests is pooled as ``pipeline.preprocess_dataset`` pools every
    manifest's trials taken in file-name order.
    """
    mandir = os.path.join(datadir, "manifests")
    if not os.path.isdir(mandir):
        raise GazeParseError(f"no manifests directory under {datadir!r}", datadir)
    sessions: dict[tuple[str, str], list[tuple[str, dict]]] = {}
    for name in sorted(os.listdir(mandir)):
        if name.endswith(".json"):
            path = os.path.join(mandir, name)
            doc = load_manifest(path)
            sessions.setdefault((doc["participant_id"], doc["environment"]), []).append((path, doc))
    return [sessions[key] for key in sorted(sessions)]


def _process_session_files(manifests: list[tuple[str, dict]], config: PipelineConfig) -> list[ProcessedTrial]:
    """``pipeline.process_session`` on the trials of one session's manifests, with their gaze files parsed."""
    return process_session([t for path, doc in manifests for t in _manifest_trials(doc, path)], config)


def preprocess_dir(datadir: str, config: PipelineConfig) -> tuple[list[ProcessedTrial], ValidityReport]:
    """Clean the dataset under ``datadir`` as ``pipeline.preprocess_dataset`` cleans its trials.

    Each session's gaze files are parsed and cleaned by one worker of
    ``_map_sessions``, which returns only the session's rows; the rows are
    then sorted and counted by ``pipeline.collect_processed``.
    """
    sessions = _dataset_sessions(datadir)
    return collect_processed(_map_sessions(functools.partial(_process_session_files, config=config), sessions))
