"""Span recorder that wraps vergescope's public functions from outside the package.

The traced run patches every ``vergescope.*`` namespace that binds a listed
function (``cli`` imports ``preprocess_dataset`` by name, ``analysis`` and
``calibration`` import ``ols_fit`` by name), so a call is recorded whichever
binding the caller used. ``GazeSeries`` is a class: its ``__init__`` is wrapped.
Nothing under ``src/`` is edited; the patches are undone after each pass.

A span is ``(id, name, start_ns, end_ns, parent, thread)``. The parent is the
innermost open span on the same thread; a span opened on a worker thread with
nothing open there gets the innermost span open on the thread that installed
the tracer (``preprocess_dataset`` for its pool's ``process_session`` calls).
Self time subtracts only children on the span's own thread, so pool work is
never subtracted from the span that waits for it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import os
import sys
import threading
import time
from array import array
from collections import defaultdict

# (layer, module, attribute). The span is named "<layer>.<attribute>", except
# cli.main, whose span is named after the subcommand ("cli.estimate").
TRACED = (
    ("cli", "vergescope.cli", "main"),
    ("synth", "vergescope.synth", "simulate_cohort"),
    ("synth", "vergescope.synth", "simulate_trial"),
    ("dataio", "vergescope.dataio", "write_dataset"),
    ("dataio", "vergescope.dataio", "write_gaze_csv"),
    ("dataio", "vergescope.dataio", "write_json"),
    ("dataio", "vergescope.dataio", "load_dataset_trials"),
    ("dataio", "vergescope.dataio", "parse_gaze_csv"),
    ("dataio", "vergescope.dataio", "write_gva_table_csv"),
    ("dataio", "vergescope.dataio", "parse_gva_table_csv"),
    ("recording", "vergescope.recording", "GazeSeries"),
    ("pipeline", "vergescope.pipeline", "preprocess_dataset"),
    ("pipeline", "vergescope.pipeline", "process_session"),
    ("pipeline", "vergescope.pipeline", "confidence_filter"),
    ("pipeline", "vergescope.pipeline", "velocity_filter"),
    ("pipeline", "vergescope.pipeline", "session_gva_stats"),
    ("pipeline", "vergescope.pipeline", "outlier_filter"),
    ("pipeline", "vergescope.pipeline", "detect_fixation_onset"),
    ("pipeline", "vergescope.pipeline", "trial_mean_gva"),
    ("pipeline", "vergescope.pipeline", "cascade_validity"),
    ("calibration", "vergescope.calibration", "fit_participants"),
    ("calibration", "vergescope.calibration", "estimate_depth"),
    ("analysis", "vergescope.analysis", "run_analysis"),
    ("analysis", "vergescope.analysis", "analyze_depth_environment"),
    ("analysis", "vergescope.analysis", "analyze_stability"),
    ("analysis", "vergescope.analysis", "analyze_veridicality"),
    ("stats", "vergescope.stats.linmod", "ols_fit"),
    ("stats", "vergescope.stats.linmod", "stepwise_refine"),
    ("report", "vergescope.report", "render_analysis"),
)


def _tree_bytes(path: str) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def _written_bytes(args, result) -> int:
    return _tree_bytes(args[0])


def _parsed_bytes(args, result) -> int:
    return os.path.getsize(args[0])


def _simulated_samples(args, result) -> int:
    return len(result[0].samples)


def _rendered_bytes(args, result) -> int:
    return sum(os.path.getsize(p) for p in result)


# Counters fed from a wrapped call's arguments and result:
# span name -> (counter name, function, outermost-writer-only). Outermost
# writers also add their duration to "dataio.write.ns", so bytes and time of
# nested writers (write_dataset -> write_gaze_csv) are each counted once.
COUNTERS = {
    "dataio.write_dataset": ("dataio.write.bytes", _written_bytes, True),
    "dataio.write_gaze_csv": ("dataio.write.bytes", _written_bytes, True),
    "dataio.write_json": ("dataio.write.bytes", _written_bytes, True),
    "dataio.write_gva_table_csv": ("dataio.write.bytes", _written_bytes, True),
    "dataio.parse_gaze_csv": ("dataio.parse.bytes", _parsed_bytes, False),
    "synth.simulate_trial": ("synth.samples", _simulated_samples, False),
    "report.render_analysis": ("report.bytes", _rendered_bytes, False),
}


class Tracer:
    """Records spans and counters while installed; keeps everything in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One flat array of 6-field records, appended under a lock so records
        # from pool threads never interleave.
        self._records = array("q")
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack: list = []
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._threads: dict[int, int] = {}

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def _thread_id(self) -> int:
        ident = threading.get_ident()
        tid = self._threads.get(ident)
        if tid is None:
            with self._lock:
                tid = self._threads.setdefault(ident, len(self._threads))
        return tid

    def _call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:
            root = self._root_stack
            parent = root[-1][0] if root else -1
        sid = next(self._ids)
        stack.append((sid, name))
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            record = (sid, self._name_id(name), start, end, parent, self._thread_id())
            with self._lock:
                self._records.extend(record)
        counter = COUNTERS.get(name)
        if counter is not None:
            key, count, outermost_only = counter
            if not (outermost_only and any(n.startswith("dataio.write_") for _, n in stack)):
                value = count(args, result)
                with self._lock:
                    self.counters[key] += value
                    if outermost_only:
                        self.counters["dataio.write.ns"] += end - start
        return result

    def _wrap(self, name: str, fn):
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, fn, args, kwargs)

        return wrapper

    def _wrap_cli_main(self, fn):
        call = self._call

        @functools.wraps(fn)
        def wrapper(argv=None, *args, **kwargs):
            command = argv[0] if argv else "main"
            return call(f"cli.{command}", fn, (argv,) + args, kwargs)

        return wrapper

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Patch every listed function in every vergescope namespace binding it."""
        self._root_stack = self._stack()
        self.absent = []
        modules = [m for n, m in sorted(sys.modules.items()) if n == "vergescope" or n.startswith("vergescope.")]
        for layer, modname, attr in TRACED:
            name = f"{layer}.{attr}"
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            if isinstance(original, type):
                init = original.__dict__.get("__init__")
                if init is None:
                    self.absent.append(name)
                    continue
                self._patch(original, "__init__", self._wrap(name, init))
                continue
            wrapper = self._wrap_cli_main(original) if name == "cli.main" else self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- reading -------------------------------------------------------
    def mark(self) -> tuple[int, dict[str, int]]:
        """A position to aggregate from: (records so far, counters so far)."""
        return len(self._records) // 6, dict(self.counters)

    def spans(self, start: int = 0) -> list[tuple[int, ...]]:
        r = self._records
        return [tuple(r[6 * i : 6 * i + 6]) for i in range(start, len(r) // 6)]

    def self_times(self, spans) -> dict[int, int]:
        """Span id -> self time in ns: its duration minus same-thread children."""
        out = {}
        thread_of = {}
        for sid, _nid, start, end, _parent, thread in spans:
            out[sid] = end - start
            thread_of[sid] = thread
        for sid, _nid, start, end, parent, thread in spans:
            if parent in out and thread_of[parent] == thread:
                out[parent] -= end - start
        return out

    def aggregate(self, since: tuple[int, dict[str, int]]) -> dict[str, dict[str, float]]:
        """Per span name over the records after ``since``: calls, s, self_s, threads."""
        first, counters_before = since
        spans = self.spans(first)
        selfs = self.self_times(spans)
        agg: dict[str, dict[str, float]] = {}
        threads: dict[str, set[int]] = defaultdict(set)
        for sid, nid, start, end, _parent, thread in spans:
            name = self.names[nid]
            a = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            a["calls"] += 1
            a["s"] += (end - start) / 1e9
            a["self_s"] += selfs[sid] / 1e9
            threads[name].add(thread)
        for name, a in agg.items():
            a["threads"] = len(threads[name])
        counts = {k: v - counters_before.get(k, 0) for k, v in self.counters.items()}
        agg["_counters"] = counts
        return agg

    def write(self, path: str) -> int:
        """Write every span as gzip CSV; returns the number written."""
        spans = self.spans()
        selfs = self.self_times(spans)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start_ns,end_ns,parent,thread,self_ns\n")
            names = self.names
            fh.writelines(
                f"{sid},{names[nid]},{start},{end},{parent},{thread},{selfs[sid]}\n"
                for sid, nid, start, end, parent, thread in spans
            )
        return len(spans)
