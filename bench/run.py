"""vergescope benchmark: one workload per invocation, result JSON on the last line.

    python3 bench/run.py --workload cohort_cli --seed 7 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/`` next to
this directory. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` untraced and traced passes alternate and the metrics are the
per-layer ones, and every span is written to ``.bench_out/``. Metric names,
units and the workloads are described in ``bench/README.md``.
"""

from __future__ import annotations

import time

HARNESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 7
# Set-ups per untraced run; setup_s reports their median.
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _per_layer_specs() -> dict[str, str]:
    """Per-layer metric name -> unit, in report order."""
    # Row latency is reported here, from the traced run's untraced passes,
    # rather than gated. A vCPU of a shared host runs a stream row at one of
    # two speeds (about 42 us or about 70 us per row on a 2-vCPU KVM guest)
    # and switches between them every few tens of seconds, so a run's p50
    # and p99 follow the share of the run spent at the slow speed; between
    # runs of the same code they spread by more than any allowed bound.
    specs = {"row_latency_p50_us": "us", "row_latency_p99_us": "us"}
    for cmd in ("simulate", "preprocess", "fit", "analyze", "report"):
        specs[f"cli.{cmd}.s"] = "s"
    specs["cli.estimate.self_s"] = "s"
    for key in ("rows_in", "rows_out", "dropped_low_confidence", "dropped_other", "nan_meters"):
        specs[f"cli.estimate.{key}"] = "count"
    specs["cli.estimate.useful_ratio"] = "ratio"
    specs.update({
        "synth.simulate_cohort.s": "s",
        "synth.simulate_trial.s": "s",
        "synth.simulate_trial.calls": "count",
        "synth.samples": "count",
        "dataio.write_dataset.s": "s",
        "dataio.write_gaze_csv.s": "s",
        "dataio.write_gaze_csv.calls": "count",
        "dataio.write_json.s": "s",
        "dataio.write.bytes": "bytes",
        "dataio.write.mb_per_s": "MB/s",
        "dataio.load_dataset_trials.s": "s",
        "dataio.parse_gaze_csv.s": "s",
        "dataio.parse_gaze_csv.calls": "count",
        "dataio.parse.mb_per_s": "MB/s",
        "dataio.write_gva_table_csv.s": "s",
        "dataio.parse_gva_table_csv.s": "s",
        "recording.GazeSeries.calls": "count",
        "recording.GazeSeries.s": "s",
        "pipeline.preprocess_dataset.s": "s",
        "pipeline.process_session.s": "s",
        "pipeline.pool_efficiency": "ratio",
    })
    for fn in ("confidence_filter", "velocity_filter", "session_gva_stats", "outlier_filter",
               "detect_fixation_onset", "trial_mean_gva", "cascade_validity"):
        specs[f"pipeline.{fn}.s"] = "s"
    specs["pipeline.samples"] = "count"
    for reason in ("low_confidence", "velocity_spike", "outlier", "missing"):
        specs[f"pipeline.excluded.{reason}"] = "count"
    specs["pipeline.trials_valid_ratio"] = "ratio"
    specs.update({
        "calibration.fit_participants.s": "s",
        "calibration.estimate_depth.calls": "count",
        "calibration.estimate_depth.s": "s",
        "analysis.run_analysis.s": "s",
        "analysis.analyze_depth_environment.s": "s",
        "analysis.analyze_stability.s": "s",
        "analysis.analyze_veridicality.s": "s",
        "stats.ols_fit.calls": "count",
        "stats.ols_fit.s": "s",
        "stats.stepwise_refine.s": "s",
        "report.render_analysis.s": "s",
        "report.bytes": "bytes",
        "trace.overhead_s": "s",
        "setup.synth.simulate_cohort.s": "s",
        "setup.pipeline.preprocess_dataset.s": "s",
        "setup.calibration.fit_participants.s": "s",
    })
    return specs


PER_LAYER_UNITS = _per_layer_specs()


def _fail(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    raise SystemExit(2)


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "vergescope", "__init__.py")):
        _fail(f"no vergescope package under {SRC}; run from a full checkout of the repository")
    sys.path.insert(0, SRC)
    import vergescope

    if os.path.dirname(os.path.dirname(os.path.abspath(vergescope.__file__))) != SRC:
        _fail(f"imported vergescope from {vergescope.__file__}, not from {SRC}")
    import numpy

    return numpy


def _provenance(workload, seed: int, numpy_version: str, passes: int) -> dict:
    src_lines = 0
    for root, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "workload": workload.name,
        "seed": seed,
        "sizes": workload.sizes(),
        "passes": passes,
        "src_lines": src_lines,
    }


def _commit() -> str:
    """HEAD's commit id when the checkout is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mean_stages(passes) -> dict[str, float]:
    """Each stage's mean time over the passes, in pass order."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for stage, seconds in p.stages.items():
            times.setdefault(stage, []).append(seconds)
    return {stage: statistics.fmean(t) for stage, t in times.items()}


def _latencies(workload, passes, np) -> tuple[float, float, dict | None]:
    """Row latency p50 and p99 in us, and every pass's percentiles."""
    if passes[0].latencies_ns is None:
        # A batch hands every row over at pass start and has every row's
        # per-trial output at the same moment, so p50 = p99: the stages up
        # to the one that writes the per-trial table.
        mean = _mean_stages(passes)
        stages = list(mean)
        p = sum(mean[s] for s in stages[: stages.index(workload.table_stage) + 1]) * 1e6
        return p, p, None
    percentiles = {
        q: [float(np.percentile(p.latencies_ns, q)) / 1e3 for p in passes] for q in (5, 10, 25, 50, 75, 90, 99)
    }
    return statistics.fmean(percentiles[50]), statistics.fmean(percentiles[99]), percentiles


def _end_to_end(workload, setup_times, import_s, passes, peak_rss_mb, np) -> tuple[dict, dict]:
    # A pass's time is the sum of each stage's mean over the run (a stream
    # stage is one session), so all the work the run timed counts. A vCPU of
    # a shared host switches between a fast and a slow speed every few tens
    # of seconds: the fastest run depends on catching a fast stretch and the
    # median jumps with whichever speed held most of the run, while the mean
    # follows the share of each; see "Steadiness" in README.md. Every pass
    # and stage time is kept in the provenance block.
    wall = sum(_mean_stages(passes).values())
    _, _, percentiles = _latencies(workload, passes, np)
    values = {
        "setup_s": import_s + statistics.median(setup_times),
        "wall_s": wall,
        "samples_per_s": workload.samples / wall,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "import_s": import_s,
        "setup_times_s": setup_times,
        "wall_times_s": [p.wall_s for p in passes],
        "stage_times_s": [p.stages for p in passes],
        "latency_samples": sum(len(p.latencies_ns) for p in passes)
        if percentiles is not None
        else workload.samples * len(passes),
    }
    if percentiles is not None:
        extra["latency_percentiles_us"] = percentiles
    return values, extra


def _per_layer(workload, traced, untraced, setup_agg, np) -> dict:
    """Per-layer values: medians of per-pass times, and the first traced pass's counts."""

    def pass_values(agg, counts) -> dict:
        def get(name, key):
            return agg.get(name, {}).get(key, 0 if key in ("calls", "threads") else 0.0)

        counters = agg["_counters"]
        v = {}
        for metric in PER_LAYER_UNITS:
            if metric.startswith(("setup.", "trace.")) or metric in counts:
                continue
            base, _, key = metric.rpartition(".")
            if key in ("s", "self_s", "calls"):
                v[metric] = get(base, key)
        v.update(counts)
        write_s = counters.get("dataio.write.ns", 0) / 1e9
        parse_s = get("dataio.parse_gaze_csv", "s")
        v["synth.samples"] = counters.get("synth.samples", 0)
        v["dataio.write.bytes"] = counters.get("dataio.write.bytes", 0)
        v["dataio.write.mb_per_s"] = counters.get("dataio.write.bytes", 0) / 1e6 / write_s if write_s else 0.0
        v["dataio.parse.mb_per_s"] = counters.get("dataio.parse.bytes", 0) / 1e6 / parse_s if parse_s else 0.0
        v["report.bytes"] = counters.get("report.bytes", 0)
        pre = get("pipeline.preprocess_dataset", "s")
        threads = get("pipeline.process_session", "threads")
        v["pipeline.pool_efficiency"] = get("pipeline.process_session", "s") / (threads * pre) if threads and pre else 0.0
        return v

    per_pass = [pass_values(agg, result.counts) for agg, result in traced]
    values = {}
    for metric, unit in PER_LAYER_UNITS.items():
        if metric.startswith(("setup.", "trace.", "row_latency_")):
            continue
        column = [pv.get(metric, 0) for pv in per_pass]
        values[metric] = column[0] if unit in ("count", "bytes") else statistics.median(column)
    # Over the stages both sides ran: a short stream run traces other
    # sessions than it leaves untraced.
    traced_mean, untraced_mean = _mean_stages(r for _, r in traced), _mean_stages(untraced)
    values["trace.overhead_s"] = sum(
        traced_mean[k] - untraced_mean[k] for k in traced_mean.keys() & untraced_mean.keys()
    )
    values["row_latency_p50_us"], values["row_latency_p99_us"], _ = _latencies(workload, untraced, np)
    for metric in PER_LAYER_UNITS:
        if metric.startswith("setup."):
            values[metric] = setup_agg.get(metric[len("setup."):-len(".s")], {}).get("s", 0.0)
    # Defaults for layers a workload never reaches.
    for metric, unit in PER_LAYER_UNITS.items():
        values.setdefault(metric, 0 if unit in ("count", "bytes") else 0.0)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    np = _import_package()
    import_s = time.perf_counter() - HARNESS_START
    # The workloads pass the seed explicitly; the CLI's environment override
    # must not replace it.
    os.environ.pop("VERGESCOPE_SEED", None)

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from spans import Tracer
    from workloads import WORKLOADS, CheckLog

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        tracer = Tracer() if args.trace else None
        setup_times = []
        setup_agg = {}
        if tracer is None:
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - t0)
        else:
            tracer.install()
            mark = tracer.mark()
            workload.setup()
            setup_agg = tracer.aggregate(mark)
            tracer.uninstall()

        passes, traced, untraced = [], [], []
        start = time.perf_counter()
        index = 0
        # A traced run makes at least three passes (untraced, traced,
        # untraced), so the untraced side has a warm pass like the traced one.
        min_passes = workload.min_passes if tracer is None else max(workload.min_passes, 3)
        while index < min_passes or time.perf_counter() - start < args.seconds:
            trace_this = tracer is not None and index % 2 == 1
            if trace_this:
                tracer.install()
                mark = tracer.mark()
            try:
                result = workload.run_pass(index)
            finally:
                if trace_this:
                    tracer.uninstall()
            passes.append(result)
            if result.failed:
                break
            if trace_this:
                traced.append((tracer.aggregate(mark), result))
            elif tracer is not None:
                untraced.append(result)
            index += 1

        # Taken before the checks, which build their own copies of the inputs.
        peak_rss_mb = _peak_rss_mb()
        log = CheckLog()
        if not any(p.failed for p in passes):
            workload.check(log)
        attempted = sum(p.attempted for p in passes) + len(log.results)
        failed = sum(p.failed for p in passes) + log.failed + log.failed_rows
        errors = [e for p in passes for e in p.errors]

        provenance = _provenance(workload, args.seed, np.__version__, len(passes))
        completed = [p for p in passes if not p.failed]
        if not completed:
            values, units = {}, END_TO_END_UNITS
        elif tracer is None:
            values, extra = _end_to_end(workload, setup_times, import_s, completed, peak_rss_mb, np)
            units = END_TO_END_UNITS
            provenance.update(extra)
        elif traced and untraced:
            values = _per_layer(workload, traced, untraced, setup_agg, np)
            units = PER_LAYER_UNITS
            spans_path = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.csv.gz")
            provenance["spans_file"] = os.path.relpath(spans_path, ROOT)
            provenance["spans"] = tracer.write(spans_path)
            provenance["absent_functions"] = tracer.absent
        else:
            # A failed pass before the first traced one leaves nothing to report.
            values, units = {}, PER_LAYER_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    provenance["checks"] = log.results
    provenance["errors"] = errors
    provenance["error_rate"] = failed / attempted if attempted else 1.0
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, value in values.items():
        print(f"{name} = {value} {units[name]}")
    print(f"error_rate = {provenance['error_rate']} ratio ({failed} failed of {attempted} attempted)")
    correct = failed == 0 and all(r["ok"] for r in log.results) and bool(values)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
