"""Command-line interface: simulate | preprocess | fit | analyze | estimate | report.

Every subcommand is a deterministic function of its inputs, flags, and seed;
failures exit nonzero with a one-line JSON error object on stderr. The
VERGESCOPE_SEED environment variable overrides --seed when set. ``estimate``
reads stdin with the gaze-file reader ``dataio.read_gaze_rows`` and pushes the
rows through ``calibration.DepthStream``: each row as it arrives with --stream
(a one-row push gives the array kernel's bits), otherwise blocks of 4,096 rows.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from . import dataio
from .analysis import condition_means, run_analysis
from .calibration import DepthStream, fit_participants
from .errors import DomainError, GazeParseError, UsageError, VergescopeError
from .pipeline import PipelineConfig
from .report import render_analysis
from .synth import CohortConfig, ExperimentDesign

# Rows per DepthStream push when ``estimate`` runs without --stream.
ESTIMATE_BLOCK_ROWS = 4096


def _effective_seed(args) -> int:
    env = os.environ.get("VERGESCOPE_SEED")
    if env is not None:
        return int(env)
    return args.seed


def _load_json_object(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise GazeParseError(f"expected a JSON object at the top level, got {type(doc).__name__}", path)
    return doc


def _cmd_simulate(args) -> int:
    design = ExperimentDesign()
    cohort = CohortConfig()
    if args.design:
        doc = _load_json_object(args.design)
        blocks = [doc[key] for key in ("design", "cohort") if key in doc]
        if not blocks or not all(isinstance(block, dict) for block in blocks):
            raise GazeParseError('expected a "design" and/or a "cohort" object', args.design)
        try:
            design = ExperimentDesign.from_dict(doc.get("design", {}))
            cohort = CohortConfig.from_dict(doc.get("cohort", {}))
        except (TypeError, DomainError) as exc:
            raise GazeParseError(f"bad design file: {exc}", args.design) from None
    n_trials = dataio.write_dataset(args.out, design, cohort, _effective_seed(args))
    print(f"wrote {n_trials} trials for {design.n_participants} participants to {args.out}")
    return 0


def _cmd_preprocess(args) -> int:
    config = PipelineConfig(
        confidence_threshold=args.confidence,
        max_velocity_deg_s=args.max_velocity,
        outlier_k_sd=args.sd_k,
        outlier_scope=args.sd_scope,
    )
    processed, validity = dataio.preprocess_dir(args.indir, config)
    outdir = args.out or args.indir
    os.makedirs(outdir, exist_ok=True)
    table_path = os.path.join(outdir, "gva_table.csv")
    report_path = os.path.join(outdir, "validity_report.json")
    dataio.write_gva_table_csv(table_path, processed)
    dataio.write_json(report_path, validity.to_dict())
    print(
        f"{validity.n_valid_trials}/{validity.n_trials} valid trials, "
        f"{validity.percent_excluded:.2f}% samples excluded -> {table_path}"
    )
    return 0


def _cmd_fit(args) -> int:
    rows = dataio.parse_gva_table_csv(args.gva_table)
    cells_rows = [r for r in rows if r.valid]
    if not cells_rows:
        raise VergescopeError("no valid trials in the table")
    models = fit_participants(condition_means(cells_rows), by_environment=args.per_environment)
    dataio.write_models_json(args.out, models)
    print(f"fitted {len(models)} model(s) -> {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    if args.logratio and not args.subjective:
        raise VergescopeError("--logratio requires --subjective <csv>")
    rows = dataio.parse_gva_table_csv(args.gva_table)
    models = dataio.load_models_json(args.models) if args.models else None
    subjective = dataio.parse_subjective_csv(args.subjective) if args.logratio else None
    report = run_analysis(
        rows,
        models=models,
        include_normalized=args.normalized,
        include_stability=args.stability,
        subjective=subjective,
        criterion=args.criterion,
        alpha=args.alpha,
        min_valid_trials_per_pair=args.min_pair_trials,
        min_valid_pairs_per_environment=args.min_env_pairs,
        required_valid_environments=args.min_environments,
    )
    dataio.write_json(args.out, report)
    print(f"analysis report -> {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    models = dataio.load_models_json(args.model)
    if args.participant:
        if args.participant not in models:
            raise VergescopeError(f"no model for participant {args.participant!r}")
        model = models[args.participant]
    elif len(models) == 1:
        model = next(iter(models.values()))
    else:
        raise VergescopeError(f"model file holds {len(models)} models; pass --participant")

    stream = DepthStream(model, args.confidence, args.max_velocity)
    block_rows = 1 if args.stream else ESTIMATE_BLOCK_ROWS
    pending: list[list[float]] = []
    out = sys.stdout

    def drain() -> None:
        for t, gva, meters in stream.push(pending):
            out.write(f"{t!r},{gva!r},{meters!r}\n")
            if args.stream:
                out.flush()
        pending.clear()

    if isinstance(sys.stdin, io.TextIOWrapper):
        sys.stdin.reconfigure(newline=None)  # lines end at a lone CR too, as in a gaze file
    try:
        for row in dataio.read_gaze_rows(sys.stdin, "<stdin>"):
            pending.append(row)
            if len(pending) == block_rows:
                drain()
    except GazeParseError:
        drain()  # the rows before a bad line are written before its error
        raise
    drain()
    return 0


def _cmd_report(args) -> int:
    analysis = _load_json_object(args.analysis)
    try:
        written = render_analysis(analysis, args.out)
    except (AttributeError, LookupError, TypeError, ValueError, ArithmeticError) as exc:
        # Rendering does no arithmetic or lookup that a well-formed analysis can fail.
        raise GazeParseError(f"malformed analysis: {type(exc).__name__}: {exc}", args.analysis) from None
    print(f"wrote {len(written)} file(s) to {args.out}")
    return 0


def _bounded(kind, ok, rule: str):
    """An argparse type: ``kind(text)``, refused unless ``ok`` holds for it (NaN never passes)."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
        return value

    parse.__name__ = kind.__name__
    return parse


_FRACTION = _bounded(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_POSITIVE = _bounded(float, lambda v: v > 0.0, "a number above 0")
_ALPHA = _bounded(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
_COUNT = _bounded(int, lambda v: v >= 0, "a count of 0 or more")


class _Parser(argparse.ArgumentParser):
    """Raises usage errors for ``main`` to report instead of printing usage and exiting."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vergescope",
        description="Depth from binocular gaze vergence: simulation, cleaning, calibration, analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = PipelineConfig()

    p = sub.add_parser("simulate", help="generate a synthetic cohort dataset")
    p.add_argument("--design", help="JSON file with 'design' and optional 'cohort' blocks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("preprocess", help="clean a dataset into a per-trial table")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--confidence", type=_FRACTION, default=defaults.confidence_threshold)
    p.add_argument("--max-velocity", type=_POSITIVE, default=defaults.max_velocity_deg_s)
    p.add_argument("--sd-k", type=_POSITIVE, default=defaults.outlier_k_sd)
    p.add_argument("--sd-scope", choices=["session", "trial"], default=defaults.outlier_scope)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("fit", help="fit per-participant calibration models")
    p.add_argument("--gva-table", required=True)
    p.add_argument("--per-environment", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("analyze", help="run the regression analyses over a table")
    p.add_argument("--gva-table", required=True)
    p.add_argument("--models", default=None)
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--stability", action="store_true")
    p.add_argument("--logratio", action="store_true")
    p.add_argument("--subjective", default=None)
    p.add_argument("--criterion", choices=["f_test", "aic"], default="f_test")
    p.add_argument("--alpha", type=_ALPHA, default=0.05)
    p.add_argument("--min-pair-trials", type=_COUNT, default=3, help="valid trials required per depth pair")
    p.add_argument("--min-env-pairs", type=_COUNT, default=6, help="valid pairs required per environment")
    p.add_argument("--min-environments", type=_COUNT, default=3, help="valid environments required per participant")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("estimate", help="stream depth estimates for gaze rows on stdin")
    p.add_argument("--model", required=True)
    p.add_argument("--participant", default=None)
    p.add_argument("--stream", action="store_true",
                   help="process and flush each row as it arrives; without it, rows are processed in blocks of 4,096")
    p.add_argument("--confidence", type=_FRACTION, default=defaults.confidence_threshold)
    p.add_argument("--max-velocity", type=_POSITIVE, default=defaults.max_velocity_deg_s)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("report", help="render SVG plots and text tables from an analysis")
    p.add_argument("--analysis", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (VergescopeError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}) + "\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
