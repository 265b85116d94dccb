"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
summary lines. Heavy synthetic batches are shared through session fixtures;
all seeds are fixed so every number here is reproducible.
"""

import json
import math
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np
import pytest

from vergescope.analysis import condition_means, run_analysis
from vergescope.calibration import estimate_depth, fit_participant
from vergescope.errors import CalibrationRangeError
from vergescope.geometry import ideal_vergence
from vergescope.pipeline import (
    cascade_validity,
    confidence_filter,
    outlier_filter,
    preprocess_dataset,
    session_gva_stats,
    velocity_filter,
)
from vergescope.recording import SampleStatus
from vergescope.stats import classify_p, f_test_from_r2, ols_fit, stepwise_refine
from vergescope.synth import (
    CohortConfig,
    EnvironmentEffect,
    ExperimentDesign,
    NoiseModel,
    simulate_cohort,
)

ACCEPTANCE_SEED = 20260811
BATCH_SEEDS = list(range(100, 120))
IPD = 0.0648


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


# ---------------------------------------------------------------- criterion 1


def test_c01_geometry_oracle():
    started = time.perf_counter()
    printed = {0.25: 14.768, 0.75: 4.948, 1.50: 2.475, 4.0: 0.928}
    for depth, shown in printed.items():
        left_eye = np.array([-IPD / 2, 0.0, 0.0])
        right_eye = np.array([IPD / 2, 0.0, 0.0])
        target = np.array([0.0, 0.0, depth])
        ld, rd = target - left_eye, target - right_eye
        brute = math.degrees(
            math.acos(ld @ rd / (np.linalg.norm(ld) * np.linalg.norm(rd)))
        )
        value = ideal_vergence(depth, IPD)
        assert abs(value - brute) < 1e-6, f"brute-force mismatch at {depth} m"
        assert abs(value - shown) <= 1e-3, f"printed-value mismatch at {depth} m"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(f"criterion 1 PASS geometry oracle at 4 depths, {elapsed*1e3:.0f} ms")


# ---------------------------------------------------------------- criterion 2

F_TABLE_CASES = [
    # (label, r2_small, df_small, r2_large, df_large, r2_complete, df_complete, f, p_class)
    ("depth-env cm vs fm", 0.0839, 154, 0.0876, 150, 0.0876, 150, 0.2, "n.s."),
    ("depth-env fm vs rm", 0.0, 155, 0.0839, 154, 0.0876, 150, 13.8, "<0.001"),
    ("normalized cm vs fm", 0.6772, 152, 0.6797, 150, 0.6797, 150, 0.6, "n.s."),
    ("normalized fm vs rm", 0.6513, 154, 0.6772, 152, 0.6797, 150, 6.1, "<0.01"),
    ("stability cm1 vs cm2", 0.6135, 453, 0.6188, 441, 0.6188, 441, 0.5, "n.s."),
    ("stability cm2 vs fm", 0.6066, 459, 0.6135, 453, 0.6188, 441, 1.3, "n.s."),
    ("stability fm vs rm", 0.5828, 461, 0.6066, 459, 0.6188, 441, 13.8, "<0.001"),
    ("raw stability cm vs fm", 0.091, 461, 0.096, 441, 0.096, 441, 0.1, "n.s."),
    ("raw stability fm vs rm", 0.0, 464, 0.091, 461, 0.096, 441, 14.8, "<0.001"),
    ("log-ratio cm vs fm", 0.20, 204, 0.201, 200, 0.201, 200, 0.1, "n.s."),
    ("log-ratio fm vs rm", 0.1736, 206, 0.20, 204, 0.201, 200, 3.3, "<0.05"),
]


def test_c02_f_table_reproduction():
    started = time.perf_counter()
    for label, r2s, dfs, r2l, dfl, r2c, dfc, f_printed, p_class in F_TABLE_CASES:
        _, f, p = f_test_from_r2(r2s, dfs, r2l, dfl, r2c, dfc)
        assert abs(f - f_printed) <= 0.1, f"{label}: F {f:.3f} vs printed {f_printed}"
        assert classify_p(p) == p_class, f"{label}: p {p:.4f} classified {classify_p(p)} != {p_class}"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(f"criterion 2 PASS {len(F_TABLE_CASES)} published F rows reproduced, {elapsed*1e3:.0f} ms")


# ---------------------------------------------------------------- criterion 3


def test_c03_variance_attribution():
    def share(hi, lo, den):
        return round(100.0 * (hi - lo) / den, 1)

    # depth-environment footer
    assert share(0.0839, 0.0, 0.0876) == 95.8
    assert share(0.0876, 0.0839, 0.0876) == 4.2
    # normalized footer
    assert share(0.6513, 0.0, 0.6772) == 96.2
    assert share(0.6772, 0.6513, 0.6772) == 3.8
    # stability footer
    assert share(0.5828, 0.0, 0.6188) == 94.2
    assert share(0.6135, 0.5828, 0.6135) == 5.0
    assert share(0.6188, 0.6135, 0.6188) == 0.9
    # log-ratio footer
    assert share(0.1736, 0.0, 0.201) == 86.4
    assert share(0.20, 0.1736, 0.20) == 13.2
    assert share(0.201, 0.20, 0.201) == 0.5
    report("criterion 3 PASS all 10 attribution footer percentages exact to one decimal")


# ---------------------------------------------------------------- criterion 4


def test_c04_log_ratio_and_correlation_arithmetic():
    assert round(math.exp(0.16), 2) == 1.17
    assert round(math.exp(0.32), 3) == 1.377
    assert round(math.exp(-0.03), 4) == 0.9704
    assert round(math.exp(-0.05), 4) == 0.9512
    for r, pct in ((0.624, 39.0), (0.762, 58.1), (0.506, 25.6)):
        assert abs(100.0 * r * r - pct) <= 0.1
    report("criterion 4 PASS log-ratio factors and r->r^2 conversions reproduced")


# ------------------------------------------------------- criteria 5 and 6


def paper_cohort_config() -> CohortConfig:
    return CohortConfig(
        noise=NoiseModel.quiet(sample_noise_sd_deg=0.6, direction_noise_sd_deg=0.02)
    )


def run_cohort(seed: int) -> dict:
    ds = simulate_cohort(ExperimentDesign(), paper_cohort_config(), seed=seed)
    processed, _ = preprocess_dataset(ds.trials)
    rep = run_analysis(processed, include_normalized=True, include_stability=True)
    return {
        "n_trials": len(ds.trials),
        "raw_formula": rep["depth_environment"]["fitted_formula"],
        "normalized_formula": rep["normalized"]["fitted_formula"],
        "ar_offset": rep["environment_offsets"]["differences_deg"]["AR-Real"],
        "vr_offset": rep["environment_offsets"]["differences_deg"]["VR-Real"],
        "switch_share_percent": rep["stability"]["attribution"].get("switch_depth", math.nan),
        "switch_retained": rep["stability"]["switch_depth_retained"]
        or "switch_depth_d" in rep["stability_raw"]["fitted_formula"],
    }


@pytest.fixture(scope="session")
def seed_batch():
    started = time.perf_counter()
    designated = run_cohort(ACCEPTANCE_SEED)
    designated_elapsed = time.perf_counter() - started
    batch = [run_cohort(seed) for seed in BATCH_SEEDS]
    return designated, designated_elapsed, batch


def test_c05_end_to_end_replication(seed_batch):
    designated, elapsed, batch = seed_batch
    assert designated["n_trials"] == 13 * 3 * 72 == 2808
    assert elapsed < 60.0, f"full-design run took {elapsed:.1f}s"
    assert designated["raw_formula"] == "gva ~ end_depth_d"
    assert designated["normalized_formula"] == "gva ~ end_depth_d + environment"
    ar = float(np.mean([b["ar_offset"] for b in batch]))
    vr = float(np.mean([b["vr_offset"] for b in batch]))
    assert abs(ar - (-0.8)) <= 0.3, f"AR offset {ar:.3f}"
    assert abs(vr - (-1.3)) <= 0.3, f"VR offset {vr:.3f}"
    n_raw = sum(b["raw_formula"] == "gva ~ end_depth_d" for b in batch)
    n_norm = sum(b["normalized_formula"] == "gva ~ end_depth_d + environment" for b in batch)
    report(
        "criterion 5 PASS 2808-trial run in "
        f"{elapsed:.1f}s; raw model 'gva ~ end_depth_d', normalized adds environment "
        f"({n_raw}/20 and {n_norm}/20 seeds agree); offsets over 20 seeds: AR {ar:+.3f}, VR {vr:+.3f}"
    )


def test_c06_vergence_stability(seed_batch):
    designated, _, batch = seed_batch
    shares = [b["switch_share_percent"] for b in batch] + [designated["switch_share_percent"]]
    mean_share = float(np.mean(shares))
    assert mean_share < 2.0
    assert max(shares) < 2.0
    assert not designated["switch_retained"]
    assert not any(b["switch_retained"] for b in batch)
    report(
        f"criterion 6 PASS switching-depth share mean {mean_share:.4f}% (max {max(shares):.4f}%), "
        "never retained by stepwise in 21 runs"
    )


# ---------------------------------------------------------------- criterion 7


def scoring_cohort():
    design = ExperimentDesign(n_participants=3, repetitions=2)
    config = CohortConfig(
        slope_sd_deg_per_d=0.0,
        noise=NoiseModel(
            sample_noise_sd_deg=0.15,
            direction_noise_sd_deg=0.02,
            dropout_rate=0.03,
            spike_rate=0.004,
            outlier_rate=0.004,
            spike_magnitude_deg=40.0,
            outlier_magnitude_deg=15.0,
        ),
    )
    return simulate_cohort(design, config, seed=77)


def test_c07_filter_scoring_and_gates():
    ds = scoring_cohort()
    true_by_kind = defaultdict(set)
    for tag in ds.artifacts:
        true_by_kind[tag.kind].add((tag.participant_id, tag.environment, tag.trial_id, round(tag.t_s, 9)))
    sessions = defaultdict(list)
    for t in ds.trials:
        sessions[(t.participant_id, t.environment)].append(t)
    predicted = defaultdict(set)
    status_to_kind = (
        (SampleStatus.LOW_CONFIDENCE, "dropout"),
        (SampleStatus.VELOCITY_SPIKE, "spike"),
        (SampleStatus.OUTLIER, "outlier"),
    )
    for _, trials in sorted(sessions.items()):
        filtered = [velocity_filter(confidence_filter(t)) for t in trials]
        stats = session_gva_stats(filtered)
        for t in (outlier_filter(t, stats=stats) for t in filtered):
            for status, kind in status_to_kind:
                for i in np.flatnonzero(t.samples.status == status):
                    predicted[kind].add(
                        (t.participant_id, t.environment, t.trial_id, round(float(t.samples.t_s[i]), 9))
                    )
    scores = {}
    for kind in ("dropout", "spike", "outlier"):
        tp = len(predicted[kind] & true_by_kind[kind])
        assert true_by_kind[kind], f"no injected {kind} artifacts"
        precision = tp / len(predicted[kind])
        recall = tp / len(true_by_kind[kind])
        assert precision == 1.0 and recall == 1.0, f"{kind}: P={precision} R={recall}"
        scores[kind] = len(true_by_kind[kind])

    # artifact-free noiseless data: nothing excluded
    clean = simulate_cohort(
        ExperimentDesign(n_participants=2, repetitions=1),
        CohortConfig(noise=NoiseModel.quiet()),
        seed=5,
    )
    _, validity = preprocess_dataset(clean.trials)
    assert validity.percent_excluded == 0.0
    assert validity.n_valid_trials == validity.n_trials

    # boundary semantics of the three gates on constructed cases
    from test_pipeline import processed_stub

    design = ExperimentDesign()

    def participant(pid, env_pairs):
        trials = []
        for env, n_ok in env_pairs.items():
            for j, pair in enumerate(design.depth_pairs):
                trials.extend(processed_stub(pid, env, pair, valid=3 if j < n_ok else 2))
        return trials

    r = cascade_validity(processed_stub("x", "Real", (0.25, 0.75), valid=3))
    assert r.participants["x"]["environments"]["Real"]["pairs"]["0.25->0.75"]["valid"]
    r = cascade_validity(processed_stub("x", "Real", (0.25, 0.75), valid=2))
    assert not r.participants["x"]["environments"]["Real"]["pairs"]["0.25->0.75"]["valid"]
    r = cascade_validity(participant("x", {"Real": 6}))
    assert r.participants["x"]["environments"]["Real"]["valid"]
    r = cascade_validity(participant("x", {"Real": 5}))
    assert not r.participants["x"]["environments"]["Real"]["valid"]
    r = cascade_validity(participant("x", {"Real": 12, "AR": 12, "VR": 5}))
    assert r.retained_participants == []
    r = cascade_validity(participant("x", {"Real": 12, "AR": 12, "VR": 6}))
    assert r.retained_participants == ["x"]

    report(
        "criterion 7 PASS precision=recall=1.0 for "
        + ", ".join(f"{k} (n={n})" for k, n in scores.items())
        + "; noiseless cohort 0% excluded; 3/6, 6/12, 3/3 gate boundaries exact"
    )


# ---------------------------------------------------------------- criterion 8


def test_c08_calibration_round_trip():
    # Exact-response cohort: the fitted line must equal the ledger line and
    # the inversion must return the four design depths.
    design = ExperimentDesign(n_participants=3, repetitions=1)
    config = CohortConfig(
        response_mode="linear",
        noise=NoiseModel.quiet(),
        environment=EnvironmentEffect.none(),
    )
    ds = simulate_cohort(design, config, seed=8)
    processed, _ = preprocess_dataset(ds.trials)
    ledger = ds.ledger_dict()["participants"]
    worst_line = 0.0
    worst_depth = 0.0
    for pid, entry in ledger.items():
        rows = [p for p in processed if p.participant_id == pid]
        cells = condition_means(rows)
        model = fit_participant([(c.end_depth_d, c.gva_deg) for c in cells], pid)
        worst_line = max(
            worst_line,
            abs(model.intercept_deg - entry["intercept_implied_deg"]),
            abs(model.slope_deg_per_d - entry["slope_implied_deg_per_d"]),
        )
        for depth in design.depths_m:
            gva = next(c.gva_deg for c in cells if abs(c.end_depth_m - depth) < 1e-9)
            _, meters = estimate_depth(gva, model)
            worst_depth = max(worst_depth, abs(meters - depth) / depth)
    assert worst_line < 1e-9, f"line recovery off by {worst_line:.2e}"
    assert worst_depth < 1e-3, f"depth recovery off by {100*worst_depth:.4f}%"

    # Noisy envelope: tracker-grade angle noise, per-seed mean recovery.
    seed_means = {d: [] for d in (0.25, 0.75, 1.5, 4.0)}
    trial_envelope = {d: 0.0 for d in seed_means}
    flagged = 0
    for seed in range(300, 310):
        noisy = simulate_cohort(
            ExperimentDesign(n_participants=1),
            CohortConfig(
                noise=NoiseModel.quiet(sample_noise_sd_deg=0.6, direction_noise_sd_deg=0.02),
                environment=EnvironmentEffect.none(),
            ),
            seed=seed,
        )
        processed, _ = preprocess_dataset(noisy.trials)
        cells = condition_means(processed)
        model = fit_participant([(c.end_depth_d, c.gva_deg) for c in cells], "p01")
        for depth in seed_means:
            errs = []
            for p in processed:
                if p.valid and abs(p.end_depth_m - depth) < 1e-9:
                    try:
                        _, meters = estimate_depth(p.gva_mean_deg, model)
                    except CalibrationRangeError:
                        flagged += 1
                        continue
                    errs.append(abs(meters - depth) / depth)
            seed_means[depth].append(float(np.mean(errs)))
            trial_envelope[depth] = max(trial_envelope[depth], max(errs))
    assert max(seed_means[0.25]) <= 0.02, f"0.25 m per-seed error {max(seed_means[0.25]):.4f}"
    assert max(seed_means[4.0]) <= 0.35, f"4 m per-seed error {max(seed_means[4.0]):.4f}"
    envelope = ", ".join(
        f"{d}m: seed-mean<={100*max(seed_means[d]):.2f}% trial<={100*trial_envelope[d]:.1f}%"
        for d in sorted(seed_means)
    )
    report(
        "criterion 8 PASS exact cohort line recovery "
        f"{worst_line:.1e} deg, depth {100*worst_depth:.2e}%; noisy envelope over 10 seeds "
        f"({envelope}; {flagged} out-of-range flags) - error grows as 1/D"
    )


# ---------------------------------------------------------------- criterion 9


def test_c09_statistics_core():
    rng = np.random.default_rng(909)
    # OLS vs brute-force normal equations
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(8, 21))
        k = int(rng.integers(1, 5))
        cols = {f"x{j}": rng.normal(size=n) for j in range(k)}
        x = np.column_stack([np.ones(n)] + list(cols.values()))
        y = x @ rng.normal(size=k + 1) + rng.normal(scale=0.5, size=n)
        fit = ols_fit({"y": y, **cols}, "y ~ " + " + ".join(cols))
        beta = np.linalg.solve(x.T @ x, x.T @ y)
        got = np.array([fit.coefficients["intercept"]] + [fit.coefficients[c] for c in cols])
        denom = np.maximum(np.abs(beta), 1e-8)
        worst = max(worst, float(np.max(np.abs(got - beta) / denom)))
    assert worst < 1e-8, f"OLS vs normal equations relative gap {worst:.2e}"

    # nested R-squared monotonicity
    for _ in range(1000):
        n = int(rng.integers(10, 30))
        data = {"y": rng.normal(size=n), "a": rng.normal(size=n), "b": rng.normal(size=n)}
        small = ols_fit(data, "y ~ a")
        large = ols_fit(data, "y ~ a + b")
        assert large.r_squared >= small.r_squared - 1e-12

    # stepwise marginality on randomized formula lattices
    lattices = ["y ~ a * b", "y ~ a * b * c", "y ~ a * b + c", "y ~ a + b * c"]
    for i in range(40):
        n = 70
        data = {
            "y": rng.normal(size=n),
            "a": rng.normal(size=n),
            "b": rng.normal(size=n),
            "c": rng.normal(size=n),
        }
        fit, trace = stepwise_refine(data, lattices[i % len(lattices)])
        for step in trace.steps:
            step.formula.validate_marginality()
        fit.formula.validate_marginality()
    report(
        f"criterion 9 PASS OLS oracle gap {worst:.1e}; 1000 nested pairs monotone; "
        "marginality held across 40 stepwise lattices"
    )


# --------------------------------------------------------------- criterion 10


def test_c10_cli_determinism(tmp_path):
    design_doc = {
        "design": {"n_participants": 2, "repetitions": 6, "response_window_s": 2.2, "post_response_dwell_s": 0.4},
        "cohort": {"noise": {"sample_noise_sd_deg": 0.4, "dropout_rate": 0.01, "spike_rate": 0.002, "outlier_rate": 0.002}},
    }
    design_path = tmp_path / "design.json"
    design_path.write_text(json.dumps(design_doc))
    digests = []
    for tag in ("a", "b"):
        data = tmp_path / f"data_{tag}"
        work = tmp_path / f"work_{tag}"
        steps = [
            ["simulate", "--design", str(design_path), "--seed", "4242", "--out", str(data)],
            ["preprocess", "--in", str(data), "--out", str(work)],
            ["fit", "--gva-table", str(work / "gva_table.csv"), "--out", str(work / "models.json")],
            [
                "analyze",
                "--gva-table", str(work / "gva_table.csv"),
                "--models", str(work / "models.json"),
                "--normalized", "--stability",
                "--logratio", "--subjective", str(data / "subjective.csv"),
                "--out", str(work / "analysis.json"),
            ],
        ]
        for step in steps:
            proc = subprocess.run(
                [sys.executable, "-m", "vergescope", *step], capture_output=True, text=True
            )
            assert proc.returncode == 0, f"{step[0]} failed: {proc.stderr}"
        digests.append(
            tuple(
                (work / name).read_bytes()
                for name in ("gva_table.csv", "validity_report.json", "models.json", "analysis.json")
            )
            + ((data / "ledger.json").read_bytes(),)
        )
    assert digests[0] == digests[1]
    report("criterion 10 PASS two CLI chains with one seed are byte-identical across 5 artifacts")
