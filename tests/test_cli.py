import json
import multiprocessing
import os

import numpy as np
import pytest

from conftest import force_cpus, load_dataset_sessions, run_cli, trial_from_gva
from vergescope import dataio
from vergescope.cli import main
from vergescope.recording import GazeSeries

DESIGN_DOC = {
    "design": {"n_participants": 2, "repetitions": 6, "response_window_s": 2.2, "post_response_dwell_s": 0.4},
    "cohort": {
        "noise": {
            "sample_noise_sd_deg": 0.4,
            "dropout_rate": 0.01,
            "spike_rate": 0.002,
            "outlier_rate": 0.002,
        }
    },
}


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    design_path = base / "design.json"
    design_path.write_text(json.dumps(DESIGN_DOC))
    data = base / "data"
    work = base / "work"
    r = run_cli("simulate", "--design", str(design_path), "--seed", "17", "--out", str(data))
    assert r.returncode == 0, r.stderr
    r = run_cli("preprocess", "--in", str(data), "--out", str(work))
    assert r.returncode == 0, r.stderr
    r = run_cli("fit", "--gva-table", str(work / "gva_table.csv"), "--out", str(work / "models.json"))
    assert r.returncode == 0, r.stderr
    r = run_cli(
        "analyze",
        "--gva-table", str(work / "gva_table.csv"),
        "--models", str(work / "models.json"),
        "--normalized", "--stability",
        "--logratio", "--subjective", str(data / "subjective.csv"),
        "--out", str(work / "analysis.json"),
    )
    assert r.returncode == 0, r.stderr
    return base, data, work


class TestPipelineChain:
    def test_outputs_exist(self, pipeline_dirs):
        base, data, work = pipeline_dirs
        assert (data / "ledger.json").exists()
        assert (work / "gva_table.csv").exists()
        assert (work / "validity_report.json").exists()
        assert (work / "analysis.json").exists()

    def test_validity_report_shape(self, pipeline_dirs):
        _, _, work = pipeline_dirs
        doc = json.loads((work / "validity_report.json").read_text())
        assert doc["trials"]["total"] == 2 * 3 * 72
        assert set(doc["samples"]["by_status"]) >= {"valid"}
        assert doc["retained_participants"] == ["p01", "p02"]

    def test_analyze_report_columns(self, pipeline_dirs):
        _, _, work = pipeline_dirs
        doc = json.loads((work / "analysis.json").read_text())
        row = doc["depth_environment"]["rows"][0]
        assert set(row) >= {"model", "formula", "r_squared", "res_df", "delta_df", "f", "p"}
        assert "stability" in doc and "veridicality" in doc

    def test_analyze_recovers_subjective_log_ratio(self, pipeline_dirs):
        _, _, work = pipeline_dirs
        doc = json.loads((work / "analysis.json").read_text())
        ratios = doc["veridicality"]["mean_log_ratios"]["subjective"]
        assert ratios["AR"] == pytest.approx(0.157, abs=0.05)
        assert ratios["VR"] == pytest.approx(0.320, abs=0.05)

    def test_report_renders_svg(self, pipeline_dirs):
        base, _, work = pipeline_dirs
        plots = base / "plots"
        r = run_cli("report", "--analysis", str(work / "analysis.json"), "--out", str(plots))
        assert r.returncode == 0, r.stderr
        names = sorted(os.listdir(plots))
        assert "depth_environment.svg" in names
        assert "tables.txt" in names
        svg = (plots / "depth_environment.svg").read_text()
        assert svg.startswith("<svg") and "</svg>" in svg

    def test_estimate_inverts_line(self, pipeline_dirs, tmp_path):
        models = {"p01": __import__("vergescope.calibration", fromlist=["ParticipantModel"]).ParticipantModel(
            "p01", 17.5, 1.7, 0.0, 4
        )}
        model_path = tmp_path / "m.json"
        dataio.write_models_json(str(model_path), models)
        # craft a gaze row whose vergence angle is 17.5 + 1.7*4 = 24.3 deg
        import numpy as np

        half = float(np.radians(24.3) / 2)
        fields = [
            "0.0", "1.0", "1.0",
            "-0.03", "0.0", "0.0",
            repr(float(np.sin(half))), "0.0", repr(float(np.cos(half))),
            "0.03", "0.0", "0.0",
            repr(float(-np.sin(half))), "0.0", repr(float(np.cos(half))),
        ]
        r = run_cli("estimate", "--model", str(model_path), input_text=_gaze_rows(fields))
        assert r.returncode == 0, r.stderr
        t, gva, meters = r.stdout.strip().split(",")
        assert float(gva) == pytest.approx(24.3, abs=1e-9)
        assert float(meters) == pytest.approx(0.25, abs=1e-6)

    def test_estimate_filters_low_confidence(self, pipeline_dirs, tmp_path):
        models = {"p01": __import__("vergescope.calibration", fromlist=["ParticipantModel"]).ParticipantModel(
            "p01", 17.5, 1.7, 0.0, 4
        )}
        model_path = tmp_path / "m.json"
        dataio.write_models_json(str(model_path), models)
        fields = ["0.0", "0.1", "1.0"] + ["0.0", "0.0", "0.0"] + ["0.0", "0.0", "1.0"] * 3
        r = run_cli("estimate", "--model", str(model_path), input_text=_gaze_rows(fields))
        assert r.returncode == 0
        assert r.stdout == ""


class TestDeterminism:
    def test_identical_seed_identical_bytes(self, tmp_path):
        design_path = tmp_path / "design.json"
        design_path.write_text(json.dumps(DESIGN_DOC))
        outputs = []
        for tag in ("a", "b"):
            data = tmp_path / f"data_{tag}"
            work = tmp_path / f"work_{tag}"
            assert run_cli("simulate", "--design", str(design_path), "--seed", "99", "--out", str(data)).returncode == 0
            assert run_cli("preprocess", "--in", str(data), "--out", str(work)).returncode == 0
            assert run_cli("fit", "--gva-table", str(work / "gva_table.csv"), "--out", str(work / "models.json")).returncode == 0
            assert run_cli(
                "analyze",
                "--gva-table", str(work / "gva_table.csv"),
                "--models", str(work / "models.json"),
                "--normalized",
                "--out", str(work / "analysis.json"),
            ).returncode == 0
            outputs.append((data, work))
        (data_a, work_a), (data_b, work_b) = outputs
        assert (data_a / "ledger.json").read_bytes() == (data_b / "ledger.json").read_bytes()
        assert (work_a / "gva_table.csv").read_bytes() == (work_b / "gva_table.csv").read_bytes()
        assert (work_a / "validity_report.json").read_bytes() == (work_b / "validity_report.json").read_bytes()
        assert (work_a / "models.json").read_bytes() == (work_b / "models.json").read_bytes()
        assert (work_a / "analysis.json").read_bytes() == (work_b / "analysis.json").read_bytes()

    def test_env_var_overrides_seed(self, tmp_path):
        design_path = tmp_path / "design.json"
        design_path.write_text(json.dumps({"design": {"n_participants": 1, "repetitions": 1}}))
        out_env = tmp_path / "via_env"
        out_flag = tmp_path / "via_flag"
        r1 = run_cli(
            "simulate", "--design", str(design_path), "--seed", "1", "--out", str(out_env),
            env={"VERGESCOPE_SEED": "42"},
        )
        r2 = run_cli("simulate", "--design", str(design_path), "--seed", "42", "--out", str(out_flag))
        assert r1.returncode == 0 and r2.returncode == 0
        assert (out_env / "ledger.json").read_bytes() == (out_flag / "ledger.json").read_bytes()


class TestErrors:
    def test_missing_file_yields_error_json(self):
        r = run_cli("analyze", "--gva-table", "/definitely/missing.csv", "--out", "/tmp/x.json")
        assert r.returncode != 0
        doc = json.loads(r.stderr.strip())
        assert "error" in doc and doc["error"]["type"]

    def test_inprocess_main_error_path(self, capsys):
        code = main(["fit", "--gva-table", "/missing.csv", "--out", "/tmp/y.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"]["type"] == "FileNotFoundError"


GAZE_ROW = ["0.0", "1.0", "1.0"] + ["0.0", "0.0", "0.0", "0.0", "0.0", "1.0"] * 2
GVA_TABLE_HEADER = (
    "participant_id,environment,trial_id,start_depth_m,end_depth_m,status,"
    "gva_mean_deg,valid_fraction,valid,landolt_correct\n"
)
GOOD_MODELS = {"models": [{"participant_id": "p01", "intercept_deg": 17.5, "slope_deg_per_diopter": 1.7,
                           "residual_sd_deg": 0.0, "n_points": 4}]}


def _gaze_rows(*rows):
    return ",".join(dataio.GAZE_CSV_HEADER) + "\n" + "".join(",".join(r) + "\n" for r in rows)


def _with_field(i, value):
    row = list(GAZE_ROW)
    row[i] = value
    return row


def _one_trial_dataset(root, gaze_text):
    """A dataset of one manifest and one gaze file holding ``gaze_text``."""
    (root / "manifests").mkdir(parents=True)
    (root / "gaze").mkdir()
    (root / "gaze" / "t000.csv").write_text(gaze_text)
    trial = trial_from_gva([10.0] * 4)
    dataio.write_manifest(str(root / "manifests" / "p01_Real.json"), [trial], ["../gaze/t000.csv"], [0.25, 4.0])
    return str(root)


# name -> (subcommand, {option: file text or None for a missing path}, extra argv, stdin text)
MALFORMED_CLI = {
    "preprocess_truncated_gaze": ("preprocess", {"--in": ("dataset", _gaze_rows(GAZE_ROW)[:-25])}, [], None),
    "preprocess_wrong_header": ("preprocess", {"--in": ("dataset", "t,l_conf\n" + ",".join(GAZE_ROW) + "\n")}, [], None),
    "preprocess_nan_time": ("preprocess", {"--in": ("dataset", _gaze_rows(_with_field(0, "nan")))}, [], None),
    "preprocess_missing_dir": ("preprocess", {"--in": None}, [], None),
    "fit_truncated_table": ("fit", {"--gva-table": GVA_TABLE_HEADER + "p01,Real,t000,4.0\n"}, ["--out", "OUT"], None),
    "fit_wrong_header": ("fit", {"--gva-table": "a,b\n1,2\n"}, ["--out", "OUT"], None),
    "fit_bad_value": ("fit", {"--gva-table": GVA_TABLE_HEADER + "p01,Real,t000,x,0.25,valid,10.0,1.0,true,true\n"},
                      ["--out", "OUT"], None),
    # A valid row needs a mean angle, and the booleans read true or false.
    "fit_table_valid_without_gva": ("fit", {"--gva-table": GVA_TABLE_HEADER + "p01,Real,t000,4.0,0.25,ok,,1.0,true,true\n"},
                                    ["--out", "OUT"], None),
    # Depths are positive and finite, and a valid row's mean angle is finite.
    "fit_table_zero_depth": ("fit", {"--gva-table": GVA_TABLE_HEADER + "p01,Real,t0,4.0,0.0,ok,10.0,1.0,true,true\n"},
                             ["--out", "OUT"], None),
    "fit_table_valid_nan_gva": ("fit", {"--gva-table": GVA_TABLE_HEADER + "p01,Real,t0,4.0,0.25,ok,nan,1.0,true,true\n"
                                        "p01,Real,t1,0.25,4.0,ok,12.0,1.0,true,true\n"}, ["--out", "OUT"], None),
    "fit_table_bad_bool": ("fit", {"--gva-table": GVA_TABLE_HEADER + "p01,Real,t000,4.0,0.25,ok,10.0,1.0,yes,true\n"},
                           ["--out", "OUT"], None),
    "analyze_truncated_subjective": ("analyze", {"--gva-table": GVA_TABLE_HEADER, "--subjective": (
        "participant_id,environment,depth_m,report_value,unit,repetition\np01,Real,1.0\n")},
        ["--logratio", "--out", "OUT"], None),
    "analyze_models_list": ("analyze", {"--gva-table": GVA_TABLE_HEADER, "--models": json.dumps(GOOD_MODELS["models"])},
                            ["--out", "OUT"], None),
    "analyze_models_empty_object": ("analyze", {"--gva-table": GVA_TABLE_HEADER, "--models": "{}"}, ["--out", "OUT"], None),
    "analyze_models_missing_key": ("analyze", {"--gva-table": GVA_TABLE_HEADER,
                                               "--models": json.dumps({"models": [{"participant_id": "p01"}]})},
                                   ["--out", "OUT"], None),
    "estimate_models_list": ("estimate", {"--model": json.dumps(GOOD_MODELS["models"])}, [], ""),
    "estimate_models_empty_object": ("estimate", {"--model": "{}"}, [], ""),
    "estimate_models_empty_list": ("estimate", {"--model": json.dumps({"models": []})}, [], ""),
    "estimate_models_missing_key": ("estimate", {"--model": json.dumps({"models": [{"participant_id": "p01"}]})}, [], ""),
    "estimate_models_not_json": ("estimate", {"--model": "{models"}, [], ""),
    "estimate_conf_above_one": ("estimate", {"--model": json.dumps(GOOD_MODELS)}, [],
                                _gaze_rows(_with_field(1, "1.5"))),
    "estimate_nan_time": ("estimate", {"--model": json.dumps(GOOD_MODELS)}, [], _gaze_rows(_with_field(0, "nan"))),
    "estimate_inf_time": ("estimate", {"--model": json.dumps(GOOD_MODELS)}, [], _gaze_rows(_with_field(0, "inf"))),
    "estimate_non_monotone_time": ("estimate", {"--model": json.dumps(GOOD_MODELS)}, [],
                                   _gaze_rows(_with_field(0, "2.0"), _with_field(0, "1.0"))),
    "estimate_inf_vector": ("estimate", {"--model": json.dumps(GOOD_MODELS)}, [], _gaze_rows(_with_field(8, "-inf"))),
    "estimate_fourteen_fields": ("estimate", {"--model": json.dumps(GOOD_MODELS)}, [], _gaze_rows(GAZE_ROW[:14])),
    "estimate_unparseable": ("estimate", {"--model": json.dumps(GOOD_MODELS)}, [], _gaze_rows(_with_field(4, "x"))),
    # stdin follows the gaze-file rules: the header comes first, and only once.
    "estimate_missing_header": ("estimate", {"--model": json.dumps(GOOD_MODELS)}, [], ",".join(GAZE_ROW) + "\n"),
    "estimate_repeated_header": ("estimate", {"--model": json.dumps(GOOD_MODELS)}, [],
                                 _gaze_rows(GAZE_ROW) + ",".join(dataio.GAZE_CSV_HEADER) + "\n"),
    # A field longer than csv's field size limit (131,072 characters).
    "preprocess_long_field": ("preprocess", {"--in": ("dataset", _gaze_rows(_with_field(0, "1" * 140_000)))}, [], None),
    "report_analysis_list": ("report", {"--analysis": "[]"}, ["--out", "OUT"], None),
    "report_analysis_scalar": ("report", {"--analysis": "3"}, ["--out", "OUT"], None),
    # Sections of the wrong shape, and a depth that overflows the axis ticks.
    "report_analysis_section_scalar": ("report", {"--analysis": json.dumps({"depth_environment": 5})},
                                       ["--out", "OUT"], None),
    "report_analysis_cell_scalar": ("report", {"--analysis": json.dumps(
        {"data": {"condition_means": [1]}, "depth_environment": {"rows": []}})}, ["--out", "OUT"], None),
    "report_analysis_infinite_depth": ("report", {"--analysis": json.dumps(
        {"data": {"condition_means": [{"end_depth_d": float("inf"), "environment": "AR", "gva_deg": 18.0},
                                      {"end_depth_d": 1.0, "environment": "AR", "gva_deg": 19.0}]},
         "depth_environment": {"rows": []}})}, ["--out", "OUT"], None),
    "analyze_logratio_without_subjective": ("analyze", {"--gva-table": GVA_TABLE_HEADER}, ["--logratio", "--out", "OUT"],
                                            None),
    # The simulator rejects --seed -1, so a design file whose shape goes
    # unchecked fails at once with a ValueError instead of simulating the
    # default cohort.
    "simulate_design_list": ("simulate", {"--design": json.dumps([DESIGN_DOC])}, ["--seed", "-1", "--out", "OUT"], None),
    "simulate_design_no_blocks": ("simulate", {"--design": json.dumps({"designs": DESIGN_DOC["design"]})},
                                  ["--seed", "-1", "--out", "OUT"], None),
    "simulate_design_block_list": ("simulate", {"--design": json.dumps({"design": [2, 1]})},
                                   ["--seed", "-1", "--out", "OUT"], None),
    "simulate_design_unknown_key": ("simulate", {"--design": json.dumps({"cohort": {"noise_sd": 0.4}})},
                                    ["--seed", "-1", "--out", "OUT"], None),
    # Values of the right type that the simulator cannot run.
    "simulate_design_fractional_repetitions": ("simulate", {"--design": json.dumps({"design": {"repetitions": 1.5}})},
                                               ["--seed", "-1", "--out", "OUT"], None),
    "simulate_design_subjective_repetitions_text": (
        "simulate", {"--design": json.dumps({"cohort": {"subjective_repetitions": "x"}})},
        ["--seed", "-1", "--out", "OUT"], None),
    "simulate_design_zero_sample_rate": ("simulate", {"--design": json.dumps({"design": {"sample_rate_hz": 0}})},
                                         ["--seed", "-1", "--out", "OUT"], None),
    # A misspelt design key is refused, not ignored in favour of the default cohort.
    "simulate_design_unknown_design_key": ("simulate", {"--design": json.dumps(
        {"design": {"n_participant": 1, "repetitions": 1}})}, ["--seed", "-1", "--out", "OUT"], None),
    # A string is not a list of environments, even one of distinct letters.
    "simulate_design_environments_string": ("simulate", {"--design": json.dumps({"design": {"environments": "Real"}})},
                                            ["--seed", "-1", "--out", "OUT"], None),
    "simulate_design_negative_response_window": ("simulate", {"--design": json.dumps(
        {"design": {"response_window_s": -1}})}, ["--seed", "-1", "--out", "OUT"], None),
    "simulate_design_iti_reversed": ("simulate", {"--design": json.dumps({"design": {"iti_range_s": [6, 3]}})},
                                     ["--seed", "-1", "--out", "OUT"], None),
    "simulate_design_negative_dwell": ("simulate", {"--design": json.dumps({"design": {"post_response_dwell_s": -0.5}})},
                                       ["--seed", "-1", "--out", "OUT"], None),
    # An environment name becomes a path component, and a depth is a finite number.
    "simulate_design_environment_path": ("simulate", {"--design": json.dumps(
        {"design": {"environments": ["Real", "a/b"]}})}, ["--seed", "-1", "--out", "OUT"], None),
    "simulate_design_environment_number": ("simulate", {"--design": json.dumps({"design": {"environments": [1, 2]}})},
                                           ["--seed", "-1", "--out", "OUT"], None),
    "simulate_design_bool_depth": ("simulate", {"--design": json.dumps({"design": {"depths_m": [True, 2]}})},
                                   ["--seed", "-1", "--out", "OUT"], None),
    "simulate_design_nan_depth": ("simulate", {"--design": json.dumps({"design": {"depths_m": [float("nan"), 2]}})},
                                  ["--seed", "-1", "--out", "OUT"], None),
    # Command lines the argument grammar rejects.
    "preprocess_usage_threads": ("preprocess", {"--in": ("dataset", _gaze_rows(GAZE_ROW))}, ["--threads", "2"], None),
    "estimate_usage_unknown_flag": ("estimate", {"--model": json.dumps(GOOD_MODELS)}, ["--bogus"], ""),
    "simulate_usage_seed_not_int": ("simulate", {}, ["--seed", "x", "--out", "OUT"], None),
    "fit_usage_missing_out": ("fit", {"--gva-table": GVA_TABLE_HEADER}, [], None),
    # Threshold flags outside their range, which would switch a filter off.
    "preprocess_usage_confidence_nan": ("preprocess", {"--in": ("dataset", _gaze_rows(GAZE_ROW))},
                                        ["--confidence", "nan"], None),
    "preprocess_usage_confidence_above_one": ("preprocess", {"--in": ("dataset", _gaze_rows(GAZE_ROW))},
                                              ["--confidence", "1.5"], None),
    "preprocess_usage_max_velocity_zero": ("preprocess", {"--in": ("dataset", _gaze_rows(GAZE_ROW))},
                                           ["--max-velocity", "0"], None),
    "preprocess_usage_sd_k_nan": ("preprocess", {"--in": ("dataset", _gaze_rows(GAZE_ROW))}, ["--sd-k", "nan"], None),
    "analyze_usage_alpha_nan": ("analyze", {"--gva-table": GVA_TABLE_HEADER}, ["--alpha", "nan", "--out", "OUT"], None),
    "analyze_usage_alpha_one": ("analyze", {"--gva-table": GVA_TABLE_HEADER}, ["--alpha", "1", "--out", "OUT"], None),
    "analyze_usage_negative_min_pair_trials": ("analyze", {"--gva-table": GVA_TABLE_HEADER},
                                               ["--min-pair-trials", "-1", "--out", "OUT"], None),
    "analyze_usage_negative_min_env_pairs": ("analyze", {"--gva-table": GVA_TABLE_HEADER},
                                             ["--min-env-pairs", "-1", "--out", "OUT"], None),
    "analyze_usage_negative_min_environments": ("analyze", {"--gva-table": GVA_TABLE_HEADER},
                                                ["--min-environments", "-2", "--out", "OUT"], None),
    "estimate_usage_confidence_nan": ("estimate", {"--model": json.dumps(GOOD_MODELS)}, ["--confidence", "nan"],
                                      _gaze_rows(GAZE_ROW)),
    "estimate_usage_max_velocity_negative": ("estimate", {"--model": json.dumps(GOOD_MODELS)},
                                             ["--max-velocity", "-5"], _gaze_rows(GAZE_ROW)),
}


class TestMalformedInputContract:
    """Every malformed input exits 2 with exactly one JSON error line and no traceback."""

    @pytest.mark.parametrize("name", sorted(MALFORMED_CLI))
    def test_exit_2_with_one_json_line(self, tmp_path, name):
        command, files, extra, stdin = MALFORMED_CLI[name]
        argv = [command]
        for option, content in files.items():
            if content is None:
                argv += [option, str(tmp_path / "missing")]
            elif isinstance(content, tuple):
                argv += [option, _one_trial_dataset(tmp_path / content[0], content[1])]
            else:
                path = tmp_path / option.strip("-")
                path.write_text(content)
                argv += [option, str(path)]
        argv += [str(tmp_path / "out") if a == "OUT" else a for a in extra]
        r = run_cli(*argv, input_text=stdin)
        assert r.returncode == 2, (r.returncode, r.stderr)
        assert "Traceback" not in r.stderr
        lines = r.stderr.splitlines()
        assert len(lines) == 1, r.stderr
        doc = json.loads(lines[0])
        assert set(doc) == {"error"} and doc["error"]["type"] and doc["error"]["message"]
        if any(part in name for part in ("_models_", "_design_", "_analysis_", "_table_")):
            # One shape check names the input file, not a later symptom.
            assert doc["error"]["type"] == "GazeParseError"
        if "_usage_" in name:
            assert doc["error"]["type"] == "UsageError"

    def test_repeated_timestamp_names_the_trial(self, tmp_path, capsys):
        design_path = tmp_path / "design.json"
        design_path.write_text(json.dumps({"design": {"n_participants": 1, "repetitions": 1}}))
        data = tmp_path / "data"
        assert main(["simulate", "--design", str(design_path), "--seed", "3", "--out", str(data)]) == 0
        gaze = str(data / "gaze" / "p01_Real" / "t000.csv")
        s = dataio.parse_gaze_csv(gaze)
        kept = (np.minimum(s.l_conf, s.r_conf) >= 0.75) & ~np.isnan(s.gva_deg)
        i = int(np.flatnonzero(kept[:-1] & kept[1:])[0])
        t = s.t_s.copy()
        t[i + 1] = t[i]
        dataio.write_gaze_csv(gaze, GazeSeries(t, s.l_origin, s.l_dir, s.r_origin, s.r_dir, s.l_conf, s.r_conf))
        assert dataio.parse_gaze_csv(gaze).t_s[i + 1] == t[i]  # the reader accepts the repeat
        capsys.readouterr()
        assert main(["preprocess", "--in", str(data), "--out", str(tmp_path / "work")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "DomainError",
            "message": "participant p01 environment Real trial t000: "
            "velocity filter requires strictly increasing timestamps",
        }

    def test_estimate_row_error_matches_batch_reader(self, tmp_path):
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(GOOD_MODELS))
        r = run_cli("estimate", "--model", str(model_path), input_text=_gaze_rows(GAZE_ROW, _with_field(2, "1.5")))
        assert r.returncode == 2
        doc = json.loads(r.stderr)
        assert doc["error"] == {"type": "GazeParseError", "message": "r_conf 1.5 outside [0, 1] [<stdin>:3]"}


@pytest.fixture(scope="module")
def streamed_dataset(tmp_path_factory):
    """A 2-participant, 1-repetition dataset written by ``simulate``."""
    base = tmp_path_factory.mktemp("sessions")
    design_path = base / "design.json"
    design_path.write_text(json.dumps({"design": {"n_participants": 2, "repetitions": 1}}))
    data = base / "data"
    assert main(["simulate", "--design", str(design_path), "--seed", "7", "--out", str(data)]) == 0
    return data


def _copy_dataset(src, dst):
    import shutil

    shutil.copytree(src, dst)
    return dst


def _rename_out_of_order(data):
    """Prefix the manifests so that file-name order reverses (participant, environment) order."""
    names = sorted(os.listdir(data / "manifests"))
    for i, name in enumerate(names):
        os.rename(data / "manifests" / name, data / "manifests" / f"{len(names) - i:02d}_{name}")


def _split_a_session(data):
    """Split p01_Real across two manifests, the later half in a file that sorts first."""
    path = data / "manifests" / "p01_Real.json"
    doc = json.loads(path.read_text())
    half = len(doc["trials"]) // 2
    first, second = dict(doc, trials=doc["trials"][:half]), dict(doc, trials=doc["trials"][half:])
    dataio.write_json(str(path), first, precise=True)
    dataio.write_json(str(data / "manifests" / "a_late_half_of_p01_Real.json"), second, precise=True)


def load_dataset_trials(datadir):
    """Every trial under ``datadir/manifests``, manifest by manifest in file-name order."""
    mandir = os.path.join(datadir, "manifests")
    paths = [os.path.join(mandir, name) for name in sorted(os.listdir(mandir)) if name.endswith(".json")]
    return [t for path in paths for t in dataio._manifest_trials(dataio.load_manifest(path), path)]


class TestSessionStreaming:
    """``preprocess`` cleans one session at a time, with the bytes of ``preprocess_dataset`` on the whole dataset."""

    @pytest.mark.parametrize("rearrange", [_rename_out_of_order, _split_a_session])
    def test_same_bytes_as_preprocess_dataset(self, streamed_dataset, tmp_path, monkeypatch, rearrange):
        force_cpus(monkeypatch, 1)
        self.check_same_bytes(streamed_dataset, tmp_path, rearrange)

    @pytest.mark.parametrize("rearrange", [_rename_out_of_order, _split_a_session])
    def test_same_bytes_under_the_pool(self, streamed_dataset, tmp_path, monkeypatch, rearrange):
        force_cpus(monkeypatch, 2)
        self.check_same_bytes(streamed_dataset, tmp_path, rearrange)

    @staticmethod
    def check_same_bytes(streamed_dataset, tmp_path, rearrange):
        from vergescope.pipeline import preprocess_dataset

        data = _copy_dataset(streamed_dataset, tmp_path / "data")
        rearrange(data)
        assert main(["preprocess", "--in", str(data), "--out", str(tmp_path / "cli")]) == 0
        processed, validity = preprocess_dataset(load_dataset_trials(str(data)))
        expected = tmp_path / "expected"
        expected.mkdir()
        dataio.write_gva_table_csv(str(expected / "gva_table.csv"), processed)
        dataio.write_json(str(expected / "validity_report.json"), validity.to_dict())
        for name in ("gva_table.csv", "validity_report.json"):
            assert (tmp_path / "cli" / name).read_bytes() == (expected / name).read_bytes(), name
        assert len(processed) == 2 * 3 * 12

    def test_trial_scope_tests_each_trial_against_its_own_samples(self, streamed_dataset, tmp_path):
        from vergescope.pipeline import (
            PipelineConfig, confidence_filter, outlier_filter, preprocess_sessions, velocity_filter,
        )

        reports = {}
        for scope in ("session", "trial"):
            out = tmp_path / scope
            assert main(["preprocess", "--in", str(streamed_dataset), "--out", str(out), "--sd-scope", scope]) == 0
            reports[scope] = json.loads((out / "validity_report.json").read_text())["samples"]
        sessions = load_dataset_sessions(streamed_dataset)
        processed, _ = preprocess_sessions(sessions, PipelineConfig(outlier_scope="trial"))
        dataio.write_gva_table_csv(str(tmp_path / "expected.csv"), processed)
        assert (tmp_path / "trial" / "gva_table.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
        trials = {(t.participant_id, t.environment, t.trial_id): t for session in sessions for t in session}
        total = 0
        for p in processed:
            oracle = outlier_filter(velocity_filter(confidence_filter(trials[p.participant_id, p.environment, p.trial_id])))
            outliers = oracle.samples.status_counts()["outlier"]
            assert p.sample_counts["outlier"] == outliers, p.trial_id
            total += outliers
        assert len(processed) == 2 * 3 * 12 and total > 0
        assert reports["trial"]["by_status"]["outlier"] == total
        # Each trial's own mean and SD exclude more samples than the session's do.
        assert reports["trial"]["percent_excluded"] > reports["session"]["percent_excluded"]

    def test_sessions_arrive_one_at_a_time_in_key_order(self, streamed_dataset, tmp_path):
        data = _copy_dataset(streamed_dataset, tmp_path / "data")
        _split_a_session(data)
        sessions = load_dataset_sessions(data)
        keys = [{(t.participant_id, t.environment) for t in s} for s in sessions]
        assert keys == [{(p, e)} for p in ("p01", "p02") for e in ("AR", "Real", "VR")]
        real = [t.trial_id for t in sessions[1]]
        assert len(real) == 12 and real[:6] == sorted(real)[6:]  # the later half's file sorts first

    def test_malformed_gaze_file_in_a_later_session(self, streamed_dataset, tmp_path, capsys):
        data = _copy_dataset(streamed_dataset, tmp_path / "data")
        _add_a_field(data / "gaze" / "p02_VR" / "t011.csv")
        capsys.readouterr()
        assert main(["preprocess", "--in", str(data), "--out", str(tmp_path / "work")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        doc = json.loads(err)["error"]
        assert doc["type"] == "GazeParseError"
        # A gaze path is joined to its manifest's directory and not normalised.
        named = os.path.join(data, "manifests", "..", "gaze", "p02_VR", "t011.csv")
        assert doc["message"] == f"expected 15 fields, got 16 [{named}:6]"

    def test_the_first_fault_in_session_order_is_reported_under_the_pool(
        self, streamed_dataset, tmp_path, monkeypatch, capsys
    ):
        force_cpus(monkeypatch, 2)
        data = _copy_dataset(streamed_dataset, tmp_path / "data")
        # The second session's worker meets its fault first, in its first file;
        # the first session's fault is in its last file.
        _add_a_field(data / "gaze" / "p01_AR" / "t011.csv")
        _add_a_field(data / "gaze" / "p01_Real" / "t000.csv")
        capsys.readouterr()
        assert main(["preprocess", "--in", str(data), "--out", str(tmp_path / "work")]) == 2
        doc = json.loads(capsys.readouterr().err)["error"]
        named = os.path.join(data, "manifests", "..", "gaze", "p01_AR", "t011.csv")
        assert doc == {"type": "GazeParseError", "message": f"expected 15 fields, got 16 [{named}:6]"}
        assert multiprocessing.active_children() == []


def _add_a_field(gaze):
    """Give line 6 of a gaze CSV a 16th field."""
    lines = gaze.read_bytes().split(b"\r\n")
    lines[5] = b"0.1,x" + lines[5]
    gaze.write_bytes(b"\r\n".join(lines))


class TestWorkerProcesses:
    """``simulate`` and ``preprocess`` leave no worker process behind, whether they succeed or fail."""

    def test_no_worker_outlives_a_subcommand(self, tmp_path, monkeypatch, capsys):
        force_cpus(monkeypatch, 2)
        design_path = tmp_path / "design.json"
        design_path.write_text(json.dumps({"design": {"n_participants": 1, "repetitions": 1}}))
        data = tmp_path / "data"
        assert main(["simulate", "--design", str(design_path), "--seed", "3", "--out", str(data)]) == 0
        assert multiprocessing.active_children() == []
        assert main(["preprocess", "--in", str(data), "--out", str(tmp_path / "work")]) == 0
        assert multiprocessing.active_children() == []
        # A file where the gaze directory goes fails every worker of simulate.
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        (blocked / "gaze").write_text("")
        assert main(["simulate", "--design", str(design_path), "--seed", "3", "--out", str(blocked)]) == 2
        assert multiprocessing.active_children() == []
        _add_a_field(data / "gaze" / "p01_VR" / "t000.csv")
        assert main(["preprocess", "--in", str(data), "--out", str(tmp_path / "work")]) == 2
        assert multiprocessing.active_children() == []
        errors = [json.loads(line)["error"]["type"] for line in capsys.readouterr().err.splitlines()]
        assert errors == ["NotADirectoryError", "GazeParseError"]

    @pytest.mark.parametrize("command", ["simulate", "preprocess"])
    def test_a_dead_worker_exits_2_with_one_json_line(self, tmp_path, monkeypatch, capsys, command):
        design_path = tmp_path / "design.json"
        design_path.write_text(json.dumps({"design": {"n_participants": 1, "repetitions": 1}}))
        data = tmp_path / "data"
        if command == "preprocess":
            assert main(["simulate", "--design", str(design_path), "--seed", "3", "--out", str(data)]) == 0
        parent = os.getpid()
        name = "simulate_session" if command == "simulate" else "process_session"
        real = getattr(dataio, name)

        def dying(*args, **kwargs):
            # The second session's worker dies as a signal would end it; the
            # workers are forked, so they see this patched module.
            second = args[-1] == 1 if command == "simulate" else args[0][0].environment == "Real"
            if second and os.getpid() != parent:
                os._exit(9)
            return real(*args, **kwargs)

        monkeypatch.setattr(dataio, name, dying)
        force_cpus(monkeypatch, 2)
        capsys.readouterr()
        argv = {
            "simulate": ["simulate", "--design", str(design_path), "--seed", "3", "--out", str(data)],
            "preprocess": ["preprocess", "--in", str(data), "--out", str(tmp_path / "work")],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"]["type"] == "ChildProcessError"
        assert "worker process died" in json.loads(err)["error"]["message"]
        assert multiprocessing.active_children() == []
        if command == "simulate":
            assert not (data / "ledger.json").exists()
        else:
            assert not (tmp_path / "work" / "gva_table.csv").exists()

    @pytest.mark.parametrize("name", [
        "simulate_design_environment_path", "simulate_design_environment_number",
        "simulate_design_bool_depth", "simulate_design_nan_depth",
    ])
    def test_a_refused_design_writes_nothing(self, tmp_path, capsys, name):
        design_path = tmp_path / "design.json"
        design_path.write_text(MALFORMED_CLI[name][1]["--design"])
        out = tmp_path / "out"
        assert main(["simulate", "--design", str(design_path), "--seed", "3", "--out", str(out)]) == 2
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "GazeParseError"
