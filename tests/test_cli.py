import json
import os

import numpy as np
import pytest

from conftest import run_cli, trial_from_gva
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
        r = run_cli("estimate", "--model", str(model_path), input_text=",".join(fields) + "\n")
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
        r = run_cli("estimate", "--model", str(model_path), input_text=",".join(fields) + "\n")
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
    "report_analysis_list": ("report", {"--analysis": "[]"}, ["--out", "OUT"], None),
    "report_analysis_scalar": ("report", {"--analysis": "3"}, ["--out", "OUT"], None),
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
