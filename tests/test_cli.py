"""Command-line entry points: outputs, overrides, determinism, exit codes."""

import csv
import json

import numpy as np
import pytest

from randnet.dataio import load_csv
from randnet.experiment.cli import main
from randnet.experiment.config import build_config, describe_config, load_config_file
from randnet.errors import ConfigError
from randnet.model import load_network, predict, rmse


def run(*argv):
    return main([str(a) for a in argv])


def tiny_tf_args(out, trials=4):
    return [
        "--tf", "TF1", "--n", "1", "--train-size", "300", "--test-size", "120",
        "--trials", trials, "--nodes", "10", "--seed", "5", "--out", out,
    ]


def read_summary(out):
    with open(f"{out}/summary.json") as fh:
        return json.load(fh)


class TestConfigBuilding:
    def test_overrides_beat_file_values(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({
            "problem": {"tf": "TF1", "n": 1, "train_size": 50, "test_size": 20},
            "methods": ["ram"], "trials": 3, "seed": 9, "nodes": 4,
        }))
        raw = load_config_file(cfg_file)
        cfg = build_config(raw, {"trials": 11})
        assert cfg.trials == 11
        assert cfg.seed == 9
        assert cfg.nodes == 4

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            build_config({"problem": {"tf": "TF1", "n": 1}, "bogus": 1}, {})

    def test_description_excludes_runtime_knobs(self, tmp_path):
        raw = {
            "problem": {"tf": "TF2", "n": 2, "train_size": 40, "test_size": 10},
            "methods": [{"method": "ram", "u": 2.0}],
        }
        a = describe_config(build_config(raw, {"jobs": 1, "output_dir": "x"}))
        b = describe_config(build_config(raw, {"jobs": 8, "output_dir": "y"}))
        assert a == b
        assert "jobs" not in json.dumps(a)

    def test_method_spec_keys_validated(self):
        with pytest.raises(ConfigError):
            build_config(
                {
                    "problem": {"tf": "TF1", "n": 1, "train_size": 40, "test_size": 10},
                    "methods": [{"method": "nosuch"}],
                },
                {},
            )


class TestFit:
    def test_writes_summary(self, tmp_path):
        out = tmp_path / "fit"
        code = run("fit", *tiny_tf_args(out, trials=2), "--method", "ralpham",
                   "--alpha-max", "80")
        assert code == 0
        s = read_summary(out)
        (entry,) = s["methods"]
        assert entry["method"]["method"] == "ralpham"
        assert entry["method"]["alpha_max_deg"] == 80.0
        assert entry["rmse_test"]["count"] == 2

    def test_save_model_round_trips(self, tmp_path, demo_small):
        out = tmp_path / "fit"
        model_path = tmp_path / "net.json"
        code = run("fit", *tiny_tf_args(out, trials=1), "--method", "ram",
                   "--u", "5", "--save-model", model_path)
        assert code == 0
        net = load_network(model_path)
        preds = predict(net, demo_small.train.x[:8])
        assert preds.shape == (8,) and np.all(np.isfinite(preds))

    def test_saved_model_is_trial_zero(self, tmp_path):
        out = tmp_path / "fit"
        model_path = tmp_path / "net.json"
        code = run("fit", *tiny_tf_args(out, trials=2), "--method", "ram",
                   "--u", "5", "--save-model", model_path)
        assert code == 0
        cfg = build_config({
            "problem": {"tf": "TF1", "n": 1, "train_size": 300, "test_size": 120},
            "methods": [{"method": "ram", "u": 5.0}], "nodes": 10, "seed": 5,
        }, {})
        problem = cfg.problem.realize(cfg.problem_stream())
        net = load_network(model_path)
        with open(out / "trials.csv") as fh:
            trial0 = next(csv.DictReader(fh))
        got = rmse(predict(net, problem.train.x), problem.train.y)
        assert got == pytest.approx(float(trial0["rmse_train"]), rel=1e-12)

    def test_defaults_to_one_trial(self, tmp_path):
        out = tmp_path / "fit"
        code = run("fit", "--tf", "TF1", "--n", "1", "--train-size", "200",
                   "--test-size", "80", "--nodes", "8", "--seed", "3",
                   "--method", "ram", "--u", "1", "--out", out)
        assert code == 0
        s = read_summary(out)
        (entry,) = s["methods"]
        assert entry["rmse_test"]["count"] == 1


class TestBenchmark:
    def test_outputs_and_determinism(self, tmp_path):
        outs = [tmp_path / "b1", tmp_path / "b2", tmp_path / "b3"]
        for out, jobs in zip(outs, ("1", "1", "4")):
            code = run("benchmark", *tiny_tf_args(out), "--method", "ralpham",
                       "--alpha-max", "85", "--method", "ram", "--u", "5",
                       "--jobs", jobs)
            assert code == 0
        blobs = [(o / "summary.json").read_bytes() for o in outs]
        assert blobs[0] == blobs[1] == blobs[2]
        trials = (outs[0] / "trials.csv").read_text().splitlines()
        assert trials[0] == "method,trial,rmse_train,rmse_test"
        assert len(trials) == 1 + 2 * 4  # two methods, four trials each

    def test_byte_identical_across_jobs_where_blas_threads_matter(self, tmp_path):
        # At 2000 x 200 the SVD's result depends on the BLAS thread count, so
        # this fails if that count follows the worker count.
        outs = [tmp_path / "j1", tmp_path / "j2"]
        for out, jobs in zip(outs, ("1", "2")):
            code = run("benchmark", "--tf", "TF1", "--n", "2", "--train-size", "2000",
                       "--test-size", "500", "--nodes", "200", "--trials", "2",
                       "--seed", "3", "--method", "ram", "--u", "20",
                       "--method", "ralpham", "--alpha-max", "90",
                       "--jobs", jobs, "--out", out)
            assert code == 0
        for name in ("summary.json", "trials.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_json_table_format(self, tmp_path):
        out = tmp_path / "b"
        code = run("benchmark", *tiny_tf_args(out), "--method", "ram", "--u", "2",
                   "--format", "json")
        assert code == 0
        rows = json.loads((out / "trials.json").read_text())
        assert len(rows) == 4 and set(rows[0]) == {
            "method", "trial", "rmse_train", "rmse_test"
        }


class TestGridSearch:
    def test_reports_chosen_cell(self, tmp_path):
        out = tmp_path / "gs"
        code = run("grid-search", *tiny_tf_args(out), "--method", "ralpham",
                   "--grid-nodes", "5,10", "--grid-intervals", "45,90",
                   "--folds", "3")
        assert code == 0
        s = read_summary(out)
        sel = s["grid_search"]
        assert sel["method"] == "ralpham"
        assert sel["best_m"] in (5, 10) and sel["best_interval"] in (45.0, 90.0)
        assert sel["cells"] == 4
        table = (out / "cv_table.csv").read_text().splitlines()
        assert table[0] == "method,m,interval,mean_rmse"
        assert len(table) == 1 + 4


class TestUaeSweep:
    def test_sweep_table(self, tmp_path):
        out = tmp_path / "sw"
        code = run("uae-sweep", *tiny_tf_args(out, trials=2), "--method", "raem1",
                   "--sweep-values", "0.05,0.5,5.0")
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "u_ae,median_abs_weight,mean_rmse"
        assert len(lines) == 4
        assert [float(l.split(",")[0]) for l in lines[1:]] == [0.05, 0.5, 5.0]


class TestCompare:
    def test_pairwise_tests_and_histogram(self, tmp_path):
        out = tmp_path / "cmp"
        code = run("compare", *tiny_tf_args(out, trials=8), "--method", "ralpham",
                   "--alpha-max", "85", "--method", "raem5")
        assert code == 0
        s = read_summary(out)
        assert len(s["methods"]) == 2
        assert len(s["wilcoxon"]) == 1
        pair = s["wilcoxon"][0]
        assert set(pair) == {"a", "b", "statistic", "p_value"}
        assert 0.0 <= pair["p_value"] <= 1.0
        hist = (out / "histogram.csv").read_text().splitlines()
        assert hist[0] == "method,bin_left,bin_right,count"

    def test_cv_mode_selects_before_comparing(self, tmp_path):
        out = tmp_path / "cmpcv"
        code = run("compare", *tiny_tf_args(out, trials=6), "--cv",
                   "--method", "ralpham", "--method", "raem4",
                   "--grid-nodes", "5,10", "--grid-intervals", "45,90",
                   "--folds", "3")
        assert code == 0
        s = read_summary(out)
        assert (out / "cv_table.csv").exists()
        assert len(s["methods"]) == 2
        for entry in s["methods"]:
            assert entry["chosen"]["m"] in (5, 10)
            assert entry["nodes"] == entry["chosen"]["m"]


class TestEmitAndHistogram:
    def test_emit_round_trips(self, tmp_path):
        out = tmp_path / "em"
        code = run("emit", "--tf", "TF3", "--n", "2", "--train-size", "60",
                   "--test-size", "30", "--seed", "2", "--out", out)
        assert code == 0
        train = load_csv(out / "train.csv", header=True)
        test = load_csv(out / "test.csv", header=True)
        assert train.n_samples == 60 and test.n_samples == 30
        meta = json.loads((out / "problem.json").read_text())
        assert meta["config"]["problem"]["tf"] == "TF3"
        assert meta["problem"]["train"]["n_samples"] == 60
        assert "output_scale" in meta["normalization"]

    def test_histogram_subcommand(self, tmp_path):
        out = tmp_path / "h"
        code = run("histogram", *tiny_tf_args(out, trials=3), "--method",
                   "ralpham", "--alpha-max", "90", "--histogram-bins", "20")
        assert code == 0
        lines = (out / "histogram.csv").read_text().splitlines()
        assert len(lines) == 21
        s = read_summary(out)
        h = s["histogram"]
        assert h["method"] == "ralpham" and h["bins"] == 20
        assert h["weight_count"] == 3 * 10  # trials * nodes, 1-D inputs
        assert h["median_abs_weight"] > 0


class TestExitCodes:
    def test_missing_data_file(self, tmp_path):
        assert run("benchmark", "--data", tmp_path / "nope.dat", "--method",
                   "ram", "--u", "1", "--nodes", "5", "--trials", "2",
                   "--out", tmp_path / "o") == 3

    def test_bad_method_tag(self, tmp_path):
        assert run("benchmark", *tiny_tf_args(tmp_path / "o"),
                   "--method", "nosuch") == 2

    def test_incomplete_method_spec(self, tmp_path):
        # a tunable family without its interval cannot be instantiated
        assert run("benchmark", *tiny_tf_args(tmp_path / "o"),
                   "--method", "ralpham") == 2

    def test_malformed_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("benchmark", "--config", bad) == 2

    def test_non_numeric_data_is_a_data_error(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("1,2\n3,x\n" * 8)
        assert run("benchmark", "--data", data, "--method", "ram", "--u", "1",
                   "--nodes", "5", "--trials", "2", "--out", tmp_path / "o") == 3

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as e:
            main(["--help"])
        assert e.value.code == 0
