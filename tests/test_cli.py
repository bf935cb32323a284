"""Command-line entry points: outputs, overrides, determinism, exit codes."""

import csv
import ctypes
import json
import os
import platform
import re
import signal
import subprocess
import sys
from dataclasses import fields
from typing import get_args

import numpy as np
import pytest

import randnet
from randnet import linalg
from randnet.dataio import load_csv
from randnet.experiment.cli import main
from randnet.experiment.config import (
    ExperimentConfig,
    OutputFormat,
    ProblemSpec,
    SweepSpec,
    build_config,
    describe_config,
    load_config_file,
)
from randnet.errors import ConfigError, NumericFailureError
from randnet.experiment import cli, trials
from randnet.methods import METHODS
from randnet.model import load_network, predict, rmse
from randnet.paramgen import AnchorKind


def run(*argv):
    return main([str(a) for a in argv])


def tiny_tf_args(out, trials=4):
    return [
        "--tf", "TF1", "--n", "1", "--train-size", "300", "--test-size", "120",
        "--trials", trials, "--nodes", "10", "--seed", "5", "--out", out,
    ]


ABSENT = object()  # a config key left out of the file


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

    @pytest.mark.parametrize("sizes", [
        {"n": 1.0, "train_size": 200.0, "test_size": 80.0},
        {"n": "1", "train_size": "200", "test_size": "80"},
    ], ids=["floats", "strings"])
    def test_integral_problem_sizes_run_and_echo_as_ints(self, tmp_path, sizes):
        # an integral float or a numeric string is read as the int it names:
        # the run writes the same files as the config written with ints
        outs = []
        for name, problem in [("ints", {"n": 1, "train_size": 200, "test_size": 80}),
                              ("given", sizes)]:
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({"problem": {"tf": "TF1", **problem}}))
            outs.append(tmp_path / name)
            assert run("fit", "--config", config, "--method", "ram", "--u", "1",
                       "--nodes", "8", "--out", outs[-1]) == 0
        echo = read_summary(outs[1])["config"]["problem"]
        assert echo == {"tf": "TF1", "n": 1, "train_size": 200, "test_size": 80}
        assert all(type(echo[key]) is int for key in ("n", "train_size", "test_size"))
        for name in ("summary.json", "trials.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_problem_flags_amend_the_file_section(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "problem": {"tf": "TF1", "n": 1, "train_size": 200, "test_size": 80}}))
        out = tmp_path / "o"
        assert run("fit", "--config", config, "--train-size", "100", "--method", "ram",
                   "--u", "1", "--nodes", "8", "--out", out) == 0
        s = read_summary(out)
        assert s["problem"]["train"]["n_samples"] == 100
        assert s["config"]["problem"] == {"tf": "TF1", "n": 1, "train_size": 100,
                                          "test_size": 80}

    @pytest.mark.parametrize("file_keys, flags, echo", [
        ({"methods": ["ram"]}, ["--u", "1"], [{"method": "ram", "u": 1.0}]),
        ({"method": {"method": "ram", "u": 1}}, ["--u", "50"], [{"method": "ram", "u": 50.0}]),
        ({}, ["--method", '{"method": "ram", "u": 1}', "--u", "50"],
         [{"method": "ram", "u": 50.0}]),
        ({"methods": ["ram", "raem5", {"method": "raem1", "u_ae": 0.5}]},
         ["--u", "2", "--u-ae", "0.1"],
         [{"method": "ram", "u": 2.0}, {"method": "raem5"}, {"method": "raem1", "u_ae": 0.1}]),
    ], ids=["file-tag", "file-object", "flag-object", "only-methods-with-the-field"])
    def test_method_flags_reach_every_configured_method(self, tmp_path, file_keys, flags,
                                                        echo):
        # a method flag sets its field in each method whose config has it,
        # over the value the method sets, wherever the method comes from
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "problem": {"tf": "TF1", "n": 1, "train_size": 40, "test_size": 20},
            "trials": 1, "nodes": 5, **file_keys}))
        out = tmp_path / "o"
        assert run("benchmark", "--config", config, *flags, "--out", out) == 0
        s = read_summary(out)
        assert s["config"]["methods"] == echo
        for entry, method in zip(s["methods"], echo):  # and each method ran with them
            assert {**entry["method"], **method} == entry["method"]

    def test_choice_flags_offer_the_config_literals(self):
        # --anchor and --format offer exactly the members the reader accepts
        commands = cli.build_parser()._subparsers._group_actions[0].choices
        for sub in commands.values():
            choices = {a.dest: a.choices for a in sub._actions if a.choices is not None}
            assert tuple(choices["anchor"]) == get_args(AnchorKind)
            assert tuple(choices["format"]) == get_args(OutputFormat)

    def test_every_flag_is_a_config_key(self):
        # each flag's dest is the key it sets; --method fills "methods" with
        # its raw values, which the method branch of the overrides replaces
        keys = {f.name for cls in (ExperimentConfig, ProblemSpec, trials.GridSearchConfig,
                                   SweepSpec, *(spec.config for spec in METHODS.values()))
                for f in fields(cls)}
        not_keys = {"help", "config", "methods", "cv", "save_model"}
        commands = cli.build_parser()._subparsers._group_actions[0].choices
        for name, sub in commands.items():
            dests = {a.dest for a in sub._actions} - not_keys
            assert dests <= keys, (name, sorted(dests - keys))

    def test_anchor_is_written_and_echoed_as_its_kind(self, tmp_path):
        anchored = {"method": "ram", "u": 1.0, "anchor": "cluster"}
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"method": anchored}))
        outs = [tmp_path / "file", tmp_path / "flag"]
        assert run("benchmark", *tiny_tf_args(outs[0], trials=1), "--config", config) == 0
        assert run("benchmark", *tiny_tf_args(outs[1], trials=1), "--method", "ram",
                   "--u", "1", "--anchor", "cluster") == 0
        for out in outs:
            s = read_summary(out)
            assert s["config"]["methods"] == [anchored]
            assert s["methods"][0]["method"] == anchored
        assert (outs[0] / "trials.csv").read_bytes() == (outs[1] / "trials.csv").read_bytes()

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
        assert s["config"]["trials"] == 1

    def test_outputs_identical_across_block_budgets_and_jobs(self, tmp_path, row_blocking):
        # at min_rows 64 the 600x20 train and test H are built and reduced
        # in 4 blocks; the two trials run on min(2, cores) processes, so the
        # cores give block budgets 1, 1, 1, 1 and 2 whatever --jobs says
        outs = []
        for cores, jobs in [(1, 1), (2, 1), (2, 2), (2, 4), (4, 2)]:
            row_blocking(min_rows=64, cores=cores)
            assert len(linalg.row_blocks(600, 20)) == 4
            out = tmp_path / f"cores{cores}-jobs{jobs}"
            code = run("fit", "--tf", "TF1", "--n", "2", "--train-size", "600",
                       "--test-size", "600", "--trials", "2", "--nodes", "20",
                       "--seed", "5", "--method", "ralpham", "--alpha-max", "90",
                       "--jobs", jobs, "--out", out, "--save-model", out / "net.json")
            assert code == 0
            outs.append(out)
        for name in ("summary.json", "trials.csv", "net.json"):
            assert len({(out / name).read_bytes() for out in outs}) == 1


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


    def test_cells_keep_the_other_method_keys(self, tmp_path, monkeypatch):
        # every cell is the method dict with its interval set, so the fits
        # run with alpha_min_deg 30, not the default 0
        monkeypatch.setattr(linalg, "core_count", lambda: 1)  # every fit in this process
        seen, fit_trial = set(), trials.fit_trial

        def spy(method, *args):
            seen.add(method.alpha_min_deg)
            return fit_trial(method, *args)

        monkeypatch.setattr(trials, "fit_trial", spy)
        code = run("grid-search", *tiny_tf_args(tmp_path / "gs"), "--method",
                   '{"method": "ralpham", "alpha_min_deg": 30}',
                   "--grid-nodes", "5", "--grid-intervals", "45,90", "--folds", "3")
        assert code == 0
        assert seen == {30.0}


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

    def sweep(self, out, *flags):
        assert run("uae-sweep", *tiny_tf_args(out, trials=2), "--sweep-values", "0.05,0.5",
                   *flags) == 0
        return (out / "sweep.csv").read_text()

    def test_anchor_reaches_the_sweep_with_or_without_a_method(self, tmp_path):
        # --anchor alone sweeps raem1 with that anchor, as a raem1 method
        # amended by the flag or naming the anchor itself does
        uniform = [self.sweep(tmp_path / str(i), *flags) for i, flags in enumerate([
            ["--anchor", "uniform"],
            ["--method", "raem1", "--anchor", "uniform"],
            ["--method", '{"method": "raem1", "anchor": "uniform"}'],
        ])]
        assert uniform[0] == uniform[1] == uniform[2]
        assert uniform[0] != self.sweep(tmp_path / "default")

    def test_summary_echoes_the_swept_method(self, tmp_path):
        # the default raem1 is a configured method: the method flags amend
        # it and the config echo names it, flags and all
        for name, flags, want in [("default", [], {"method": "raem1"}),
                                  ("cluster", ["--anchor", "cluster"],
                                   {"anchor": "cluster", "method": "raem1"})]:
            self.sweep(tmp_path / name, *flags)
            summary = read_summary(tmp_path / name)
            assert summary["config"]["methods"] == [want]
            assert "methods" not in summary

    def test_every_method_key_reaches_every_point(self, tmp_path):
        tables = []
        for anchor in ("train-point", "cluster"):
            config = tmp_path / f"c-{anchor}.json"
            config.write_text(json.dumps({"method": {"method": "raem1", "anchor": anchor}}))
            tables.append(self.sweep(tmp_path / f"o-{anchor}", "--config", config))
        assert tables[0] == self.sweep(tmp_path / "default")
        assert tables[0] != tables[1]


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


    def test_cv_mode_keeps_the_other_method_keys(self, tmp_path):
        out = tmp_path / "cmpcv"
        code = run("compare", *tiny_tf_args(out, trials=6), "--cv",
                   "--method", '{"method": "ralpham", "alpha_min_deg": 30}',
                   "--method", "raem4", "--grid-nodes", "5", "--grid-intervals", "45,90",
                   "--folds", "3")
        assert code == 0
        chosen = read_summary(out)["methods"][0]
        assert chosen["method"]["alpha_min_deg"] == 30.0
        assert chosen["method"]["alpha_max_deg"] == chosen["chosen"]["interval"]

    @pytest.mark.parametrize("command, flags", [
        ("compare", []),
        ("compare", ["--cv", "--grid-nodes", "4,8", "--grid-intervals", "1,10", "--folds", "3"]),
        ("benchmark", []),
    ], ids=["compare", "compare-cv", "benchmark"])
    def test_methods_of_one_family_get_distinct_labels(self, tmp_path, capsys, command,
                                                       flags):
        # a tag that two methods share is numbered in every table, test pair
        # and printed line; a tag of its own stays as it is
        out = tmp_path / "o"
        assert run(command, *tiny_tf_args(out, trials=6), "--method", '{"method":"ram","u":1}',
                   "--method", "raem5", "--method", '{"method":"ram","u":10}', *flags) == 0
        labels = ["ram#1", "raem5", "ram#2"]
        printed = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in printed] == labels
        tables = ["trials"] + (["histogram"] if command == "compare" else []) + (
            ["cv_table"] if flags else [])
        for table in tables:
            with open(out / f"{table}.csv") as fh:
                seen = [row["method"] for row in csv.DictReader(fh)]
            assert list(dict.fromkeys(seen)) == labels, table
        if command == "compare":
            pairs = [(w["a"], w["b"]) for w in read_summary(out)["wilcoxon"]]
            assert pairs == [("ram#1", "raem5"), ("ram#1", "ram#2"), ("raem5", "ram#2")]


def fork_map_commands(out, trials=6):
    """A ``compare --cv``, a ``grid-search`` and a ``uae-sweep``, small
    enough to run many times, each writing to its own directory in out."""
    grid = ["--grid-nodes", "5,10", "--grid-intervals", "0.5,2", "--folds", "3"]
    return [
        ["compare", *tiny_tf_args(out / "cmp", trials=trials), "--cv", "--method", "ram",
         "--method", "raem5", "--method", "raem1", *grid],
        ["grid-search", *tiny_tf_args(out / "gs"), "--method", "ralpham",
         "--grid-nodes", "5,10", "--grid-intervals", "45,90", "--folds", "3"],
        ["uae-sweep", *tiny_tf_args(out / "sw", trials=2), "--method", "raem1",
         "--sweep-values", "0.05,0.5,5.0"],
    ]


class TestWorkerProcesses:
    def test_outputs_identical_across_core_counts_and_jobs(self, tmp_path, monkeypatch):
        # the grid search, the sweep and the trials fork min(fits, cores)
        # processes at any --jobs; cores 1 runs every fit in the calling process
        outs = []
        for cores, jobs in [(1, 1), (2, 1), (2, 2), (4, 2), (4, 4)]:
            monkeypatch.setattr(linalg, "core_count", lambda: cores)
            out = tmp_path / f"cores{cores}-jobs{jobs}"
            for argv in fork_map_commands(out):
                assert run(*argv, "--jobs", jobs) == 0
            outs.append(out)
        names = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
        assert len(names) == 8
        for name in names:
            assert len({(out / name).read_bytes() for out in outs}) == 1, name
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_numeric_failure_in_a_helper_exits_with_its_code(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(linalg, "core_count", lambda: 2)
        caller, fit_trial = os.getpid(), trials.fit_trial

        def fails_in_helpers(*args):
            if os.getpid() != caller:
                raise NumericFailureError("SVD did not converge in a helper")
            return fit_trial(*args)

        monkeypatch.setattr(trials, "fit_trial", fails_in_helpers)
        argv = fork_map_commands(tmp_path)[1]
        assert run(*argv) == 4
        assert "numeric failure: SVD did not converge in a helper" in capsys.readouterr().err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_helper_killed_by_sigkill_exits_out_of_memory(self, tmp_path, monkeypatch, capsys):
        # SIGKILL is what the kernel's out-of-memory killer sends; the helper
        # sends nothing, and the command exits 5 on one line, not a traceback
        monkeypatch.setattr(linalg, "core_count", lambda: 2)
        caller, fit_trial = os.getpid(), trials.fit_trial

        def killed_in_helpers(*args):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return fit_trial(*args)

        monkeypatch.setattr(trials, "fit_trial", killed_in_helpers)
        assert run(*fork_map_commands(tmp_path)[1]) == 5
        err = capsys.readouterr().err
        assert re.fullmatch(r"out of memory: fit worker process \d+ was killed by SIGKILL\n", err)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_commands_do_not_warn(self, tmp_path, jobs):
        # each command in a fresh interpreter that turns any warning into an
        # error, as forking the helper processes could raise one
        src = os.path.dirname(os.path.dirname(randnet.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        for argv in fork_map_commands(tmp_path):
            if argv[0] == "grid-search":
                continue
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-m", "randnet.experiment.cli",
                 *map(str, argv), "--jobs", str(jobs)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert (proc.returncode, proc.stderr) == (0, "")


    def test_fit_and_sweep_leave_numpy_ma_unimported(self, tmp_path):
        # np.median and np.percentile import numpy.ma on first use, about
        # 15 ms and 1.2 MB in every process that calls them
        probe = (
            "import sys\n"
            "from randnet.experiment.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
        )
        src = os.path.dirname(os.path.dirname(randnet.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        for argv in (
            ["fit", "--method", "ram", "--u", "1", *tiny_tf_args(tmp_path / "fit", 3),
             "--save-model", tmp_path / "fit" / "m.json"],
            ["uae-sweep", *tiny_tf_args(tmp_path / "sweep", 2), "--sweep-points", "3"],
        ):
            proc = subprocess.run([sys.executable, "-c", probe, *map(str, argv)], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr

    def test_one_blas_pin_holds_across_the_maps_of_a_command(self, tmp_path, monkeypatch):
        # restoring the thread count as a map leaves starts the library's
        # worker threads again; the command pins one thread once, so every
        # map starts, and every helper forks, from a one-thread process
        if not os.path.exists("/proc/self/status") or linalg._thread_shutdown() is None:
            pytest.skip("no /proc, or no bundled OpenBLAS exports blas_thread_shutdown_")
        get, set_ = linalg._blas_threads()

        def threads():
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))

        at_map, at_fork = [], []
        fork_map, fork = trials._fork_map, os.fork

        def counting_map(*args):
            at_map.append(threads())
            return fork_map(*args)

        def counting_fork():
            at_fork.append(threads())
            return fork()

        monkeypatch.setattr(trials, "_fork_map", counting_map)
        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(linalg, "core_count", lambda: 2)
        saved = get()
        try:
            set_(2)
            a = np.random.default_rng(0).normal(size=(400, 400))
            a @ a  # starts the worker threads
            assert run(*fork_map_commands(tmp_path)[0]) == 0
            assert get() == 2
        finally:
            set_(saved)
        assert len(at_map) > 1 and at_map == [1] * len(at_map)
        assert at_fork and at_fork == [1] * len(at_fork)

# Allocates, touches and frees a 2 MiB array and then a 30 MiB one twice,
# printing the resident memory (MiB) above the start that each free leaves.
_RSS_PROBE = """
import sys
import numpy as np
from randnet import linalg

def rss_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))

if sys.argv[1] == "pinned":
    linalg.pin_malloc_thresholds()
base = rss_kib()
for mib in (2, 30, 30):
    a = np.ones(mib << 17)
    del a
    print((rss_kib() - base) / 1024)
"""


class TestAllocatorPolicy:
    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="glibc's malloc thresholds")
    def test_freed_arrays_leave_the_process(self):
        # each policy in a fresh interpreter, whose allocator nothing has tuned
        src = os.path.dirname(os.path.dirname(randnet.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        kept = {}
        for mode in ("pinned", "default"):
            proc = subprocess.run([sys.executable, "-c", _RSS_PROBE, mode], env=env,
                                  capture_output=True, text=True, timeout=60, check=True)
            kept[mode] = [float(mib) for mib in proc.stdout.split()]
        small, *large = kept["pinned"]
        # a 2 MiB array sits below the 4 MiB mmap threshold, and the 64 MiB
        # trim threshold keeps its heap pages; each 30 MiB array is unmapped
        assert small > 1.5, kept
        assert all(mib - small < 4 for mib in large), kept
        # the control: glibc's dynamic threshold rose to 30 MiB at the first
        # large free, so the second 30 MiB array came from the heap and stayed
        assert kept["default"][2] > 20, kept

    def test_outputs_do_not_depend_on_mallopt(self, tmp_path, monkeypatch):
        argv = ["--method", "ram", "--u", "1"]
        assert run("benchmark", *tiny_tf_args(tmp_path / "pinned"), *argv) == 0
        real_cdll, lookups = ctypes.CDLL, []

        def cdll(name, *args, **kwargs):
            if name is None:  # the C library without mallopt
                lookups.append(name)
                return object()
            return real_cdll(name, *args, **kwargs)

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert run("benchmark", *tiny_tf_args(tmp_path / "default"), *argv) == 0
        assert lookups
        names = sorted(p.name for p in (tmp_path / "pinned").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "default").iterdir())
        for name in names:
            assert (tmp_path / "pinned" / name).read_bytes() == \
                (tmp_path / "default" / name).read_bytes(), name

    def test_cut_and_square_start_give_the_same_bytes(self, tmp_path, monkeypatch):
        # the one block of each solve, [G | X] and [H | y] of 5000x111
        # doubles (4.44 MB), is cut where the CLI pinned malloc, and started
        # from the square with no mallopt and the record reset, as in a
        # program that imports randnet; every output file keeps its bytes. The
        # SVD gets R with leading dimension 110 from a cut block and 111 from
        # the square of [R | Q' t]
        assert len(linalg.row_blocks(5000, 110)) == 1
        assert 5000 * 111 * 8 >= linalg._MMAP_BYTES
        argv = ["fit", "--tf", "TF1", "--n", "1", "--train-size", "5000", "--test-size", "500",
                "--nodes", "110", "--method", "raem1", "--u-ae", "0.001", "--seed", "5"]
        lds, svd = [], linalg._svd_in_place
        monkeypatch.setattr(linalg, "_svd_in_place",
                            lambda m: lds.append(m.strides[1] // 8) or svd(m))
        cut, square = tmp_path / "cut", tmp_path / "square"
        assert run(*argv, "--out", cut, "--save-model", cut / "model.json") == 0
        assert linalg._mmap_pinned and lds == [110, 110]
        real_cdll = ctypes.CDLL
        monkeypatch.setattr(ctypes, "CDLL", lambda name, *args, **kwargs: object()
                            if name is None else real_cdll(name, *args, **kwargs))
        monkeypatch.setattr(linalg, "_mmap_pinned", False)
        lds.clear()
        assert run(*argv, "--out", square, "--save-model", square / "model.json") == 0
        assert not linalg._mmap_pinned and lds == [111, 111]
        names = sorted(p.name for p in cut.iterdir())
        assert "model.json" in names and names == sorted(p.name for p in square.iterdir())
        for name in names:
            assert (cut / name).read_bytes() == (square / name).read_bytes(), name


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

    def test_emitted_split_keeps_its_column_names(self, tmp_path, monkeypatch):
        # the target keeps the name it was read under, so a split read back
        # by that name has the bits emit wrote, not two columns named y
        data = tmp_path / "d.csv"
        data.write_text("a,y,b\n" + "".join(f"{i},{(i * 3) % 8},{(i * 5) % 8}\n"
                                            for i in range(8)))
        written, write = [], cli.write_dataset_csv
        monkeypatch.setattr(cli, "write_dataset_csv",
                            lambda path, ds: written.append(ds) or write(path, ds))
        out = tmp_path / "em"
        assert run("emit", "--data", data, "--header", "--target-column", "a", "--seed", "3",
                   "--out", out) == 0
        train_csv = out / "train.csv"
        assert train_csv.read_text().splitlines()[0] == "y,b,a"
        read = []
        monkeypatch.setattr("randnet.experiment.config.load_csv", lambda *args, **kwargs:
                            read.append(load_csv(*args, **kwargs)) or read[-1])
        assert run("fit", "--data", train_csv, "--header", "--target-column", "a", "--method",
                   "ram", "--u", "1", "--nodes", "3", "--seed", "1", "--out", tmp_path / "f") == 0
        [back], train = read, written[0]
        assert back.x.tobytes() == train.x.tobytes() and back.y.tobytes() == train.y.tobytes()
        assert (back.feature_names, back.target_name) == (("y", "b"), "a")

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


    def test_histogram_draws_on_one_blas_thread(self, tmp_path, monkeypatch):
        # a raem decoder solve's result depends on the BLAS thread count, so
        # the draw runs on one thread, as the fit maps do
        threads = linalg._blas_threads()
        if threads is None:
            pytest.skip("no bundled OpenBLAS")
        get, set_ = threads
        seen, draw = [], cli.generate_hidden_layer

        def spy(*args):
            seen.append(get())
            return draw(*args)

        monkeypatch.setattr(cli, "generate_hidden_layer", spy)
        saved = get()
        try:
            set_(2)
            assert run("histogram", *tiny_tf_args(tmp_path / "h", trials=3),
                       "--method", "raem1", "--u-ae", "0.5") == 0
            assert seen == [1] * 3
            assert get() == 2
        finally:
            set_(saved)

    def test_histogram_draws_the_layers_of_the_trials(self, tmp_path):
        # the same streams give the same layers, bitwise, as run_trials draws
        out = tmp_path / "h"
        assert run("histogram", *tiny_tf_args(out, trials=3), "--method", "raem1",
                   "--u-ae", "0.5") == 0
        cfg = build_config({
            "problem": {"tf": "TF1", "n": 1, "train_size": 300, "test_size": 120},
            "methods": [{"method": "raem1", "u_ae": 0.5}], "nodes": 10, "seed": 5,
            "trials": 3,
        }, {})
        reports = trials.run_trials(cfg.generator(0), cfg.problem.realize(cfg.problem_stream()),
                                    cfg.nodes, cfg.trials, cfg.trial_stream(0))
        pooled = np.concatenate([r.network.hidden.weights.ravel() for r in reports])
        got = read_summary(out)["histogram"]["median_abs_weight"]
        assert got == float(np.median(np.abs(pooled)))


# Runs the CLI on its arguments under a 2 GiB address-space limit.
_LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from randnet.experiment.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestExitCodes:
    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS")
    def test_huge_dimension_is_out_of_memory(self, tmp_path):
        # the draw of 2 x 2^40 points fails at once: nothing n-long is built
        # before it. The limit turns a slow climb into a MemoryError and the
        # timeout a hang into a failure; numpy's message names the draw.
        src = os.path.dirname(os.path.dirname(randnet.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        argv = ["emit", "--tf", "TF1", "--n", str(2**40), "--train-size", "2",
                "--out", str(tmp_path / "e")]
        proc = subprocess.run([sys.executable, "-c", _LIMITED_CLI, *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 5, proc.stderr
        assert "out of memory: Unable to allocate" in proc.stderr
        assert not (tmp_path / "e").exists()

    def test_undrawable_dimension_is_a_config_error(self, tmp_path):
        # numpy cannot index a dimension of 10^20: its ValueError from the
        # draw comes out as a config error that names n, with no traceback
        src = os.path.dirname(os.path.dirname(randnet.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        argv = ["fit", "--tf", "TF1", "--n", str(10**20), "--train-size", "200",
                "--method", "ram", "--u", "1", "--nodes", "5", "--out", str(tmp_path / "f")]
        proc = subprocess.run([sys.executable, "-c", _LIMITED_CLI, *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error:")
        assert f"n={10**20}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flags, key", [
        (["fit", "--method", "ram", "--u", "1", "--nodes", str(10**20)], "nodes"),
        (["fit", "--method", "ralpham", "--alpha-max", "90", "--nodes", str(10**20)], "nodes"),
        (["fit", "--method", "raem3", "--nodes", str(10**20)], "nodes"),
        (["histogram", "--method", "ram", "--u", "1", "--nodes", str(10**20)], "nodes"),
        (["histogram", "--method", "ram", "--u", "1", "--nodes", "3",
          "--histogram-bins", str(10**20)], "histogram_bins"),
        (["grid-search", "--method", "ram", "--grid-nodes", f"5,{10**20}"], "nodes"),
        (["compare", "--method", "raem4", "--method", "raem5", "--nodes", "3", "--trials", "6",
          "--histogram-bins", str(10**20)], "histogram_bins"),
        (["uae-sweep", "--nodes", "3", "--trials", "1", "--sweep-points", str(10**20)],
         "points"),
        # 2^62 nodes of one input are 2^65 bytes of weights
        (["fit", "--method", "raem1", "--u-ae", "1", "--nodes", str(2**62)], "nodes"),
    ], ids=["fit-ram-nodes", "fit-ralpham-nodes", "fit-raem-nodes", "histogram-nodes",
            "histogram-bins", "grid-search-nodes", "compare-histogram-bins",
            "uae-sweep-points", "fit-raem1-nodes-bytes"])
    def test_count_numpy_cannot_size_is_a_config_error(self, tmp_path, flags, key):
        # each count asks numpy for 2^63 or more elements or bytes, which it
        # refuses before it allocates; under the limit an allocation that a
        # count reached would exit 5, not 2
        src = os.path.dirname(os.path.dirname(randnet.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        argv = [*flags, "--tf", "TF1", "--n", "1", "--train-size", "40", "--test-size", "10",
                "--out", str(tmp_path / "o")]
        proc = subprocess.run([sys.executable, "-c", _LIMITED_CLI, *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error:")
        assert f"{key}=" in proc.stderr
        assert "Traceback" not in proc.stderr

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

    @pytest.mark.parametrize("command, flags, file_keys", [
        ("fit", ["--method", "raem1", "--u-ae", "0"], {}),
        ("histogram", ["--method", "ram", "--u", "1", "--histogram-bins", "0"], {}),
        ("benchmark", ["--method", '{"method": "ram", "u": "abc"}'], {}),
        ("benchmark", ["--method", '{"method": "ram", "u": null}'], {}),
        ("benchmark", ["--method", '{"method": "ram", "u": 1, "anchor": {"kind": "cluster"}}'],
         {}),
        ("benchmark", ["--method", "raem5"], {"nodes": "x"}),
        ("grid-search", ["--method", "raem5", "--grid-nodes", "5,x"], {}),
        ("benchmark", ["--method", '{"method": "ralpham", "alpha_max_deg": 80, '
                                   '"alpha_min": 40}'], {}),
        ("benchmark", ["--method", '{"method": "ram", "u": 1, "anchor": "clustr"}'], {}),
        ("grid-search", ["--method", '{"method": "ram", "uu": 1}', "--grid-nodes", "5"], {}),
        ("benchmark", ["--method", "raem5"], {"nodes": 10.7}),
        ("benchmark", ["--method", "raem5"], {"trials": 2.9}),
        ("benchmark", ["--method", "raem5"], {"nodes": True}),
        # an interval [-u, u] whose width 2u overflows cannot be drawn from
        ("benchmark", ["--method", "ram", "--u", "1e308"], {}),
        ("fit", ["--method", '{"method": "ram", "u": Infinity}'], {}),
        ("fit", ["--method", '{"method": "raem1", "u_ae": Infinity}'], {}),
        ("uae-sweep", ["--sweep-values", "0.1,inf"], {}),
        ("uae-sweep", ["--sweep-values", "0"], {}),
        ("uae-sweep", ["--sweep-hi", "inf"], {}),
        ("grid-search", ["--method", "ram", "--grid-nodes", "5", "--grid-intervals", "1,inf"],
         {}),
        ("fit", ["--method", "ram", "--u", "1", "--seed", "-1"], {}),
        ("benchmark", ["--method", "raem5"], {"seed": -1}),
        # the grid has no seed key: the grid search draws from the config's seed
        ("grid-search", ["--method", "raem5"], {"grid": {"node_counts": [5], "seed": -1}}),
        ("benchmark", ["--method", "raem5"], {"problem": {"data": "d.csv", "delimiter": 5}}),
        ("benchmark", ["--method", "raem5"], {"problem": {"data": "d.csv", "header": "no"}}),
        ("benchmark", ["--method", "raem5"],
         {"problem": {"data": "d.csv", "target_column": 1.5}}),
        ("uae-sweep", [], {"sweep": {"point": 3, "lo": 0.01, "hi": 1}}),
        ("benchmark", ["--method", "raem5"], {"output_dir": None}),
        ("benchmark", ["--method", "raem5"], {"output_dir": 5}),
        ("benchmark", ["--method", "raem5"], {"output_dir": ["a"]}),
        ("benchmark", [], {"methods": "ram"}),
        ("benchmark", [], {"methods": [5]}),
        ("benchmark", ["--method", "raem5"], {"format": 5}),
        ("benchmark", ["--method", "raem5"], {"format": "xml"}),
        ("benchmark", ["--method", "raem5"], {"problem": ABSENT}),
        ("fit", [], {"method": "ram"}),
        ("histogram", ["--method", "raem1"], {}),
        ("compare", ["--method", "raem4", "--method", "raem5", "--trials", "3"], {}),
        ("grid-search", ["--method", "raem5"], {}),
        ("uae-sweep", ["--method", "ram", "--u", "3"], {}),
        ("uae-sweep", ["--method", "raem1", "--method", "raem4"], {}),
        ("uae-sweep", [], {"methods": [{"method": "raem2"}]}),
        ("emit", ["--data", "d.csv", "--header", "--delimiter", ";;"], {}),
        ("emit", ["--data", "d.csv", "--delimiter", ""], {}),
        ("emit", [], {"problem": {"data": "d.csv", "delimiter": ""}}),
    ], ids=["u_ae-zero", "histogram-bins-zero", "u-string", "u-null", "anchor-object",
            "nodes-string", "grid-nodes-string", "misspelt-key",
            "anchor-unknown-kind", "misspelt-key-grid-search", "nodes-fraction",
            "trials-fraction", "nodes-bool", "u-width-overflows",
            "u-infinite", "u_ae-infinite", "sweep-values-infinite", "sweep-values-zero",
            "sweep-hi-infinite",
            "grid-intervals-infinite", "seed-flag-negative", "seed-negative",
            "grid-seed-negative", "delimiter-int", "header-string", "target-column-fraction",
            "misspelt-sweep-key", "output-dir-null", "output-dir-int", "output-dir-list",
            "methods-string", "methods-int", "format-int", "format-unknown", "no-problem",
            "fit-u-missing", "histogram-u_ae-missing", "compare-too-few-trials", "grid-search-no-grid",
            "uae-sweep-not-raem1", "uae-sweep-two-methods", "uae-sweep-file-not-raem1",
            "delimiter-flag-two-chars", "delimiter-flag-empty", "delimiter-file-empty"])
    def test_bad_values_are_config_errors(self, tmp_path, monkeypatch, capsys, command, flags,
                                          file_keys):
        # out-of-range and malformed values exit 2 with a config error, not
        # 3 (a data error) or 1 (a traceback); a data problem reads d.csv, a
        # well-formed file, and a key set to ABSENT is left out of the file;
        # the output directory is made at the first write, so none is made
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d.csv").write_text("".join(f"{i},{i % 7},{i % 5}\n" for i in range(40)))
        config = tmp_path / "c.json"
        keys = {"problem": {"tf": "TF1", "n": 1, "train_size": 40, "test_size": 20},
                "trials": 2, "output_dir": "o", **file_keys}
        config.write_text(json.dumps({k: v for k, v in keys.items() if v is not ABSENT}))
        assert run(command, "--config", config, *flags) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flags", [
        ("benchmark", ["--method", '{"method": "ralpham"}']),
        ("benchmark", ["--method", '{"method": "raem1", "u_ae": -1}']),
        ("compare", ["--method", '{"method": "ralpham"}']),
        ("compare", ["--method", '{"method": "ralpham", "alpha_max_deg": 95}']),
        ("grid-search", ["--method", '{"method": "ram", "u": -1}', "--grid-nodes", "5"]),
        ("uae-sweep", ["--method", '{"method": "raem1", "u_ae": 0}']),
        ("uae-sweep", ["--u-ae", "0"]),
        ("compare", ["--cv", "--method", "raem5", "--method", "ralpham", "--grid-nodes", "5",
                     "--grid-intervals", "45,100"]),
        ("compare", ["--cv", "--method", "raem5"]),
        ("grid-search", ["--method", "ram", "--grid-nodes", "5,5", "--grid-intervals", "1,2"]),
        ("grid-search", ["--method", "ram", "--grid-nodes", "5", "--grid-intervals", "1,1.0"]),
        ("compare", ["--cv", "--method", "raem5", "--grid-nodes", "5,10,5"]),
        ("uae-sweep", ["--sweep-values", "0.1,0.1"]),
        # log-spacing five points over one ulp repeats 1.0
        ("uae-sweep", ["--sweep-lo", "1", "--sweep-hi", "1.0000000000000002",
                       "--sweep-points", "5"]),
        # numpy refuses 10^20 + 1 edges before it allocates them
        ("compare", ["--method", "raem5", "--histogram-bins", str(10**20)]),
        ("histogram", ["--histogram-bins", str(10**20)]),
    ], ids=["benchmark-interval-missing", "benchmark-out-of-range", "compare-interval-missing",
            "compare-out-of-range", "grid-search-replaced-interval",
            "uae-sweep-replaced-interval", "uae-sweep-default-method-flag",
            "compare-cv-grid-interval-out-of-range", "compare-cv-no-grid",
            "grid-nodes-repeated", "grid-intervals-repeated", "compare-cv-grid-nodes-repeated",
            "sweep-values-repeated", "sweep-points-repeat-a-value",
            "compare-histogram-bins-unsizable", "histogram-bins-unsizable"])
    def test_config_errors_come_before_any_fit(self, tmp_path, monkeypatch, capsys, command,
                                               flags):
        # every method dict is read whole when the config is read, so a bad
        # second method stops the run before the first one's trials, and an
        # interval that grid search or the sweep would replace is read too;
        # with --cv every method is read at every grid interval, and the
        # grid is looked for, before the first method's grid search; the
        # histogram command draws its layers itself, through cli's import
        monkeypatch.setattr(linalg, "core_count", lambda: 1)  # every fit in this process
        draws = []
        for module in (trials, cli):
            def counting(*args, draw=module.generate_hidden_layer):
                draws.append(args)
                return draw(*args)

            monkeypatch.setattr(module, "generate_hidden_layer", counting)
        out = tmp_path / "o"
        first = [] if command in ("grid-search", "uae-sweep") else [
            "--method", '{"method": "ram", "u": 1}']
        assert run(command, *tiny_tf_args(out, trials=6), *first, *flags) == 2
        assert "config error:" in capsys.readouterr().err
        assert draws == []
        assert not out.exists()

    def test_non_utf8_data_is_a_data_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_bytes(b"1,2\n3,4\n\xff,5\n")
        assert run("emit", "--data", data, "--out", tmp_path / "o") == 3
        assert capsys.readouterr().err.startswith(f"data error: {data}: not UTF-8 text")

    @pytest.mark.parametrize("names, target", [
        ("a", None), ("a,b,c,d", "d"), ("a,b", "b"), ("a,b", None), ("a,b,c,d", None),
    ])
    def test_header_of_another_width_is_a_data_error(self, tmp_path, capsys, names, target):
        data = tmp_path / "d.csv"
        data.write_text(f"{names}\n1,2,3\n4,5,6\n7,8,9\n10,11,13\n")
        flags = ["--target-column", target] if target else []
        assert run("emit", "--data", data, "--header", *flags, "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {data}: ") and "Traceback" not in err

    def test_header_that_repeats_a_name_is_a_data_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x,x,y\n1,2,3\n4,5,6\n7,8,9\n10,11,13\n")
        out = tmp_path / "o"
        assert run("emit", "--data", data, "--header", "--target-column", "x", "--out", out) == 3
        assert capsys.readouterr().err == (
            f"data error: {data}: header repeats the column name 'x'\n")
        assert not (out / "train.csv").exists()

    def test_non_finite_cell_is_a_data_error_that_names_it(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("a,b,y\n1,2,3\n4,nan,6\n7,8,9\n10,11,13\n")
        out = tmp_path / "o"
        assert run("emit", "--data", data, "--header", "--out", out) == 3
        assert capsys.readouterr().err == (
            f"data error: {data}: non-finite value 'nan' at line 3, column 2\n")
        assert not (out / "train.csv").exists()

    def test_non_utf8_config_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "c.json"
        config.write_bytes(b'{"seed": 1, "output_dir": "\xff"}')
        assert run("emit", "--config", config, "--tf", "TF1", "--n", "1") == 2
        assert capsys.readouterr().err.startswith(f"config error: config file {config}")

    def test_config_file_that_cannot_be_opened_is_a_config_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert run("fit", "--config", missing) == 2
        assert capsys.readouterr().err == (
            f"config error: config file {missing}: "
            f"[Errno 2] No such file or directory: '{missing}'\n")

    def test_config_file_may_start_with_a_byte_order_mark(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_bytes(b'\xef\xbb\xbf{"problem": {"tf": "TF1", "n": 1, "train_size": 20}}')
        assert run("emit", "--config", config, "--out", tmp_path / "o") == 0

    @pytest.mark.parametrize("command, trials", [("fit", 1), ("benchmark", 3)])
    def test_allocation_failure_exits_5(self, tmp_path, monkeypatch, capsys, command, trials):
        # 1e17 nodes ask for 1.39 EiB of weights, more than any address space
        # holds, so the allocation fails before a page is touched; with 3
        # trials on 2 processes the forked helper fails too and sends it back
        monkeypatch.setattr(linalg, "core_count", lambda: 2)
        assert run(command, *tiny_tf_args(tmp_path / "o", trials=trials), "--method", "ram",
                   "--u", "1", "--nodes", "100000000000000000") == 5
        err = capsys.readouterr().err
        assert err.startswith("out of memory: ") and err.count("\n") == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_compare_trial_count_checked_before_any_fit(self, tmp_path, capsys):
        # the signed-rank tests need 6 pairs; 5 trials exit 2 before the
        # grid search or any trial runs, and no output directory is made
        out = tmp_path / "o"
        assert run("compare", *tiny_tf_args(out, trials=5), "--cv", "--method", "ram",
                   "--method", "raem5", "--grid-nodes", "5,10") == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as e:
            main(["--help"])
        assert e.value.code == 0
