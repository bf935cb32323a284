"""End-to-end acceptance checks, one per release criterion.

Each test prints (and registers with conftest) a single verdict line of the
form ``criterion N (title): PASS/FAIL (measured values)`` before asserting,
so a red run still reports every measured quantity. Criteria with a stated
runtime budget assert the elapsed wall time as well.

Numbered file order matters only for criterion 4, whose two halves share one
five-minute budget.
"""

import json
import os
import time

import numpy as np

import conftest
from test_linalg import mp_residuals
from test_stats import enumerated_wilcoxon

from randnet.benchfn import TargetFunction, sample_problem
from randnet.dataio import load_csv
from randnet.experiment.cli import main
from randnet.experiment.stats import wilcoxon_signed_rank
from randnet.experiment.trials import run_trials, uae_sweep
from randnet.linalg import pseudoinverse
from randnet.methods import generate_hidden_layer
from randnet.model import sigmoid
from randnet.paramgen import RaMConfig, RAlphaMConfig, anchor_points
from randnet.rae import (
    Raem1Config,
    Raem2Config,
    Raem3Config,
    Raem5Config,
)
from randnet.rng import as_stream

C4_ELAPSED = {}


def record(tag, ok, detail):
    line = f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_01_pseudoinverse_axioms():
    t0 = time.perf_counter()
    gen = as_stream(101).generator()
    worst = 0.0
    for i in range(1000):
        rows = int(gen.integers(1, 101))
        cols = int(gen.integers(1, 101))
        if i % 3 == 0:
            # rank-deficient by construction: product of thin factors
            r = int(gen.integers(1, min(rows, cols) + 1))
            a = gen.normal(size=(rows, r)) @ gen.normal(size=(r, cols))
        else:
            a = gen.normal(size=(rows, cols))
        worst = max(worst, max(mp_residuals(a, pseudoinverse(a))))
    elapsed = time.perf_counter() - t0
    record(
        "criterion 1 (pseudoinverse axioms over 1000 matrices)",
        worst <= 1e-8 and elapsed < 60.0,
        f"max relative residual {worst:.3g}, tolerance 1e-8, {elapsed:.1f} s",
    )


def test_02_inflection_anchoring():
    problem = sample_problem(
        TargetFunction("TF1", 2), as_stream(55).child(0), train_size=400, test_size=100
    )
    x = problem.train.x
    m = 2000
    # (config, child stream that draws the network's anchor points)
    cases = [
        (RaMConfig(u=20.0), 1),
        (RAlphaMConfig(alpha_max_deg=83.0), 1),
        (Raem1Config(u_ae=0.1), 2),
        (Raem2Config(), 2),
        (Raem3Config(), 2),
    ]
    worst = 0.0
    for i, (cfg, anchor_child) in enumerate(cases):
        rng = as_stream(210).child(i)
        layer = generate_hidden_layer(cfg, x, m, rng)
        anchors = anchor_points(cfg.anchor, x, m, rng.child(anchor_child))
        z = np.einsum("ij,ji->i", anchors, layer.weights) + layer.biases
        worst = max(worst, float(np.max(np.abs(sigmoid(z) - 0.5))))
    record(
        "criterion 2 (10000 anchored nodes output 0.5 at their anchors)",
        worst <= 1e-12,
        f"max |output - 0.5| = {worst:.3g}, tolerance 1e-12",
    )


def test_03_mean_bias_degeneracy_1d(demo_full):
    t0 = time.perf_counter()
    x = demo_full.train.x
    layer = generate_hidden_layer(
        Raem5Config(), x, 200, as_stream(310)
    )
    # with 1-D inputs the column mean bias equals the weight itself, so the
    # sigmoid argument vanishes exactly at x = -1 for every node
    locations = -layer.biases / layer.weights[0]
    all_minus_one = bool(np.all(locations == -1.0))

    raem5 = run_trials(Raem5Config(), demo_full, 200, 20, as_stream(311))
    tuned = run_trials(
        RAlphaMConfig(alpha_max_deg=83.0), demo_full, 200, 20, as_stream(312)
    )
    mean_raem5 = float(np.mean([r.rmse_test for r in raem5]))
    mean_tuned = float(np.mean([r.rmse_test for r in tuned]))
    elapsed = time.perf_counter() - t0
    record(
        "criterion 3 (raem5 collapses in 1-D)",
        all_minus_one and mean_raem5 > 5.0 * mean_tuned and elapsed < 600.0,
        f"all inflections at -1: {all_minus_one}, rmse {mean_raem5:.4f} vs "
        f"{mean_tuned:.2g} tuned (need > 5x), {elapsed:.1f} s",
    )


def test_04a_narrow_angle_demo_error(demo_full):
    t0 = time.perf_counter()
    reports = run_trials(
        RAlphaMConfig(alpha_max_deg=83.0), demo_full, 25, 20, as_stream(401)
    )
    mean = float(np.mean([r.rmse_test for r in reports]))
    C4_ELAPSED["a"] = time.perf_counter() - t0
    record(
        "criterion 4a (1-D demo, m=25, slope angles on [0, 83])",
        mean <= 0.02,
        f"mean test rmse {mean:.4f} over 20 trials, target <= 0.02",
    )


def test_04b_encoder_interval_sweep(demo_full):
    t0 = time.perf_counter()
    values = [float(v) for v in np.geomspace(1e-3, 10.0, 13)]
    points = uae_sweep(demo_full, 25, values, 10, as_stream(402))
    best = min(points, key=lambda p: (p.mean_rmse, p.u_ae))
    elapsed = time.perf_counter() - t0
    total = C4_ELAPSED.get("a", 0.0) + elapsed
    record(
        "criterion 4b (encoder interval sweep at m=25)",
        0.02 < best.u_ae < 0.5
        and 3.0 <= best.median_abs_weight <= 20.0
        and total < 300.0,
        f"rmse minimum at u_ae={best.u_ae:.4g} (need within (0.02, 0.5)), "
        f"median |v| there {best.median_abs_weight:.2f} (need within [3, 20]), "
        f"criterion total {total:.1f} s",
    )


def test_05_tf1_benchmark_row():
    t0 = time.perf_counter()
    stream = as_stream(500)
    problem = sample_problem(TargetFunction("TF1", 2), stream.child(0))
    methods = [
        ("slope angles on [0, 90]", RAlphaMConfig(alpha_max_deg=90.0), 0.003),
        ("uniform weights, u=20", RaMConfig(u=20.0), 0.006),
        ("autoencoder, u_ae=0.001", Raem1Config(u_ae=0.001), 0.006),
    ]
    errors = []
    means = []
    gates_ok = True
    for i, (label, cfg, gate) in enumerate(methods):
        reports = run_trials(cfg, problem, 800, 10, stream.child(1, i))
        errs = [r.rmse_test for r in reports]
        errors.append(errs)
        means.append(float(np.mean(errs)))
        gates_ok = gates_ok and means[-1] <= gate
    p_vs_ram = wilcoxon_signed_rank(errors[0], errors[1]).p_value
    p_vs_raem = wilcoxon_signed_rank(errors[0], errors[2]).p_value
    ranking_ok = (
        means[0] == min(means) and p_vs_ram < 0.05 and p_vs_raem < 0.05
    )

    # larger problems run once each with no accuracy gate: finite output only
    smoke_ok = True
    for j, tf in enumerate([TargetFunction("TF2", 5), TargetFunction("TF3", 10)]):
        big = sample_problem(tf, stream.child(2, j))
        for k, (_, cfg, _) in enumerate(methods):
            reports = run_trials(cfg, big, 100, 1, stream.child(3, j, k))
            smoke_ok = smoke_ok and np.isfinite(reports[0].rmse_test)
    elapsed = time.perf_counter() - t0
    record(
        "criterion 5 (TF1 n=2, m=800 benchmark, 10 trials per method)",
        gates_ok and ranking_ok and smoke_ok and elapsed < 1800.0,
        f"mean rmse {means[0]:.5f}/{means[1]:.5f}/{means[2]:.5f} vs gates "
        f"0.003/0.006/0.006, ranking p={p_vs_ram:.3g} and {p_vs_raem:.3g}, "
        f"smoke finite: {smoke_ok}, {elapsed:.1f} s",
    )


def test_06_weight_angle_distribution_laws():
    t0 = time.perf_counter()
    gen = as_stream(600).generator()
    a = gen.uniform(-100.0, 100.0, 10**6)
    frac = float(np.mean(np.abs(np.degrees(np.arctan(a / 4.0))) > 80.0))
    alphas = gen.uniform(0.0, 90.0, 10**6)
    med = float(np.median(np.abs(4.0 * np.tan(np.radians(alphas)))))
    elapsed = time.perf_counter() - t0
    record(
        "criterion 6 (slope angle distribution laws)",
        abs(frac - 0.773) <= 0.01 and abs(med - 4.0) <= 0.05 and elapsed < 30.0,
        f"saturated fraction {frac:.4f} (0.773 +/- 0.01), median |4 tan a| "
        f"{med:.4f} (4 +/- 0.05), {elapsed:.1f} s",
    )


def test_07_signed_rank_matches_enumeration():
    gen = as_stream(700).generator()
    checked = 0
    for _ in range(200):
        n = int(gen.integers(6, 13))
        a = gen.integers(-6, 7, n).astype(float)
        b = gen.integers(-6, 7, n).astype(float)
        got = wilcoxon_signed_rank(a, b)
        stat, p = enumerated_wilcoxon(a, b)
        assert got.statistic == stat and got.p_value == p, (a, b)
        checked += 1
    record(
        "criterion 7 (exact signed-rank test vs sign enumeration)",
        checked == 200,
        f"{checked}/200 random pairs matched the enumeration oracle exactly",
    )


def test_08_byte_identical_reruns(tmp_path):
    cfg = {
        "problem": {"tf": "TF1", "n": 1, "train_size": 300, "test_size": 120},
        "methods": [
            {"method": "ralpham", "alpha_max_deg": 85.0},
            {"method": "ram", "u": 5.0},
        ],
        "nodes": 10,
        "trials": 4,
        "seed": 5,
    }
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs = []
    for name, jobs in (("o1", "1"), ("o2", "1"), ("o3", "2"), ("o4", "4")):
        out = tmp_path / name
        code = main(
            ["benchmark", "--config", str(cfg_path), "--out", str(out),
             "--jobs", jobs]
        )
        assert code == 0
        blobs.append((out / "summary.json").read_bytes())
    identical = all(b == blobs[0] for b in blobs)
    record(
        "criterion 8 (byte-identical reruns at jobs 1/1/2/4)",
        identical,
        f"4 summary.json files, identical: {identical}",
    )


def _keel_lines(rows, names):
    yield "@relation synthetic-stock"
    for name in names:
        yield f"@attribute {name} real"
    yield "@data"
    for row in rows:
        yield ",".join(repr(float(v)) for v in row)


def _run_file_pipeline(data_path, out):
    code = main(
        ["compare", "--cv", "--data", str(data_path), "--trials", "6",
         "--seed", "3", "--method", "ralpham", "--method", "raem5",
         "--grid-nodes", "5,8", "--grid-intervals", "45,90", "--folds", "3",
         "--out", str(out)]
    )
    produced = all(
        (out / name).exists()
        for name in ("summary.json", "trials.csv", "histogram.csv", "cv_table.csv")
    )
    return code == 0 and produced


def test_09_file_dataset_pipeline(tmp_path):
    gen = as_stream(900).generator()
    x = gen.uniform(0.0, 1.0, size=(80, 3))
    y = np.sin(3.0 * x[:, 0]) + x[:, 1] * x[:, 2] + 0.01 * gen.normal(size=80)
    data_path = tmp_path / "synthetic.dat"
    rows = np.column_stack([x, y])
    data_path.write_text(
        "\n".join(_keel_lines(rows, ["x1", "x2", "x3", "y"])) + "\n"
    )
    synth_ok = _run_file_pipeline(data_path, tmp_path / "synth_out")

    here = os.path.dirname(os.path.abspath(__file__))
    stock = os.environ.get(
        "RANDNET_STOCK", os.path.join(here, os.pardir, "data", "stock.dat")
    )
    if os.path.exists(stock):
        ds = load_csv(stock)
        shape_ok = ds.n_samples == 950 and ds.n_features == 9
        stock_ok = shape_ok and _run_file_pipeline(stock, tmp_path / "stock_out")
        detail = (
            f"synthetic file pipeline ok: {synth_ok}; stock file "
            f"{ds.n_samples}x{ds.n_features} (want 950x9), pipeline ok: {stock_ok}"
        )
        record("criterion 9 (file-backed dataset pipeline)",
               synth_ok and stock_ok, detail)
    else:
        record(
            "criterion 9 (file-backed dataset pipeline)",
            synth_ok,
            f"synthetic file pipeline ok: {synth_ok}; no stock data file "
            f"present, shape check skipped",
        )
