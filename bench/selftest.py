"""Self-test of the benchmark's checks: they pass on good outputs and fail on bad.

    python3 bench/selftest.py

Checks that BENCHMARK.json lists the workloads and metrics defined here.
Runs the uae-sweep-m25 command once for a stored seed and shows that its
values pass the reference check, that every perturbed reference is reported,
that the plausibility band for unstored seeds catches a wild value, and a
doubled one where the stored seeds agree closely, that a perturbed saved
model is reported, that a one-byte change to an output file changes its
digest, and that the tracer's self time and busy fraction come out right on
hand-made spans. Exits 0 when every check behaves as expected.
"""

from __future__ import annotations

import copy
import json
import os
import sys

from run import END_TO_END, REFERENCES, ROOT, Run
from tracer import layer_metrics
from workloads import (REL_TOL, WORKLOADS, check_reference, load_references,
                       output_digest)


def main() -> int:
    refs = load_references(REFERENCES)
    failures = []

    def expect(label: str, ok: bool) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            failures.append(label)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expect("BENCHMARK.json lists the workloads defined here",
           [(w["name"], w["why"]) for w in spec["workloads"]]
           == [(w.name, w.why) for w in WORKLOADS.values()])
    expect("BENCHMARK.json lists the end-to-end metrics run.py reports",
           [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END))
    layers = {name: unit for name, (_, unit) in layer_metrics([], 1).items()}
    expect("BENCHMARK.json lists the per-layer metrics the tracer reports",
           {m["name"]: m["unit"] for m in spec["per_layer"]}
           == dict(layers, **{"trace.wall_ratio": "ratio"}))

    name = "uae-sweep-m25"
    stored = refs[name]
    seed = min(int(s) for s in stored)
    run = Run(WORKLOADS[name], seed, refs)
    res = run.command("selftest")
    run.close()
    expect(f"{name} seed {seed} passes its reference check", res is not None)
    if res is None:
        print("\n".join(run.problems))
        return 1
    values = res["values"]

    for key, want in stored[str(seed)].items():
        bad = copy.deepcopy(refs)
        bad[name][str(seed)][key] = want * (1 + 10 * REL_TOL)
        expect(f"reference {key} moved by 10x the tolerance is reported",
               check_reference(values, bad, name, seed) != [])

    cmp_name = "compare-cv-file"
    cmp_seed, cmp_values = next(iter(refs[cmp_name].items()))
    for key in [k for k in cmp_values if k.endswith("chosen_m")]:
        changed = dict(cmp_values, **{key: cmp_values[key] * 2})
        expect(f"{cmp_name} with {key} changed is reported",
               check_reference(changed, refs, cmp_name, int(cmp_seed)) != [])

    unstored = max(int(s) for s in stored) + 1000
    expect("an unstored seed with plausible values passes",
           check_reference(values, refs, name, unstored) == [])
    wild = dict(values, **{"sweep.min_mean_rmse": values["sweep.min_mean_rmse"] * 50})
    expect("an unstored seed with a wild RMSE is reported",
           check_reference(wild, refs, name, unstored) != [])
    # Where the stored seeds agree closely, a doubled RMSE on an unstored
    # seed lies outside the band.
    for wl, key in (("compare-cv-file", "ram.rmse_test_mean"),
                    ("fit-n5-save", "ralpham.rmse_test_mean")):
        seed_values = refs[wl][str(seed)]
        doubled = dict(seed_values, **{key: seed_values[key] * 2})
        expect(f"{wl} on an unstored seed with {key} doubled is reported",
               check_reference(seed_values, refs, wl, unstored) == []
               and check_reference(doubled, refs, wl, unstored) != [])

    fit_values = refs["fit-n5-save"][str(seed)]
    for key in [k for k in fit_values if k.startswith("model.")]:
        moved = dict(fit_values, **{key: fit_values[key] * (1 + 10 * REL_TOL)})
        expect(f"fit-n5-save with saved {key} moved by 10x the tolerance is reported",
               check_reference(moved, refs, "fit-n5-save", seed) != [])

    scratch = os.path.join(run.dir + "-digest")
    os.makedirs(scratch)
    path = os.path.join(scratch, "table.csv")
    with open(path, "w") as fh:
        fh.write("a,b\n1,2\n")
    before = output_digest(scratch)
    with open(path, "w") as fh:
        fh.write("a,b\n1,3\n")
    expect("a one-byte change to an output changes its digest", output_digest(scratch) != before)
    os.remove(path)
    os.rmdir(scratch)

    # run_trials [0, 10] owns two overlapping workers [1, 5] and [3, 7], and the
    # first holds a solve [2, 4] with one warning; two jobs.
    spans = [["experiment.trials.run_trials", -1, 0.0, 10.0, {}],
             ["model.train_readout", 0, 1.0, 5.0, {}],
             ["model.train_readout", 0, 3.0, 7.0, {}],
             ["linalg.lstsq", 1, 2.0, 4.0, {"warnings": 1}]]
    m = layer_metrics(spans, jobs=2)
    expect("self time subtracts the union of child spans",
           m["experiment.trials.run_trials.self_s"][0] == 4.0
           and m["model.train_readout.self_s"][0] == 6.0
           and m["linalg.lstsq.self_s"][0] == 2.0)
    expect("busy fraction is child busy time over jobs x wall",
           m["experiment.trials.busy_frac"][0] == 0.4)
    expect("warnings and calls are counted",
           m["linalg.lstsq.warnings"][0] == 1 and m["model.train_readout.calls"][0] == 2)

    print(f"{len(failures)} check(s) misbehaved" if failures else "all checks behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
