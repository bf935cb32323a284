"""Regenerate references.json: each workload's checked summary values per seed.

    python3 bench/make_references.py --seeds 0-49

Runs every workload's command once per seed and stores the values that
``workloads.read_outcome`` checks. Existing entries for other seeds are
kept. Rerun after a change that moves results on purpose,
and say in CHANGES.md by how much they moved.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import REFERENCES, Run
from workloads import WORKLOADS, load_references


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    args = parser.parse_args(argv)
    first, last = (int(v) for v in args.seeds.split("-"))
    try:
        refs = load_references(REFERENCES)
    except FileNotFoundError:
        refs = {}
    for name in WORKLOADS:
        for seed in range(first, last + 1):
            run = Run(WORKLOADS[name], seed, None)
            res = run.command("ref")
            run.close()
            if res is None:
                print(f"{name} seed {seed}: {run.problems}", file=sys.stderr)
                return 1
            refs.setdefault(name, {})[str(seed)] = res["values"]
            print(f"{name} seed {seed}: {res['values']}", flush=True)
            with open(REFERENCES, "w") as fh:
                json.dump(refs, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
