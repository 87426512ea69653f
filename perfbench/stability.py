"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/stability.py --workload fig2-n4000 --runs 10 --first-seed 1

Runs `run.py --trace 0` once per seed, one after another, and prints for
each end-to-end metric its median over the runs, the interquartile range
as a share of that median (`statistics.quantiles(values, n=4)`), and the
metric's bound.  A spread below a third of the bound is steady; the spread
of `setup_s` is reported but not held to its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        start = time.perf_counter()
        out = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(out, file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed} ({time.perf_counter() - start:.0f} s): "
              + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)

    steady = True
    for metric in spec["end_to_end"]:
        samples = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(samples, n=4)
        spread = (q3 - q1) / med
        ok = metric["name"] == "setup_s" or spread < metric["bound"] / 3
        steady &= ok
        print(f"{args.workload} {metric['name']}: median {statistics.median(samples):.6g} "
              f"{metric['unit']}, spread {spread:.4f}, bound {metric['bound']}"
              f"{'' if ok else '  NOT STEADY'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
