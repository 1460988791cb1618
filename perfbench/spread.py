#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs each workload once per seed through run.py and prints, per metric, the
median, the quartiles and the spread (quartile distance over the median, as
statistics.quantiles(values, n=4) gives them) next to the metric's bound
from BENCHMARK.json. Run from the root of a checkout:

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [workload ...]

Exits 1 when a run fails or a spread exceeds its bound.
"""
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
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            start = time.monotonic()
            run = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            walls.append(time.monotonic() - start)
            if run.returncode != 0:
                print(f"{workload} seed {seed}: exit {run.returncode}")
                ok = False
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {len(walls)} runs, wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        for name, series in values.items():
            if len(series) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / q2
            flag = "" if spread <= bounds[name] / 3 else (
                "  over bound/3" if spread <= bounds[name] else "  OVER BOUND")
            if spread > bounds[name]:
                ok = False
            print(f"  {name:22s} median {q2:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                  f"  spread {spread:7.4f} (bound {bounds[name]}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
