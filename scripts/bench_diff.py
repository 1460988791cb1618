#!/usr/bin/env python3
"""Compare fresh bench JSON reports against the committed baselines.

Usage:
    python3 scripts/bench_diff.py [--baseline bench/baselines] \
        [--current bench-json] [--tolerance 10] [--strict]

For every BENCH_<name>.json in the baseline directory, the matching report in
the current directory is compared field by field:

  * `phases_seconds` and the metrics that name a wall-clock or memory
    measurement (`*_s`, `*_ms`, `*_us`, `*_ns`, `*speedup*`, `*seconds*`,
    `*rss*`) are noisy: deltas beyond the tolerance (default +/-10%)
    produce a warning. Shared CI runners are noisy, so timing drift NEVER
    fails the job -- it is a nudge to look, or to refresh the baseline.
  * Every other metric is exact: allocation and page counts, instance
    counts, bit-mismatch and failure counters, byte totals and digests are
    all deterministic given the same config, so ANY change warns. A
    deliberate protocol or wire change should land together with a baseline
    refresh.
  * Config fields (`nodes`, `seed`, `peer_sample`, `threads`) must match;
    otherwise the report pair is skipped with a warning, since comparing
    different workloads is meaningless.

Exit code is 0 unless --strict is given (then any warning fails) or the
inputs are unreadable. Under GitHub Actions, warnings are also emitted as
::warning:: annotations.

Refreshing baselines (from the repo root, after a Release build):
    ADAM2_BENCH_MICRO_ACCEPT_ONLY=1 ADAM2_BENCH_JSON=bench/baselines \
        ./build/bench/micro_core
    ADAM2_BENCH_N=500 ADAM2_BENCH_PEERS=100 ADAM2_BENCH_THREADS=2 \
        ADAM2_BENCH_JSON=bench/baselines ./build/bench/fig11_scalability
    rm -f bench/baselines/MANIFEST_* bench/baselines/METRICS_*
"""
import argparse
import glob
import json
import os
import re
import sys

CONFIG_KEYS = ("nodes", "seed", "peer_sample", "threads")

# Wall-clock and memory measurements and their ratios: compare with
# tolerance. Anything else is a deterministic count (the snapshot-state
# digests the resume-smoke job compares included, DESIGN.md §12), where any
# drift is a real behaviour change, not noise -- so a new count is exact
# unless its name says it is a measurement.
TIMING_RE = re.compile(r"(_s$|_ms$|_us$|_ns$|speedup|seconds|rss)")


def classify(key: str) -> str:
    return "timing" if TIMING_RE.search(key) else "exact"


def iter_values(report: dict):
    for key, value in sorted(report.get("phases_seconds", {}).items()):
        yield f"phases_seconds.{key}", "timing", value
    for key, value in sorted(report.get("metrics", {}).items()):
        if isinstance(value, (int, float)):
            yield f"metrics.{key}", classify(key), value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="bench/baselines")
    parser.add_argument("--current", default="bench-json")
    parser.add_argument("--tolerance", type=float, default=10.0,
                        help="allowed timing drift in percent (default 10)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero if anything drifted")
    args = parser.parse_args()

    baselines = sorted(glob.glob(os.path.join(args.baseline, "BENCH_*.json")))
    if not baselines:
        print(f"bench_diff: no baselines under {args.baseline}",
              file=sys.stderr)
        return 1

    in_actions = os.environ.get("GITHUB_ACTIONS") == "true"
    warnings = 0

    def warn(message: str) -> None:
        nonlocal warnings
        warnings += 1
        print(f"  WARN {message}")
        if in_actions:
            print(f"::warning title=bench drift::{message}")

    for baseline_path in baselines:
        name = os.path.basename(baseline_path)
        current_path = os.path.join(args.current, name)
        print(f"== {name}")
        if not os.path.exists(current_path):
            warn(f"{name}: no current report under {args.current}")
            continue
        with open(baseline_path, encoding="utf-8") as fh:
            base = json.load(fh)
        with open(current_path, encoding="utf-8") as fh:
            cur = json.load(fh)

        config_mismatch = [k for k in CONFIG_KEYS
                           if base.get(k) != cur.get(k)]
        if config_mismatch:
            warn(f"{name}: config mismatch on {config_mismatch} "
                 f"(baseline {[base.get(k) for k in config_mismatch]} vs "
                 f"current {[cur.get(k) for k in config_mismatch]}) -- "
                 "skipping comparison")
            continue

        cur_values = {key: (kind, value)
                      for key, kind, value in iter_values(cur)}
        for key, kind, base_value in iter_values(base):
            if key not in cur_values:
                warn(f"{name}: {key} missing from current report")
                continue
            cur_value = cur_values.pop(key)[1]
            if kind == "exact":
                if base_value != cur_value:
                    warn(f"{name}: {key} changed {base_value} -> {cur_value} "
                         "(deterministic metric; refresh the baseline if "
                         "intended)")
                else:
                    print(f"  ok   {key} = {cur_value}")
                continue
            if base_value == 0:
                status = "ok" if cur_value == 0 else "drift"
                delta_text = f"{base_value} -> {cur_value}"
            else:
                delta = 100.0 * (cur_value - base_value) / abs(base_value)
                status = "ok" if abs(delta) <= args.tolerance else "drift"
                delta_text = (f"{base_value:.6g} -> {cur_value:.6g} "
                              f"({delta:+.1f}%)")
            if status == "ok":
                print(f"  ok   {key} {delta_text}")
            else:
                warn(f"{name}: {key} drifted beyond "
                     f"+/-{args.tolerance:.0f}%: {delta_text}")
        for key in cur_values:
            print(f"  new  {key} (not in baseline)")

    print(f"bench_diff: {warnings} warning(s)")
    if warnings and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
