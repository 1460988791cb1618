#!/usr/bin/env python3
"""Repository benchmark: builds adam2_perfbench and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (which compiles the library
sources under src/) into $CARGO_TARGET_DIR/perfbench-<hash of this
checkout's path>, default .bench_build/perfbench-<hash>. The hash keeps
checkouts that share one CARGO_TARGET_DIR from building and measuring each
other's code. Later runs re-run the configure step (cheap; cmake refuses a
cache made from another source tree) and re-check the build. Build output
goes to stderr. The benchmark's own output goes to stdout and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when the build succeeded, every correctness check passed and the result line
is well formed.

Runs of one build share a state directory: each untraced run records its
final state digest there, and traced runs (and scale_1e5_t4) compare against
the digest recorded for the same workload (or scale_1e5) and seed, and say
so when there is none. A rebuild clears it.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    tree = hashlib.sha256(str(HERE).encode()).hexdigest()[:12]
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return root / f"perfbench-{tree}"


def build(out: Path) -> Path:
    """Configures and builds the benchmark; returns the binary path."""
    binary = out / "adam2_perfbench"
    generator = []
    if not (out / "CMakeCache.txt").exists() and shutil.which("ninja"):
        generator = ["-G", "Ninja"]
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(out), *generator,
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    before = binary.stat().st_mtime_ns if binary.exists() else None
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    state = out / "state"
    if binary.stat().st_mtime_ns != before and state.exists():
        shutil.rmtree(state)  # Digests of an older build.
    state.mkdir(exist_ok=True)
    return binary


def valid_result(line: str) -> bool:
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and isinstance(result["metrics"], dict))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--nodes", type=int,
                        help="override the workload's size (for tests)")
    parser.add_argument("--sabotage",
                        help="break one correctness check on purpose (for tests)")
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--state-dir", str(out / "state")]
    if args.nodes is not None:
        command += ["--nodes", str(args.nodes)]
    if args.sabotage:
        command += ["--sabotage", args.sabotage]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    lines = run.stdout.strip().splitlines()
    if run.returncode == 0 and not (lines and valid_result(lines[-1])):
        print("perfbench: malformed result line", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
