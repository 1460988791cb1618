#!/usr/bin/env python3
"""Tests of the benchmark itself, on small populations.

Run from the root of a checkout (builds the benchmark on first use):

    python3 perfbench/tests/test_perfbench.py
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NODES = "2000"


def run_bench(workload, seed, trace, *extra, cwd=ROOT, script=RUN, env=None):
    """Runs one small benchmark run; returns (exit code, stdout lines)."""
    run = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--nodes", NODES, *extra],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    return run.returncode, run.stdout.strip().splitlines()


def digest_of(lines):
    for line in lines:
        match = re.match(r"# state_digest (0x[0-9a-f]{16})$", line)
        if match:
            return match.group(1)
    raise AssertionError("no state digest in output:\n" + "\n".join(lines))


class PerfbenchTest(unittest.TestCase):
    def run_ok(self, workload, seed, trace, *extra):
        code, lines = run_bench(workload, seed, trace, *extra)
        self.assertEqual(code, 0, "\n".join(lines))
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        return lines, result

    def test_sharded_run_reproduces_serial_digest(self):
        serial, _ = self.run_ok("scale_1e5", 5, 0)
        sharded, _ = self.run_ok("scale_1e5_t4", 5, 0)
        self.assertEqual(digest_of(serial), digest_of(sharded))
        self.assertIn("# digest vs scale_1e5: " + digest_of(serial) + " match",
                      sharded)

    def test_traced_run_reproduces_untraced_digest_and_reports_every_metric(self):
        end_to_end = {m["name"] for m in SPEC["end_to_end"]}
        per_layer = {m["name"] for m in SPEC["per_layer"]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                untraced, plain = self.run_ok(workload, 6, 0)
                traced, probed = self.run_ok(workload, 6, 1)
                self.assertEqual(digest_of(untraced), digest_of(traced))
                self.assertTrue(any(
                    re.match(r"# probes left the measured state unchanged "
                             r"\(\d+ probes\): ok$", line) for line in traced),
                    "\n".join(traced))
                self.assertEqual(set(plain["metrics"]), end_to_end)
                self.assertEqual(set(probed["metrics"]), per_layer)
                digest = int(digest_of(traced), 16)
                metrics = probed["metrics"]
                self.assertEqual(metrics["state_digest_hi"]["value"], digest >> 32)
                self.assertEqual(metrics["state_digest_lo"]["value"],
                                 digest & 0xFFFFFFFF)
                for name in end_to_end:
                    self.assertGreater(plain["metrics"][name]["value"], 0, name)

    def test_broken_check_fails_the_command(self):
        for check, trace in (("errm", 0), ("erra", 0), ("n_estimate", 0),
                             ("monotone", 0), ("probe_write", 1)):
            with self.subTest(check=check):
                code, lines = run_bench("continuous_5k", 7, trace,
                                        "--sabotage", check)
                self.assertNotEqual(code, 0)
                self.assertFalse(json.loads(lines[-1])["correct"])

    def test_unknown_sabotage_is_refused(self):
        code, lines = run_bench("continuous_5k", 7, 0, "--sabotage", "digest")
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])

    def test_checkout_without_library_sources_fails(self):
        stripped = ROOT / ".bench_build" / "stripped-checkout"
        shutil.rmtree(stripped, ignore_errors=True)
        stripped.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", stripped)
            shutil.copytree(ROOT / "perfbench", stripped / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            # Build inside the stripped checkout, never in a shared tree.
            env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
            code, lines = run_bench("continuous_5k", 1, 0, cwd=stripped,
                                    script=stripped / "perfbench" / "run.py",
                                    env=env)
            self.assertNotEqual(code, 0)
            self.assertEqual(lines, [])
        finally:
            shutil.rmtree(stripped, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
