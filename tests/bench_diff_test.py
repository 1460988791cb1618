#!/usr/bin/env python3
"""Unit test of scripts/bench_diff.py's metric classification.

Run: python3 tests/bench_diff_test.py (ctest runs it as bench_diff_classify).
"""
import glob
import importlib.util
import json
import os
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = importlib.util.spec_from_file_location(
    "bench_diff", os.path.join(ROOT, "scripts", "bench_diff.py"))
bench_diff = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_diff)

# Every metric the committed baselines hold, plus the digests fig11 reports
# only when it saves a final snapshot. A new metric must be added here with
# the class it needs.
EXPECTED = {
    "acceptance_failures": "exact",
    "agent_idle_bytes": "exact",
    "aggregation_bytes_sent": "exact",
    "evaluator_bit_mismatches": "exact",
    "evaluator_cached_s": "timing",
    "evaluator_serial_s": "timing",
    "evaluator_speedup_n20000": "timing",
    "exchange_active_instances": "exact",
    "exchange_steady_allocs": "exact",
    "exchange_steady_iterations": "exact",
    "final_state_digest_hi": "exact",
    "final_state_digest_lo": "exact",
    "lifecycle_steady_allocs": "exact",
    "lifecycle_steady_iterations": "exact",
    "maintain_steady_allocs": "exact",
    "node_record_bytes": "exact",
    "peak_rss_mb": "timing",
    "total_bytes_sent": "exact",
}


def baseline_keys():
    keys = {"final_state_digest_hi", "final_state_digest_lo"}
    pattern = os.path.join(ROOT, "bench", "baselines", "BENCH_*.json")
    for path in glob.glob(pattern):
        with open(path, encoding="utf-8") as fh:
            keys.update(json.load(fh).get("metrics", {}))
    return keys


class ClassifyTest(unittest.TestCase):
    def test_every_baseline_key_has_its_class(self):
        keys = baseline_keys()
        self.assertGreater(len(keys), 2, "no baselines found")
        self.assertEqual(sorted(keys - EXPECTED.keys()), [],
                         "metric without an expected class")
        for key in sorted(keys):
            self.assertEqual(bench_diff.classify(key), EXPECTED[key], key)

    def test_only_measurements_are_timing(self):
        for key in ("peak_rss_mb", "round_ms", "parse_us", "lookup_ns",
                    "save_s", "speedup_x", "wall_seconds"):
            self.assertEqual(bench_diff.classify(key), "timing", key)
        for key in ("heap_pages", "active_instances", "bytes_per_round",
                    "state_digest", "some_new_count"):
            self.assertEqual(bench_diff.classify(key), "exact", key)


if __name__ == "__main__":
    unittest.main()
