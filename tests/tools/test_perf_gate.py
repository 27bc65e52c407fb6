#!/usr/bin/env python3
"""Unit tests for the decision function of tools/perf_gate.py.

Canned perfbench result lines (the last stdout line of
`python3 perfbench/run.py`) go through the gate's parse_result and decide;
nothing is built and no benchmark runs.

Runs under plain unittest (no third-party deps):
    python3 tests/tools/test_perf_gate.py
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import unittest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

_spec = importlib.util.spec_from_file_location("perf_gate", REPO_ROOT / "tools" / "perf_gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

# The end-to-end list of BENCHMARK.json, in the shape load_benchmark returns it.
METRICS, _ = gate.load_benchmark(str(REPO_ROOT))

BASE_VALUES = {
    "nodes_per_s": 1000.0,
    "setup_s": 0.0025,
    "peak_rss_mb": 14.0,
    "energy_saved_pct": 2.09,
    "slowdown_p95_pct": 2.11,
    "success_frac": 1.0,
}


def result_line(nodes_per_s: float, correct: bool = True, failed: int = 0,
                **values: float) -> str:
    """A perfbench result line in the shape run.py prints it; `values`
    overrides the other end-to-end metrics."""
    metrics = {name: {"value": value, "unit": ""} for name, value in BASE_VALUES.items()}
    metrics["nodes_per_s"]["value"] = nodes_per_s
    if failed:
        metrics["success_frac"]["value"] = 0.9
    for name, value in values.items():
        metrics[name]["value"] = value
    return json.dumps({"correct": correct, "attempted": 14, "failed": failed,
                       "metrics": metrics})


def runs_for(base: list[str], head: list[str]) -> list[dict]:
    """fleet-service runs, one seed per line, the output log preceding each line."""
    runs = []
    for side, lines in (("base", base), ("head", head)):
        for seed, line in enumerate(lines):
            result = gate.parse_result("[perfbench] building...\n" + line + "\n")
            runs.append({"workload": "fleet-service", "seed": seed, "side": side,
                         "result": result})
    return runs


class DecideTest(unittest.TestCase):
    BASE = [result_line(1000.0), result_line(1040.0), result_line(960.0)]

    def test_ten_percent_drop_passes(self):
        head = [result_line(900.0), result_line(936.0), result_line(864.0)]
        verdict = gate.decide(runs_for(self.BASE, head), METRICS)
        self.assertTrue(verdict["pass"], verdict["failures"])
        self.assertAlmostEqual(verdict["head_over_base"]["fleet-service"]["nodes_per_s"], 0.9)

    def test_thirty_percent_drop_fails(self):
        head = [result_line(700.0), result_line(728.0), result_line(672.0)]
        verdict = gate.decide(runs_for(self.BASE, head), METRICS)
        self.assertFalse(verdict["pass"])
        self.assertIn("fleet-service: median nodes_per_s", verdict["failures"][0])

    def changed(self, nodes_per_s: float = 1000.0, **values: float) -> dict:
        """The verdict when every HEAD run moves the given metrics off the
        base's."""
        head = [result_line(nodes_per_s, **values)] * 3
        return gate.decide(runs_for([result_line(1000.0)] * 3, head), METRICS)

    def test_every_end_to_end_metric_is_gated(self):
        self.assertEqual({m["name"] for m in METRICS}, set(BASE_VALUES))

    def test_peak_rss_up_fifteen_percent_fails(self):
        verdict = self.changed(peak_rss_mb=14.0 * 1.15)
        self.assertFalse(verdict["pass"])
        self.assertEqual(len(verdict["failures"]), 1)
        self.assertIn("fleet-service: median peak_rss_mb", verdict["failures"][0])

    def test_setup_up_thirty_percent_fails(self):
        verdict = self.changed(setup_s=0.0025 * 1.3)
        self.assertFalse(verdict["pass"])
        self.assertIn("fleet-service: median setup_s", verdict["failures"][0])

    def test_energy_saved_down_ten_percent_fails(self):
        verdict = self.changed(energy_saved_pct=2.09 * 0.9)
        self.assertFalse(verdict["pass"])
        self.assertIn("fleet-service: median energy_saved_pct", verdict["failures"][0])

    def test_success_frac_drop_fails(self):
        verdict = self.changed(success_frac=0.95)
        self.assertFalse(verdict["pass"])
        self.assertIn("fleet-service: median success_frac", verdict["failures"][0])

    def test_changes_within_every_bound_pass(self):
        # Each metric moves in its worse direction by just under its bound.
        verdict = self.changed(nodes_per_s=800.0, setup_s=0.0025 * 1.2, peak_rss_mb=14.0 * 1.09,
                               energy_saved_pct=2.09 * 0.96, slowdown_p95_pct=2.11 * 1.15,
                               success_frac=0.995)
        self.assertTrue(verdict["pass"], verdict["failures"])

    def test_incorrect_run_fails(self):
        head = [result_line(1000.0), result_line(1000.0, correct=False), result_line(1000.0)]
        verdict = gate.decide(runs_for(self.BASE, head), METRICS)
        self.assertFalse(verdict["pass"])
        self.assertEqual(verdict["failures"], ["fleet-service seed 1 head: correct: false"])

    def test_failed_ops_fail(self):
        head = [result_line(1000.0), result_line(1000.0), result_line(1000.0, failed=2)]
        verdict = gate.decide(runs_for(self.BASE, head), METRICS)
        self.assertFalse(verdict["pass"])
        self.assertEqual(verdict["failures"], ["fleet-service seed 2 head: failed: 2"])

    def test_missing_result_fails(self):
        runs = runs_for(self.BASE, [result_line(1000.0)])
        runs.append({"workload": "fleet-service", "seed": 1, "side": "head",
                     "result": gate.parse_result("run.py: build failed\n")})
        verdict = gate.decide(runs, METRICS)
        self.assertFalse(verdict["pass"])
        self.assertEqual(verdict["failures"], ["fleet-service seed 1 head: no result"])


if __name__ == "__main__":
    unittest.main()
