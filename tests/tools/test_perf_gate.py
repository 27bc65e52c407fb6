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

BOUND = 0.25


def result_line(nodes_per_s: float, correct: bool = True, failed: int = 0) -> str:
    """A perfbench result line in the shape run.py prints it."""
    metrics = {
        "nodes_per_s": {"value": nodes_per_s, "unit": "1/s"},
        "setup_s": {"value": 0.0025, "unit": "s"},
        "peak_rss_mb": {"value": 14.0, "unit": "MB"},
        "energy_saved_pct": {"value": 2.09, "unit": "pct"},
        "slowdown_p95_pct": {"value": 2.11, "unit": "pct"},
        "success_frac": {"value": 1.0 if failed == 0 else 0.9, "unit": "frac"},
    }
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
        verdict = gate.decide(runs_for(self.BASE, head), BOUND)
        self.assertTrue(verdict["pass"], verdict["failures"])
        self.assertAlmostEqual(verdict["head_over_base"]["fleet-service"], 0.9)

    def test_thirty_percent_drop_fails(self):
        head = [result_line(700.0), result_line(728.0), result_line(672.0)]
        verdict = gate.decide(runs_for(self.BASE, head), BOUND)
        self.assertFalse(verdict["pass"])
        self.assertIn("fleet-service: median nodes_per_s", verdict["failures"][0])

    def test_incorrect_run_fails(self):
        head = [result_line(1000.0), result_line(1000.0, correct=False), result_line(1000.0)]
        verdict = gate.decide(runs_for(self.BASE, head), BOUND)
        self.assertFalse(verdict["pass"])
        self.assertEqual(verdict["failures"], ["fleet-service seed 1 head: correct: false"])

    def test_failed_ops_fail(self):
        head = [result_line(1000.0), result_line(1000.0), result_line(1000.0, failed=2)]
        verdict = gate.decide(runs_for(self.BASE, head), BOUND)
        self.assertFalse(verdict["pass"])
        self.assertEqual(verdict["failures"], ["fleet-service seed 2 head: failed: 2"])

    def test_missing_result_fails(self):
        runs = runs_for(self.BASE, [result_line(1000.0)])
        runs.append({"workload": "fleet-service", "seed": 1, "side": "head",
                     "result": gate.parse_result("run.py: build failed\n")})
        verdict = gate.decide(runs, BOUND)
        self.assertFalse(verdict["pass"])
        self.assertEqual(verdict["failures"], ["fleet-service seed 1 head: no result"])


if __name__ == "__main__":
    unittest.main()
