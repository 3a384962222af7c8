#!/usr/bin/env python3
"""Self-test for check_bench_regression.py: --update and the verdict text.

Runs the gate as a subprocess on temporary directories and checks that
  - re-recording a baseline that carries verdict.measured keeps it;
  - recording a new baseline still omits it;
  - the gate flags a changed measured string.

Usage: python3 tools/test_check_bench_regression.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "check_bench_regression.py")


def report(measured, value=1.0):
    return {
        "bench": "X",
        "wall_seconds": 0.5,
        "threads": 2,
        "metrics": {"value": value, "measured_wall_seconds": 0.5},
        "verdict": {"claim": "c", "measured": measured,
                    "shape_reproduced": True},
    }


def write(directory, name, doc):
    with open(os.path.join(directory, name), "w") as f:
        json.dump(doc, f)


def read(directory, name):
    with open(os.path.join(directory, name)) as f:
        return json.load(f)


def gate(*args):
    return subprocess.run([sys.executable, GATE, *args],
                          capture_output=True, text=True)


class UpdateKeepsWhatTheGateChecks(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.baselines = os.path.join(self.tmp.name, "baselines")
        self.produced = os.path.join(self.tmp.name, "produced")
        os.makedirs(self.baselines)
        os.makedirs(self.produced)

    def tearDown(self):
        self.tmp.cleanup()

    def test_rerecord_keeps_measured(self):
        write(self.baselines, "BENCH_X.json", report("old text"))
        write(self.produced, "BENCH_X.json", report("new text", 2.0))
        self.assertEqual(gate("--update", self.baselines,
                              self.produced).returncode, 0)
        rerecorded = read(self.baselines, "BENCH_X.json")
        self.assertEqual(rerecorded["verdict"]["measured"], "new text")
        self.assertEqual(rerecorded["metrics"], {"value": 2.0})
        self.assertNotIn("wall_seconds", rerecorded)

    def test_new_baseline_omits_measured(self):
        write(self.produced, "BENCH_X.json", report("host-timed text"))
        self.assertEqual(gate("--update", self.baselines,
                              self.produced).returncode, 0)
        recorded = read(self.baselines, "BENCH_X.json")
        self.assertNotIn("measured", recorded["verdict"])
        self.assertTrue(recorded["verdict"]["shape_reproduced"])

    def test_changed_measured_is_flagged(self):
        write(self.produced, "BENCH_X.json", report("new text"))
        write(self.baselines, "BENCH_X.json", report("old text"))
        result = gate(self.baselines, self.produced)
        self.assertEqual(result.returncode, 1)
        self.assertIn(".verdict.measured", result.stdout)
        write(self.baselines, "BENCH_X.json", report("new text"))
        self.assertEqual(gate(self.baselines, self.produced).returncode, 0)


if __name__ == "__main__":
    unittest.main()
