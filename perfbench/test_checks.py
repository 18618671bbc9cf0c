#!/usr/bin/env python3
"""Tampered outputs must fail the benchmark's correctness checks.

    python3 perfbench/test_checks.py

Builds like run.py, runs a small crash/resume workload twice through the
harness and once through `gluefl run`, then alters one output at a time
and requires the matching check to reject it.
"""

import copy
import os
import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

# A shrunk durable-speech: every check (repeat, CLI trajectory, counters,
# resume event log) runs, in seconds.
SMALL = {
    "flags": ["--scale", "0.02", "--model", "shufflenet", "--env", "edge",
              "--wire", "encoded", "--threads", "1", "--strategy", "stc",
              "--dataset", "femnist", "--rounds", "4", "--scenario", "hostile",
              "--checkpoint-every", "1"],
    "min_reps": 2,
    "crash_at": 2,
}
SEED = 5


class TamperTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        harness, gluefl = bench.build()
        cls.work = bench.BUILD / "runs" / f"test-{os.getpid()}"
        shutil.rmtree(cls.work, ignore_errors=True)
        cls.reps = [bench.run_rep(harness, SMALL, SEED, cls.work / f"rep-{i}")
                    for i in range(2)]
        cls.ref, cls.ref_events = bench.reference_run(gluefl, SMALL, SEED,
                                                      cls.work / "cli")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def tampered(self, edit):
        rep = copy.deepcopy(self.reps[0])
        edit(rep)
        return rep

    def cli_problem(self, rep):
        return bench.cli_mismatch(rep, self.ref, self.ref_events)

    def test_untampered_output_passes_every_check(self):
        for rep in self.reps:
            self.assertTrue(rep.complete, rep.problem)
            self.assertEqual(rep.problem, "")
        self.assertEqual(bench.signature(self.reps[0]),
                         bench.signature(self.reps[1]))
        self.assertIsNone(self.cli_problem(self.reps[0]))

    def test_repeat_check_rejects_a_changed_record(self):
        def edit(rep):
            rep.parts[0]["records"][0][1] *= 1 + 1e-15  # down_bytes
        self.assertNotEqual(bench.signature(self.tampered(edit)),
                            bench.signature(self.reps[1]))

    def test_cli_check_rejects_a_changed_accuracy(self):
        def edit(rep):
            rep.parts[-1]["trajectory"][-1]["accuracy"] += 1e-6
        self.assertIn("trajectory", self.cli_problem(self.tampered(edit)))

    def test_cli_check_rejects_changed_totals(self):
        def edit(rep):
            rep.parts[-1]["totals"]["down_gb"] *= 1.0001
        self.assertIn("totals", self.cli_problem(self.tampered(edit)))

    def test_cli_check_rejects_a_changed_counter(self):
        def edit(rep):
            rep.parts[-1]["counters"]["scenario.frames_rejected"] += 1
        self.assertIn("counter", self.cli_problem(self.tampered(edit)))

    def test_resume_check_rejects_a_changed_event_log(self):
        def edit(rep):
            rep.events = rep.events[:-1] + bytes([rep.events[-1] ^ 1])
        self.assertIn("event log", self.cli_problem(self.tampered(edit)))

    def test_shape_check_rejects_an_unfinished_run(self):
        def edit(rep):
            rep.parts[-1]["records"].pop()
        rep = self.tampered(edit)
        bench.check_rep_shape(rep, SMALL)
        self.assertFalse(rep.complete)
        self.assertIn("completed rounds", rep.problem)


if __name__ == "__main__":
    unittest.main()
