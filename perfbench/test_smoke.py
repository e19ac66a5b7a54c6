#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, both ways.

    python3 perfbench/test_smoke.py

Checks that every metric `BENCHMARK.json` names is reported with its unit,
that the sharded workload reproduces the serial digest with its workers
engaged, and that the fluid and shard counters are zero outside their own
workloads.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SCALE = 0.1
FLUID = ["fluid.migrations", "fluid.bytes", "fluid.recompute_ns"]
SHARD = ["shard.workers", "shard.windows", "shard.events_per_window", "shard.speedup_vs_serial"]


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.prog = run.Program(run.build(), SCALE)
        cls.results = {}
        for w in run.WORKLOADS:
            for trace in (0, 1):
                cls.results[w, trace] = run.measure(cls.prog, w, 7, 0.0, trace)
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_every_run_is_correct(self):
        for key, (result, _, problems) in self.results.items():
            self.assertTrue(result["correct"], f"{key}: {problems}")
            self.assertEqual(result["failed"], 0, key)
            self.assertGreater(result["attempted"], 0, key)

    def test_every_metric_is_reported_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in self.spec[section]}
            for w in run.WORKLOADS:
                got = self.results[w, trace][0]["metrics"]
                self.assertEqual(set(got), set(want), (w, section))
                for name, unit in want.items():
                    self.assertEqual(got[name]["unit"], unit, (w, name))
                    self.assertIsInstance(got[name]["value"], (int, float), (w, name))

    def test_end_to_end_metrics_are_positive(self):
        # At this size the fidelity pair may see no short-flow difference,
        # so its errors are only required to be non-negative.
        for w in run.WORKLOADS:
            for name, m in self.results[w, 0][0]["metrics"].items():
                if name.startswith("hybrid_"):
                    self.assertGreaterEqual(m["value"], 0, (w, name))
                else:
                    self.assertGreater(m["value"], 0, (w, name))

    def test_sharded_digest_matches_serial(self):
        serial = self.prog.rep("websearch", 7)
        sharded = self.prog.rep(run.SHARDED, 7)
        self.assertEqual(sharded["workers"], run.SHARDED_WORKERS)
        self.assertEqual(sharded["digest"], serial["digest"])
        self.assertEqual(self.results[run.SHARDED, 0][1]["digest"],
                         self.results["websearch", 0][1]["digest"])

    def test_fluid_and_shard_counters_stay_in_their_workloads(self):
        for w in run.WORKLOADS:
            layers = self.results[w, 1][0]["metrics"]
            for name in FLUID:
                if w == "fattree16-hybrid":
                    self.assertGreater(layers[name]["value"], 0, (w, name))
                else:
                    self.assertEqual(layers[name]["value"], 0, (w, name))
            for name in SHARD:
                if w == run.SHARDED:
                    continue
                self.assertEqual(layers[name]["value"], 0, (w, name))
        self.assertEqual(self.results[run.SHARDED, 1][0]["metrics"]["shard.workers"]["value"],
                         run.SHARDED_WORKERS)

    def test_spec_matches_the_harness(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], run.WORKLOADS)
        for m in self.spec["end_to_end"]:
            self.assertEqual((m["unit"], m["better"], m["bound"]), run.END_TO_END[m["name"]])
        for m in self.spec["per_layer"]:
            self.assertEqual((m["unit"], m["better"]), run.PER_LAYER[m["name"]])


if __name__ == "__main__":
    unittest.main()
