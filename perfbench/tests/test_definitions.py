"""Checks of BENCHMARK.json and the per-layer map in perfbench/layers.json.

Run with: python3 -m unittest discover perfbench/tests
(python3 perfbench/run.py --selftest runs these and the C++ tests).
"""

import json
import os
import re
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(path):
    with open(path) as f:
        return json.load(f)


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.spec = load(os.path.join(ROOT, "BENCHMARK.json"))

    def test_exact_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertIsInstance(self.spec["run_seconds"], int)
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)

    def test_names_and_units(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for section in ("end_to_end", "per_layer"):
            for m in self.spec[section]:
                names.append(m["name"])
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("higher", "lower"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")

    def test_counts_and_bounds(self):
        self.assertTrue(2 <= len(self.spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(self.spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(self.spec["per_layer"]) <= 128)
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.spec["end_to_end"]))

    def test_command_stays_inside_paths(self):
        cmd = self.spec["command"]
        self.assertTrue(1 <= len(cmd) <= 32)
        for arg in cmd:
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
            if "/" in arg:
                self.assertTrue(any(arg.startswith(p + "/") for p in self.spec["paths"]))


class LayerMap(unittest.TestCase):
    def setUp(self):
        self.spec = load(os.path.join(ROOT, "BENCHMARK.json"))
        self.layers = load(os.path.join(BENCH_DIR, "layers.json"))
        self.workloads = {w["name"] for w in self.spec["workloads"]}

    def test_every_end_to_end_metric_is_produced_by_a_workload(self):
        e2e = self.layers["end_to_end"]
        gated = {m["name"] for m in self.spec["end_to_end"]}
        self.assertEqual(gated, {n for n, d in e2e.items() if "reported_as" not in d})
        for name, d in e2e.items():
            self.assertTrue(d["workloads"], name)
            self.assertLessEqual(set(d["workloads"]), self.workloads, name)

    def test_every_per_layer_metric_names_what_it_moves(self):
        per_layer = self.layers["per_layer"]
        self.assertEqual([m["name"] for m in self.spec["per_layer"]], list(per_layer))
        e2e = set(self.layers["end_to_end"])
        for name, d in per_layer.items():
            self.assertTrue(d["call"], name)
            if not d["moves"]:
                # Only references and the price of tracing may move nothing,
                # and they must say why.
                self.assertTrue(d.get("why_none"), name)
                self.assertEqual(d["on"], [], name)
                continue
            self.assertLessEqual(set(d["moves"]), e2e, name)
            self.assertTrue(d["on"], name)
            self.assertLessEqual(set(d["on"]), self.workloads, name)


if __name__ == "__main__":
    unittest.main()
