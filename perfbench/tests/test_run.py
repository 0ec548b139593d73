"""Tests of run.py's result composition and of BENCHMARK.json's shape.

    python3 -m unittest discover -s perfbench/tests
"""

import copy
import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def measured_for(metrics):
    return {"correct": True, "attempted": 3, "failed": 0,
            "values": {m["name"]: 1.5 for m in metrics}}


class ComposeResultTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_takes_names_order_and_units_from_the_spec(self):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            measured = measured_for(self.spec["end_to_end"] +
                                    self.spec["per_layer"])
            result, not_entered, problems = run.compose_result(
                measured, self.spec, trace)
            self.assertEqual(problems, [])
            self.assertEqual(not_entered, [])
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertEqual(list(result["metrics"]),
                             [m["name"] for m in self.spec[key]])
            for m in self.spec[key]:
                self.assertEqual(result["metrics"][m["name"]],
                                 {"value": 1.5, "unit": m["unit"]})
            self.assertEqual(json.loads(json.dumps(result)), result)

    def test_layer_not_entered_reads_zero(self):
        measured = measured_for(self.spec["per_layer"][1:])
        result, not_entered, problems = run.compose_result(
            measured, self.spec, True)
        first = self.spec["per_layer"][0]["name"]
        self.assertEqual(problems, [])
        self.assertEqual(not_entered, [first])
        self.assertEqual(result["metrics"][first]["value"], 0.0)

    def test_rejects_missing_end_to_end_and_unknown_names(self):
        missing = measured_for(self.spec["end_to_end"][1:])
        self.assertTrue(run.compose_result(missing, self.spec, False)[2])
        unknown = measured_for(self.spec["end_to_end"])
        unknown["values"]["no_such_metric"] = 1.0
        for trace in (False, True):
            self.assertTrue(run.compose_result(unknown, self.spec, trace)[2])

    def test_rejects_wrong_keys_types_and_values(self):
        good = measured_for(self.spec["end_to_end"])
        self.assertTrue(run.compose_result(dict(good, notes={}), self.spec,
                                           False)[2])
        for key, value in (("correct", 1), ("attempted", 2.0),
                           ("attempted", 0), ("failed", True)):
            bad = dict(good, **{key: value})
            self.assertTrue(run.compose_result(bad, self.spec, False)[2], key)
        for value in (None, "1", float("nan"), True):
            bad = copy.deepcopy(good)
            bad["values"]["setup_s"] = value
            self.assertTrue(run.compose_result(bad, self.spec, False)[2],
                            value)


class BenchmarkSpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_shape(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        names = [w["name"] for w in spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            names += [m["name"] for m in spec[group]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
