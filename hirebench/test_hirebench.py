#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 hirebench/test_hirebench.py            # checker + smoke runs
    HIREBENCH_SKIP_SMOKE=1 python3 hirebench/test_hirebench.py  # checker only

The checker tests feed checks.py wrong outputs and expect a CheckFailure.
The smoke tests run run.py for a few seconds on every workload, with
tracing off and on, and expect every metric BENCHMARK.json names, with its
unit, in the result line. Run from the root of the source tree; the smoke
tests build the benchmark first if needed.
"""

import json
import math
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
from checks import CheckFailure  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def body(predictions, user=7, degraded=False):
    return json.dumps({"user": user, "predictions": predictions,
                       "degraded": degraded, "latency_us": 900.0})


class PredictBodyTest(unittest.TestCase):
    def test_accepts_a_correct_answer(self):
        reply = checks.check_predict_body(body([0.4, 3.2, 5.0]), 7, 3, 5.0)
        self.assertEqual(reply["predictions"], [0.4, 3.2, 5.0])

    def test_rejects_nan(self):
        # The server's JSON writer could emit a bare NaN token; Python's
        # parser accepts it, so the checker must catch it explicitly.
        with self.assertRaisesRegex(CheckFailure, "non-finite"):
            checks.check_predict_body(
                '{"user":7,"predictions":[1.0,NaN,2.0],"degraded":false}',
                7, 3, 5.0)
        with self.assertRaisesRegex(CheckFailure, "non-finite"):
            checks.check_predict_body(body([1.0, math.inf, 2.0]), 7, 3, 5.0)

    def test_rejects_out_of_range(self):
        with self.assertRaisesRegex(CheckFailure, "outside"):
            checks.check_predict_body(body([1.0, 5.5, 2.0]), 7, 3, 5.0)
        with self.assertRaisesRegex(CheckFailure, "outside"):
            checks.check_predict_body(body([1.0, -0.1, 2.0]), 7, 3, 5.0)

    def test_rejects_short_array(self):
        with self.assertRaisesRegex(CheckFailure, "2 predictions for 3"):
            checks.check_predict_body(body([1.0, 2.0]), 7, 3, 5.0)

    def test_rejects_wrong_user_degraded_and_garbage(self):
        with self.assertRaisesRegex(CheckFailure, "user"):
            checks.check_predict_body(body([1.0], user=8), 7, 1, 5.0)
        with self.assertRaisesRegex(CheckFailure, "degraded"):
            checks.check_predict_body(body([1.0], degraded=True), 7, 1, 5.0)
        with self.assertRaisesRegex(CheckFailure, "unparseable"):
            checks.check_predict_body('{"user":7,', 7, 1, 5.0)
        with self.assertRaisesRegex(CheckFailure, "not a number"):
            checks.check_predict_body(body([True]), 7, 1, 5.0)


def snapshot(**counters):
    return {"counters": {"serve.outcome." + k: v for k, v in counters.items()}}


class OutcomeSumTest(unittest.TestCase):
    def test_accepts_an_exact_partition(self):
        deltas = checks.outcome_deltas(snapshot(served=10, shed=1),
                                       snapshot(served=110, shed=3))
        checks.check_outcome_sum(deltas, 102)

    def test_rejects_a_mismatch(self):
        deltas = checks.outcome_deltas(snapshot(served=10),
                                       snapshot(served=109, failed=0))
        with self.assertRaisesRegex(CheckFailure, "sum to 99"):
            checks.check_outcome_sum(deltas, 100)


class ReloadTest(unittest.TestCase):
    def test_accepts_a_full_roll(self):
        reply = {"model_version": 4, "shard_versions": [4, 4, 4, 4]}
        health = {"status": "ok", "shard_versions": [4, 4, 4, 4]}
        self.assertEqual(checks.check_reload(reply, health, 3), 4)

    def test_rejects_a_partial_roll_and_a_stale_version(self):
        health = {"status": "ok", "shard_versions": [4, 3, 4, 4]}
        reply = {"model_version": 4, "shard_versions": [4, 4, 4, 4]}
        with self.assertRaisesRegex(CheckFailure, "healthz"):
            checks.check_reload(reply, health, 3)
        with self.assertRaisesRegex(CheckFailure, "after 4"):
            checks.check_reload(reply, {"status": "ok"}, 4)


class StatisticsTest(unittest.TestCase):
    def test_quantiles(self):
        values = list(range(1, 101))
        self.assertEqual(checks.quantile(values, 0.5), 50)
        self.assertEqual(checks.quantile(values, 0.99), 99)
        self.assertEqual(checks.quantile(values + [math.inf], 1.0), math.inf)
        self.assertEqual(checks.median([3, 1, 2, 10]), 2.5)

    def test_histogram_delta_and_quantile(self):
        before = {"histograms": {"h": {"buckets": [[1, 0], [2, 1], [4, 0]],
                                       "sum": 1.5, "overflow": 0}}}
        after = {"histograms": {"h": {"buckets": [[1, 0], [2, 3], [4, 2]],
                                      "sum": 10.5, "overflow": 0}}}
        bounds, counts, total = checks.histogram_delta(before, after, "h")
        self.assertEqual(counts, [0, 2, 2, 0])
        self.assertEqual(total, 9.0)
        self.assertEqual(checks.histogram_quantile(bounds, counts, 0.5), 2.0)
        self.assertEqual(checks.histogram_quantile(bounds, counts, 1.0), 4.0)


@unittest.skipIf(os.environ.get("HIREBENCH_SKIP_SMOKE") == "1",
                 "HIREBENCH_SKIP_SMOKE=1")
class SmokeRunTest(unittest.TestCase):
    """A few-second run per workload emits every metric, with its unit."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as spec:
            cls.spec = json.load(spec)

    def run_bench(self, workload, trace):
        command = self.spec["command"] + [
            "--workload", workload, "--seed", "3", "--seconds", "4",
            "--trace", str(trace)]
        result = subprocess.run(command, cwd=REPO_ROOT, capture_output=True,
                                text=True, timeout=900)
        self.assertEqual(result.returncode, 0, result.stderr[-3000:])
        return json.loads(result.stdout.strip().splitlines()[-1])

    def test_every_metric_with_its_unit(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_bench(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in self.spec[group]}
                    self.assertEqual(set(result["metrics"]), set(expected))
                    for name, unit in expected.items():
                        metric = result["metrics"][name]
                        self.assertEqual(metric["unit"], unit, name)
                        self.assertTrue(math.isfinite(metric["value"]), name)


if __name__ == "__main__":
    unittest.main(verbosity=2)
