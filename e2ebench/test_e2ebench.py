"""The benchmark's own tests.

Run from the repository root (builds lrt_e2ebench first, ~2 minutes cold):
  python3 -m unittest discover -s e2ebench -v
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import stats  # noqa: E402
import trace_table  # noqa: E402

ROOT = os.path.dirname(HERE)
# The shortest useful run: long enough for every workload's set-up,
# passes and replays to produce at least one sample of each metric.
SHORT_SECONDS = "1"
# An output index each workload reaches within SHORT_SECONDS: request k of
# connection 0 (after set-up traffic) or campaign k.
CORRUPT_INDEX = {"lrtd_cold": 40, "lrtd_edit": 300, "sim_3ts": 2,
                 "sim_multirate": 3}


def bench(workload, seed=1, trace=0, extra=()):
    """Runs run.py; returns (exit code, result line, stdout)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SHORT_SECONDS, "--trace",
         str(trace)] + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result, proc.stdout


def binary_summary(workload, seed, seconds="0.2", trace=0, extra=()):
    """The binary's own summary line for a minimal run."""
    binary = run.build(run.build_dir())
    with tempfile.TemporaryDirectory(dir=run.build_dir()) as out:
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", str(trace), "--setups", "1",
             "--connections", "1", "--workers", "1",
             "--out", os.path.relpath(out, ROOT)] + list(extra),
            cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True,
            timeout=120)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PercentileRuleTest(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(stats.summarize(range(1000))["tail_q"], 99.0)
        self.assertEqual(stats.summarize(range(1000), cap=99.0)["tail_q"],
                         99.0)
        self.assertEqual(stats.summarize(range(999), cap=99.0)["tail_q"],
                         90.0)
        self.assertEqual(stats.summarize(range(10000))["tail_q"], 99.9)
        self.assertIsNone(stats.summarize(range(19))["tail_q"])

    def test_percentiles_are_measured_samples(self):
        values = [0.5, 3.0, 1.0, 2.0] * 25
        summary = stats.summarize(values)
        self.assertIn(summary["p50"], values)
        self.assertIn(summary["tail"], values)
        self.assertEqual(summary["n"], 100)
        self.assertEqual(summary["tail_q"], 90.0)

    def test_names(self):
        self.assertEqual(stats.percentile_name(99.0), "p99")
        self.assertEqual(stats.percentile_name(99.9), "p999")
        self.assertEqual(stats.percentile_name(90.0), "p90")


class TraceTableTest(unittest.TestCase):
    def test_self_time_and_derived_layers(self):
        with tempfile.NamedTemporaryFile("w", suffix=".tsv",
                                         delete=False) as trace:
            # One round trip (10 us), one handle (8 us), and a replayed
            # request (7 us) whose parse child takes 2 us over 1000 bytes.
            trace.write("S\t0\t1\t0\tservice.roundtrip\t0\t10000\t1\t100\n")
            trace.write("S\t0\t2\t0\tservice.handle\t0\t8000\t1\t100\n")
            trace.write("S\t0\t3\t0\treplay.request\t0\t7000\t0\t0\n")
            trace.write("S\t0\t4\t3\tjson.parse\t0\t2000\t1\t1000\n")
            trace.write("M\tservice.cache_hit_ratio\t1\n")
        try:
            spans, values = trace_table.load_trace(trace.name)
        finally:
            os.remove(trace.name)
        rows = trace_table.layer_rows(spans)
        self.assertEqual(rows["replay.request"]["self_us"], [5.0])
        self.assertEqual(rows["replay.request"]["failures"], 1)
        metrics = trace_table.layer_metrics(rows, values)
        self.assertEqual(metrics["service.transport_us"], 2.0)
        self.assertEqual(metrics["service.dispatch_us"], 6.0)
        self.assertEqual(metrics["json.parse_mb_s"], 500.0)
        self.assertEqual(metrics["service.cache_hit_ratio"], 1.0)


class PerLayerTest(unittest.TestCase):
    def test_declared_layers_are_contract_metrics(self):
        names = {m["name"] for m in run.load_contract()["per_layer"]}
        for workload, crossed in run.LAYERS.items():
            self.assertLessEqual(set(crossed), names, workload)
            self.assertLessEqual(run.MAY_BE_ZERO[workload], set(crossed),
                                 workload)

    def test_missing_crossed_layer_fails(self):
        names = [m["name"] for m in run.load_contract()["per_layer"]]
        layer = {name: 1.0 for name in run.LAYERS["sim_3ts"]}
        values = run.per_layer("sim_3ts", layer, names)
        self.assertEqual(values["plant.advance_us"], 1.0)
        self.assertEqual(values["json.parse_us"], 0.0)  # not crossed
        del layer["plant.advance_us"]
        with self.assertRaisesRegex(ValueError, "plant.advance_us"):
            run.per_layer("sim_3ts", layer, names)


class WorkloadTest(unittest.TestCase):
    def setUp(self):
        self.contract = run.load_contract()

    def test_every_workload_emits_every_metric(self):
        end_to_end = [m["name"] for m in self.contract["end_to_end"]]
        per_layer = [m["name"] for m in self.contract["per_layer"]]
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, result, out = bench(workload, trace=0)
                self.assertEqual(code, 0, out)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                names = set(result["metrics"])
                self.assertEqual(names, set(end_to_end))
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)
                code, result, out = bench(workload, trace=1)
                self.assertEqual(code, 0, out)
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), set(per_layer))
                # Every layer the workload crosses was measured.
                for name in run.LAYERS[workload]:
                    if name not in run.MAY_BE_ZERO[workload]:
                        self.assertNotEqual(
                            result["metrics"][name]["value"], 0, name)

    def test_cache_hit_ratio_by_workload(self):
        expected = {"lrtd_cold": 0.0, "lrtd_edit": 1.0}
        for workload, ratio in expected.items():
            with self.subTest(workload=workload):
                code, result, out = bench(workload, trace=1)
                self.assertEqual(code, 0, out)
                self.assertEqual(
                    result["metrics"]["service.cache_hit_ratio"]["value"],
                    ratio)

    def test_corrupted_output_is_counted_as_failed(self):
        for workload, index in CORRUPT_INDEX.items():
            with self.subTest(workload=workload):
                code, result, out = bench(
                    workload, extra=["--corrupt", str(index)])
                self.assertNotEqual(code, 0, out)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_corrupted_replay_is_counted_as_failed(self):
        # The traced run's direct layer replay must reproduce the closed
        # loop's outputs; one altered replay result fails the run through
        # that oracle alone.
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                summary = binary_summary(workload, 1, seconds="1.5",
                                         trace=1, extra=["--corrupt-replay"])
                self.assertEqual(summary["replay_failed"], 1)
                self.assertEqual(summary["wrong_outputs"], 1)
                self.assertEqual(summary["shed"] + summary["error_frames"],
                                 0)
                clean = binary_summary(workload, 1, seconds="1.5", trace=1)
                self.assertEqual(clean["replay_failed"], 0)
                self.assertEqual(clean["wrong_outputs"], 0)
        code, result, out = bench("sim_multirate", trace=1,
                                  extra=["--corrupt-replay"])
        self.assertNotEqual(code, 0, out)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("of which replay mismatches 1", out)

    def test_input_digest_depends_only_on_the_seed(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = binary_summary(workload, 5)["input_digest"]
                again = binary_summary(workload, 5)["input_digest"]
                other = binary_summary(workload, 6)["input_digest"]
                self.assertEqual(first, again)
                self.assertNotEqual(first, other)


if __name__ == "__main__":
    unittest.main()
