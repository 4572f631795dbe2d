"""Tests of the benchmark's own logic: metric names, span arithmetic and
output checks. They build and run nothing.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import importlib.util
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = run
_spec.loader.exec_module(run)

CSV = (
    "job,algorithm,shape,n,lambda,rep,seed,work,accepted,accept rate,max jump,mean p,sd p,"
    "alpha,final p,first hit,violations,connected\n"
    "0,chain,line,60,4,0,11,480000,25000,0.05208,-,-,-,-,33,480000,0,yes\n"
    "1,chain,line,60,4,1,12,510000,26000,0.05098,-,-,-,-,34,510000,0,yes\n"
).encode()


def span(id, parent, start, end, name="engine.job", run_id="w/1/replay0"):
    return {"run": run_id, "id": id, "parent": parent, "name": name,
            "start_ns": start, "end_ns": end, "ops": 1}


class MetricNames(unittest.TestCase):
    def test_every_metric_name_is_well_formed(self):
        names = [*run.END_TO_END, *run.PER_LAYER, *run.WORKLOADS]
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertLessEqual(len(name), 64)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_every_layer_span_feeds_a_per_layer_metric(self):
        for metric in run.LAYER_SPANS:
            self.assertIn(metric, run.PER_LAYER)


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(run.self_times([span(0, None, 10, 50)]), {0: 40})

    def test_overlapping_children_are_counted_once(self):
        spans = [
            span(0, None, 0, 100, name="bench.pool"),
            span(1, 0, 10, 60),  # two workers: 10..60 and 40..90 overlap
            span(2, 0, 40, 90),
            span(3, 0, 45, 50),  # nested inside both
        ]
        self.assertEqual(run.self_times(spans)[0], 100 - 80)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, None, 0, 100, name="bench.pass"), span(1, 0, 90, 130)]
        self.assertEqual(run.self_times(spans)[0], 90)

    def test_disjoint_children(self):
        spans = [span(0, None, 0, 100, name="bench.pass"), span(1, 0, 0, 10),
                 span(2, 0, 20, 30), span(3, 1, 2, 4)]
        times = run.self_times(spans)
        self.assertEqual(times[0], 80)
        self.assertEqual(times[1], 8)
        self.assertEqual(times[3], 2)


class OutputCheck(unittest.TestCase):
    def check(self, data, seed=run.DEFAULT_SEED, first_hit=True):
        return run.check_csv(data, 2, first_hit, seed, run.fnv1a64(CSV))

    def test_the_recorded_csv_passes(self):
        self.assertEqual(self.check(CSV), (0, []))

    def test_a_tampered_byte_fails_the_fingerprint(self):
        bad, problems = self.check(CSV.replace(b"25000", b"25001"))
        self.assertEqual(bad, 2)
        self.assertIn("fingerprint", problems[0])

    def test_other_seeds_get_the_structural_checks_only(self):
        self.assertEqual(self.check(CSV.replace(b"25000", b"25001"), seed=7), (0, []))

    def test_a_disconnected_row_fails(self):
        bad, problems = self.check(CSV.replace(b"0,yes\n1,", b"0,NO\n1,"), seed=7)
        self.assertEqual(bad, 1)
        self.assertIn("connected", problems[0])

    def test_violations_and_missing_first_hit_fail(self):
        data = CSV.replace(b"33,480000,0,yes", b"33,-,2,yes")
        bad, problems = self.check(data, seed=7)
        self.assertEqual(bad, 1)
        self.assertIn("violations", problems[0])
        self.assertIn("first hit", problems[0])

    def test_a_missing_row_fails_every_job(self):
        truncated = b"".join(CSV.splitlines(keepends=True)[:2])
        self.assertEqual(self.check(truncated, seed=7)[0], 2)

    def test_a_missing_csv_fails_every_job(self):
        self.assertEqual(self.check(None)[0], 2)


class Counting(unittest.TestCase):
    def test_steps_and_accepted_moves(self):
        counters = [{"local.activations": 7, "local.contracted_forward": 3},
                    {"local-sharded.activations": 5}]
        self.assertEqual(run.work_counts(CSV, counters), (990_000 + 12, 51_000 + 3))

    def test_fnv1a64_reference_value(self):
        self.assertEqual(run.fnv1a64(b""), "0xcbf29ce484222325")
        self.assertEqual(run.fnv1a64(b"a"), "0xaf63dc4c8601ec8c")

    def test_nearest_rank_quantile(self):
        values = list(range(1, 21))
        self.assertEqual(run.quantile(values, 0.5), 10)
        self.assertEqual(run.quantile(values, 0.95), 19)
        self.assertEqual(run.quantile([4.0], 0.95), 4.0)


if __name__ == "__main__":
    unittest.main()
