#!/usr/bin/env python3
"""Self-test of the verdict benchmark.

    python3 bench/selftest.py

Runs a few ops of every workload, untraced and traced, and checks that
every metric declared in BENCHMARK.json is emitted with its unit and no op
fails; that tampered answers are counted as failures; and that the count
metrics repeat exactly for one seed.  Takes about a minute.
"""

import dataclasses
import json
import sys
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNTS = [k for k, unit in tracing.UNITS.items()
          if k.endswith((".calls", ".lp_calls", ".nodes")) or k in (
              "ratlp.lp_cells", "generators.induce_per_construction")]


def units(metrics):
    return {k: unit for k, (_, unit) in metrics.items()}


class Metrics(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.import_library()

    def test_end_to_end_metrics_declared_and_clean(self):
        declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                metrics, details, attempted, failed = run.end_to_end(
                    name, seed=3, seconds=0, probes=1, min_ops=11)
                self.assertEqual(units(metrics), declared)
                # 11 timed ops and the untimed warm-up op.
                self.assertEqual((attempted, failed), (12, 0), details["errors"])
                self.assertTrue(all(v > 0 for v, _ in metrics.values()))
                self.assertEqual(details["op_tail_ms"]["percentile"], 100 * 1 / 11)

    def test_traced_metrics_declared_and_clean(self):
        declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
        seen = {}
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                metrics, details, attempted, failed = run.traced(name, seed=3, ops=2)
                self.assertEqual(units(metrics), declared)
                self.assertEqual((attempted, failed), (4, 0), details["errors"])
                seen[name] = {k: v for k, (v, _) in metrics.items()}
        # The bypass predictions: no LP on certify, no CLI on the library workloads.
        self.assertEqual(seen["certify"]["ratlp.solve_feasibility.calls"], 0)
        self.assertEqual(seen["lp"]["cli.main.calls"], 0)
        self.assertGreater(seen["lp"]["metrize.integral_witness_search.lp_calls"], 0)
        self.assertGreater(seen["lp"]["metrize.is_strictly_metric.self_s"], 0)
        self.assertGreater(seen["certify"]["generators.induce_per_construction"], 1)

    def test_counts_repeat_for_one_seed(self):
        first, _, _, _ = run.traced("lp", seed=5, ops=2)
        second, _, _, _ = run.traced("lp", seed=5, ops=2)
        self.assertEqual({k: first[k] for k in COUNTS}, {k: second[k] for k in COUNTS})


class TamperedAnswers(unittest.TestCase):
    """A corrupted answer must fail its check and count in `failed`."""

    @classmethod
    def setUpClass(cls):
        run.import_library()

    def assertAccepted(self, workload, inp, answer):
        self.assertEqual(run.check_records(workload, [[inp, answer, None, 0.0]]), [])

    def assertTamperFails(self, workload, inp, tampered):
        errors = run.check_records(workload, [[inp, tampered, None, 0.0]])
        self.assertEqual(len(errors), 1)
        return errors[0]

    def test_witness_coefficient_and_multiset(self):
        workload = run.Witness(seed=2, count=40)
        for S in workload.inputs:
            answer = workload.op(S)
            if answer[2].status == "found":
                break
        else:
            self.fail("no non-realizable set among the inputs")
        self.assertAccepted(workload, S, answer)
        real, cl, search = answer
        t = next(iter(real.witness))
        alpha = dict(real.witness)
        alpha[t] += 1
        bad = dataclasses.replace(real, witness=alpha)
        self.assertIn("signature", self.assertTamperFails(workload, S, (bad, cl, search)))
        multiset = search.multiset[:-1] + (search.multiset[0],)
        if multiset != search.multiset:
            bad = dataclasses.replace(search, multiset=multiset)
            self.assertTamperFails(workload, S, (real, cl, bad))
        bad = dataclasses.replace(search, status="not_found", multiset=None)
        self.assertIn("not_found", self.assertTamperFails(workload, S, (real, cl, bad)))
        bad = dataclasses.replace(cl, triples=frozenset(S.triples))
        self.assertIn("closure", self.assertTamperFails(workload, S, (real, bad, search)))

    def test_strict_metric_distance(self):
        workload = run.Strict(seed=2)
        system = workload.inputs[0]
        answer = workload.op(system)
        self.assertAccepted(workload, system, answer)
        d = dict(answer.metric.d)
        p = next(iter(d))
        d[p] += 1
        bad = dataclasses.replace(answer, metric=types.SimpleNamespace(d=d))
        self.assertTamperFails(workload, system, bad)

    def test_lp_checks_both_halves(self):
        workload = run.Lp(seed=2)
        inp = workload.inputs[0]
        strict, verdicts = workload.op(inp)
        self.assertAccepted(workload, inp, (strict, verdicts))
        bad = dataclasses.replace(strict, strict=False)
        self.assertIn("is_strictly_metric",
                      self.assertTamperFails(workload, inp, (bad, verdicts)))
        real, cl, search = verdicts
        bad = dataclasses.replace(search, status="inconclusive")
        self.assertIn("inconclusive",
                      self.assertTamperFails(workload, inp, (strict, (real, cl, bad))))

    def test_certify_recovered_bytes(self):
        workload = run.Certify(seed=2)
        try:
            answer = workload.op(workload.inputs[0])
        finally:
            workload.close()
        self.assertAccepted(workload, workload.inputs[0], answer)
        bad = dict(answer, recovered=answer["recovered"].replace("[", " [", 1))
        self.assertIn("byte-identical", self.assertTamperFails(workload, 0, bad))

    def test_raising_op_is_a_failure(self):
        workload = run.Strict(seed=2)
        record = run.run_op(workload, "not a path system")
        self.assertIsNotNone(record[2])
        self.assertEqual(len(run.check_records(workload, [record])), 1)


if __name__ == "__main__":
    unittest.main()
