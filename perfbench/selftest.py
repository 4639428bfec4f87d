"""Self-tests of the benchmark, on tiny sizes; kept out of the repository's test suite.

    python3 perfbench/selftest.py

Checks that every workload runs end to end and reports exactly the metrics
BENCHMARK.json names, that the traced run's work counters repeat exactly
across two runs of one seed, and that the correctness gate rejects tampered
output.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import ragmark.pipeline  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SCRATCH = HERE / "work" / "selftest"
SEED = 7


def tiny(name: str):
    w = WORKLOADS[name]
    return dataclasses.replace(w, records=3, kb_passages=min(w.kb_passages, 300))


class Fixture:
    def __init__(self, name: str):
        self.w = tiny(name)
        self.dir = SCRATCH / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.manifest = generate(self.w, SEED, self.dir / "data")

    def measure(self, expected=None):
        return harness.measure(self.w, self.dir / "data", self.dir, 0.0, self.manifest, expected)

    def traced(self):
        return harness.measure_traced(self.w, self.dir / "data", self.dir, self.manifest, None, self.dir / "trace.jsonl")


UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def counters(result) -> dict:
    """The per-layer metrics that are work counts or ratios of them, not times."""
    return {k: v for k, v in result.metrics.items() if UNITS[k] in ("count", "ratio")}


class SmokeTest(unittest.TestCase):
    def test_every_workload_runs_and_reports_the_named_metrics(self):
        self.assertEqual(sorted(WORKLOADS), sorted(w["name"] for w in SPEC["workloads"]))
        for name in WORKLOADS:
            with self.subTest(workload=name):
                f = Fixture(name)
                plain = f.measure()
                self.assertTrue(plain.correct, plain.problems)
                self.assertEqual(plain.failed, 0)
                self.assertEqual(list(plain.metrics), [m["name"] for m in SPEC["end_to_end"]])
                self.assertTrue(all(value > 0 for value in plain.metrics.values()))
                traced = f.traced()
                self.assertTrue(traced.correct, traced.problems)
                self.assertEqual(sorted(traced.metrics), sorted(m["name"] for m in SPEC["per_layer"]))
                self.assertEqual(traced.info["digest"], plain.info["digest"])


class DeterminismTest(unittest.TestCase):
    def test_work_counters_repeat_exactly(self):
        for name in ("dense-k11", "mcq-stepback", "bm25-20k"):
            with self.subTest(workload=name):
                f = Fixture(name)
                first, second = counters(f.traced()), counters(f.traced())
                self.assertEqual(first, second)
                self.assertGreater(sum(first.values()), 0)


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.f = Fixture("dense-k11")
        cls.good = cls.f.measure()

    def test_stored_values_accepted(self):
        stored = {"accuracy_pct": self.good.metrics["accuracy_pct"], "digest": self.good.info["digest"]}
        self.assertTrue(self.f.measure(stored).correct)

    def test_rejects_a_stored_digest_that_differs(self):
        stored = {"accuracy_pct": self.good.metrics["accuracy_pct"], "digest": "0" * 64}
        result = self.f.measure(stored)
        self.assertFalse(result.correct)
        self.assertIn("digest", " ".join(result.problems))

    def test_rejects_highlighted_text_that_does_not_round_trip(self):
        original = ragmark.pipeline.highlight

        def tampered(passages, evidence):
            doc = original(passages, evidence)
            (p, text), *rest = doc.passages
            return dataclasses.replace(doc, passages=((p, text.replace(" ", "  ", 1)), *rest))

        ragmark.pipeline.highlight = tampered
        try:
            result = self.f.measure()
        finally:
            ragmark.pipeline.highlight = original
        self.assertFalse(result.correct)
        self.assertIn("strip_tags", " ".join(result.problems))

    def test_rejects_evidence_the_reference_does_not_select(self):
        original = ragmark.pipeline.collect_evidence

        def tampered(chains, pool=()):
            return original(chains, pool)[:-1]

        ragmark.pipeline.collect_evidence = tampered
        try:
            result = self.f.measure()
        finally:
            ragmark.pipeline.collect_evidence = original
        self.assertFalse(result.correct)
        self.assertIn("reference", " ".join(result.problems))


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
