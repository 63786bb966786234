"""Self-checks of the benchmark harness.

Run from the repository root:  python3 -m unittest discover -s bench -t bench
"""

from __future__ import annotations

import importlib
import json
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import passes  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Invocation  # noqa: E402


def _span(id, parent, start, end, hot=None):
    return {"id": id, "name": f"s{id}", "start": start, "end": end, "parent": parent,
            "invocation": "x", "hot": hot or {}, "info": {}}


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        tree = [
            _span(0, None, 0.0, 10.0, hot={"f": [3, 1.0]}),
            _span(1, 0, 1.0, 4.0),
            _span(2, 0, 3.0, 6.0),  # overlaps span 1: the covered part counts once
            _span(3, 1, 2.0, 3.0),
            _span(4, None, 20.0, 21.5),
        ]
        self.assertEqual(spans.self_times(tree), {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.5})


class FailRatioTest(unittest.TestCase):
    def test_corrupted_digest_and_nonzero_exit_count_as_failures(self):
        invs = [
            Invocation("enum-n3r2", ("ekr-search", "--n", "3", "--r", "2", "--enumerate-max"), 3, 2,
                       extra={"enumerate": True}),
            Invocation("usage-error", ("count", "--n", "0", "--r", "1"), 0, 1),
        ]
        result = passes.run_pass(invs, traced=False)
        self.assertEqual([inv["exit"] for inv in result["invocations"]], [0, 2])
        expected = workloads.load_expected()
        failures, attempted = run.tally([result], invs, workloads.DEFAULT_SEED, expected)
        self.assertEqual((len(failures), attempted), (1, 2))
        self.assertIn("usage-error: exit code 2", failures[0])

        corrupted = {**expected, "digests": {**expected["digests"], "enum-n3r2": "0" * 64}}
        failures, attempted = run.tally([result, result], invs, workloads.DEFAULT_SEED, corrupted)
        self.assertEqual((len(failures), attempted), (4, 4))
        self.assertIn("differs from the recorded", failures[0])


class TracedPassTest(unittest.TestCase):
    def test_wrappers_are_removed_after_the_traced_pass(self):
        def current():
            return {(m, a): getattr(importlib.import_module(f"ekr_matchings.{m}"), a)
                    for m, a, _, _ in spans.ENTRY_POINTS}

        before = current()
        cli_main = importlib.import_module("ekr_matchings.cli").main
        with tempfile.TemporaryDirectory() as tmp:
            invs = [
                Invocation("enum-n3r2", ("ekr-search", "--n", "3", "--r", "2", "--enumerate-max"), 3, 2,
                           extra={"enumerate": True}),
                Invocation("kneser-cert-n3", ("kneser-cert", "--n", "3", "--out", f"{tmp}/c.json"), 3,
                           out=f"{tmp}/c.json"),
                Invocation("bad-flag", ("count", "--bogus"), 0),
            ]
            result = passes.run_pass(invs, traced=True)
        self.assertEqual(current(), before)
        self.assertIs(importlib.import_module("ekr_matchings.cli").main, cli_main)
        roots = [s for s in result["spans"] if s["name"] == "cli.main"]
        self.assertEqual([s["invocation"] for s in roots], ["enum-n3r2", "kneser-cert-n3", "bad-flag"])
        self.assertTrue(all(s["end"] >= s["start"] for s in result["spans"]))
        self.assertEqual(result["layer_metrics"]["ekr_search.nodes.enum-n3r2"], 307)
        self.assertEqual([inv["exit"] for inv in result["invocations"]], [0, 0, 2])


class DeclarationTest(unittest.TestCase):
    def test_every_invocation_has_a_declared_ladder_metric(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = {m["name"] for m in declared["per_layer"]}
        for workload in workloads.WORKLOADS:
            for inv in workloads.invocations(workload, workloads.DEFAULT_SEED, Path()):
                self.assertIn(f"cli.main.s.{inv.id}", names)
        self.assertEqual([w["name"] for w in declared["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
