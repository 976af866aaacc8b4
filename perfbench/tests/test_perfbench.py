"""Self-test of the benchmark on tiny seeded case lists.

    python3 -m unittest discover -s perfbench/tests

Checks that every metric named in BENCHMARK.json is printed with its unit,
that traced and untraced runs give identical fingerprints, and that a
perturbed result, a wrong fingerprint and an exception are each counted as
a failed case without stopping the run.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import cases  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def bench(workload: str, trace: int) -> dict:
    env = dict(os.environ, PERFBENCH_TINY="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsPrinted(unittest.TestCase):
    def check(self, result, spec):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in spec}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))

    def test_untraced_and_traced_runs(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                self.check(bench(workload, 0), SPEC["end_to_end"])
                self.check(bench(workload, 1), SPEC["per_layer"])
                # the traced run's cases against its untraced reference child
                untraced = json.loads(run.details_path(workload, SEED, 0).read_text())["cases"]
                report = json.loads((run.OUT / f"trace-{workload}-seed{SEED}.json").read_text())
                self.assertEqual(
                    [(c["key"], c["offset"], c["fp"]) for c in untraced],
                    [(c["key"], c["offset"], c["fp"]) for c in report["cases"]],
                )


class GateCanFail(unittest.TestCase):
    """A broken answer is a failed case: fail_frac rises and the run goes on."""

    def setUp(self):
        os.environ["PERFBENCH_TINY"] = "1"
        self.wl = run.Workload("det", SEED)
        self.pins = run.load_pins()
        self.jt = self.wl.lib.jt
        self.original = self.jt.chi_e

    def tearDown(self):
        self.jt.chi_e = self.original
        del os.environ["PERFBENCH_TINY"]

    def run_cases(self, perturb):
        calls = []

        def chi_e(*args):
            calls.append(args)
            res = self.original(*args)
            return perturb(res) if len(calls) == 1 else res

        self.jt.chi_e = chi_e
        batch = cases.first_cases(self.wl.stream, 6)
        records = [run.run_case(self.wl, c, self.pins) for c in batch]
        out = json.loads(run.result_line(records, {}))
        self.assertEqual(out["attempted"], 6)
        self.assertEqual(out["failed"], 1)
        self.assertFalse(out["correct"])
        return records

    def test_wrong_identity(self):
        ring = self.wl.lib.ring
        self.run_cases(lambda res: res + ring.y_monomial(1, 0))

    def test_wrong_fingerprint(self):
        # chi_h == chi_e still holds if both are wrong the same way; the pin catches it
        original_h = self.jt.chi_h
        ring = self.wl.lib.ring
        extra = ring.y_monomial(1, 99)
        seen = []

        def chi_h(*args):
            seen.append(args)
            res = original_h(*args)
            return res + extra if len(seen) == 1 else res

        self.jt.chi_h = chi_h
        try:
            records = self.run_cases(lambda res: res + extra)
        finally:
            self.jt.chi_h = original_h
        self.assertIn("pinned", records[0]["error"])

    def test_exception(self):
        def boom(res):
            raise RuntimeError("perturbed")

        records = self.run_cases(boom)
        self.assertIn("perturbed", records[0]["error"])


if __name__ == "__main__":
    unittest.main()
