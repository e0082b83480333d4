"""Self-test of the benchmark at tiny sizes (standard library only).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest

import run
from workloads import WORKLOADS, Inputs, all_cells, count_down_sets, faces

CLI = run.import_lefhom()


def tiny(workload, trace, main=None, seed=3):
    return run.run(main or CLI.main, workload, seed, 1, trace, tiny=True)


class MetricsTest(unittest.TestCase):
    def test_every_metric_with_its_unit_and_no_failure(self):
        declared = run.declared_units()
        for name in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result, lines = tiny(name, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], lines)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {m: v["unit"] for m, v in result["metrics"].items()}
                    self.assertEqual(units, declared[kind])
                    for metric, unit in units.items():
                        self.assertTrue(any(l.startswith(f"{metric}: ") and l.endswith(f" {unit}")
                                            for l in lines), metric)
                    self.assertIn("failed_frac: 0 ratio", lines)

    def test_corrupted_answer_is_counted(self):
        def corrupted(argv):
            # the real answer with H_1 flipped from 0 to the ring itself
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = CLI.main(argv)
            ring = argv[argv.index("--ring") + 1]
            sys.stdout.write(out.getvalue().replace("H_1: 0\n", f"H_1: {ring}\n", 1))
            return code

        result, lines = tiny("singular-grids", 0, main=corrupted)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        frac = float(next(l for l in lines if l.startswith("failed_frac:")).split()[1])
        self.assertAlmostEqual(frac, result["failed"] / result["attempted"], places=5)
        self.assertGreater(frac, 0)

    def test_unreadable_output_is_a_failure(self):
        def garbled(argv):
            print("candidate_singular_H_0: Z")
            return 0

        result, _ = tiny("converse-search", 0, main=garbled)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_traceback_is_a_failure(self):
        def crashing(argv):
            raise RecursionError("maximum recursion depth exceeded")

        result, lines = tiny("chain-les", 0, main=crashing)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("raised RecursionError", "\n".join(lines))

    def test_counts_repeat_for_one_seed(self):
        def counts(result):
            return {k: v["value"] for k, v in result["metrics"].items()
                    if v["unit"] not in ("s", "ratio")}

        for name in ("corollary-sweep", "converse-search"):
            with self.subTest(workload=name):
                first, _ = tiny(name, 1, seed=5)
                second, _ = tiny(name, 1, seed=5)
                self.assertEqual(counts(first), counts(second))


class InputsTest(unittest.TestCase):
    def test_no_two_operations_of_a_run_share_their_input(self):
        for name, workload in WORKLOADS.items():
            inputs = Inputs(name, 7)
            seen = set()
            for _ in range(6):
                for op in workload.batch(inputs, False):
                    if op.same_as is None:
                        key = (op.argv, op.stdin)
                        self.assertNotIn(key, seen, name)
                        seen.add(key)

    def test_seed_sets_the_inputs(self):
        for name, workload in WORKLOADS.items():
            one = [(op.argv, op.stdin) for op in workload.batch(Inputs(name, 1), False)]
            again = [(op.argv, op.stdin) for op in workload.batch(Inputs(name, 1), False)]
            other = [(op.argv, op.stdin) for op in workload.batch(Inputs(name, 2), False)]
            self.assertEqual(one, again)
            self.assertNotEqual(one, other)

    def test_down_set_counts(self):
        def grid(m, n):
            return all_cells([((i, i + 1), (j, j + 1)) for i in range(m) for j in range(n)])

        self.assertEqual(count_down_sets(faces(((0, 1),))), 5)  # {}, a, b, ab, ab+edge
        self.assertEqual(count_down_sets(grid(1, 2)), 518)
        self.assertEqual(count_down_sets(grid(1, 3)), 5679)


class GateTest(unittest.TestCase):
    def test_fails_without_the_package(self):
        bare = run.ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "chain-les",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            with self.assertRaises(json.JSONDecodeError):
                json.loads(line)


if __name__ == "__main__":
    unittest.main()
