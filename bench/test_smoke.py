"""Smoke tests of the benchmark: every workload at a tiny size, in seconds.

Run from the repository root with ``python3 -m unittest bench/test_smoke.py``
(or ``python3 -m pytest bench``).  They check that each run is correct and
that the metric names and units it prints match BENCHMARK.json.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class SmokeTest(unittest.TestCase):
    def test_metric_names_match_the_spec(self):
        for w in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    proc = run(w["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in SPEC[key]},
                    )

    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "bench", Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("verify", 0, cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_counts_match_the_package(self):
        import pipedreams as lib

        for n in range(1, 6):
            for w in itertools.permutations(range(1, n + 1)):
                pi = lib.Permutation(w)
                p = workloads.properties(w)
                self.assertEqual(p["words"], len(lib.reduced_words(pi)), w)
                self.assertEqual(p["diagrams"], sum(lib.schubert_polynomial(pi).terms.values()), w)
                self.assertEqual(p["length"], pi.length(), w)

    def test_same_seed_same_inputs(self):
        import random

        import pipedreams as lib

        for name, (setup, _) in workloads.WORKLOADS.items():
            sizes = workloads.SIZES["smoke"][name]
            with self.subTest(workload=name):
                first = setup(random.Random(5), sizes, lib)
                self.assertEqual(first, setup(random.Random(5), sizes, lib))


if __name__ == "__main__":
    unittest.main()
