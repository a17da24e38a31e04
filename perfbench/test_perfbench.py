#!/usr/bin/env python3
"""The benchmark's own test: smoke-runs every workload, untraced and traced.

    python3 perfbench/test_perfbench.py

Checks that every end-to-end and per-layer metric is printed by name with
a unit, that the last output line is the JSON result with exactly the
metrics BENCHMARK.json lists, that outputs are correct (failed_frac = 0,
mirror parity), and that the run is stamped. Also checks that the
benchmark exits non-zero, without a result, in a directory that holds only
BENCHMARK.json and perfbench/.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

# Every end-to-end metric the benchmark prints, including the ones that
# are not bounded in BENCHMARK.json (exact counts and deterministic rates).
PRINTED_E2E = [
    "experiment_s", "setup_s", "rounds_per_s", "experiments_per_s",
    "round_ms_p50", "round_ms_p99", "verdict_ms_p50", "wire_mb_per_round",
    "fp_rate", "fn_rate", "peak_rss_mb", "failed_frac",
]
METRIC_RE = re.compile(r"^metric (\S+) (\S+) (\S+)")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.relpath(RUN, ROOT) if cwd == ROOT else RUN,
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


class SmokeTest(unittest.TestCase):
    spec = load_spec()

    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        printed = {}
        for line in lines:
            m = METRIC_RE.match(line)
            if m:
                float(m.group(2))
                printed[m.group(1)] = m.group(3)
        layer = [m["name"] for m in self.spec["per_layer"]]
        for name in (layer if trace else PRINTED_E2E):
            self.assertIn(name, printed, f"{workload}: {name} not printed")
            self.assertTrue(printed[name], f"{workload}: {name} has no unit")
        stamp = next(l for l in lines if l.startswith("stamp "))
        for field in ("nproc=", "pool_threads=", "isa=", "build=", "seed=3"):
            self.assertIn(field, stamp)
        self.assertTrue(any(l.startswith(f"why {workload}: ") for l in lines))

        result = json.loads(lines[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], proc.stdout[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in wanted))
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertEqual(got["unit"], printed[m["name"]])
        if trace:
            parity = [l for l in lines if l.startswith("parity ")]
            self.assertEqual(len(parity), 2)
            self.assertTrue(all(l.endswith(": identical") for l in parity))
            self.assertTrue(any(l.startswith("  share ") for l in lines))
            self.assertTrue(any(l.startswith("reason ") for l in lines))
        else:
            self.assertEqual(float(next(
                l.split()[2] for l in lines
                if l.startswith("metric failed_frac "))), 0.0)

    def test_workloads(self):
        for w in self.spec["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "vision_l20",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
