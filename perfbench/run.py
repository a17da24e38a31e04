#!/usr/bin/env python3
"""End-to-end benchmark of defended federated-learning experiments.

Usage (from the repository root):

    python3 perfbench/run.py --workload vision_l20 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload vision_l20 --seed 1 --seconds 2 --trace 1 --smoke

Builds perfbench/ (the library under src/ plus the benchmark binary) into
$CARGO_TARGET_DIR or .bench_build, runs the named workload and echoes the
binary's report. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where metrics holds every
end_to_end metric of BENCHMARK.json with --trace 0 and every per_layer
metric with --trace 1. Exits non-zero, without a result, when the build
fails or a metric is missing.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BINARY = "baffle_perfbench"
RUN_TIMEOUT_S = 170

METRIC_RE = re.compile(r"^metric (\S+) (\S+) (\S+)")
RESULT_RE = re.compile(r"^result correct=([01]) attempted=(\d+) failed=(\d+)$")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures once, then builds incrementally; tool output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", BINARY,
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, BINARY)


def parse(lines):
    metrics, result = {}, None
    for line in lines:
        m = METRIC_RE.match(line)
        if m:
            metrics[m.group(1)] = (float(m.group(2)), m.group(3))
        r = RESULT_RE.match(line)
        if r:
            result = (r.group(1) == "1", int(r.group(2)), int(r.group(3)))
    return metrics, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrunken workload: checks the plumbing in seconds")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        fail(f"unknown workload {args.workload}")

    out_dir = build_dir()
    binary = build(out_dir)
    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--smoke", "1" if args.smoke else "0", "--trace-dir", trace_dir]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    print(f"why {args.workload}: {why[args.workload]}")
    sys.stdout.write(proc.stdout)
    print(f"wall {time.monotonic() - start:.3f} s")
    if proc.returncode != 0:
        fail(f"{BINARY} exited with {proc.returncode}")

    metrics, result = parse(proc.stdout.splitlines())
    if result is None:
        fail("no result line")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            fail(f"metric {m['name']} not reported")
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            fail(f"metric {m['name']} reported in {unit}, expected {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    correct, attempted, failed = result
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))


if __name__ == "__main__":
    main()
