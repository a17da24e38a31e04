#!/usr/bin/env python3
"""Gate freshly produced BENCH_*.json files against committed baselines.

Two layers of checking, applied per file:

  1. Correctness flags are UNCONDITIONAL: every ``parity_ok`` and
     ``bit_identical`` anywhere in the FRESH file must be true. These
     record bit-exactness properties (incremental == fresh recompute,
     batched == sequential, parallel == serial), which hold on any host
     at any load — a false value is a bug, never noise.

  2. Speedup fields are compared against the committed baseline with a
     relative tolerance: each numeric field named ``speedup`` or ending
     in ``_speedup`` must satisfy ``fresh >= baseline * (1 - tol)``, and
     a baseline speedup field missing from the fresh file is a failure
     (a gated number must not vanish silently).
     Timing only means something when both runs enforced their speed
     gates (``speedup_gate_enforced`` true on BOTH files — absent counts
     as false, e.g. a starved or single-core host) and both ran the same
     mode (``smoke`` flags equal); otherwise the numeric layer is
     skipped and reported as such. Matching is structural: top-level
     fields pair with top-level fields and row i of a ``sweeps`` array
     pairs with the baseline's row i (the sweeps are fixed lists of
     lookbacks, so index identity is stable).

Exit status is nonzero on any flag failure, any tolerance miss, or an
unreadable/missing fresh file. Baselines are trusted as committed.

Usage:
  bench_gate.py --fresh build-strict [--baseline .] [--tol 0.35] \\
      --file BENCH_defense.json --file BENCH_multieval.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

FLAG_KEYS = ("parity_ok", "bit_identical")
SPEEDUP_SUFFIX = "_speedup"


def walk(node, path=""):
    """Yields (path, key, value) for every key in nested dicts/lists."""
    if isinstance(node, dict):
        for key, value in node.items():
            here = f"{path}.{key}" if path else key
            yield path, key, value
            yield from walk(value, here)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from walk(value, f"{path}[{i}]")


def flag_failures(doc):
    fails = []
    for path, key, value in walk(doc):
        if key in FLAG_KEYS and value is not True:
            where = f"{path}.{key}" if path else key
            fails.append(where)
    return fails


def speedup_fields(doc):
    """Maps a structural label -> value for every speedup field."""
    out = {}
    for path, key, value in walk(doc):
        if key != "speedup" and not key.endswith(SPEEDUP_SUFFIX):
            continue
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        out[f"{path}.{key}" if path else key] = float(value)
    return out


def gate_file(name, fresh_dir, baseline_dir, tol):
    """Returns a list of failure strings for one bench file."""
    fresh_path = os.path.join(fresh_dir, name)
    try:
        with open(fresh_path, encoding="utf-8") as f:
            fresh = json.load(f)
    except (OSError, ValueError) as e:
        return [f"{name}: cannot read fresh results ({e})"]

    fails = [f"{name}: {w} is not true" for w in flag_failures(fresh)]

    baseline_path = os.path.join(baseline_dir, name)
    try:
        with open(baseline_path, encoding="utf-8") as f:
            baseline = json.load(f)
    except (OSError, ValueError):
        print(f"bench_gate: {name}: no readable baseline, "
              "flags-only check")
        return fails

    fresh_gated = fresh.get("speedup_gate_enforced", False) is True
    base_gated = baseline.get("speedup_gate_enforced", False) is True
    same_mode = fresh.get("smoke") == baseline.get("smoke")
    if not (fresh_gated and base_gated and same_mode):
        why = ("mode mismatch (smoke vs full)" if not same_mode
               else "speed gates not enforced on both runs")
        print(f"bench_gate: {name}: speedups not compared — {why}")
        return fails

    fresh_vals = speedup_fields(fresh)
    for label, base_val in speedup_fields(baseline).items():
        fresh_val = fresh_vals.get(label)
        if fresh_val is None:
            fails.append(f"{name}: {label} is in the baseline but missing "
                         "from the fresh results")
            continue
        if base_val <= 0.0:
            continue
        floor = base_val * (1.0 - tol)
        if fresh_val < floor:
            fails.append(
                f"{name}: {label} regressed: {fresh_val:.3f} < "
                f"{floor:.3f} (baseline {base_val:.3f}, tol {tol:.0%})")
    return fails


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", required=True,
                        help="directory holding freshly produced BENCH JSON")
    parser.add_argument("--baseline", default=".",
                        help="directory holding committed baselines")
    parser.add_argument("--tol", type=float, default=0.35,
                        help="relative speedup tolerance (default 0.35)")
    parser.add_argument("--file", action="append", required=True,
                        dest="files", metavar="BENCH_x.json")
    args = parser.parse_args(argv)

    failures = []
    for name in args.files:
        failures.extend(
            gate_file(name, args.fresh, args.baseline, args.tol))

    for failure in failures:
        print(f"bench_gate: FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"bench_gate: ok ({len(args.files)} file(s))")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
