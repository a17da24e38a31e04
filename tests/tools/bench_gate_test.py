#!/usr/bin/env python3
"""Self-test for tools/bench_gate.py.

Writes small baseline/fresh BENCH JSON pairs into a temporary directory
and runs the gate on each. A clean pair must pass; each seeded defect
must fail with a message naming it:

  - a false ``parity_ok`` flag in the fresh file;
  - a gated baseline speedup field missing from the fresh file;
  - a fresh speedup below the baseline's tolerance floor.

Run directly or via ctest:

    python3 tests/tools/bench_gate_test.py
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
GATE = os.path.join(REPO, "tools", "bench_gate.py")
NAME = "BENCH_x.json"


def bench(speedup=3.0, parity_ok=True, drop_speedup=False):
    """A gated full-mode bench document with one sweep row."""
    row = {"lookback": 10, "fp32_par_speedup": speedup,
           "parity_ok": parity_ok, "bit_identical": True}
    if drop_speedup:
        del row["fp32_par_speedup"]
    return {"smoke": False, "speedup_gate_enforced": True,
            "sweeps": [row], "parity_ok": parity_ok}


def run_gate(baseline, fresh):
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = os.path.join(tmp, "base")
        fresh_dir = os.path.join(tmp, "fresh")
        for d, doc in ((base_dir, baseline), (fresh_dir, fresh)):
            os.mkdir(d)
            with open(os.path.join(d, NAME), "w", encoding="utf-8") as f:
                json.dump(doc, f)
        proc = subprocess.run(
            [sys.executable, GATE, "--fresh", fresh_dir, "--baseline",
             base_dir, "--tol", "0.35", "--file", NAME],
            capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


CASES = [
    # (label, baseline, fresh, expected exit, text the output must hold)
    ("clean pair", bench(), bench(), 0, "bench_gate: ok"),
    ("false parity_ok", bench(), bench(parity_ok=False), 1,
     "parity_ok is not true"),
    ("missing baseline field", bench(), bench(drop_speedup=True), 1,
     "sweeps[0].fp32_par_speedup is in the baseline but missing"),
    ("tolerance miss", bench(speedup=3.0), bench(speedup=1.5), 1,
     "sweeps[0].fp32_par_speedup regressed"),
]


def main() -> int:
    failures = []
    for label, baseline, fresh, want_code, want_text in CASES:
        code, out = run_gate(baseline, fresh)
        if code != want_code or want_text not in out:
            failures.append(f"{label}: exit {code} (want {want_code}), "
                            f"expected '{want_text}' in:\n{out}")
    if failures:
        print("bench_gate_test: FAIL")
        for f in failures:
            print("  -", f)
        return 1
    print(f"bench_gate_test: PASS ({len(CASES)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
