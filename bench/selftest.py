"""Self-test of the benchmark's own checks.

Runs each workload briefly with the output of op 3 damaged, and once traced,
and asserts that the run still ends normally but reports the failed op:
correct is false, failed is at least 1 and error_rate is above 0. Run it
from the root of a checkout:

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CORRUPT_OP = 3
CASES = [(w, 0) for w in ("plan_large", "verify_small", "simulate", "cli")] + [("verify_small", 1)]


def main() -> int:
    bad = 0
    for workload, trace in CASES:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "2", "--trace", str(trace),
             "--corrupt", str(CORRUPT_OP)],
            capture_output=True, text=True, timeout=170,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        ok = (
            result is not None
            and result["correct"] is False
            and result["failed"] >= 1
            and f"op {CORRUPT_OP}:" in proc.stdout
            and "error_rate 0 " not in proc.stdout
        )
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {workload} trace={trace}: "
              + (f"{result['failed']} of {result['attempted']} ops failed" if result
                 else f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
