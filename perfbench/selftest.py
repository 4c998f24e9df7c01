"""Self-test of the correctness gate: a deliberately corrupted result must fail.

    python3 perfbench/selftest.py [--seed N]

For each workload, runs run.py with --corrupt, which perturbs one output
(by 1e-6 to 1e-5, far above every oracle tolerance and far below anything a
plot would show) after the timed work and before the checks. The run must
print a result with "correct": false and at least one failed item, and exit
with code 1. Exits 0 only if all three workloads catch the corruption.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    ok = True
    for workload in run.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
             "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--corrupt"],
            capture_output=True, text=True, timeout=run.TIME_LIMIT_S + 10)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        caught = (proc.returncode == 1 and result is not None
                  and result["correct"] is False and result["failed"] >= 1)
        ok &= caught
        detail = f"exit {proc.returncode}, failed {result['failed'] if result else '?'}"
        print(f"{'PASS' if caught else 'FAIL'} {workload}: corrupted output {detail}")
        if not caught:
            sys.stderr.write(proc.stderr[-2000:])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
