"""Self-test of the benchmark's checks: broken outputs must count as failures.

    python3 perfbench/selftest.py [--workloads scan,darboux,evolve_t0,evolve_t]

For each workload it runs one repetition three times: clean, with one value
of the first output CSV corrupted after the CLI wrote it, and with the first
CLI call forced to exit non-zero (its config loses the potential).  The clean
run must report failed = 0; the other two must report failed > 0 and
correct = false.  Exits 1 when any expectation fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload, inject):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seconds", "1", "--inject", inject],
                         cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=180)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]) if out.returncode == 0 and lines else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    bad = 0
    for workload in args.workloads.split(","):
        for inject in ("none", "csv", "exit"):
            res = one_run(workload, inject)
            if res is None:
                ok = False
            elif inject == "none":
                ok = res["correct"] and res["failed"] == 0
            else:
                ok = not res["correct"] and res["failed"] > 0
            bad += not ok
            summary = "no result" if res is None else f"failed {res['failed']}/{res['attempted']}"
            print(f"{'PASS' if ok else 'FAIL'}  {workload:<10} inject={inject:<5} {summary}",
                  flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
