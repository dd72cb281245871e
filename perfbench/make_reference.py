"""Regenerate the stored reference output of the `evolve_t` workload.

    python3 perfbench/make_reference.py

`evolve_t` (t > 0) has no closed form, so its check compares q and q_plus
with this reference at a tolerance of 1e-2.  The file records the commit that
produced it; regenerate it only at a commit whose evolve path is trusted.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import tempfile

import run
import workloads


def main() -> int:
    (command, label, cfg), = workloads.plan("evolve_t", seed=0)
    env = run.child_env(len(os.sched_getaffinity(0)))
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        cfg_path = os.path.join(tmp, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        prefix = os.path.join(tmp, label)
        subprocess.run([sys.executable, "-m", "positonkit", command, "--config", cfg_path,
                        "--output", prefix], cwd=run.ROOT, env=env, check=True)
        with open(prefix + ".csv") as fh:
            rows = list(csv.DictReader(fh))
    src_status = subprocess.run(["git", "-C", run.ROOT, "status", "--porcelain", "--", "src"],
                                capture_output=True, text=True, check=True).stdout
    ref = {
        "commit": run.git_commit(),
        "src_modified": bool(src_status.strip()),
        "command": f"positonkit {command} --config <config>",
        "config": cfg,
        "x": [float(r["x"]) for r in rows],
        "q": [float(r["q"]) for r in rows],
        "q_plus": [float(r["q_plus"]) for r in rows],
    }
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(workloads.REFERENCE, run.ROOT)} at {ref['commit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
