"""One repetition of a workload, run by `run.py` in a fresh process.

The child times the import of `positonkit.cli` (what every CLI invocation
pays), then drives `positonkit.cli.main` once per planned call, then checks
the outputs.  Only the standard library is imported before the timed import.
It writes one JSON result file; the parent reads it after the child exits.

    python3 child.py --root ROOT --plan PLAN.json --workdir DIR --out RESULT.json
                     [--trace 0|1] [--setup-only] [--inject none|csv|exit]
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import traceback
from time import perf_counter


def _blas_info():
    """Thread count and build string of every OpenBLAS loaded in this process."""
    paths = []
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path) and path not in paths:
                    paths.append(path)
    except OSError:     # no /proc: the thread count is reported as missing
        return []
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path), "threads": None, "config": None}
        for suffix in ("", "64_", "_64"):
            for prefix in ("openblas", "scipy_openblas"):
                if info["threads"] is None and hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                    info["threads"] = int(getattr(lib, f"{prefix}_get_num_threads{suffix}")())
                if info["config"] is None and hasattr(lib, f"{prefix}_get_config{suffix}"):
                    fn = getattr(lib, f"{prefix}_get_config{suffix}")
                    fn.restype = ctypes.c_char_p
                    info["config"] = fn().decode(errors="replace")
        out.append(info)
    return out


def _corrupt_one_value(csv_path):
    """Add 1 to the third column of the first data row (a checked value)."""
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) + 1.0)
    lines[1] = ",".join(cells)
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--plan")
    ap.add_argument("--workdir")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--inject", choices=("none", "csv", "exit"), default="none")
    args = ap.parse_args(argv)
    src = os.path.realpath(os.path.join(args.root, "src"))

    t0 = perf_counter()
    from positonkit import cli
    setup_s = perf_counter() - t0
    import positonkit
    if not os.path.realpath(positonkit.__file__).startswith(src + os.sep):
        print(f"positonkit was imported from {positonkit.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    result = {"setup_s": setup_s}
    if args.setup_only:
        with open(args.out, "w") as fh:
            json.dump(result, fh)
        return 0

    import numpy as np
    import scipy
    import workloads

    with open(args.plan) as fh:
        calls = json.load(fh)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    records = []
    cpu0 = os.times()
    wall0 = perf_counter()
    for i, call in enumerate(calls):
        prefix = os.path.join(args.workdir, call["label"])
        config = call["config_path"]
        if args.inject == "exit" and i == 0:
            # a config without its potential: the CLI must exit with code 2
            with open(config) as fh:
                broken = json.load(fh)
            broken.pop("potential")
            config = os.path.join(args.workdir, "broken-config.json")
            with open(config, "w") as fh:
                json.dump(broken, fh)
        if tracer is not None:
            tracer.cli_call = i
        rec = {"label": call["label"], "command": call["command"], "exit_code": None}
        try:
            rec["exit_code"] = cli.main([call["command"], "--config", config, "--output", prefix])
        except Exception:   # an escaped exception is a failed call, not a failed benchmark
            rec["error"] = traceback.format_exc()
        records.append(rec)
    wall_s = perf_counter() - wall0
    cpu1 = os.times()
    restored = tracer.restore() if tracer is not None else True

    result.update({
        "wall_s": wall_s,
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bytes_written": _dir_bytes(args.workdir),
        "calls": records,
    })
    if args.inject == "csv":
        _corrupt_one_value(os.path.join(args.workdir, calls[0]["label"] + ".csv"))

    checks = []
    x_rows = 0
    for call, rec in zip(calls, records):
        prefix = os.path.join(args.workdir, call["label"])
        with open(call["config_path"]) as fh:
            cfg = json.load(fh)
        checks.append({"name": f"{call['label']}: exit code", "passed": rec["exit_code"] == 0,
                       "closed_form": False})
        checks.extend(workloads.check_outputs(call["command"], call["label"], cfg, prefix))
        if call["command"] == "evolve":
            x_rows += workloads.output_rows(prefix)

    if tracer is not None:
        metrics, missing = tracer.metrics(x_rows, result["bytes_written"])
        self_total = sum(tracer.self_s.values())
        checks.append({"name": "trace: self times sum to at most wall_s",
                       "passed": self_total <= wall_s, "closed_form": False})
        checks.append({"name": "trace: every wrapped attribute restored",
                       "passed": restored, "closed_form": False})
        result["trace"] = {"metrics": metrics, "missing_metrics": missing,
                           "missing_targets": tracer.missing,
                           "hook_errors": tracer.hook_errors,
                           "self_s": tracer.self_s, "self_s_total": self_total}

    margins = [c["margin"] for c in checks if c["closed_form"]]
    result.update({
        "checks": checks,
        "attempted": len(checks),
        "failed": sum(not c["passed"] for c in checks),
        # closed-form checks only; None when the workload has none or an error is not finite
        "gate_margin": (min(margins) if margins and None not in margins else None),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "positonkit": positonkit.__version__,
            "blas": _blas_info(),
        },
    })
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
