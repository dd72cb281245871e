"""positonkit benchmark: seeded CLI workloads timed end to end, one fresh process per run.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Run from the root of a checkout that holds `src/positonkit`.  Every
repetition is a fresh child process (`child.py`), started one at a time; the
parent writes the generated configs and a full `result.json` under
`.perfbench_runs/<workload>-seed<seed>-trace<trace>/` and prints, as its last
line, one JSON object with `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb); with `--trace 1` they are the per-layer ones from traced
repetitions, alternated with untraced ones to measure the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(ROOT, ".perfbench_runs")
SETUP_PROBES = 5            # import-only children per run, for the setup_s median
BUDGET_S = 170.0            # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    env.pop("DARBOUX_THREADS", None)      # it switches `scatter` onto a thread pool
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in THREAD_VARS:
        try:
            n = int(env.get(var, ""))
        except ValueError:
            n = 0
        if not 1 <= n <= nproc:
            env[var] = str(nproc)
    return env


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Runner:
    def __init__(self, run_dir, env, start):
        self.run_dir = run_dir
        self.env = env
        self.start = start
        self.n = 0

    def remaining(self) -> float:
        return BUDGET_S - (perf_counter() - self.start)

    def child(self, extra, workdir=None):
        """Run one child to completion; its result dict, or None when it failed."""
        self.n += 1
        out = os.path.join(self.run_dir, f"child-{self.n:03d}.json")
        log = os.path.join(self.run_dir, f"child-{self.n:03d}.log")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
               "--out", out] + extra
        if workdir is not None:
            cmd += ["--workdir", workdir]
        with open(log, "w") as fh:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=fh, stderr=fh)
            try:
                code = proc.wait(timeout=max(1.0, self.remaining()))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if proc.poll() is None:     # timed out or interrupted: never leave it running
                    proc.kill()
                    proc.wait()
        if code != 0 or not os.path.exists(out):
            return None
        with open(out) as fh:
            return json.load(fh)

    def repetition(self, plan_path, n_items, trace, inject):
        """One workload repetition with its outputs in a temporary directory."""
        workdir = tempfile.mkdtemp(prefix="outputs-", dir=self.run_dir)
        try:
            res = self.child(["--plan", plan_path, "--trace", str(trace),
                              "--inject", inject], workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if res is None:
            # the child died: every call and check of the repetition counts as failed
            res = {"attempted": n_items, "failed": n_items, "crashed": True}
        return res


def spread(values):
    out = {"n": len(values), "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("none", "csv", "exit"), default="none",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    start = perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "positonkit", "cli.py")):
        print(f"error: no positonkit sources under {ROOT}/src", file=sys.stderr)
        return 2

    run_dir = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "configs"))
    calls = []
    for i, (command, label, cfg) in enumerate(workloads.plan(args.workload, args.seed)):
        path = os.path.join(run_dir, "configs", f"{i:02d}-{label}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=1)
        calls.append({"command": command, "label": label, "config_path": path,
                      "replay": f"positonkit {command} --config {os.path.relpath(path, ROOT)}"})
    plan_path = os.path.join(run_dir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(calls, fh, indent=1)

    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    runner = Runner(run_dir, env, start)
    setup = []
    for _ in range(SETUP_PROBES):
        res = runner.child(["--setup-only"])
        if res is None:
            print("error: importing positonkit failed; see the child logs in " + run_dir,
                  file=sys.stderr)
            return 1
        setup.append(res["setup_s"])

    # Repeat while another repetition of the mean length fits in --seconds;
    # with --trace 1, untraced and traced repetitions alternate.
    reps = []
    t_reps = perf_counter()
    while True:
        trace = args.trace and len(reps) % 2 == 1
        reps.append(runner.repetition(plan_path, 2 * len(calls), int(trace), args.inject))
        reps[-1]["traced"] = bool(trace)
        elapsed = perf_counter() - t_reps
        per_rep = elapsed / len(reps)
        need_traced = args.trace and not any(r["traced"] for r in reps)
        if reps[-1].get("crashed") or runner.remaining() < 2 * per_rep:
            break
        if not need_traced and elapsed + per_rep > args.seconds:
            break

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    done = [r for r in reps if not r.get("crashed")]
    traced = [r for r in done if r["traced"]]
    untraced = [r for r in done if not r["traced"]]
    # wall_s is the time to a solution that passed its checks, when there is one
    untraced = [r for r in untraced if r["failed"] == 0] or untraced
    setup += [r["setup_s"] for r in done]
    if not untraced or (args.trace and not traced):
        print("error: no repetition completed; see the child logs in " + run_dir,
              file=sys.stderr)
        return 1

    summary = {
        "wall_s": spread([r["wall_s"] for r in untraced]),
        "setup_s": spread(setup),
        "peak_rss_mb": spread([r["peak_rss_mb"] for r in untraced]),
        "cpu_s": spread([r["cpu_s"] for r in untraced]),
        "failed_frac": failed / attempted,
        "gate_margin": [r.get("gate_margin") for r in reps],
    }
    if args.trace:
        metrics, missing = trace_metrics(traced, untraced)
    else:
        metrics = {"wall_s": {"value": summary["wall_s"]["median"], "unit": "s"},
                   "setup_s": {"value": summary["setup_s"]["median"], "unit": "s"},
                   "peak_rss_mb": {"value": summary["peak_rss_mb"]["median"], "unit": "MB"}}
        missing = []

    environment = {
        "nproc": nproc,
        "thread_env": {v: env[v] for v in THREAD_VARS},
        "git_commit": git_commit(),
        **untraced[0]["environment"],
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inject": args.inject, "calls": calls,
              "environment": environment, "summary": summary, "metrics": metrics,
              "missing_metrics": missing, "repetitions": reps}
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    margins = summary["gate_margin"]
    print(f"{args.workload} seed={args.seed}: {len(reps)} repetitions, "
          f"failed {failed}/{attempted}, gate_margin {margins}, "
          f"wall_s {summary['wall_s']}, results in {os.path.relpath(run_dir, ROOT)}",
          file=sys.stderr)
    if missing:
        print("missing metrics (their targets are gone): " + ", ".join(missing), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def trace_metrics(traced, untraced):
    """Per-layer metrics: medians over the traced repetitions."""
    metrics = {}
    for name, first in traced[0]["trace"]["metrics"].items():
        values = [r["trace"]["metrics"][name]["value"] for r in traced
                  if name in r["trace"]["metrics"]]
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
    metrics["process.cpu_s"] = {"value": statistics.median(r["cpu_s"] for r in untraced),
                                "unit": "s"}
    threads = [b["threads"] for b in untraced[0]["environment"]["blas"]
               if b["threads"] is not None]
    if threads:
        metrics["process.blas_threads"] = {"value": float(max(threads)), "unit": "count"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced), "unit": "s"}
    missing = sorted({m for r in traced for m in r["trace"]["missing_metrics"]})
    if not threads:
        missing.append("process.blas_threads")
    return metrics, missing


if __name__ == "__main__":
    sys.exit(main())
