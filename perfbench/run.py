"""eigenfilter benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload walk-n7 --seed 0 --seconds 25 --trace 0

Run from the root of a checkout. The benchmark is a single closed-loop client:
each op starts when the last one has finished. Every workload runs in worker
processes of its own (worker.py) with BLAS pinned to one thread.

--trace 0 prints the end-to-end metrics: set-up time (median of three set-ups
in fresh processes), median op time, ops per second and peak resident memory.
--trace 1 prints the per-layer metrics of a traced run, which also writes its
spans to perfbench/out/. Every run writes a record with the environment, the
op times and the metrics to perfbench/out/.

The exit code is 0 only when every op passed its output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 3  # set-ups per run; the main worker's own set-up is one
RUN_BUDGET_S = 170.0  # every worker of a run must end within this
P90_MIN_OPS = 100  # the 90th percentile needs ten samples beyond it
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return ""


def _worker(mode: str, args, deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; return its result and its start time."""
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded the run budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1]), started


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(args, deadline) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        res, started = _worker("setup", args, deadline)
        setups.append(res["ready"] - started)
    res, started = _worker("run", args, deadline)
    setups.append(res["ready"] - started)
    times = res["op_times"]
    if not times:
        raise BenchError("no op completed")
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "op_s.p50": _metric(statistics.median(times), "s"),
        "ops_per_s": _metric(len(times) / res["timed_wall"], "1/s"),
        "peak_rss_mb": _metric(res["peak_rss_kb"] / 1024.0, "MiB"),
    }
    res["setup_samples_s"] = setups
    return metrics, res


def _per_layer(args, deadline) -> tuple[dict, dict]:
    res, _ = _worker("trace", args, deadline)
    if not (res["traced_op_times"] and res["untraced_op_times"]):
        raise BenchError("no op completed in the traced or the untraced half")
    metrics = res.pop("per_layer")
    overhead = (statistics.median(res["traced_op_times"])
                - statistics.median(res["untraced_op_times"]))
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    return metrics, res


def _summary(args, res, metrics) -> list[str]:
    times = res["op_times"]
    n = len(times)
    lines = [f"workload={args.workload} seed={args.seed} trace={args.trace} "
             f"ops={n} attempted={res['attempted']} failed={res['failed']}"]
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']!r} {m['unit']}")
    if not args.trace:
        if n >= P90_MIN_OPS:
            p90 = statistics.quantiles(times, n=10)[-1]
            lines.append(f"  op_s.p90 = {p90!r} s (over {n} ops)")
        else:
            lines.append(f"  op_s.p90 = not reported: {n} ops < {P90_MIN_OPS}")
    lines.append(f"  failed_frac = {res['failed'] / res['attempted']!r} "
                 f"({res['failed']} of {res['attempted']} ops)")
    if args.trace:
        top = ", ".join(f"{k} {v:.3f} s" for k, v in res["top_self_s"])
        lines.append(f"  top self time: {top}")
        lines.append(f"  spans written to {res['spans_file']}")
    env = res["environment"]
    lines.append(f"  env: nproc={res['nproc']} python={env['python']} numpy={env['numpy']} "
                 f"scipy={env['scipy']} blas={env['blas']} threads={env['threads']}")
    lines.append(f"  loadavg start=[{res['loadavg_start']}] end=[{res['loadavg_end']}] "
                 f"mean runnable tasks after ops={_mean(res['runnable'])!r}")
    if res["contended"]:
        lines.append("  WARNING: other load overlapped this run; "
                     "its timings are not comparable")
    for err in res["errors"]:
        lines.append(f"  FAILED {err}")
    return lines


def _mean(xs) -> float:
    return statistics.fmean(xs) if xs else 0.0


def _contended(load_start: str, load_end: str, runnable: list[int], nproc: int) -> bool:
    # More runnable tasks than cores on average across the op boundaries
    # (the worker itself is one of them), or over the last minute.
    loads = [float(s.split()[0]) for s in (load_start, load_end) if s]
    return _mean(runnable) > nproc or any(x > nproc for x in loads)


def main(argv=None) -> int:
    spec = json.loads((HERE / "workloads.json").read_text())
    p = argparse.ArgumentParser(description="eigenfilter benchmark")
    p.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    p.add_argument("--seed", type=int, default=spec["default_seed"])
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "eigenfilter" / "__init__.py").is_file():
        print(f"error: no eigenfilter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    deadline = time.monotonic() + RUN_BUDGET_S
    load_start = _loadavg()
    try:
        if args.trace:
            metrics, res = _per_layer(args, deadline)
        else:
            metrics, res = _end_to_end(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    load_end = _loadavg()
    res["contended"] = _contended(load_start, load_end, res["runnable"], nproc)
    res.update(nproc=nproc, loadavg_start=load_start, loadavg_end=load_end,
               metrics=metrics, workload=args.workload, seed=args.seed,
               trace=args.trace)

    OUT.mkdir(exist_ok=True)
    record = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(res, indent=1) + "\n")
    for line in _summary(args, res, metrics):
        print(line)
    correct = res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
