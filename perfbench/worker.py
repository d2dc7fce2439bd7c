"""Benchmark worker: sets up one workload and runs it in this process.

run.py starts it; it prints one JSON object as its last line of output.

    worker.py setup  --workload W --seed S   set up, report when inputs were ready
    worker.py run    --workload W --seed S --seconds T
                                             set up, then run rounds of ops
                                             until T seconds have passed
    worker.py trace  --workload W --seed S   set up traced, run the workload's
                                             fixed rounds untraced, then traced
    worker.py record --workload W --seed S   run one round, print the fingerprints
                                             to store as references in
                                             workloads.json

BLAS threads are pinned to 1 before numpy is imported.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MAX_ERRORS = 20  # failure messages kept per run; every failure is counted
MAX_ERROR_CHARS = 600


def _import_package():
    sys.path.insert(0, str(SRC))
    import eigenfilter

    where = Path(eigenfilter.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"eigenfilter imported from {where}, not from {SRC}")


def _runnable_tasks() -> int:
    # fourth field of /proc/loadavg is "running/total"; this process is one
    try:
        return int(Path("/proc/loadavg").read_text().split()[3].split("/")[0])
    except (OSError, IndexError, ValueError):
        return 0


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


class Runner:
    """Runs rounds of a workload's ops and checks every result."""

    def __init__(self, workload, references: dict, tracer=None):
        self.wl = workload
        self.refs = references
        self.tracer = tracer
        self.seen: dict = {}
        self.op_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.runnable: list[int] = []

    def _fail(self, key, message):
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(f"{self.wl.name} op {key}: {message}"[:MAX_ERROR_CHARS])

    def run_op(self, key, call):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted - 1
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception:  # an op that raises is a failed op; keep running
            self._fail(key, traceback.format_exc(limit=3))
            return
        self.op_times.append(time.perf_counter() - t0)
        self.runnable.append(_runnable_tasks())
        problems = list(self.wl.check(result))
        fp = self.wl.fingerprint(result)
        first = self.seen.setdefault(key, fp)
        if not self.wl.same(fp, first):
            problems.append(f"differs from its first run in this process: {fp} vs {first}")
        ref = self.refs.get(key)
        if ref is not None and not self.wl.same(fp, ref):
            problems.append(f"differs from the recorded reference: {fp} vs {ref}")
        if problems:
            self._fail(key, "; ".join(problems))

    def run_round(self):
        for key, call in self.wl.ops:
            self.run_op(key, call)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "run", "trace", "record"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    args = p.parse_args(argv)

    _import_package()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    spec = json.loads((HERE / "workloads.json").read_text())
    refs_by_seed = spec["workloads"][args.workload].get("references", {})
    tracer = tracing.Tracer() if args.mode == "trace" else None

    if tracer is not None:
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    workloads.warm_up(args.seed)
    ready = time.monotonic()
    if tracer is not None:
        tracer.uninstall()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    if args.mode == "record":
        runner = Runner(wl, {})
        runner.run_round()
        print(json.dumps({"seed": args.seed, "fingerprints": runner.seen,
                          "failed": runner.failed, "errors": runner.errors}))
        return 0 if runner.failed == 0 else 1

    # "all" holds the ops whose ledger does not depend on the seed
    refs = {**refs_by_seed.get("all", {}), **refs_by_seed.get(str(args.seed), {})}
    runner = Runner(wl, refs, tracer)
    out = {"ready": ready, "environment": _environment()}

    t0 = time.perf_counter()
    if args.mode == "run":
        deadline = t0 + args.seconds
        while True:
            runner.run_round()
            if time.perf_counter() >= deadline:
                break
    else:
        for _ in range(wl.trace_rounds):
            runner.run_round()
        untraced = list(runner.op_times)
        tracer.install()
        try:
            for _ in range(wl.trace_rounds):
                runner.run_round()
        finally:
            tracer.uninstall()
        out["untraced_op_times"] = untraced
        out["traced_op_times"] = runner.op_times[len(untraced):]
    timed_wall = time.perf_counter() - t0
    if tracer is not None:
        out["per_layer"] = tracer.metrics()
        out["top_self_s"] = tracer.top_self()
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.span_records()))
        out["spans_file"] = str(spans_file.relative_to(ROOT))
    out.update(
        timed_wall=timed_wall,
        op_times=runner.op_times,
        attempted=runner.attempted,
        failed=runner.failed,
        errors=runner.errors,
        runnable=runner.runnable,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
