"""Per-layer tracing of eigenfilter, done from outside the package.

The tracer replaces each listed public function with a timing wrapper in
every eigenfilter module that binds it (consumers import by name, so patching
only the defining module would miss most calls), and puts the originals back
on uninstall. Each call becomes a span (id, name, start, end, parent id, op
id) kept in memory; self time is a span's duration minus the durations of its
direct child spans. A few functions also feed counts taken from their
arguments or results, at the same boundary.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (defining module, function) for every traced boundary
TRACED = (
    ("numerics", "DenseOperator.norm"),
    ("numerics", "clenshaw_apply"),
    ("numerics", "linsolve"),
    ("numerics", "eig_hermitian"),
    ("blockenc", "encode"),
    ("blockenc", "multiply"),
    ("blockenc", "linear_combine"),
    ("qlsp", "make_hf"),
    ("qlsp", "make_h1_encoding"),
    ("qlsp", "path_vector"),
    ("qlsp", "solution_state"),
    ("chebpoly", "filter_cheb_coeffs"),
    ("baseline", "build_inversion_poly"),
    ("baseline", "solve_qsp_direct"),
    ("filtering", "apply_filter"),
    ("filtering", "measure_ancilla"),
    ("aqc", "evolve"),
    ("aqc", "solve_aqc_filtered"),
    ("zeno", "solve_zeno"),
    ("harness", "calibrate_time_factor"),
    ("harness", "experiment_kappa_scaling"),
    ("harness", "gen_instance"),
    ("harness", "planted_tridiag_instance"),
)

# Per complex matvec at dimension N: N^2 complex multiply-adds of 8 flops,
# and one pass over the N x N complex128 matrix.
FLOPS_PER_ENTRY = 8
BYTES_PER_ENTRY = 16


def _count_clenshaw(tr, args, kwargs, result):
    coeffs = kwargs.get("coeffs", args[0] if args else None)
    op = kwargs.get("Hn", args[1] if len(args) > 1 else None)
    n_coeffs = np.asarray(getattr(coeffs, "coefficients", coeffs)).size
    dim = np.asarray(getattr(op, "mat", op)).shape[0]
    # the backward recurrence does one matvec per coefficient
    tr.counts["numerics.clenshaw_apply.matvecs"] += n_coeffs
    tr.counts["numerics.clenshaw_apply.flops"] += FLOPS_PER_ENTRY * dim * dim * n_coeffs
    tr.counts["numerics.clenshaw_apply.bytes"] += BYTES_PER_ENTRY * dim * dim * n_coeffs


def _count_filter_points(tr, args, kwargs, result):
    spec = kwargs.get("spec", args[0] if args else None)
    tr.counts["chebpoly.filter_cheb_coeffs.points"] += 2 * spec.ell + 1


def _count_degree(tr, args, kwargs, result):
    tr.counts["baseline.build_inversion_poly.degree"] += result.degree


def _count_sample(tr, args, kwargs, result):
    if result.mode == "sample":
        tr.sampled += 1
        tr.accepted += bool(result.sampled_success)


def _count_steps(tr, args, kwargs, result):
    cfg = kwargs.get("cfg", args[1] if len(args) > 1 else None)
    tr.counts["aqc.evolve.steps"] += cfg.num_steps


def _count_solver(tr, args, kwargs, result):
    report = result[0] if isinstance(result, tuple) else result
    tr.counts["solver.attempts"] += report.attempts
    tr.counts["ledger.queries"] += report.total_queries


HOOKS = {
    "numerics.clenshaw_apply": _count_clenshaw,
    "chebpoly.filter_cheb_coeffs": _count_filter_points,
    "baseline.build_inversion_poly": _count_degree,
    "filtering.apply_filter": _count_sample,
    "filtering.measure_ancilla": _count_sample,
    "aqc.evolve": _count_steps,
    "baseline.solve_qsp_direct": _count_solver,
    "aqc.solve_aqc_filtered": _count_solver,
    "zeno.solve_zeno": _count_solver,
}

COUNT_UNITS = {
    "numerics.clenshaw_apply.matvecs": "count.computed",
    "numerics.clenshaw_apply.flops": "flop.computed",
    "numerics.clenshaw_apply.bytes": "byte.computed",
    "chebpoly.filter_cheb_coeffs.points": "count",
    "baseline.build_inversion_poly.degree": "count",
    "aqc.evolve.steps": "count",
    "solver.attempts": "count",
    "ledger.queries": "count",
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "eigenfilter" or name.startswith("eigenfilter."))]


class Tracer:
    """Spans and counts for the functions in TRACED, kept in memory."""

    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in TRACED]
        self.calls = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.counts = dict.fromkeys(COUNT_UNITS, 0)
        self.sampled = 0
        self.accepted = 0
        self.spans: list[tuple] = []
        self.op = "setup"
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.spans.append((sid, name, t0, t1, parent, self.op))
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for mod, qual in TRACED:
            name = f"{mod}.{qual}"
            home = sys.modules[f"eigenfilter.{mod}"]
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(home, qual)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def metrics(self) -> dict:
        """Per-layer metrics as {name: {"value", "unit"}}."""
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = {"value": self.calls[name], "unit": "count"}
            out[f"{name}.self_s"] = {"value": self.self_s[name], "unit": "s"}
        for name, unit in COUNT_UNITS.items():
            out[name] = {"value": self.counts[name], "unit": unit}
        ratio = self.accepted / self.sampled if self.sampled else 0.0
        out["filtering.sample_accept_ratio"] = {"value": ratio, "unit": "ratio"}
        return out

    def top_self(self, k: int = 5) -> list[tuple[str, float]]:
        return sorted(self.self_s.items(), key=lambda kv: -kv[1])[:k]

    def span_records(self) -> dict:
        return {"fields": ["id", "name", "start", "end", "parent", "op"],
                "spans": self.spans}
