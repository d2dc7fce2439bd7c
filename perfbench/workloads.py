"""Benchmark workloads: inputs made from the workload seed, the ops of one
round, and the checks on each op's output.

Every op goes through the public eigenfilter API, looked up on the package at
call time so that the tracer's wrappers are the ones called. Inputs come only
from the public generators; the program receives nothing else.

Why these four (see workloads.json for the layers each stresses and
bypasses): walk-n7 loads the spectral-norm guards, block-encoding
construction and Clenshaw at dimension 256; seeded-n7 loads the adiabatic
propagator with the guards nearly idle; small-mix-n4 runs every solver and
the sample/restart loops at dimension 16, where fixed per-call cost and
polynomial construction dominate; sweep-kappa is the only path through the
sweep harness and its time-factor calibration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import eigenfilter as ef

EPS = 1e-6
AQC_T_FACTOR = 0.2  # the `solve` command's defaults
AQC_POWER = 1.5
SAMPLE_SEEDS = 4  # sample-mode generator seeds per small-mix round
SWEEP_ARGS = dict(kappas=(4.0, 8.0, 16.0), seeds=2, n=6, eps=EPS)
SWEEP_RTOL = 1e-9  # relative tolerance on the sweep's float column


@dataclass
class Workload:
    """One round of ops plus how to check and fingerprint their results.

    ops: (key, call) pairs; repeating a key repeats the same computation.
    check: result -> list of failure messages (empty when the output is right).
    fingerprint: result -> JSON-able integers/floats that must repeat.
    same: (fingerprint, reference) -> whether they agree.
    trace_rounds: rounds run untraced, then again traced, in a traced run.
    """

    name: str
    ops: list[tuple[str, Callable]]
    check: Callable
    fingerprint: Callable
    same: Callable
    trace_rounds: int


def _solver_fingerprint(result):
    report = result[0]
    return {"ledger": dict(report.query_ledger), "attempts": report.attempts}


def _equal(fp, ref):
    return fp == ref


def _solver_check(oracle: np.ndarray):
    def check(result):
        report, state = result
        errors = []
        if report.query_ledger.get("O_B") != report.attempts:
            errors.append(f"O_B {report.query_ledger.get('O_B')} != attempts {report.attempts}")
        if not report.final_fidelity >= 1.0 - EPS:
            errors.append(f"reported fidelity {report.final_fidelity!r} < 1 - {EPS}")
        if state is not None:
            fid = float(abs(np.vdot(state, oracle)))
            if not fid >= 1.0 - EPS:
                errors.append(f"fidelity against solution_state {fid!r} < 1 - {EPS}")
        return errors
    return check


def _zeno(inst, mode="postselect", seed=None):
    report, trace = ef.solve_zeno(inst, EPS, mode=mode, seed=seed)
    return report, trace.states[-1]


def _aqc(inst, mode="postselect", seed=None):
    cfg = ef.AqcConfig(T=AQC_T_FACTOR * inst.kappa, p=AQC_POWER)
    return ef.solve_aqc_filtered(inst, EPS, cfg=cfg, mode=mode, seed=seed), None


def _qsp(inst, mode="postselect", seed=None):
    return ef.solve_qsp_direct(inst, EPS, mode=mode, seed=seed), None


def walk_n7(seed: int) -> Workload:
    inst = ef.planted_tridiag_instance(7, 32.0, seed)
    oracle = ef.solution_state(inst).amps
    return Workload("walk-n7", [("zeno", lambda: _zeno(inst))],
                    _solver_check(oracle), _solver_fingerprint, _equal,
                    trace_rounds=1)


def seeded_n7(seed: int) -> Workload:
    inst = ef.planted_tridiag_instance(7, 32.0, seed)
    oracle = ef.solution_state(inst).amps
    return Workload("seeded-n7", [("aqc", lambda: _aqc(inst))],
                    _solver_check(oracle), _solver_fingerprint, _equal,
                    trace_rounds=2)


def small_mix_n4(seed: int) -> Workload:
    inst = ef.gen_instance(4, 10.0, seed)
    oracle = ef.solution_state(inst).amps
    ops = []
    for j in range(SAMPLE_SEEDS):
        s = seed * SAMPLE_SEEDS + j
        for name, solve in (("qsp", _qsp), ("aqc", _aqc), ("zeno", _zeno)):
            ops.append((f"{name}-postselect", lambda f=solve: f(inst)))
            ops.append((f"{name}-sample-{s}",
                        lambda f=solve, s=s: f(inst, "sample", s)))
    return Workload("small-mix-n4", ops, _solver_check(oracle),
                    _solver_fingerprint, _equal, trace_rounds=2)


def _sweep_fingerprint(result):
    return {"rows": [list(r) for r in result.rows],
            "aqc_time_factor": dict(result.diagnostics["aqc_time_factor"])}


def _sweep_same(fp, ref):
    if fp["aqc_time_factor"] != ref["aqc_time_factor"]:
        return False
    if len(fp["rows"]) != len(ref["rows"]):
        return False
    for row, want in zip(fp["rows"], ref["rows"]):
        if row[:3] != want[:3]:
            return False
        if not abs(row[3] - want[3]) <= SWEEP_RTOL * abs(want[3]):
            return False
    return True


def _sweep_check(result):
    errors = []
    if len(result.rows) != 3 * len(SWEEP_ARGS["kappas"]) * SWEEP_ARGS["seeds"]:
        errors.append(f"sweep table has {len(result.rows)} rows")
    if not all(q > 0.0 for q in result.column("expected_queries")):
        errors.append("non-positive expected query count")
    return errors


def sweep_kappa(seed: int) -> Workload:
    # experiment_kappa_scaling fixes its instance seeds internally, so the
    # workload seed cannot vary this workload's inputs.
    return Workload("sweep-kappa",
                    [("sweep", lambda: ef.experiment_kappa_scaling(**SWEEP_ARGS))],
                    _sweep_check, _sweep_fingerprint, _sweep_same,
                    trace_rounds=1)


WORKLOADS = {
    "walk-n7": walk_n7,
    "seeded-n7": seeded_n7,
    "small-mix-n4": small_mix_n4,
    "sweep-kappa": sweep_kappa,
}


def warm_up(seed: int) -> None:
    """One tiny call of every public entry point the workloads use.

    Pays lazy first-call costs (LAPACK set-up, scipy submodules) in set-up
    rather than in the first timed op, identically for every workload.
    """
    inst = ef.gen_instance(2, 4.0, seed)
    planted = ef.planted_tridiag_instance(2, 4.0, seed)
    ef.solution_state(inst)
    for mode in ("postselect", "sample"):
        _qsp(inst, mode, seed)
        _aqc(planted, mode, seed)
        _zeno(planted, mode, seed)
    ef.experiment_kappa_scaling(kappas=(2.0, 3.0), seeds=1, n=2, eps=EPS)
