"""Solver runs over instance stacks: each row of zeno_run, aqc_run and
qsp_run, and of the seed filter, is bitwise the stack-of-one run of its
instance."""

import dataclasses
import functools

import numpy as np
import pytest

from eigenfilter.aqc import aqc_run, seed_filter
from eigenfilter.baseline import qsp_run
from eigenfilter.harness import gen_instance, planted_tridiag_instance
from eigenfilter.numerics import StateRegister
from eigenfilter.qlsp import extend_general
from eigenfilter.zeno import zeno_run

EPS = 1e-6
CHARGES = [("postselect", None)] + [("sample", seed) for seed in (0, 3, 159)]
FORMS = ("positive-definite", "hermitian-indefinite", "general")
RUNS = {
    "zeno": lambda insts: zeno_run(insts, EPS),
    "aqc": lambda insts: [(report, None) for report in aqc_run(insts, EPS)],
    "qsp-direct": lambda insts: [(report, None) for report in qsp_run(insts, EPS)],
}


@functools.lru_cache(maxsize=None)
def instance(family, arg, seed):
    if family == "planted":
        return planted_tridiag_instance(arg, 16.0, seed)
    return gen_instance(3, 6.0, seed, arg)


@functools.lru_cache(maxsize=None)
def runs(method, family, arg, seeds):
    return RUNS[method]([instance(family, arg, seed) for seed in seeds])


def charged(report, mode, seed):
    # repr keeps every float's bits (and a zero's sign) in the comparison
    try:
        return repr(report(mode, seed).to_dict())
    except RuntimeError as exc:  # a sampled run with no success raises alike
        return repr(exc)


CASES = ([(method, "planted", n) for method in RUNS for n in (5, 6, 7)]
         + [(method, "gen", form) for method in ("aqc", "qsp-direct")
            for form in FORMS])


@pytest.mark.parametrize("seeds", [(0, 7), (7, 0, 1)], ids=["S2", "S3"])
@pytest.mark.parametrize("method,family,arg", CASES,
                         ids=[f"{m}-{f}-{a}" for m, f, a in CASES])
def test_stack_rows_are_bitwise_the_stack_of_one_run(method, family, arg, seeds):
    stacked = runs(method, family, arg, seeds)
    assert len(stacked) == len(seeds)
    for seed, (report, trace) in zip(seeds, stacked):
        [(alone, alone_trace)] = runs(method, family, arg, (seed,))
        # ells, ledgers, attempts, success probabilities, final_fidelity
        for mode, coin_seed in CHARGES:
            assert charged(report, mode, coin_seed) == charged(alone, mode, coin_seed)
        if trace is not None:
            assert repr(trace.per_step_success) == repr(alone_trace.per_step_success)
            assert repr(trace.per_step_overlap) == repr(alone_trace.per_step_overlap)
            assert [s.tobytes() for s in trace.states] == [
                s.tobytes() for s in alone_trace.states]
            assert repr(trace.final_fidelity) == repr(alone_trace.final_fidelity)


FILTER_CASES = ([("planted", n) for n in (5, 6, 7)]
                + [("gen", form) for form in FORMS])


@pytest.mark.parametrize("seeds", [(0, 7), (7, 0, 1)], ids=["S2", "S3"])
@pytest.mark.parametrize("family,arg", FILTER_CASES,
                         ids=[f"{f}-{a}" for f, a in FILTER_CASES])
def test_seed_filter_rows_are_bitwise_the_stack_of_one_filter(family, arg, seeds):
    # the filtering picture of aqc_run and the fig-A2 sweeps, on complex
    # states like the adiabatic seeds
    insts = [extend_general(instance(family, arg, seed)) for seed in seeds]
    rng = np.random.default_rng(5)
    psis = []
    for inst in insts:
        amps = rng.normal(size=2 * inst.dim) + 1j * rng.normal(size=2 * inst.dim)
        psis.append(StateRegister(amps / np.linalg.norm(amps), 1, inst.n))
    filt, gap, targets = seed_filter(insts)
    assert len(targets) == len(insts)
    for ell in (1, 17, 60):
        outs = filt(ell, psis)
        assert len(outs) == len(insts)
        for inst, psi, target, out in zip(insts, psis, targets, outs):
            alone_filt, alone_gap, [alone_target] = seed_filter([inst])
            [alone] = alone_filt(ell, [psi])
            assert gap == alone_gap
            assert target.amps.tobytes() == alone_target.amps.tobytes()
            assert repr(out.success_probability) == repr(alone.success_probability)
            assert out.post_state.amps.tobytes() == alone.post_state.amps.tobytes()


MIXED = {
    "kappa": lambda: [gen_instance(3, 6.0, 0), gen_instance(3, 8.0, 1)],
    "form": lambda: [gen_instance(3, 6.0, 0),
                     gen_instance(3, 6.0, 0, "hermitian-indefinite")],
    "dimension": lambda: [gen_instance(3, 6.0, 0), gen_instance(4, 6.0, 0)],
    "d": lambda: [gen_instance(3, 6.0, 0),
                  dataclasses.replace(gen_instance(3, 6.0, 1), d=4)],
    "empty": lambda: [],
}


@pytest.mark.parametrize("mix", sorted(MIXED))
@pytest.mark.parametrize("run", [zeno_run, aqc_run, qsp_run],
                         ids=["zeno", "aqc", "qsp-direct"])
def test_runs_reject_mixed_stacks(run, mix):
    with pytest.raises(ValueError, match="one kappa, form and dimension, and one d"):
        run(MIXED[mix](), EPS)
