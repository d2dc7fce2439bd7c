"""The per-layer tracer in perfbench/tracer.py wraps package functions by
name, so a renamed or deleted function would break only traced benchmark
runs. These checks resolve every traced name the way the tracer does."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from eigenfilter.chebpoly import FilterSpec, filter_cheb_coeffs
from eigenfilter.filtering import (MeasurementOutcome, filter_ops,
                                   measure_ancilla, prepend_ancilla)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER = _load_tracer()


@pytest.mark.parametrize("module, qualname", TRACER.TRACED,
                         ids=[f"{m}.{q}" for m, q in TRACER.TRACED])
def test_traced_name_resolves(module, qualname):
    # a function in the module's namespace, or a method in its class's dict
    home = importlib.import_module(f"eigenfilter.{module}")
    if "." in qualname:
        cls_name, meth = qualname.split(".")
        fn = vars(getattr(home, cls_name))[meth]
    else:
        fn = vars(home)[qualname]
    assert callable(fn)


def test_outcomes_read_postselect_mode_for_the_sample_hook():
    # the tracer's sample counter reads .mode from every outcome that
    # apply_filter and measure_ancilla return
    psi = prepend_ancilla(np.full(4, 0.5))
    series = filter_cheb_coeffs(FilterSpec(2, 0.3))
    outcomes = [measure_ancilla(psi),
                *filter_ops(0.5 * np.eye(8), series, [psi])]
    tr = TRACER.Tracer()
    for out in outcomes:
        assert isinstance(out, MeasurementOutcome)
        assert out.mode == "postselect"
        TRACER.HOOKS["filtering.apply_filter"](tr, (), {}, out)
    assert tr.sampled == 0
