"""The ε axis of the paper's Õ(dκ log(1/ε)): at fixed κ each solver's
query ledger grows linearly in log(1/ε), and 1 - F ≤ ε wherever it
returns."""

import functools

import pytest

from eigenfilter.aqc import solve_aqc_filtered
from eigenfilter.baseline import solve_qsp_direct
from eigenfilter.harness import planted_tridiag_instance
from eigenfilter.zeno import solve_zeno

EPS_AXIS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
# ledger growth per factor of 100 in ε on planted_tridiag_instance(6, 16, 0),
# as measured: the seed filter's and the walk's last step's 2ℓ grow by
# 312-314 (the walk's other steps do not depend on ε); the inversion
# polynomial's degree by 560-576, slightly less at each step
SLOPES = {
    "aqc": ((312, 314), lambda inst, eps: solve_aqc_filtered(inst, eps), "U_H1_filter"),
    "zeno": ((312, 314), lambda inst, eps: solve_zeno(inst, eps)[0], "U_Hf_filter"),
    "qsp-direct": ((560, 576), solve_qsp_direct, "U_A"),
}


@functools.lru_cache(maxsize=None)
def instance():
    return planted_tridiag_instance(6, 16.0, 0)


@pytest.mark.parametrize("method", sorted(SLOPES))
def test_ledger_is_linear_in_log_one_over_eps(method):
    (lo, hi), solve, key = SLOPES[method]
    reports = [solve(instance(), eps) for eps in EPS_AXIS]
    ledgers = [report.query_ledger[key] for report in reports]
    steps = [b - a for a, b in zip(ledgers, ledgers[1:])]
    assert all(lo <= step <= hi for step in steps), (ledgers, steps)
    for eps, report in zip(EPS_AXIS, reports):
        assert 1.0 - report.final_fidelity <= eps, (eps, report.final_fidelity)


def test_direct_baseline_stops_at_its_floor():
    # eps' = 3ε/(4κ) below the inversion polynomial's accuracy floor: the
    # build says so at once instead of growing its kernel
    with pytest.raises(RuntimeError, match="floor"):
        solve_qsp_direct(instance(), 1e-12)
