"""Odd inversion polynomial and the direct-application baseline solver."""

import time

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from eigenfilter import baseline
from eigenfilter.aqc import solve_aqc_filtered
from eigenfilter.baseline import (
    InversionPolySpec,
    build_inversion_poly,
    solve_qsp_direct,
)
from eigenfilter.chebpoly import ChebSeries
from eigenfilter.harness import gen_instance
from eigenfilter.numerics import DenseOperator, StateRegister
from eigenfilter.qlsp import QlspInstance
from eigenfilter.zeno import solve_zeno


def test_spec_rejects_even_series():
    with pytest.raises(ValueError):
        InversionPolySpec(ChebSeries(np.array([0.5, 0.0, 0.5]), parity="even"),
                          c=2.0, eps_prime=1e-3, delta=0.5, degree_budget=10)


@pytest.mark.parametrize("m", [5, 7, 9, 21, 101, 501, 1001, 4001, 9999, 20001])
def test_dolph_chebyshev_window_matches_scipy_chebwin(m):
    # scipy's chebwin is the reference for the numpy window; np.fft and
    # scipy.fft differ in the last bits at odd lengths, so not bitwise
    from scipy.signal.windows import chebwin

    half = (m - 1) // 2
    for ripple in (1e-3, 1e-5, 1e-7, 1e-9, 1e-11, 3e-12):
        att_db = -20.0 * np.log10(ripple)
        window = chebwin(m, at=att_db)
        got = baseline._dolph_chebyshev_half(m, att_db)
        ref = window[half:] / window[half]
        assert np.max(np.abs(got - ref)) <= 1e-13, ripple


def test_build_input_validation():
    with pytest.raises(ValueError):
        build_inversion_poly(1.0, 1e-3)
    with pytest.raises(ValueError):
        build_inversion_poly(4.0, 0.0)
    with pytest.raises(ValueError):
        build_inversion_poly(4.0, 1.0)


def test_build_is_memoized(monkeypatch):
    first = build_inversion_poly(5.5, 2e-3)

    def no_search(*args, **kwargs):
        raise AssertionError("a repeated build must not search again")

    monkeypatch.setattr(baseline, "_passes", no_search)
    assert build_inversion_poly(5.5, 2e-3) is first
    assert not first.series.coefficients.flags.writeable
    with pytest.raises(ValueError):
        build_inversion_poly(1.0, 2e-3)
    with pytest.raises(ValueError):
        build_inversion_poly(5.5, 0.0)


@pytest.mark.parametrize("alpha_kappa", [12.0, 24.0, 48.0, 96.0, 192.0])
def test_division_by_x_is_chebdiv(alpha_kappa):
    # the O(D) recurrence gives chebdiv's quotient, value for value and
    # trimmed to the same length, on the steps criterion 9's builds divide
    kappa = alpha_kappa / 3.0
    delta, c = 1.0 / alpha_kappa, 4.0 * alpha_kappa / 3.0
    ripple = c * (3.0 * 1e-6 / (4.0 * kappa)) * delta
    step = baseline._smoothed_step(delta, ripple, None).copy()
    step[0] -= chebyshev.chebval(0.0, step)
    want, _ = chebyshev.chebdiv(step, [0.0, 1.0])
    got = baseline._divide_by_x(step)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    # a series of both parities, whose s(x) - s(0) chebdiv divides with
    # no remainder
    mixed = np.random.default_rng(int(alpha_kappa)).uniform(-1.0, 1.0, 41)
    mixed[0] -= chebyshev.chebval(0.0, mixed)
    want, rem = chebyshev.chebdiv(mixed, [0.0, 1.0])
    assert np.max(np.abs(rem)) <= 1e-13
    assert np.max(np.abs(baseline._divide_by_x(mixed) - want)) <= 1e-13


# degrees at the criterion-9 and perfbench builds, pinned
@pytest.mark.parametrize("alpha_kappa,kappa,degree", [
    (12.0, 4.0, 457), (24.0, 8.0, 961), (30.0, 10.0, 1215), (48.0, 16.0, 2003),
    (96.0, 32.0, 4165), (192.0, 64.0, 8665)])
def test_build_degrees_are_pinned(alpha_kappa, kappa, degree):
    assert build_inversion_poly(alpha_kappa, 1e-6, kappa=kappa).degree == degree


def test_build_fails_fast_at_its_accuracy_floor():
    # at alpha·kappa = 48 the error near delta stops falling near 5e-13,
    # above eps' = 4.69e-14: the growth loop gives up at the first longer
    # kernel that does no better, naming both
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"floor above eps' = 4\.69e-14: .* "
                                           r"from 5\.72e-13 to 8\.76e-13"):
        build_inversion_poly(48.0, 1e-12, kappa=16.0)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("alpha_kappa,eps", [(4.0, 1e-3), (12.0, 1e-4)])
def test_poly_accuracy_boundedness_and_budget(alpha_kappa, eps):
    spec = build_inversion_poly(alpha_kappa, eps)
    assert spec.degree % 2 == 1
    assert spec.degree <= spec.degree_budget

    xs = np.linspace(spec.delta, 1.0, 20001)
    err = np.max(np.abs(spec(xs) - 1.0 / (spec.c * xs)))
    assert err <= spec.eps_prime * (1.0 + 1e-9)

    grid = np.linspace(-1.0, 1.0, 40001)
    assert np.max(np.abs(spec(grid))) <= 1.0 + 1e-9
    # odd parity is structural, not just approximate
    assert np.max(np.abs(spec(grid) + spec(-grid))) == 0.0


def test_scaled_targets():
    kappa = 5.0
    spec = build_inversion_poly(3.0 * kappa, 1e-3, kappa=kappa)
    assert spec.c == pytest.approx(4.0 * 3.0 * kappa / 3.0)
    assert spec.eps_prime == pytest.approx(3.0 * 1e-3 / (4.0 * kappa))
    assert spec.delta == pytest.approx(1.0 / (3.0 * kappa))


def test_eigenvector_rhs_gives_formula_success():
    # b is the top eigenvector, so the outcome is b itself with amplitude
    # P(1/alpha) = P(1) for alpha = d = 1; success is (1/c)^2 up to eps'
    A = DenseOperator(np.diag([1.0, 0.8, 0.5, 0.25]), hermitian=True)
    b = StateRegister(np.array([1.0, 0.0, 0.0, 0.0]), ancilla=0, system=2)
    inst = QlspInstance(A, b, kappa=4.0, d=1, form="positive-definite")
    report = solve_qsp_direct(inst, 1e-4)
    c = 4.0 * 4.0 / 3.0
    eps_prime = 3.0 * 1e-4 / (4.0 * 4.0)
    p = report.success_probabilities[0]
    assert abs(np.sqrt(p) - 1.0 / c) <= eps_prime * (1.0 + 1e-9)
    assert report.final_fidelity >= 1.0 - 1e-12


def test_solve_reaches_accuracy_and_success_floor():
    inst = gen_instance(3, 6.0, 1)
    eps = 1e-3
    report = solve_qsp_direct(inst, eps)
    assert report.final_fidelity >= 1.0 - eps
    # ||A^{-1} b|| >= 1, so the amplitude is at least alpha/c = 3/(4 kappa)
    floor = (3.0 / (4.0 * inst.kappa)) ** 2
    assert report.success_probabilities[0] >= floor * 0.99
    assert report.query_ledger["U_A"] == report.params["degree"]
    assert report.query_ledger["O_B"] == 1
    assert report.formula_derived_costs["expected_queries"] == pytest.approx(
        report.params["degree"] / report.success_probabilities[0])


def test_sample_mode_retries_are_ledgered_and_seeded():
    inst = gen_instance(3, 6.0, 2)
    a = solve_qsp_direct(inst, 1e-3, mode="sample", seed=11)
    b = solve_qsp_direct(inst, 1e-3, mode="sample", seed=11)
    assert a.attempts == b.attempts
    assert a.attempts >= 1
    assert a.query_ledger["U_A"] == a.params["degree"] * a.attempts
    assert a.query_ledger["O_B"] == a.attempts
    assert a.final_fidelity == b.final_fidelity


def test_general_form_routes_through_hermitian_extension():
    inst = gen_instance(2, 4.0, 0, form="general")
    eps = 1e-3
    report = solve_qsp_direct(inst, eps)
    assert report.params["form"] == "general"
    assert report.final_fidelity >= 1.0 - eps


@pytest.mark.parametrize(
    "solver", [solve_qsp_direct, solve_aqc_filtered, solve_zeno],
    ids=["qsp-direct", "aqc", "zeno"])
def test_solvers_reject_unknown_mode(solver):
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        solver(gen_instance(2, 4.0, 0), 1e-3, mode="bogus")
