"""Minimax filter polynomial: closed form, expansions, independent oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenfilter.chebpoly import (
    BOUND_GAP_CAP,
    _bessel_j,
    ChebSeries,
    FilterSpec,
    cheb_interp_coeffs,
    degree_for_accuracy,
    filter_cheb_coeffs,
    filter_eval,
    gap_region_max,
    jacobi_anger_coeffs,
    minimax_oracle,
    reflection_cheb_coeffs,
    reflection_eval,
)


def test_filter_is_one_at_zero_exactly():
    for ell in (1, 7, 64, 301):
        spec = FilterSpec(ell, 0.1)
        assert filter_eval(spec, 0.0) == 1.0


def test_filter_eval_takes_arrays_and_floats():
    spec = FilterSpec(40, 0.1)
    xs = np.concatenate([np.linspace(-1.0, 1.0, 401), [0.0, 0.1, -0.1]])
    vals = filter_eval(spec, xs)
    assert vals.shape == xs.shape
    for x, v in zip(xs, vals):
        got = filter_eval(spec, float(x))
        assert type(got) is float
        assert got == pytest.approx(v, rel=0.0, abs=1e-15)
    assert vals[xs == 0.0].tolist() == [1.0, 1.0]
    rspec = FilterSpec(40, 0.1)
    assert reflection_eval(rspec, xs)[200] == reflection_eval(rspec, 0.0)


def test_closed_form_small_case():
    # ell=1, gap=0.5: R(x) = (1 - 4(x^2-1/4)/(3/4)) / (1 + 4/3 * 1/4)
    spec = FilterSpec(1, 0.5)
    value = max(abs(filter_eval(spec, x)) for x in np.linspace(0.5, 1.0, 2001))
    assert value == pytest.approx(0.6, abs=1e-9)
    series = filter_cheb_coeffs(spec)
    assert np.allclose(series.coefficients, [0.2, 0.0, -0.8], atol=1e-12)


def test_filter_survives_huge_degree():
    # log-domain evaluation: the naive Chebyshev ratio overflows near here
    spec = FilterSpec(20_000, 0.25)
    assert filter_eval(spec, 0.0) == 1.0
    assert abs(filter_eval(spec, 0.7)) <= spec.error_bound


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.floats(0.01, 0.6),
       st.floats(-1.0, 1.0))
def test_filter_bounded_by_one_everywhere(ell, gap, x):
    spec = FilterSpec(ell, gap)
    assert abs(filter_eval(spec, x)) <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 100), st.floats(0.02, 0.5))
def test_filter_obeys_exponential_bound_on_gap_region(ell, gap):
    spec = FilterSpec(ell, gap)
    assert gap_region_max(spec, 257) <= spec.error_bound


def test_filter_even_symmetry():
    spec = FilterSpec(9, 0.17)
    for x in np.linspace(0.0, 1.0, 37):
        assert filter_eval(spec, float(x)) == pytest.approx(
            filter_eval(spec, float(-x)), abs=1e-15)


def test_degree_for_accuracy_example():
    assert degree_for_accuracy(0.1, 1e-3) == 54


def test_degree_for_accuracy_is_sufficient_and_tight():
    for gap, eps in ((0.05, 1e-4), (0.3, 1e-8), (0.9, 1e-3)):
        ell = degree_for_accuracy(gap, eps)
        g = min(gap, BOUND_GAP_CAP)
        assert 2.0 * math.exp(-math.sqrt(2.0) * ell * g) <= eps
        assert 2.0 * math.exp(-math.sqrt(2.0) * (ell - 1) * g) > eps


def test_degree_respects_gap_cap():
    # beyond the cap the bound stops improving, so the degree stops shrinking
    assert degree_for_accuracy(0.9, 1e-6) == degree_for_accuracy(2.0 / 3.0, 1e-6)


def test_minimax_oracle_agrees_with_closed_form():
    for ell in (1, 2, 3, 4):
        for gap in (0.2, 0.5):
            spec = FilterSpec(ell, gap)
            grid_max = gap_region_max(spec, 40_001)
            oracle = minimax_oracle(ell, gap)
            assert grid_max == pytest.approx(oracle, abs=1e-6)


def test_minimax_oracle_closed_form_small_case():
    assert minimax_oracle(1, 0.5) == pytest.approx(0.6, abs=1e-9)


def test_filter_coeffs_reproduce_filter():
    spec = FilterSpec(12, 0.15)
    series = filter_cheb_coeffs(spec)
    assert series.degree == 24
    assert series.parity == "even"
    for x in np.linspace(-1, 1, 101):
        assert series(x) == pytest.approx(filter_eval(spec, float(x)), abs=1e-12)


def test_reflection_normalization_and_value_at_zero():
    spec = FilterSpec(10, 0.2)
    xs = np.linspace(-1.0, 1.0, 20_001)
    vals = np.array([reflection_eval(spec, float(x)) for x in xs])
    assert np.max(np.abs(vals)) <= 1.0 + 1e-12
    assert np.max(np.abs(vals)) >= 1.0 - 1e-6
    # the sup norm of 2R-1 is at most 1 + 2|R| on the gap region, so the
    # normalized value at the eigenvalue sits within the filter bound of 1
    base_bound = FilterSpec(10, 0.2).error_bound
    assert 1.0 / (1.0 + base_bound) <= reflection_eval(spec, 0.0) <= 1.0


def _searched_reflection_norm(ell, gap):
    # max over [-1, 1] of |2·R_ell - 1| by a 10,001-point grid, refined by
    # golden-section search around the best grid point
    spec = FilterSpec(ell, gap)

    def g(x):
        return np.abs(2.0 * filter_eval(spec, x) - 1.0)

    xs = np.linspace(-1.0, 1.0, 10_001)
    vals = g(xs)
    i = int(np.argmax(vals))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = g(c), g(d)
    while b - a > 1e-12:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = g(d)
    return float(max(vals[i], fc, fd))


@pytest.mark.parametrize("gap", [0.01, 0.05, 0.1, 0.3, 0.6, 0.9])
def test_reflection_norm_matches_search(gap):
    # S_ell(0) = 1 / (sup-norm of 2·R_ell - 1), the closed form
    for ell in (1, 2, 3, 4, 5, 8, 16, 30, 48, 64, 100):
        norm = 1.0 / reflection_eval(FilterSpec(ell, gap), 0.0)
        want = _searched_reflection_norm(ell, gap)
        assert abs(norm - want) <= 4 * math.ulp(want), (ell, norm, want)


def test_reflection_coeffs_bounded():
    series = reflection_cheb_coeffs(FilterSpec(8, 0.2))
    xs = np.linspace(-1, 1, 2001)
    assert np.max(np.abs(series(xs))) <= 1.0 + 1e-10


def test_cheb_interp_exact_for_polynomials():
    coeffs = cheb_interp_coeffs(lambda x: 8 * x ** 4 - 8 * x ** 2 + 1, 4)
    assert np.allclose(coeffs, [0, 0, 0, 0, 1.0], atol=1e-12)


@pytest.mark.parametrize("degree", [4, 50, 600, 1200])
def test_cheb_interp_dct_matches_scipy(degree):
    # scipy's type-I DCT is the reference for the FFT of the even extension
    from scipy.fft import dct

    spec = FilterSpec(max(degree // 2, 1), 0.05)

    def fn(xs):
        return filter_eval(spec, xs) + 0.25 * xs ** 3

    xs = np.cos(np.pi * np.arange(degree + 1) / degree)
    ref = dct(fn(xs), type=1) / degree
    ref[0] /= 2.0
    ref[-1] /= 2.0
    assert np.max(np.abs(cheb_interp_coeffs(fn, degree) - ref)) <= 1e-15


def test_bessel_recurrence_matches_scipy_jv():
    # scipy.special.jv is the reference; near x = 100 its own error against
    # high-precision values is ~6e-15, so the bound is 1e-14
    from scipy.special import jv

    k = np.arange(61)
    xs = np.concatenate([np.linspace(0.0, 100.0, 1001),
                         np.geomspace(1e-12, 100.0, 201)])
    for x in xs:
        got = _bessel_j(60, float(x))
        assert np.max(np.abs(got - jv(k, x))) <= 1e-14, x
    assert _bessel_j(3, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0]


def test_cheb_series_parity_enforced():
    with pytest.raises(ValueError):
        ChebSeries([0.0, 1.0], parity="even")
    with pytest.raises(ValueError):
        ChebSeries([1.0, 0.0, 2.0], parity="odd")


def test_spec_validation():
    with pytest.raises(ValueError):
        FilterSpec(0, 0.1)
    with pytest.raises(ValueError):
        FilterSpec(3, 1.5)


@pytest.mark.parametrize("x", [0.0, 1e-8, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0])
def test_jacobi_anger_series_is_the_exponential(x):
    ys = np.linspace(-1.0, 1.0, 1001)
    got = np.polynomial.chebyshev.chebval(ys, jacobi_anger_coeffs(x))
    assert np.max(np.abs(got - np.exp(-1j * x * ys))) <= 1e-15


def test_jacobi_anger_term_count_grows_with_x():
    xs = np.concatenate([[0.0], np.geomspace(1e-12, 100.0, 200)])
    sizes = [jacobi_anger_coeffs(float(x)).size for x in xs]
    assert sizes[0] == 1
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] > sizes[100] > sizes[0]


def test_jacobi_anger_rejects_bad_arguments():
    for x in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError):
            jacobi_anger_coeffs(x)
