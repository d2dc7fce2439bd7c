"""Minimax filter polynomial R_ell, its reflection variant, and oracles.

R_ell(x; gap) is the ratio of shifted Chebyshev polynomials that is 1 at x=0
and uniformly small on D_gap = [-1, -gap] ∪ [gap, 1]. It is evaluated in the
log domain: the denominator grows like exp(sqrt(2)·ell·gap), so the naive
ratio overflows long before ell reaches the regimes the solvers need. The
reflection variant 2·R_ell - 1 is normalized by its sup-norm on [-1, 1],
which is 1 + 2·|R_ell(1)| in closed form.

An independent linear-programming oracle (discretized minimax over even
polynomials) is provided so optimality is tested against something that knows
nothing about the closed form; it is the one function here that imports scipy.

Everything else is numpy: the type-I DCT behind Chebyshev interpolation is an
FFT of the even extension, and the Bessel values of the Jacobi–Anger series
come from Miller's backward recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Above this gap the exponential bound 2·exp(-sqrt(2)·ell·gap) no longer
# holds; bound and degree computations clamp to it.
BOUND_GAP_CAP = 1.0 / math.sqrt(12.0)
# Certified bound on the discarded tail of one Jacobi–Anger series: below
# double-precision roundoff, so truncation adds nothing a step would show.
JACOBI_ANGER_TAIL = 1e-16


def _log_cosh(t: np.ndarray) -> np.ndarray:
    # log(cosh t) without overflow for large t
    return t + np.log1p(np.exp(-2.0 * t)) - math.log(2.0)


@dataclass(frozen=True)
class FilterSpec:
    """Half-degree ell (total degree 2·ell) and gap: the pair fixes both R_ell
    and its reflection S_ell, and the caller's evaluator picks one."""

    ell: int
    gap: float

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("ell must be a positive integer")
        if not 0.0 < self.gap < 1.0:
            raise ValueError("gap must lie in (0, 1)")

    @property
    def bound_gap(self) -> float:
        return min(self.gap, BOUND_GAP_CAP)

    @property
    def error_bound(self) -> float:
        """2·exp(-sqrt(2)·ell·gap) with the gap capped for validity."""
        return 2.0 * math.exp(-math.sqrt(2.0) * self.ell * self.bound_gap)


def filter_eval(spec: FilterSpec, x):
    """R_ell(x; gap), exactly 1 at x = 0; x a float or an array of floats."""
    ell, gap = spec.ell, spec.gap
    g2 = gap * gap
    x = np.asarray(x, dtype=float)
    y = -1.0 + 2.0 * (x * x - g2) / (1.0 - g2)
    y0 = -1.0 - 2.0 * g2 / (1.0 - g2)
    # |T_ell(y0)|, sign (-1)^ell; through the same ufuncs as the |x| < gap
    # branch, so that x = 0 gives exactly 1
    log_den = float(_log_cosh(ell * np.arccosh(-y0)))
    par = 1.0 if ell % 2 == 0 else -1.0
    inner = y < -1.0  # |x| < gap: numerator and denominator carry (-1)^ell
    outer = y > 1.0
    band = ~(inner | outer)
    out = np.empty_like(y)
    out[inner] = np.exp(_log_cosh(ell * np.arccosh(-y[inner])) - log_den)
    out[band] = par * np.cos(ell * np.arccos(y[band])) * math.exp(-log_den)
    out[outer] = par * np.exp(_log_cosh(ell * np.arccosh(y[outer])) - log_den)
    return float(out) if out.ndim == 0 else out


def gap_region_max(spec: FilterSpec, points: int = 2001) -> float:
    """max |R_ell| at `points` evenly spaced x in [gap, 1]: by evenness the
    sup over D_gap, which spec.error_bound bounds."""
    return float(np.abs(filter_eval(spec, np.linspace(spec.gap, 1.0, points))).max())


def reflection_eval(spec: FilterSpec, x):
    """S_ell(x; gap) = (2·R_ell - 1) normalized to sup-norm 1 on [-1, 1].

    The norm is 1 + 2·|R_ell(1)| in closed form. For |x| <= gap, R_ell lies
    in [0, 1], where |2·R_ell - 1| <= 1. On the band R_ell swings between
    ±1/|T_ell(y0)| = ±|R_ell(1)| (since y(1) = 1), and its negative end
    gives the maximum.
    """
    norm = 1.0 + 2.0 * abs(filter_eval(spec, 1.0))
    return (2.0 * filter_eval(spec, x) - 1.0) / norm


def degree_for_accuracy(gap: float, eps: float) -> int:
    """Smallest ell with 2·exp(-sqrt(2)·ell·gap) <= eps (gap capped)."""
    if eps >= 2.0:
        return 0
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if gap <= 0.0:
        raise ValueError("gap must be positive")
    g = min(gap, BOUND_GAP_CAP)
    return int(math.ceil(math.log(2.0 / eps) / (math.sqrt(2.0) * g)))


@dataclass(frozen=True)
class ChebSeries:
    """Coefficients in the T_k basis with a declared parity."""

    coefficients: np.ndarray
    parity: str = "none"

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float).reshape(-1)
        if c.size == 0 or not np.all(np.isfinite(c)):
            raise ValueError("invalid coefficient vector")
        if self.parity == "even" and np.any(c[1::2] != 0.0):
            raise ValueError("even series has nonzero odd coefficients")
        if self.parity == "odd" and np.any(c[0::2] != 0.0):
            raise ValueError("odd series has nonzero even coefficients")
        if self.parity not in ("even", "odd", "none"):
            raise ValueError(f"unknown parity {self.parity!r}")
        c = np.array(c, copy=True)
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    def __call__(self, x):
        return np.polynomial.chebyshev.chebval(x, self.coefficients)


def cheb_interp_coeffs(fn, degree: int) -> np.ndarray:
    """Coefficients of the degree-`degree` interpolant at Chebyshev extrema.

    `fn` takes an array of points. Uses the type-I DCT of the samples at
    x_k = cos(pi k / degree), taken as the real FFT of their even extension;
    exact for polynomials of degree <= `degree`.
    """
    if degree < 1:
        return np.array([float(fn(1.0))])
    k = np.arange(degree + 1)
    xs = np.cos(np.pi * k / degree)
    vals = np.asarray(fn(xs), dtype=float)
    c = np.fft.rfft(np.concatenate([vals, vals[-2:0:-1]])).real / degree
    c[0] /= 2.0
    c[-1] /= 2.0
    return c


def filter_cheb_coeffs(spec: FilterSpec) -> ChebSeries:
    """Exact expansion of R_ell into the first 2·ell+1 Chebyshev polynomials."""
    c = cheb_interp_coeffs(lambda x: filter_eval(spec, x), 2 * spec.ell)
    c[1::2] = 0.0  # R_ell is even; interpolation residue is pure roundoff
    return ChebSeries(c, parity="even")


def reflection_cheb_coeffs(spec: FilterSpec) -> ChebSeries:
    """Expansion of the normalized reflection polynomial S_ell."""
    c = cheb_interp_coeffs(lambda x: reflection_eval(spec, x), 2 * spec.ell)
    c[1::2] = 0.0
    return ChebSeries(c, parity="even")


def jacobi_anger_coeffs(x: float) -> np.ndarray:
    """Chebyshev coefficients of exp(-i·x·y) on y in [-1, 1] (Jacobi–Anger).

    c_k = (2 - δ_k0)·(-i)^k·J_k(x). The series stops at the first degree whose
    discarded tail 2·Σ_{k>K} |J_k(x)| is certified below JACOBI_ANGER_TAIL by
    |J_k(x)| <= (x/2)^k / k!. Since |T_k| <= 1 on [-1, 1], that tail bounds
    the error of exp(-i·x·Hn) v for any Hermitian contraction Hn and unit v.
    """
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError("x must be finite and non-negative")
    degree = 0
    while _jacobi_anger_tail(x, degree) > JACOBI_ANGER_TAIL:
        degree += 1
    k = np.arange(degree + 1)
    c = np.array([1.0, -1j, -1.0, 1j])[k % 4] * _bessel_j(degree, x)
    c[1:] *= 2.0
    return c


def _bessel_j(degree: int, x: float) -> np.ndarray:
    """J_0(x), ..., J_degree(x) for x >= 0 by Miller's backward recurrence.

    J_{k-1} = (2k/x)·J_k - J_{k+1} is run down from an order far enough past
    max(degree, x) that the arbitrary start has decayed below roundoff, then
    normalized by the identity J_0 + 2·Σ_{k>=1} J_{2k} = 1.
    """
    out = np.zeros(degree + 1)
    if x == 0.0:
        out[0] = 1.0
        return out
    top = max(degree, int(math.ceil(x)))
    start = top + 20 + int(math.sqrt(60.0 * top))
    above, here = 0.0, 1e-300  # J_{start+1}, J_start up to a common factor
    norm = 0.0  # Σ over even orders of (2 - δ_k0)·J_k, same factor
    for k in range(start, 0, -1):
        if k <= degree:
            out[k] = here
        if k % 2 == 0:
            norm += 2.0 * here
        above, here = here, (2.0 * k / x) * here - above
        if abs(here) > 1e250:  # rescale before the upward growth overflows
            above *= 1e-250
            here *= 1e-250
            norm *= 1e-250
            out *= 1e-250
    out[0] = here
    return out / (norm + here)


def _jacobi_anger_tail(x: float, degree: int) -> float:
    # 2·Σ_{k>degree} (x/2)^k / k!; successive terms shrink by at least
    # r = x / (2·(degree + 2)), so the sum is below its first term / (1 - r)
    if x == 0.0:
        return 0.0
    r = x / (2.0 * (degree + 2))
    if r >= 1.0:
        return math.inf
    log_first = (degree + 1) * math.log(x / 2.0) - math.lgamma(degree + 2)
    return 2.0 * math.exp(log_first) / (1.0 - r)


def _lp_minimax(ell: int, gap: float, grid_size: int) -> float:
    # Even polynomial p = sum_j a_j T_{2j}, j = 0..ell, with p(0) = 1.
    # Minimize t subject to |p(x_i)| <= t on a grid over [gap, 1] (evenness
    # makes the negative half redundant).
    from scipy.optimize import linprog  # test oracle only

    xs = np.linspace(gap, 1.0, grid_size)
    theta = np.arccos(xs)
    j = np.arange(ell + 1)
    basis = np.cos(2.0 * np.outer(theta, j))  # T_{2j}(x_i)
    ncoef = ell + 1
    # variables: a_0..a_ell, t
    a_ub = np.zeros((2 * grid_size, ncoef + 1))
    a_ub[:grid_size, :ncoef] = basis
    a_ub[grid_size:, :ncoef] = -basis
    a_ub[:, ncoef] = -1.0
    b_ub = np.zeros(2 * grid_size)
    a_eq = np.zeros((1, ncoef + 1))
    a_eq[0, :ncoef] = (-1.0) ** j  # T_{2j}(0)
    b_eq = np.array([1.0])
    cost = np.zeros(ncoef + 1)
    cost[ncoef] = 1.0
    bounds = [(None, None)] * ncoef + [(0.0, None)]
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(
            f"minimax LP failed (status {res.status}, {res.nit} iterations): "
            f"{res.message}"
        )
    return float(res.fun)


def minimax_oracle(ell: int, gap: float) -> float:
    """Discretized-LP minimax value over even degree-2ell polynomials p(0)=1.

    The grid starts at max(64·ell, 256) points and doubles until the optimum
    moves by less than 1e-8: an independent reference for the closed form.
    """
    if ell < 1:
        raise ValueError("ell must be positive")
    if not 0.0 < gap < 1.0:
        raise ValueError("gap must lie in (0, 1)")
    n = max(64 * ell, 256)
    t_prev = _lp_minimax(ell, gap, n)
    for _ in range(8):
        n *= 2
        t = _lp_minimax(ell, gap, n)
        if abs(t - t_prev) < 1e-8:
            return t
        t_prev = t
    return t_prev
