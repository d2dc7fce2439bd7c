"""Direct polynomial-inversion baseline with its kappa^2 repetition cost.

The baseline applies an odd polynomial approximation of 1/(cx) directly to
the right-hand state and postselects; no adiabatic seed, no walk. Its success
probability scales like 1/kappa^2, so the expected repetition count times the
polynomial degree exhibits the kappa^2 query scaling the filtered solvers
improve on.

Polynomial construction: start from the even step function that is 0 near
the origin and 1 on the working domain, built as an ideal indicator in
theta = arccos(x) convolved with a Dolph-Chebyshev kernel. The kernel has a
compact cosine spectrum, so the smoothed step is a polynomial of exact known
degree with equiripple leakage; subtracting its value at 0 and dividing by x
in the Chebyshev basis gives an exactly odd approximant of 1/x on
[-1,-delta] ∪ [delta,1], scaled by 1/c. The kernel length is trimmed by
binary search to the smallest value passing the error/boundedness grids.
The kernel is the odd-length Dolph-Chebyshev window, computed in numpy from
its closed form (Chebyshev polynomial samples and one FFT). It is applied to
A/d by numerics.clenshaw, with no block encoding and no norm guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.polynomial.chebyshev as _cheb
import numpy.polynomial.polyutils as _pu

from .chebpoly import ChebSeries
from .filtering import sampled
from .numerics import StateRegister, clenshaw, fidelity, real_if_real, stack_rows
from .qlsp import QlspInstance, check_stack, extend_general, solution_state
from .report import SolverReport

DEGREE_CAP = 1_000_000
TRANSITION_LO_FRAC = 0.2  # inner edge of the step transition, as a fraction of delta
# (accuracy, boundary) grid points of the kernel-length search and of the
# final check
COARSE, DENSE = (1201, 1601), (4001, 8001)


@dataclass(frozen=True)
class InversionPolySpec:
    """Odd Chebyshev approximant of 1/(cx) on |x| in [delta, 1]."""

    series: ChebSeries
    c: float
    eps_prime: float
    delta: float
    degree_budget: int

    def __post_init__(self):
        if self.series.parity != "odd":
            raise ValueError("inversion polynomial must be odd")

    @property
    def degree(self) -> int:
        return self.series.degree

    def __call__(self, x):
        return self.series(x)


def _dolph_chebyshev_half(m: int, att_db: float) -> np.ndarray:
    """Centre-outward half of the odd length-m Dolph-Chebyshev window, peak 1.

    The window's DFT samples T_{m-1}(beta·cos(pi k/m)), with beta set by the
    sidelobe attenuation att_db; the same construction as scipy's chebwin.
    """
    order = m - 1.0
    beta = np.cosh(1.0 / order * np.arccosh(10.0 ** (abs(att_db) / 20.0)))
    x = beta * np.cos(np.pi * np.arange(m) / m)
    p = np.empty(m)
    big, small = x > 1.0, x < -1.0
    mid = ~(big | small)
    p[big] = np.cosh(order * np.arccosh(x[big]))
    p[small] = np.cosh(order * np.arccosh(-x[small]))  # order is even
    p[mid] = np.cos(order * np.arccos(x[mid]))
    w = np.fft.fft(p).real[:(m + 1) // 2]
    return w / w[0]


def _smoothed_step(delta: float, ripple: float, m: int | None) -> np.ndarray:
    """Even polynomial ~0 on |x| < lo, ~1 on |x| > delta, exact degree.

    Cosine coefficients of the indicator of |cos theta| > mid are multiplied
    by the (compactly supported) coefficients of a Dolph-Chebyshev kernel
    whose mainlobe fits the transition band.
    """
    lo = TRANSITION_LO_FRAC * delta
    mid = 0.5 * (lo + delta)
    half_w = 0.5 * (delta - lo)
    acosh_inv = math.acosh(1.0 / ripple)
    if m is None:
        m = int(math.ceil(2.0 * acosh_inv / half_w)) | 1
        for _ in range(200):
            x0 = math.cosh(acosh_inv / (m - 1))
            arg = min(1.0, math.cos(math.pi / (2 * (m - 1))) / x0)
            if 2.0 * math.acos(arg) <= half_w:
                break
            m = int(m * 1.03 + 2) | 1
    kernel = _dolph_chebyshev_half(m, -20.0 * math.log10(ripple))
    half = kernel.size - 1
    t1 = math.acos(mid)
    j = np.arange(1, half + 1)
    coeffs = np.empty(half + 1)
    coeffs[0] = 2.0 * t1 / math.pi
    coeffs[1:] = (2.0 / math.pi) * np.sin(j * t1) * (1.0 + (-1.0) ** j) / j
    return coeffs * kernel


def _divide_by_x(s: np.ndarray) -> np.ndarray:
    """Chebyshev series of s(x)/x for s(0) = 0, in O(D) where chebdiv takes
    O(D²): x·T_k = (T_{k-1} + T_{k+1})/2 gives q_{k-1} = 2·s_k - q_{k+1}
    from the top down, and q_0 = s_1 - q_2/2. Trailing zeros are trimmed
    from s and from q, as chebdiv trims them."""
    s = _pu.trimseq(s).tolist()
    q = [0.0] * (len(s) + 1)
    for k in range(len(s) - 1, 1, -1):
        q[k - 1] = 2.0 * s[k] - q[k + 1]
    q[0] = s[1] - q[2] / 2.0
    return _pu.trimseq(np.array(q[:len(s) - 1]))


def _odd_inverse_series(delta: float, ripple: float, c: float,
                        m: int | None) -> np.ndarray:
    step = _smoothed_step(delta, ripple, m)
    step = step.copy()
    step[0] -= _cheb.chebval(0.0, step)  # force an exact root at x = 0
    return _divide_by_x(step) / c


def _near_error(coeffs: np.ndarray, c: float, delta: float, n_acc: int) -> float:
    # max |p - 1/(cx)| on the part of an n_acc-point accuracy grid near delta
    near = np.linspace(delta, min(20.0 * delta, 1.0), (n_acc * 3) // 4)
    return float(np.max(np.abs(_cheb.chebval(near, coeffs) - 1.0 / (c * near))))


def _passes(coeffs: np.ndarray, c: float, eps_prime: float, delta: float,
            grids: tuple[int, int]) -> bool:
    # grids is (accuracy, boundary) points, COARSE or DENSE; the accuracy
    # grid's part near delta, where failures occur, is checked first and
    # alone; the rest of it and the boundary grid share one chebval
    n_acc, n_bnd = grids
    if _near_error(coeffs, c, delta, n_acc) > eps_prime:
        return False
    xs = np.linspace(delta, 1.0, n_acc)
    vals = _cheb.chebval(np.concatenate([
        xs, np.linspace(0.0, 1.0, n_bnd),
        np.linspace(0.0, min(2.0 * delta, 1.0), n_bnd // 4)]), coeffs)
    if np.max(np.abs(vals[:n_acc] - 1.0 / (c * xs))) > eps_prime:
        return False
    return bool(np.max(np.abs(vals[n_acc:])) <= 1.0 + 1e-12)


@lru_cache(maxsize=64)
def build_inversion_poly(alpha_kappa: float, eps: float,
                         kappa: float | None = None) -> InversionPolySpec:
    """Odd approximant of 1/(cx) with c = 4·alpha·kappa/3, eps' = 3·eps/(4·kappa).

    kappa defaults to alpha_kappa (subnormalization 1). The accuracy target
    is validated on dense grids over the working domain and the kernel length
    is minimized by bisection; a growth loop (degree cap 10^6) covers the
    failure side. That loop raises RuntimeError, naming eps' and the error
    reached, once a longer kernel leaves the error near delta above eps'
    and no lower: the construction has an accuracy floor there (near
    eps = 1e-11 at kappa = 16). Memoized: every instance at one (alpha·kappa, eps, kappa)
    shares one polynomial, and the returned spec is immutable.
    """
    if alpha_kappa <= 1.0:
        raise ValueError("alpha*kappa must exceed 1")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    kappa = alpha_kappa if kappa is None else float(kappa)
    delta = 1.0 / alpha_kappa
    c = 4.0 * alpha_kappa / 3.0
    eps_prime = 3.0 * eps / (4.0 * kappa)
    ripple = c * eps_prime * delta  # tightest tolerance, at |x| = delta
    budget = 4 * int(math.ceil(alpha_kappa * math.log(kappa / eps)))

    build = lambda m: _odd_inverse_series(delta, ripple, c, m)

    def grow(m: int, coeffs: np.ndarray, grids: tuple[int, int], factor: float):
        # lengthen the kernel until coeffs pass; give up once lengthening
        # leaves the error near delta above eps' and no lower than before
        # (the construction's accuracy floor)
        err = math.inf
        while not _passes(coeffs, c, eps_prime, delta, grids):
            prev, err = err, _near_error(coeffs, c, delta, grids[0])
            if err > eps_prime and err >= prev:
                raise RuntimeError(
                    f"inversion polynomial stalls at an accuracy floor above "
                    f"eps' = {eps_prime:.3g}: lengthening its kernel took the "
                    f"error near delta from {prev:.3g} to {err:.3g}")
            m = int(m * factor) | 1
            if m > 2 * DEGREE_CAP:
                raise RuntimeError("inversion polynomial degree cap exceeded")
            coeffs = build(m)
        return m, coeffs

    coeffs = build(None)
    m0, coeffs = grow(2 * coeffs.size + 1, coeffs, COARSE, 1.1)
    lo, hi = 5, m0
    best = coeffs
    while hi - lo > 2:
        mid = ((lo + hi) // 2) | 1
        cand = build(mid)
        if _passes(cand, c, eps_prime, delta, COARSE):
            hi, best = mid, cand
        else:
            lo = mid
    # where coarse and dense grids disagree near the edge, step back up
    _, coeffs = grow(hi, best, DENSE, 1.05)
    coeffs[0::2] = 0.0  # quotient of even by odd; residue is roundoff
    series = ChebSeries(coeffs, parity="odd")
    return InversionPolySpec(series, c, eps_prime, delta, budget)


def solve_qsp_direct(inst: QlspInstance, eps: float, mode: str = "postselect",
                     seed: int | None = None) -> SolverReport:
    """qsp_run's report on a stack of one, charged as mode and seed say."""
    [report] = qsp_run([inst], eps)
    return report(mode, seed)


def qsp_run(insts: list[QlspInstance], eps: float):
    """Apply the inversion polynomial to |b⟩ once for a stack of instances
    and postselect: one report(mode="postselect", seed=None) per row,
    charged by filtering.sampled.

    The rows share kappa, form, dimension and d (qlsp.check_stack), hence
    one memoized polynomial, applied as one series over the (S, N, N) stack
    of A/d (numerics.stack_rows; a stack of one stays 2-D); every row is
    bitwise its own stack-of-one run. Query ledger: polynomial degree per
    attempt times attempts; the expected count degree/p is recorded as a
    diagnostic. No amplitude amplification.
    """
    check_stack(insts)
    works = [extend_general(inst) for inst in insts]
    alpha = float(works[0].d)
    spec = build_inversion_poly(alpha * works[0].kappa, eps, kappa=works[0].kappa)

    # unguarded: ‖A‖ <= NORM_BOUND at entry, alpha = d >= 1, --d only loosens d
    out = clenshaw(spec.series.coefficients,
                   stack_rows([work.A.mat / alpha for work in works]),
                   real_if_real(stack_rows([work.b.amps for work in works])))
    out = out.astype(complex).reshape(len(works), -1)
    return [_inversion_report(inst, work, row, spec, eps)
            for inst, work, row in zip(insts, works, out)]


def _inversion_report(inst, work, out, spec, eps):
    # one row of qsp_run: the postselected state and its report
    p = float(np.linalg.norm(out) ** 2)
    state = StateRegister(out / np.linalg.norm(out),
                          ancilla=work.b.ancilla, system=work.b.system)
    fid = fidelity(state, solution_state(work))

    def report(mode: str = "postselect", seed: int | None = None) -> SolverReport:
        return sampled(
            [(p, spec.degree)], "U_A", mode, seed,
            method="qsp-direct",
            params={
                "kappa": inst.kappa, "d": inst.d, "N": inst.dim, "eps": eps,
                "degree": spec.degree, "degree_budget": spec.degree_budget,
                "c": spec.c, "form": inst.form,
            },
            final_fidelity=fid,
            success_probabilities=[p],
            formula_derived_costs={"expected_queries": spec.degree / p},
        )

    return report
