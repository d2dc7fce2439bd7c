"""Zeno-style traversal: a scheduled sequence of filtering projections.

Instead of evolving in time, the solver walks the interpolation parameter
through a grid chosen so that consecutive null states overlap by 1 - O(1/M);
projecting onto the instantaneous null space at each grid point then succeeds
with probability bounded away from zero for the whole walk. Projections are
polynomial filters at accuracy eps_P, except the last one, which switches to
eps/4 to set the output precision.

H(f) is off-diagonal in its first qubit, H(f) = σ₊⊗B(f) + σ₋⊗B(f)†, and
the filter polynomial is even, hence block-diagonal there: the walk stays
in the |0⟩ block of the two-block picture and is simulated on that N-vector
alone: `filtering.filter_ops` alternates products with B̃† and B̃ (the
singular-value picture of QSVT, arXiv 1806.01838). The final first-qubit
measurement therefore succeeds with probability 1; it is still performed,
and its probability is recorded in the last step entry.

The pairs [B0, B0†] and [B1, B1†] of B0 = Q_b and B1 = A·Q_b come from
`qlsp.hamiltonian_pairs`, as for the adiabatic solver; each step forms
[B(f), B(f)†]/alpha(f) with `numerics.convex_combination` and filters on
its halves without a norm guard or a block encoding: ‖A‖ is bounded once,
where the instance is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .chebpoly import (BOUND_GAP_CAP, FilterSpec, degree_for_accuracy,
                       filter_cheb_coeffs)
from .filtering import filter_ops, measure_ancilla, prepend_ancilla, sampled
from .numerics import convex_combination, fidelity
from .qlsp import (
    QlspInstance,
    check_stack,
    gap_lower_bound,
    hamiltonian_pairs,
    lstar,
    path_vectors,
    solution_state,
)
from .report import SolverReport

M_FLOOR = 4  # the overlap analysis needs M >= 4


def zeno_schedule(s: float, kappa: float) -> float:
    """Schedule with equal length-bound segments: f(s) = (1-κ^{-s})/(1-1/κ)."""
    if not 0.0 <= s <= 1.0:
        raise ValueError("s must lie in [0, 1]")
    if kappa <= 1.0:
        raise ValueError("kappa must exceed 1")
    return (1.0 - kappa ** (-s)) / (1.0 - 1.0 / kappa)


@dataclass(frozen=True)
class ZenoParams:
    """Step count M, projection accuracy eps_P, final accuracy, and the grid."""

    M: int
    eps_p: float
    final_eps: float
    f_grid: np.ndarray

    def __post_init__(self):
        if self.M < M_FLOOR:
            raise ValueError(f"M must be at least {M_FLOOR}")
        g = np.asarray(self.f_grid, dtype=float)
        if g.size != self.M + 1 or g[0] != 0.0 or abs(g[-1] - 1.0) > 1e-15:
            raise ValueError("f grid must run from 0 to 1 with M+1 points")
        if np.any(np.diff(g) <= 0.0):
            raise ValueError("f grid must be strictly increasing")
        g = np.array(g, copy=True)
        g.setflags(write=False)
        object.__setattr__(self, "f_grid", g)


def zeno_params(kappa: float, eps: float) -> ZenoParams:
    """M = ⌈4·ln²κ/(1-1/κ)²⌉ (floored at 4), eps_P = 1/(162·M²)."""
    if kappa <= 1.0:
        raise ValueError("kappa must exceed 1")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    r = 1.0 - 1.0 / kappa
    m = max(M_FLOOR, int(math.ceil(4.0 * math.log(kappa) ** 2 / r ** 2)))
    grid = np.array([zeno_schedule(j / m, kappa) for j in range(m + 1)])
    grid[-1] = 1.0
    return ZenoParams(m, 1.0 / (162.0 * m ** 2), eps / 4.0, grid)


def grid_spread(kappa: float, eps: float) -> float:
    """max - min of qlsp.lstar over the segments of zeno_params(kappa, eps)'s
    grid: zero up to roundoff on an equal-length grid."""
    g = zeno_params(kappa, eps).f_grid
    seg = [lstar(kappa, float(a), float(b)) for a, b in zip(g[:-1], g[1:])]
    return max(seg) - min(seg)


@dataclass
class ZenoTrace:
    """Per-step record of one walk (postselect semantics)."""

    per_step_success: list[float] = field(default_factory=list)
    per_step_overlap: list[float] = field(default_factory=list)
    states: list[np.ndarray] = field(default_factory=list)  # |0>-block, normalized
    total_success: float = 1.0
    final_fidelity: float = 0.0

    def check_product(self, tol: float = 1e-12) -> None:
        prod = float(np.prod(self.per_step_success)) if self.per_step_success else 1.0
        if abs(prod - self.total_success) > tol * max(1.0, abs(prod)):
            raise AssertionError("total success != product of step successes")


def solve_zeno(inst: QlspInstance, eps: float, mode: str = "postselect",
               seed: int | None = None) -> tuple[SolverReport, ZenoTrace]:
    """zeno_run's report on a stack of one, charged as mode and seed say,
    and its trace. Every step projects with a filter polynomial."""
    [(report, trace)] = zeno_run([inst], eps)
    return report(mode, seed), trace


def zeno_run(insts: list[QlspInstance], eps: float):
    """Walk the schedule grid with filtering projections, final step at
    eps/4, once for a stack of instances: one (row, trace) per instance,
    row a functools.partial of filtering.sampled bound to all but (mode,
    seed).

    The rows share kappa, form, dimension and d (qlsp.check_stack), hence
    the grid and the ells: each step forms the (S, 2, N, N) stack of pairs
    [B̃, B̃†] (numerics.stack_rows; a stack of one stays 2-D) and runs one
    filter on its halves (B̃†, B̃), and every row is bitwise its own
    stack-of-one walk. The coin stages are each filter step, then the final
    ancilla measurement; a failure restarts the whole walk from |0⟩|b⟩, and
    each step costs 2ℓ per attempt that reached it.
    """
    check_stack(insts)
    inst = insts[0]
    params = zeno_params(inst.kappa, eps)
    if inst.form != "positive-definite":
        # the interpolation path x(f) needs (1-f)I + fA invertible for all f
        raise ValueError("traversal solver requires a positive-definite instance")
    # QlspInstance checks ‖A‖ <= NORM_BOUND at entry, so ‖B(f)‖ <= (1-f) +
    # f·NORM_BOUND <= alpha(f)·(1 + 1e-10), alpha(f) = (1-f) + f·d: each
    # B(f)/alpha(f) is a contraction to the encodings' own tolerance
    h0, h1, us = hamiltonian_pairs(insts)  # u = b, the |0⟩ block
    form = convex_combination(h0, h1)
    paths = [path_vectors(row, params.f_grid[1:]) for row in insts]
    traces = [ZenoTrace() for _ in insts]
    stages: list[list[tuple[float, int]]] = [[] for _ in insts]
    ells: list[int] = []
    for j in range(1, params.M + 1):
        f = float(params.f_grid[j])
        alpha = (1 - f) + f * inst.d
        gap = gap_lower_bound(inst, f) / alpha
        target = params.eps_p if j < params.M else params.final_eps
        ell = degree_for_accuracy(gap, target)
        ells.append(ell)
        for trace, path, u in zip(traces, paths, us):
            trace.per_step_overlap.append(float(abs(np.vdot(u.amps, path[j - 1]))))
        pair = form(f, alpha)
        series = filter_cheb_coeffs(FilterSpec(ell, min(gap, BOUND_GAP_CAP)))
        outs = filter_ops((pair[..., 1, :, :], pair[..., 0, :, :]), series, us)
        us = []
        for trace, chain, out in zip(traces, stages, outs):
            u, p = out.post_state, out.success_probability
            chain.append((p, 2 * ell))
            if j == params.M:
                final = measure_ancilla(prepend_ancilla(u.amps))
                u = u.with_amps(final.post_state.amps[:u.dim])
                p *= final.success_probability
                chain.append((final.success_probability, 0))
            trace.per_step_success.append(p)
            trace.states.append(u.amps / np.linalg.norm(u.amps))
            us.append(u)

    runs = []
    for row, u, trace, chain in zip(insts, us, traces, stages):
        trace.total_success = float(np.prod(trace.per_step_success))
        trace.final_fidelity = fidelity(u.amps, solution_state(row).amps)
        runs.append((partial(
            sampled, chain, "U_Hf_filter", method="zeno",
            params={"kappa": row.kappa, "d": row.d, "N": row.dim, "eps": eps,
                    "M": params.M, "eps_p": params.eps_p, "ells": ells,
                    "form": row.form},
            final_fidelity=trace.final_fidelity,
            success_probabilities=trace.per_step_success,
            formula_derived_costs={
                "query_envelope": query_envelope(row.kappa, row.d, params),
            }), trace))
    return runs


def query_envelope(kappa: float, d: int, params: ZenoParams) -> float:
    """Closed-form envelope for the walk's intermediate-step query count."""
    r = 1.0 - 1.0 / kappa
    shape = (d * kappa - 1.0) / math.log(kappa) - (d - 1.0) / r
    return math.log(1.0 / params.eps_p) * params.M * shape


@dataclass
class ZenoBoundsReport:
    """Margins of the per-step overlap bounds (all must be non-negative)."""

    path_overlap_margin: list[float]
    projection_margin: list[float]
    step_overlap_margin: list[float]
    overlap_floor_ok: bool
    idealized_path_margin: list[float]

    @property
    def all_hold(self) -> bool:
        return (self.overlap_floor_ok
                and all(m >= 0.0 for m in self.path_overlap_margin)
                and all(m >= 0.0 for m in self.projection_margin)
                and all(m >= 0.0 for m in self.step_overlap_margin))


def validate_zeno_bounds(trace: ZenoTrace, params: ZenoParams,
                         inst: QlspInstance) -> ZenoBoundsReport:
    """Check the walk's overlap chain against the oracle path.

    (i)  consecutive exact path states overlap by >= 1 - 1/(2M)
    (ii) each projected state stays within 4·eps_P of its path state
    (iii) projected-to-next-path overlap >= 1 - 1/(2M) - 4·eps_P - 2·sqrt(2·eps_P),
          and never below 1/2.
    """
    m = params.M
    path = path_vectors(inst, params.f_grid)
    eps_p = params.eps_p

    bound_i = 1.0 - 1.0 / (2.0 * m)
    r = 1.0 - 1.0 / inst.kappa
    bound_i_tight = 1.0 - 2.0 * math.log(inst.kappa) ** 2 / (m ** 2 * r ** 2)
    path_margin = []
    ideal_margin = []
    for j in range(m):
        ov = float(abs(np.vdot(path[j], path[j + 1])))
        path_margin.append(ov - bound_i)
        ideal_margin.append(ov - bound_i_tight)

    proj_margin = []
    for j, state in enumerate(trace.states, start=1):
        ov = float(abs(np.vdot(path[j], state)))
        proj_margin.append(ov - (1.0 - 4.0 * eps_p))

    bound_iii = 1.0 - 1.0 / (2.0 * m) - 4.0 * eps_p - 2.0 * math.sqrt(2.0 * eps_p)
    step_margin = []
    floor_ok = True
    for j, state in enumerate(trace.states[:-1], start=1):
        ov = float(abs(np.vdot(state, path[j + 1])))
        step_margin.append(ov - bound_iii)
        if ov < 0.5:
            floor_ok = False

    report = ZenoBoundsReport(path_margin, proj_margin, step_margin,
                              floor_ok, ideal_margin)
    if not report.all_hold:
        bad = {
            "path": [j for j, v in enumerate(path_margin) if v < 0.0],
            "projection": [j + 1 for j, v in enumerate(proj_margin) if v < 0.0],
            "step": [j + 1 for j, v in enumerate(step_margin) if v < 0.0],
        }
        raise AssertionError(f"overlap bounds violated at steps {bad}")
    return report
