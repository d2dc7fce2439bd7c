"""Adiabatic traversal of H(f) and the adiabatic-seeded filtering solver.

The evolution is ideal continuous-time dynamics, discretized by a midpoint
piecewise-constant propagator. Each step applies exp(-i·dt·H) as a Chebyshev
series of H (Jacobi–Anger coefficients) through matvecs only, so it is
unitary to the series' certified truncation tolerance and nothing is
diagonalized. The power-law schedule spends its time budget where the gap
is small, so a short run at T proportional to kappa already lands a
constant-overlap trial state; one filtering step then converts constant
overlap into eps-accuracy. That step (`seed_filter`) runs on H1/d by matvecs:
like the evolution, it builds no block encoding and runs no norm guard.
Both run on stacks of instances that share kappa, form, dimension and d
(`evolve` and a single solve are stacks of one), and hand the Clenshaw
kernel the off-diagonal pairs [B, B†] of each σ₊⊗B + σ₋⊗B†: each product is two
N×N ones per row, not one dense 2N×2N.

Hamiltonian-simulation query costs are not measured (the evolution is
emulated); they are reported through the known closed-form count and flagged
as formula-derived in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .blockenc import qb_matrix
from .chebpoly import (BOUND_GAP_CAP, FilterSpec, degree_for_accuracy,
                       filter_cheb_coeffs, jacobi_anger_coeffs)
from .filtering import filter_ops, measure_ancilla, prepend_ancilla, sampled
from .numerics import (StateRegister, clenshaw_plan, convex_combination,
                       fidelity, stack_rows)
from .qlsp import (
    NORM_BOUND,
    QlspInstance,
    check_stack,
    extend_general,
    gap_lower_bound,
    hamiltonian_pairs,
    offdiag_pair,
    path_vectors,
    solution_state,
)
from .report import SolverReport

STEPS_PER_UNIT_TIME = 20
TIME_FACTOR = 0.2  # default evolution time T = TIME_FACTOR·kappa
SCHEDULE_POWER = 1.5  # default schedule power p


@dataclass(frozen=True)
class AqcConfig:
    """Total time T, schedule exponent p, and time discretization."""

    T: float
    p: float = SCHEDULE_POWER
    steps: int | None = None

    def __post_init__(self):
        if self.T <= 0.0:
            raise ValueError("T must be positive")
        if not 1.0 < self.p < 2.0:
            raise ValueError("p must lie in (1, 2)")
        floor = self.step_floor
        if self.steps is not None and self.steps < floor:
            raise ValueError(f"steps {self.steps} below resolution floor {floor}")

    @property
    def step_floor(self) -> int:
        return int(math.ceil(STEPS_PER_UNIT_TIME * self.T))

    @property
    def num_steps(self) -> int:
        return self.steps if self.steps is not None else self.step_floor


def schedule_p(s: float, kappa: float, p: float) -> float:
    """Power-law schedule: time density proportional to the gap bound^p."""
    if not 0.0 <= s <= 1.0:
        raise ValueError("s must lie in [0, 1]")
    if kappa <= 1.0:
        raise ValueError("kappa must exceed 1")
    if not 1.0 < p < 2.0:
        raise ValueError("p must lie in (1, 2)")
    base = 1.0 + s * (kappa ** (p - 1.0) - 1.0)
    return kappa / (kappa - 1.0) * (1.0 - base ** (1.0 / (1.0 - p)))


def evolve(inst: QlspInstance, cfg: AqcConfig, observer=None) -> StateRegister:
    """evolve_stack on a stack of one."""
    [out] = evolve_stack([inst])(cfg, observer)
    return out


def evolve_stack(insts: list[QlspInstance]):
    """run(cfg, observer=None) -> each row's |0⟩|u0⟩ propagated through
    H(f(s)), s from 0 to 1, by one propagation of (S, 2, N, N) stacks of
    the H0 and H1 pairs (qlsp.hamiltonian_pairs), built here once, on
    (S, 2N) states. insts share kappa, form, dimension and d
    (qlsp.check_stack); one stays unstacked (numerics.stack_rows), and
    each row is bitwise its stack of one.

    Each of the K steps applies exp(-i·(T/K)·H(f(s_mid))) as the Chebyshev
    series Σ_k c_k T_k(H/alpha) (see jacobi_anger_coeffs), by Clenshaw
    matvecs. alpha = qlsp.NORM_BOUND, the bound every instance puts on ‖A‖:
    in each picture ‖H0‖ <= 1 and ‖H1‖ <= ‖A‖, hence every convex
    combination H(f) is bounded too and each H/alpha is a contraction, with
    no norm computed here. Each step forms 2·[B(f), B(f)†]/alpha from the
    H0 and H1 pairs, doubled once, in one buffer (numerics.
    convex_combination) and runs the propagation's one clenshaw_plan on it:
    D products of two N×N blocks per row for degree D. The buffer is float64
    for a real instance, the state complex from the first step. The midpoint
    rule is second-order accurate in 1/K; each step is unitary to the
    series' truncation tolerance (1e-16). observer(j, amps), if given, sees
    the states (2N for a stack of one) after j steps, for j = 0 through K.
    """
    check_stack(insts)
    h0, h1, u0s = hamiltonian_pairs(insts)
    inits = [prepend_ancilla(u0.amps) for u0 in u0s]
    psi = stack_rows([init.amps for init in inits])

    def run(cfg: AqcConfig, observer=None) -> list[StateRegister]:
        out = _propagate(h0, h1, psi, insts[0].kappa, cfg, observer)
        rows = out.reshape(len(insts), -1)
        return [init.with_amps(row) for init, row in zip(inits, rows)]

    return run


def _propagate(h0, h1, psi, kappa, cfg, observer=None):
    # the one propagator loop and its one plan, on 2-D arrays or on stacks
    k = cfg.num_steps
    coeffs = jacobi_anger_coeffs(cfg.T / k * NORM_BOUND)
    form = convex_combination(2.0 * h0, 2.0 * h1)
    run = clenshaw_plan(coeffs, form(0.0, NORM_BOUND), psi)
    if observer is not None:
        observer(0, psi)
    for step in range(k):
        f = schedule_p((step + 0.5) / k, kappa, cfg.p)
        psi = run(form(f, NORM_BOUND), psi)
        if observer is not None:
            observer(step + 1, psi)
    return psi


def hsim_query_formula(d: int, kappa: float) -> float:
    """Closed-form count for the emulated time evolution (flagged estimate)."""
    dk = d * kappa
    return dk * math.log(dk) / math.log(max(math.log(dk), math.e))


def overlap_recorder(inst: QlspInstance, cfg: AqcConfig, stride: int = 1):
    """(observer, points): handed to evolve (a stack of one) under cfg,
    observer appends (s, |<0, x(f(s))|psi(s)>|) to points every stride
    steps, from s = 0 to s = 1.

    Positive-definite instances only (the instantaneous target is the
    two-block null vector |0>|x(f)>); others raise here, before any run.
    """
    if inst.form != "positive-definite":
        raise ValueError("overlap trace requires a positive-definite instance")
    k = cfg.num_steps
    steps = [j for j in range(k + 1) if j % stride == 0 or j == k]
    fs = [schedule_p(j / k, inst.kappa, cfg.p) for j in steps]
    path = dict(zip(steps, path_vectors(inst, fs)))
    points: list[tuple[float, float]] = []

    def record(step: int, psi: np.ndarray) -> None:
        if step in path:
            overlap = abs(np.vdot(path[step], psi[:inst.dim]))
            points.append((step / k, float(overlap)))

    return record, points


def _dilated_to_twoblock(psi: StateRegister, n: int) -> tuple[StateRegister, float]:
    # project onto first qubit |0>, second qubit |+>; return 2N two-block
    # state (first-qubit slot zeroed) and the acceptance probability
    dim = 1 << n
    block0 = psi.amps[:dim]
    block1 = psi.amps[dim:2 * dim]
    accepted = (block0 + block1) / math.sqrt(2.0)
    p = float(np.linalg.norm(accepted) ** 2 / psi.norm() ** 2)
    if p <= 1e-300:
        raise ValueError("dilated-run acceptance probability is zero")
    return prepend_ancilla(accepted / np.linalg.norm(accepted)), p


def seed_filter(insts: list[QlspInstance]):
    """(filt, gap, targets) for a stack of positive-definite or Hermitian
    indefinite instances (qlsp.check_stack): filt(ell, psis) filters each
    row's state toward its H1's null space by matvecs with H1/d, as one
    filtering.filter_ops stack, and targets holds each row's |0⟩|x⟩. H1 is
    qlsp.make_h1's σ₊⊗B + σ₋⊗B†, B = A·Q_b (not hamiltonian_blocks'
    dilation), with gap at least gap around 0; the pairs [B, B†]/d are built
    once, unguarded: ‖B‖ <= ‖A‖ <= NORM_BOUND at entry and d >= 1."""
    check_stack(insts)
    h1 = stack_rows([offdiag_pair(inst.A.mat @ qb_matrix(inst.b) / inst.d)
                     for inst in insts])
    gap = min(gap_lower_bound(insts[0], 1.0) / insts[0].d, BOUND_GAP_CAP)
    return (lambda ell, psis: filter_ops(
        h1, filter_cheb_coeffs(FilterSpec(ell, gap)), psis), gap,
        [prepend_ancilla(solution_state(inst).amps) for inst in insts])


def solve_aqc_filtered(inst: QlspInstance, eps: float,
                       cfg: AqcConfig | None = None,
                       mode: str = "postselect",
                       seed: int | None = None,
                       observer=None) -> SolverReport:
    """aqc_run's report on a stack of one, charged as mode and seed say."""
    [report] = aqc_run([inst], eps, cfg, observer)
    return report(mode, seed)


def aqc_run(insts: list[QlspInstance], eps: float,
            cfg: AqcConfig | None = None, observer=None):
    """Adiabatic seed at constant precision, then one filtering step, run
    once for a stack of instances: one row per instance, functools.partial
    of filtering.sampled bound to all but (mode, seed).

    The rows share kappa, form, dimension and d (qlsp.check_stack). Their
    seeds come from one evolve_stack propagation (a stack of one stays
    unstacked); each row's seed is filtered as a stack of one, since its
    degree ℓ follows the row's seed overlap γ0: eps scaled by γ0 (a weaker
    seed needs a sharper filter). Every row is bitwise its own stack-of-one
    run. The final first-qubit measurement removes the |1⟩|b⟩ null
    component. The coin stages are the dilated run's |+⟩ acceptance
    (dilated forms), the filter (2ℓ queries) and the ancilla. observer, if
    given, is handed to the one propagation (see overlap_recorder, which
    reads a stack of one).
    """
    check_stack(insts)
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    cfg = cfg or AqcConfig(T=TIME_FACTOR * insts[0].kappa)

    # general input is evolved and filtered in its extended picture
    filt_insts = [extend_general(inst) for inst in insts]
    seeds = evolve_stack(filt_insts)(cfg, observer)
    return [_seeded_report(inst, filt_inst, seeded, eps, cfg)
            for inst, filt_inst, seeded in zip(insts, filt_insts, seeds)]


def _seeded_report(inst, filt_inst, seeded, eps, cfg):
    # one row of aqc_run: the seed filter on the evolved seed, as a partial
    filt, gap, [target] = seed_filter([filt_inst])
    dilated = inst.form != "positive-definite"
    accept_p = 1.0
    if dilated:
        seeded, accept_p = _dilated_to_twoblock(seeded, filt_inst.n)
    gamma0 = float(abs(np.vdot(target.amps, seeded.amps)))
    if gamma0 <= 1e-12:
        raise ValueError("adiabatic seed has no overlap with the solution")
    ell = degree_for_accuracy(gap, eps * gamma0)

    [out] = filt(ell, [seeded])
    final = measure_ancilla(out.post_state)
    stages = ([(accept_p, 0)] if dilated else [])
    stages += [(out.success_probability, 2 * ell), (final.success_probability, 0)]
    return partial(
        sampled, stages, "U_H1_filter", method="aqc",
        params={"kappa": inst.kappa, "d": inst.d, "N": inst.dim, "eps": eps,
                "T": cfg.T, "p": cfg.p, "steps": cfg.num_steps, "ell": ell,
                "gamma0": gamma0, "dilated_accept_p": accept_p, "form": inst.form},
        final_fidelity=fidelity(final.post_state.amps[:filt_inst.dim],
                                target.amps[:filt_inst.dim]),
        success_probabilities=[p for p, _ in stages],
        formula_derived_costs={
            "aqc_evolution_queries": hsim_query_formula(inst.d, inst.kappa),
        })
