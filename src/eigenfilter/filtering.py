"""Eigenstate filtering and reflection transforms.

The polynomial transforms act on a block-encoded Hermitian operator H through
the shifted contraction H̃ = (H - λI)/(alpha + |λ|). Applying the even filter
polynomial and measuring the encoding ancillas in |0..0⟩ projects a trial
state toward the λ-eigenspace; the reflection variant realizes 2P_λ - I
without any measurement.

Phase factors of the signal-processing circuit are never computed: the
polynomial is applied directly with a Clenshaw recurrence, which acts
identically on the encoded block. Every transform runs through the one
body `filter_ops`, which takes its series, and none runs a norm guard: an
encoding bounds ‖H‖ <= alpha·(1 + 1e-10) once, when it is built, and with
it ‖H̃‖ <= 1 + 1e-10; solvers and sweeps hand `filter_ops` matrices that
the instance's bound on ‖A‖ already bounds.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .blockenc import BlockEncoding
from .chebpoly import (
    BOUND_GAP_CAP,
    FilterSpec,
    filter_cheb_coeffs,
    filter_eval,
    reflection_cheb_coeffs,
)
from . import numerics
from .numerics import StateRegister, eig_hermitian
from .report import SolverReport

# Eigenvalues within this distance of λ count as the target eigenspace.
EIGENSPACE_TOL = 1e-8
MAX_ATTEMPTS = 10_000  # a sampled run with no success by then raises


@dataclass(frozen=True)
class MeasurementOutcome:
    """Projection result: success probability plus the renormalized state.

    The projection is deterministic, so every outcome is postselected; a
    sampled run draws its coins against the recorded probability (see
    sampled), and the failure branch state is not modeled.
    """

    success_probability: float
    post_state: StateRegister
    ancilla_budget: int | None = None
    mode = "postselect"  # a class constant, not a field

    def __post_init__(self):
        if not 0.0 <= self.success_probability <= 1.0 + 1e-12:
            raise ValueError("success probability outside [0, 1]")


def measured_gap(eigenvalues: np.ndarray, lam: float) -> float:
    """Distance from λ to the rest of a spectrum whose eigenvalues include λ."""
    dist = np.abs(eigenvalues - lam)
    if dist.min() > EIGENSPACE_TOL:
        raise ValueError(f"{lam} is not an eigenvalue of the payload")
    rest = dist[dist > EIGENSPACE_TOL]
    if rest.size == 0:
        raise ValueError("payload has no spectrum outside the target eigenspace")
    return float(rest.min())


def transformed_gap(enc: BlockEncoding, lam: float, gap: float | None = None) -> float:
    """Gap of H̃ around 0, from the measured spectrum or a supplied bound.

    Capped at 1/sqrt(12), the largest gap for which the exponential filter
    bound is valid.
    """
    g = (measured_gap(eig_hermitian(enc.payload).eigenvalues, lam)
         if gap is None else float(gap))
    if g <= 0.0:
        raise ValueError("gap must be positive")
    return min(g / (enc.alpha + abs(lam)), BOUND_GAP_CAP)


def apply_filter(enc: BlockEncoding, lam: float, ell: int, psi: StateRegister,
                 gap: float | None = None) -> MeasurementOutcome:
    """Filter psi toward the λ-eigenspace with the degree-2ell polynomial.

    The optional gap argument is a user-supplied lower bound on the spectral
    gap of the payload around λ (the algorithm-as-specified path); by default
    the gap is measured from the eigendecomposition.
    """
    return _transform(filter_cheb_coeffs, enc, lam, ell, psi, gap)


def reflection_apply(enc: BlockEncoding, lam: float, ell: int, psi: StateRegister,
                     gap: float | None = None) -> MeasurementOutcome:
    """Apply the normalized reflection polynomial about the λ-eigenspace."""
    return _transform(reflection_cheb_coeffs, enc, lam, ell, psi, gap)


def _transform(series_of, enc, lam, ell, psi, gap):
    # series_of(FilterSpec(ell, gap̃)) of H̃ = (H - λI)/(alpha + |λ|), unguarded:
    # enc bounds ‖H‖ <= alpha·(1 + 1e-10), so ‖H̃‖ <= 1 + 1e-10
    h = enc.payload
    if not h.hermitian:
        raise ValueError("filtering needs a Hermitian payload")
    htilde = (h.mat - lam * np.eye(h.dim)) / (enc.alpha + abs(lam))
    series = series_of(FilterSpec(ell, transformed_gap(enc, lam, gap)))
    [out] = filter_ops(htilde, series, [psi], ancilla_budget=enc.ancilla + 2)
    return out


def filter_ops(ops, series, psis: list[StateRegister],
               ancilla_budget: int | None = None) -> list[MeasurementOutcome]:
    """The one filtering body: series (a ChebSeries) of the contraction H̃,
    given unguarded as numerics.clenshaw's ops, on each state of psis,
    whose amplitudes run as one numerics.stack_rows stack (ops stacked to
    match). The probability and the normalization stay per row, so each
    outcome is bitwise the stack-of-one call. numerics.clenshaw is looked
    up per call, so a counting wrapper there sees it.

    For H̃ = σ₊⊗B̃ + σ₋⊗B̃† on a 2N state, ops is the pair [B̃, B̃†] (see
    numerics.clenshaw). For a state in H̃'s |0⟩ block, held as that block
    alone, ops is (B̃†, B̃), and series is even (the filter): b_k lies in
    the |0⟩ block for even k and in the |1⟩ block for odd k, its 2ℓ
    products alternate B̃†, B̃, ..., and the result stays in the |0⟩
    block."""
    out = numerics.clenshaw(series.coefficients, ops, numerics.real_if_real(
        numerics.stack_rows([psi.amps for psi in psis])))
    outcomes = []
    for psi, row in zip(psis, out.reshape(len(psis), -1)):
        filtered = psi.with_amps(row)
        p = float(filtered.norm() ** 2)
        if p <= 1e-300:
            raise ValueError("state filtered to zero: no overlap with eigenspace")
        outcomes.append(MeasurementOutcome(min(p, 1.0), filtered.normalized(),
                                           ancilla_budget=ancilla_budget))
    return outcomes


def projector_error(enc: BlockEncoding, lam: float, ell: int,
                    gap: float | None = None) -> float:
    """‖R_ell(H̃; gap̃) - P_λ‖ computed through the spectral oracle."""
    gap_t = transformed_gap(enc, lam, gap)
    spec = FilterSpec(ell, gap_t)
    denom = enc.alpha + abs(lam)
    dec = eig_hermitian(enc.payload)
    shifted = (dec.eigenvalues - lam) / denom
    inside = np.abs(dec.eigenvalues - lam) <= EIGENSPACE_TOL
    vals = filter_eval(spec, shifted)
    return float(np.abs(vals - inside.astype(float)).max())


def prepend_ancilla(u: np.ndarray) -> StateRegister:
    """|0⟩⊗u, u the system under one ancilla: the layout measure_ancilla reads."""
    return StateRegister(np.concatenate([u, np.zeros(u.size)]), 1, u.size.bit_length() - 1)


def measure_ancilla(state: StateRegister) -> MeasurementOutcome:
    """Measure all ancilla qubits, keeping the all-zero outcome.

    The all-zero block is the leading 2**system amplitudes (ancillas occupy
    the most significant positions).
    """
    if state.ancilla < 1:
        raise ValueError("state has no ancilla qubits")
    nsys = 1 << state.system
    block = state.amps[:nsys]
    p = float(np.linalg.norm(block) ** 2 / state.norm() ** 2)
    if p <= 1e-300:
        raise ValueError("all-zero ancilla outcome has zero probability")
    projected = np.zeros_like(state.amps)
    projected[:nsys] = block
    return MeasurementOutcome(min(p, 1.0),
                              state.with_amps(projected).normalized())


def sample_restarts(probs: list[float], rng: np.random.Generator,
                    max_attempts: int) -> list[int]:
    """Sample a chain of measurements, restarting it from the top on failure.

    Each attempt draws one coin rng.random() < probs[i] per stage, in order,
    and stops at the first failure; the first attempt that passes every
    stage ends the run. Returns how many times each stage was reached, so
    entry 0 is the number of attempts.
    """
    reached = [0] * len(probs)
    for _ in range(max_attempts):
        for i, p in enumerate(probs):
            reached[i] += 1
            if not rng.random() < p:
                break
        else:
            return reached
    raise RuntimeError(f"no success within {max_attempts} attempts")


def sampled(stages: list[tuple[float, int]], key: str, mode: str = "postselect",
            seed: int | None = None, **report) -> SolverReport:
    """The SolverReport of one deterministic run of a measurement chain: the
    one charging rule of every solver, whose run rows are partials of it.

    stages is the chain in order, as (success probability, queries per
    reach). "postselect" (the default) reaches each stage once; "sample"
    draws coins from seed (default None; sample_restarts, MAX_ATTEMPTS).
    ledger[key] charges each stage's queries once per attempt that reached
    it; O_B and attempts count the attempts. report holds the other fields,
    copied per call; mode and seed join its params.
    """
    if mode == "postselect":
        reached = [1] * len(stages)
    elif mode == "sample":
        reached = sample_restarts([p for p, _ in stages],
                                  np.random.default_rng(seed), MAX_ATTEMPTS)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    attempts = reached[0]
    queries = sum(q * r for (_, q), r in zip(stages, reached))
    report = copy.deepcopy(report)
    report["params"].update(mode=mode, seed=seed)
    return SolverReport(**report, query_ledger={key: queries, "O_B": attempts},
                        attempts=attempts)
