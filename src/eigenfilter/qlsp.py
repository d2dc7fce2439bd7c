"""Linear-system problem representation and its interpolating Hamiltonians.

A QLSP instance is a coefficient matrix with singular values in [1/kappa, 1]
and a unit right-hand state. The solvers never invert anything: they follow
the null space of H(f) = (1-f)·H0 + f·H1 from |0⟩|u0⟩ at f=0 to the solution
at f=1. In each picture (positive-definite, and the dilations for indefinite
and non-Hermitian input) H0 and H1 are off-diagonal, σ₊⊗B + σ₋⊗B†:
`hamiltonian_blocks` lays out the blocks, `offdiag_pair` stacks the pair
[B, B†] the solvers multiply, and `offdiag` builds the dense H0 and H1 that
the encodings carry.
The module also bounds the gap of H(f) and exposes the exact eigenpath with
its length and (exact) derivative diagnostics. The encodings (each matrix
with its circuit's bookkeeping) serve verification; solvers use the matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockenc import BlockEncoding, linear_combine, qb_matrix
from .numerics import (DenseOperator, StateRegister, linsolve, real_if_real,
                       stack_rows)

FORMS = ("positive-definite", "hermitian-indefinite", "general")

_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
_SP = np.array([[0.0, 1.0], [0.0, 0.0]])  # sigma_+ = |0><1|
_SM = _SP.T
# Every instance has ‖A‖ <= NORM_BOUND, so every block B0, B1 laid out by
# hamiltonian_blocks, and with it H0 = offdiag(B0) and H1 = offdiag(B1), has
# spectral norm at most NORM_BOUND too (see aqc.evolve and zeno.solve_zeno).
NORM_BOUND = 1.0 + 1e-10
EIGENPATH_SAMPLES = 256  # quadrature points of eigenpath_length


@dataclass(frozen=True)
class QlspInstance:
    """Coefficient matrix, right-hand state, condition bound, sparsity, form."""

    A: DenseOperator
    b: StateRegister
    kappa: float
    d: int
    form: str = "positive-definite"
    seed: int | None = None

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"unknown form {self.form!r}")
        if not 1.0 < self.kappa < math.inf:  # also rejects NaN
            raise ValueError("kappa must exceed 1 and be finite")
        if self.d < 1:
            raise ValueError("sparsity must be positive")
        if self.A.dim != self.b.dim:
            raise ValueError("matrix and right-hand side dimensions differ")
        if abs(self.b.norm() - 1.0) > 1e-12:
            raise ValueError("right-hand state must be normalized")
        if self.A.hermitian:  # the singular values of a Hermitian A are its |λ|
            sv = np.abs(np.linalg.eigvalsh(self.A.mat))
        else:
            sv = np.linalg.svd(self.A.mat, compute_uv=False)
        if sv.max() > NORM_BOUND:
            raise ValueError(f"||A|| = {sv.max():.6g} exceeds 1")
        if sv.min() < 1.0 / self.kappa - 1e-10:
            raise ValueError(
                f"smallest singular value {sv.min():.6g} below 1/kappa"
            )

    @property
    def n(self) -> int:
        """System qubit count (dim = 2^n)."""
        n = max(self.A.dim - 1, 0).bit_length()
        return n

    @property
    def dim(self) -> int:
        return self.A.dim


def check_stack(insts) -> None:
    """ValueError unless insts, at least one, share kappa, form, dimension
    and d: the instances a solver or an evolution runs as one stack."""
    if len({(inst.kappa, inst.form, inst.dim, inst.d) for inst in insts}) != 1:
        raise ValueError("a stack needs one kappa, form and dimension, and one d")


def solution_state(inst: QlspInstance) -> StateRegister:
    """Classical oracle for the normalized solution A⁻¹b."""
    return linsolve(inst.A, inst.b).normalized()


def offdiag(B: np.ndarray) -> DenseOperator:
    """The Hermitian σ₊⊗B + σ₋⊗B†: B in the top-right block, B† below left."""
    return DenseOperator(np.kron(_SP, B) + np.kron(_SM, B.conj().T),
                         hermitian=True)


def offdiag_pair(B: np.ndarray) -> np.ndarray:
    """[B, B†], numerics.clenshaw's operand for offdiag(B), in its dtype."""
    return real_if_real(np.stack([B, B.conj().T]))


def make_h0(b: StateRegister) -> DenseOperator:
    """H0 = offdiag(Q_b) = σx⊗Q_b; null space spans |0⟩|b⟩ and |1⟩|b⟩."""
    return offdiag(qb_matrix(b))


def make_h1(A: DenseOperator, b: StateRegister) -> DenseOperator:
    """H1 = offdiag(AQ_b); null space spans |0⟩|x⟩ and |1⟩|b⟩."""
    return offdiag(A.mat @ qb_matrix(b))


def make_h1_encoding(inst: QlspInstance) -> BlockEncoding:
    """(d, n+4, 0)-encoding of H1 = W·(sigma_x⊗A)·W with W = diag(I, Q_b).

    W is a (1, 1, 0)-encoding and sigma_x⊗A a (d, n+2, 0)-encoding, so the
    product has alpha = d and m = 1 + (n+2) + 1 = n+4 ancillas.
    """
    return BlockEncoding(make_h1(inst.A, inst.b), float(inst.d), inst.n + 4)


def make_h0_encoding(inst: QlspInstance) -> BlockEncoding:
    """(1, 1, 0)-encoding of H0 (the Q_b ancilla; the Pauli factor is free)."""
    return BlockEncoding(make_h0(inst.b), 1.0, 1)


def make_hf(inst: QlspInstance, f: float) -> BlockEncoding:
    """(1-f+f·d, n+6, 0)-encoding of H(f) = (1-f)·H0 + f·H1.

    The solvers form the blocks of H(f)/alpha(f) without an encoding, from
    B0 and B1 (numerics.convex_combination); the Zeno walk's alpha(f) equals
    this one.
    """
    if not 0.0 <= f <= 1.0:
        raise ValueError("f must lie in [0, 1]")
    pair = [make_h0_encoding(inst), make_h1_encoding(inst)]
    return linear_combine(pair, [1 - f, f])


def encoding_bookkeeping(inst: QlspInstance, f: float):
    """(alpha, m) of make_h1_encoding(inst) and make_hf(inst, f)."""
    return (float(inst.d), inst.n + 4), (1.0 - f + f * inst.d, inst.n + 6)


def gap_lower_bound(inst: QlspInstance, f: float) -> float:
    """Lower bound on the spectral gap of H(f) around 0.

    1-f+f/kappa for the positive-definite construction; the dilated forms
    carry an extra 1/sqrt(2).
    """
    if not 0.0 <= f <= 1.0:
        raise ValueError("f must lie in [0, 1]")
    base = 1.0 - f + f / inst.kappa
    if inst.form == "positive-definite":
        return base
    return base / math.sqrt(2.0)


def extend_general(inst: QlspInstance) -> QlspInstance:
    """The Hermitian picture of inst: general input's extended Hermitian
    system, whose solution sits in |1⟩|x⟩; any other instance unchanged.

    The coefficient matrix offdiag(A) has eigenvalues ± the
    singular values of A, so the condition number is unchanged.
    """
    if inst.form != "general":
        return inst
    rhs = np.kron(np.array([1.0, 0.0]), inst.b.amps)
    return QlspInstance(
        offdiag(inst.A.mat),
        StateRegister(rhs, ancilla=inst.b.ancilla, system=inst.b.system + 1),
        inst.kappa, inst.d, form="hermitian-indefinite",
    )


def hamiltonian_blocks(inst: QlspInstance):
    """(B0, B1, u0): H0 = offdiag(B0), H1 = offdiag(B1), path from |0⟩|u0⟩.

    Positive-definite input: (Q_b, A·Q_b, b), 2N overall. Hermitian
    indefinite input is dilated to 4N: ((σz⊗I)·Q, (σx⊗A)·Q, |−⟩|b⟩) with
    Q = I - |+,b⟩⟨+,b|, target |0⟩|+⟩|x⟩. General input is first extended
    to a Hermitian indefinite system (8N overall).
    """
    inst = extend_general(inst)
    a, b = inst.A.mat, inst.b
    if inst.form == "positive-definite":
        qb = qb_matrix(b)
        return qb, a @ qb, b
    plus_b = np.kron(np.array([1.0, 1.0]) / math.sqrt(2.0), b.amps)
    q = qb_matrix(StateRegister(plus_b, ancilla=1, system=b.system))
    minus_b = np.kron(np.array([1.0, -1.0]) / math.sqrt(2.0), b.amps)
    return (np.kron(_SZ, np.eye(inst.dim)) @ q, np.kron(_SX, a) @ q,
            StateRegister(minus_b, ancilla=1, system=b.system))


def hamiltonian_pairs(insts):
    """(H0, H1, u0s): the solvers' endpoints, each row's hamiltonian_blocks
    as offdiag_pairs stacked by numerics.stack_rows, and each row's u0."""
    b0s, b1s, u0s = zip(*map(hamiltonian_blocks, insts))
    return (stack_rows([offdiag_pair(b) for b in b0s]),
            stack_rows([offdiag_pair(b) for b in b1s]), u0s)


@dataclass(frozen=True)
class EigenpathPoint:
    """One point of the null-space curve f ↦ |x(f)⟩."""

    f: float
    state: StateRegister
    derivative_norm: float


def path_vectors(inst: QlspInstance, fs) -> list[np.ndarray]:
    """Normalized null vectors x(f) ∝ ((1-f)I + fA)⁻¹ b, one per f.

    Each point is guarded by σ_min((1-f)I + fA) > 1e-12. For Hermitian
    A = V·diag(λ)·V†, one eigh serves every point: the guard is
    min_i |1-f+f·λ_i| and y = V·(V†b / (1-f+f·λ)). Any other A takes one
    SVD and one solve per point.
    """
    a, b = inst.A.mat, inst.b.amps
    if inst.A.hermitian:
        lam, vec = np.linalg.eigh(a)
        coef = vec.conj().T @ b
    out = []
    for f in map(float, fs):
        if inst.A.hermitian:
            shift = 1.0 - f + f * lam
            smin = float(np.abs(shift).min())
        else:
            shifted = (1.0 - f) * np.eye(inst.dim) + f * a
            smin = float(np.linalg.svd(shifted, compute_uv=False)[-1])
        if smin <= 1e-12:
            raise ValueError(f"(1-f)I + fA is numerically singular at f={f}")
        if inst.A.hermitian:
            y = vec @ (coef / shift)
        else:
            y = np.linalg.solve(shifted, b)
        out.append(y / np.linalg.norm(y))
    return out


def path_vector(inst: QlspInstance, f: float) -> np.ndarray:
    return path_vectors(inst, [f])[0]


def eigenpath_state(inst: QlspInstance, f: float) -> EigenpathPoint:
    """eigenpath_states at the one point f."""
    return eigenpath_states(inst, [f])[0]


def eigenpath_states(inst: QlspInstance, fs) -> list[EigenpathPoint]:
    """Exact eigenpath points and derivative norms, endpoints included, on
    one path_vectors call. With M = (1-f)I + fA and y = M⁻¹b, ∂_f y = M⁻¹(I - A)·y. The parallel-
    transported derivative of x = y/‖y‖ is the part of ∂_f y/‖y‖ orthogonal
    to x: ‖∂_f x‖ = ‖(I - |x⟩⟨x|)·M⁻¹(I - A)·x‖, one solve per point.
    """
    fs = [float(f) for f in fs]
    if not all(0.0 <= f <= 1.0 for f in fs):
        raise ValueError("f must lie in [0, 1]")
    return [EigenpathPoint(f, inst.b.with_amps(x), _derivative_norm(inst, f, x))
            for f, x in zip(fs, path_vectors(inst, fs))]


def _derivative_norm(inst: QlspInstance, f: float, x: np.ndarray) -> float:
    a = inst.A.mat
    shifted = (1.0 - f) * np.eye(inst.dim) + f * a
    v = np.linalg.solve(shifted, x - a @ x)
    return float(np.linalg.norm(v - x * np.vdot(x, v)))


def lstar(kappa: float, a: float, b: float) -> float:
    """Eigenpath-length upper bound for the segment [a, b] of f."""
    if not 0.0 <= a <= b <= 1.0:
        raise ValueError("need 0 <= a <= b <= 1")
    r = 1.0 - 1.0 / kappa
    return (2.0 / r) * math.log((1.0 - r * a) / (1.0 - r * b))


def eigenpath_length(inst: QlspInstance) -> float:
    """Trapezoidal quadrature of ‖∂_f x(f)‖ over f in [0, 1] (see
    eigenpath_states) at EIGENPATH_SAMPLES points."""
    fs = np.linspace(0.0, 1.0, EIGENPATH_SAMPLES)
    return float(np.trapezoid(
        [pt.derivative_norm for pt in eigenpath_states(inst, fs)], fs))


def eigenpath_bound_ratios(inst: QlspInstance, fs) -> tuple[float, list[float]]:
    """The eigenpath bounds as ratios, each at most 1 where its bound holds:
    eigenpath_length / lstar(κ, 0, 1), and ‖∂_f x‖·gap_lower_bound(f)/2 at
    each f in fs, from one eigenpath_states call."""
    return (eigenpath_length(inst) / lstar(inst.kappa, 0.0, 1.0),
            [pt.derivative_norm * gap_lower_bound(inst, pt.f) / 2.0
             for pt in eigenpath_states(inst, fs)])
