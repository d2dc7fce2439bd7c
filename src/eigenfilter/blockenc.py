"""Block-encoding algebra: (alpha, m) bookkeeping plus explicit dilations.

An encoding carries the encoded matrix together with its subnormalization
and ancilla count, and scales to the full desk-scale dimensions. `verify`
completes payload/alpha to an actual unitary with one extra ancilla, so the
bookkeeping can be checked against a real top-left block on tiny
dimensions; no encoding stores that unitary.

The subnormalization guards (‖payload‖ ≤ alpha) check the certified bound
sqrt(‖A‖₁·‖A‖∞) before any SVD and fall back to the exact spectral norm only
when that bound is inconclusive; they accept exactly what the exact check
accepts. Encodings, and with them the guards, are built for the `filter`
command, acceptance criteria 3–4, `validate` and direct library calls. No
solver or sweep builds one: they work on H(f), its off-diagonal block B(f),
H1/d or A/d, all bounded by the instance's bound on ‖A‖.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    DenseOperator,
    StateRegister,
    eig_hermitian,
    hermitian_part,
    real_if_real,
    spectral_norm_bound,
)

UNITARY_TOL = 1e-10
DILATION_DIM_CAP = 2 ** 14


@dataclass(frozen=True)
class BlockEncoding:
    """Exact encoding of a payload with subnormalization alpha, m ancillas."""

    payload: DenseOperator
    alpha: float
    ancilla: int

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.ancilla < 0:
            raise ValueError("ancilla count must be non-negative")
        limit = self.alpha * (1.0 + 1e-10)
        nrm = spectral_norm_bound(self.payload, limit)
        if nrm > limit:
            raise ValueError(
                f"payload norm {nrm:.6g} exceeds alpha {self.alpha:.6g}: "
                "no unitary dilation exists"
            )

    @property
    def dim(self) -> int:
        return self.payload.dim


def _num_qubits(dim: int) -> int:
    n = max(int(dim) - 1, 0).bit_length()
    if 2 ** n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def encode(A: DenseOperator, alpha: float) -> BlockEncoding:
    """Encoding of A with subnormalization alpha and the sparse-access
    ancilla count m = n + 2 (n system qubits). The norm guard is the one
    `BlockEncoding` runs on construction; an encoding with another count
    is built as BlockEncoding(A, alpha, m).
    """
    return BlockEncoding(A, float(alpha), _num_qubits(A.dim) + 2)


def shift_add_identity(enc: BlockEncoding, c: complex) -> BlockEncoding:
    """Encoding of A + cI with factor alpha + |c| and one more ancilla.

    The payload stores A + cI directly, so the global phase the circuit
    produces for complex c is not represented.
    """
    c = complex(c)
    shifted = DenseOperator(
        enc.payload.mat + c * np.eye(enc.dim),
        hermitian=enc.payload.hermitian and c.imag == 0.0,
    )
    return BlockEncoding(shifted, enc.alpha + abs(c), enc.ancilla + 1)


def multiply(e1: BlockEncoding, e2: BlockEncoding) -> BlockEncoding:
    """Encoding of A1·A2 from encodings of the factors."""
    if e1.dim != e2.dim:
        raise ValueError("dimension mismatch")
    prod = DenseOperator(e1.payload.mat @ e2.payload.mat)
    return BlockEncoding(prod, e1.alpha * e2.alpha, e1.ancilla + e2.ancilla)


def linear_combine(encs, weights) -> BlockEncoding:
    """Encoding of Σ w_j A_j via a state-preparation pair (one extra ancilla)."""
    encs = list(encs)
    w = [float(x) for x in weights]
    if len(encs) != len(w) or not encs:
        raise ValueError("need equally many encodings and weights")
    if any(x < 0.0 for x in w):
        raise ValueError("weights must be non-negative; fold signs into payloads")
    dim = encs[0].dim
    if any(e.dim != dim for e in encs):
        raise ValueError("dimension mismatch")
    total = sum(wi * e.payload.mat for wi, e in zip(w, encs))
    herm = all(e.payload.hermitian for e in encs)
    alpha = sum(wi * e.alpha for wi, e in zip(w, encs))
    anc = sum(e.ancilla for e in encs) + 1
    return BlockEncoding(DenseOperator(total, hermitian=herm), alpha, anc)


def qb_matrix(b: StateRegister) -> np.ndarray:
    """The projector Q_b = I - |b⟩⟨b| of a unit vector b, as a matrix:
    float64 when b is real, so products with a real A stay real."""
    if abs(b.norm() - 1.0) > 1e-12:
        raise ValueError("b must be a unit vector")
    v = b.amps
    return real_if_real(np.eye(v.size) - np.outer(v, v.conj()))


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    dec = eig_hermitian(hermitian_part(m))
    lam = np.clip(dec.eigenvalues, 0.0, None)
    return dec.function_of(lambda _: np.sqrt(lam))


def dilate_to_unitary(enc: BlockEncoding) -> DenseOperator:
    """Complete payload/alpha to a unitary with one ancilla qubit.

    U = [[X, sqrt(I-XX†)], [sqrt(I-X†X), -X†]] with X = payload/alpha.
    """
    if enc.dim * 2 ** (enc.ancilla + 1) > DILATION_DIM_CAP:
        raise ValueError("dilation size guard exceeded; too large to verify")
    x = enc.payload.mat / enc.alpha
    d = enc.dim
    top = _psd_sqrt(np.eye(d) - x @ x.conj().T)
    bot = _psd_sqrt(np.eye(d) - x.conj().T @ x)
    u = np.block([[x, top], [bot, -x.conj().T]])
    return DenseOperator(u)


def verify(enc: BlockEncoding) -> float:
    """Measured error ‖A - alpha·(top-left block)‖ of dilate_to_unitary(enc),
    built here; ValueError unless that dilation is unitary within UNITARY_TOL."""
    u = dilate_to_unitary(enc).mat
    if np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]), 2) > UNITARY_TOL:
        raise ValueError("dilation is not unitary within tolerance")
    d = enc.dim
    return float(np.linalg.norm(enc.payload.mat - enc.alpha * u[:d, :d], 2))
