"""Dense linear-algebra kernel.

Everything downstream (filtering, solvers, experiments) runs on two small
value types: a dense operator and a complex state register with an
(ancilla | system) qubit split. Operators are applied either through their
eigendecomposition (the oracle path) or through a Clenshaw recurrence on
Chebyshev coefficients (the production path, which mirrors a quantum circuit
in never diagonalizing). The recurrence, `clenshaw`, is the one polynomial
kernel, and it takes its operator as matrices: one matrix, a tuple of
matrices applied in turn, or the pair [B, B†] of σ₊⊗B + σ₋⊗B†; one
`clenshaw_plan` runs a series many times. Both solvers step along H(f) =
(1-f)·H0 + f·H1 = σ₊⊗B(f) + σ₋⊗B(f)†, each step's blocks formed in one
buffer per solve by `convex_combination`, with no guard: the evolution runs
one plan per propagation on 2·[B(f), B(f)†]/alpha, from endpoints doubled
once; the walk forms the same pair [B(f), B(f)†]/alpha and its filters hand
`clenshaw` the pair's halves, (B(f)†/alpha, B(f)/alpha), as two views.

An operator's dtype is decided once, when a DenseOperator is built: float64
when every imaginary part is exactly zero (as for every operator built from
a real instance), complex128 otherwise. `clenshaw` works in the result dtype
of its coefficients, vector and matrices. A real matrix meets a real vector
in a GEMV and a complex one in a GEMM on the vector's (N, 2) float view; a
complex matrix keeps the complex product. States stay complex128. A stack
of S instances runs as one: (S, N, N) matrices on (S, N) vectors, or
(S, 2, N, N) pairs on (S, 2N) vectors, through one np.matmul per term, each
row bitwise the row's own run (`stack_rows` keeps a stack of one 2-D).
Every matrix, vector and output the kernel hands BLAS starts on a 64-byte
cache line (`aligned_empty`): on an AVX-512 Xeon, OpenBLAS's 128×128
products ran 18–40% slower from 16 bytes past one, with the same bits.

Spectral-norm guards (block-encoding subnormalizations, `clenshaw_apply`'s
`check_contraction`) go through `spectral_norm_bound`: the certified bound
sqrt(‖X‖₁·‖X‖∞) is checked first, and an SVD runs only when that bound does
not already settle the guard, so a guard accepts exactly when the exact
check would. No solver or sweep runs a guard: the instance bounds ‖A‖.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

HERMITIAN_TOL = 1e-12
# Relative slack on the cheap norm bound: it absorbs the roundoff of both the
# bound and the SVD, so the cheap path never accepts what the SVD would reject.
NORM_BOUND_SLACK = 1e-10
BLOCK_ROWS = 32
CACHE_LINE = 64  # bytes; see aligned_empty


def _check_hermitian(m: np.ndarray, message: str) -> None:
    """ValueError(message) when max|m - m†| exceeds HERMITIAN_TOL·max(1, max|m|)."""
    dev = float(np.abs(m - m.conj().T).max(initial=0.0))
    if dev > HERMITIAN_TOL * max(1.0, float(np.abs(m).max(initial=0.0))):
        raise ValueError(message.format(dev=dev, tol=HERMITIAN_TOL))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DenseOperator:
    """Square matrix with an optional Hermitian tag, stored read-only as
    float64 when every imaginary part is zero and complex128 otherwise."""

    mat: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        m = real_if_real(self.mat)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator has non-finite entries")
        object.__setattr__(self, "mat", _readonly(m))
        if self.hermitian:
            _check_hermitian(m, "hermitian flag set but max asymmetry "
                                "{dev:.3e} exceeds {tol:.0e} (relative)")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def norm(self) -> float:
        """Spectral norm."""
        return float(np.linalg.norm(self.mat, 2))


def spectral_norm_bound(op: DenseOperator | np.ndarray, limit: float) -> float:
    """Upper bound on ‖op‖₂ that is exact whenever ‖op‖₂ exceeds limit.

    Returns sqrt(‖op‖₁·‖op‖∞) when that certified bound is within limit (no
    SVD needed), otherwise the exact spectral norm. Callers compare the
    result against the same limit: the guard passes exactly when the exact
    norm is at most limit, and a failure message can quote the exact norm.
    """
    m = op.mat if isinstance(op, DenseOperator) else np.asarray(op)
    a = np.abs(m)
    cheap = math.sqrt(float(a.sum(axis=0).max()) * float(a.sum(axis=1).max()))
    if cheap * (1.0 + NORM_BOUND_SLACK) <= limit:
        return cheap
    return op.norm() if isinstance(op, DenseOperator) else float(np.linalg.norm(m, 2))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


@dataclass(frozen=True)
class StateRegister:
    """Complex amplitude vector over ancilla ⊗ system qubits.

    The ancilla qubits occupy the most significant bit positions, so the
    all-zero-ancilla block is the leading 2**system amplitudes.
    """

    amps: np.ndarray
    ancilla: int = 0
    system: int = 0

    def __post_init__(self):
        v = np.asarray(self.amps, dtype=complex).reshape(-1)
        if self.ancilla < 0 or self.system < 0:
            raise ValueError("qubit counts must be non-negative")
        expect = 1 << (self.ancilla + self.system)
        if v.size != expect:
            raise ValueError(
                f"amplitude length {v.size} != 2^({self.ancilla}+{self.system})"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite amplitudes")
        object.__setattr__(self, "amps", _readonly(v))

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "StateRegister":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return StateRegister(self.amps / n, self.ancilla, self.system)

    def with_amps(self, amps: np.ndarray) -> "StateRegister":
        return StateRegister(amps, self.ancilla, self.system)


def fidelity(a: StateRegister | np.ndarray, b: StateRegister | np.ndarray) -> float:
    """|⟨a|b⟩| for unit vectors (unsquared convention)."""
    va = a.amps if isinstance(a, StateRegister) else np.asarray(a, dtype=complex)
    vb = b.amps if isinstance(b, StateRegister) else np.asarray(b, dtype=complex)
    return float(abs(np.vdot(va, vb)))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and the matching unitary eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _readonly(np.asarray(self.eigenvalues, dtype=float)))
        object.__setattr__(self, "eigenvectors", _readonly(np.asarray(self.eigenvectors, dtype=complex)))

    def apply_function(self, fn, v: np.ndarray) -> np.ndarray:
        """Compute f(H) v through the decomposition (oracle path)."""
        lam, vec = self.eigenvalues, self.eigenvectors
        return vec @ (np.asarray(fn(lam)) * (vec.conj().T @ v))

    def function_of(self, fn) -> np.ndarray:
        """Dense f(H) (oracle path)."""
        lam, vec = self.eigenvalues, self.eigenvectors
        return (vec * np.asarray(fn(lam))) @ vec.conj().T


def eig_hermitian(H: DenseOperator | np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian operator, eigenvalues ascending.

    The input is symmetrized before the solve to strip roundoff drift from
    repeated constructions; inputs that are not Hermitian within tolerance
    are rejected outright, except a DenseOperator tagged hermitian: it is
    read-only, and was checked when it was built.
    """
    m = np.asarray(H.mat if isinstance(H, DenseOperator) else H, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError("eig_hermitian needs a square matrix of dim >= 1")
    if not (isinstance(H, DenseOperator) and H.hermitian):
        _check_hermitian(m, "matrix is not Hermitian: max|H - H†| = {dev:.3e} "
                            "(tol {tol:.0e} rel)")
    try:
        lam, vec = np.linalg.eigh(hermitian_part(m))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RuntimeError(f"eigendecomposition did not converge: {exc}") from exc
    return SpectralDecomposition(lam, vec)


def clenshaw_apply(coeffs, Hn: DenseOperator | np.ndarray,
                   v: StateRegister | np.ndarray):
    """Apply Σ_k c_k T_k(Hn) to one state v by the backward Clenshaw
    recurrence: the checked one-state wrapper over clenshaw.

    The coefficients (an array or a ChebSeries) may be real or complex; Hn
    must be a contraction (see check_contraction). A series of degree D
    costs D matvecs. When Hn, the coefficients and v are all real the
    recurrence runs in float64; the result is complex either way.
    """
    c = np.asarray(getattr(coeffs, "coefficients", coeffs)).reshape(-1)
    c = c.astype(complex if np.iscomplexobj(c) else float)
    if c.size == 0 or not np.all(np.isfinite(c)):
        raise ValueError("invalid Chebyshev coefficients")
    m = Hn.mat if isinstance(Hn, DenseOperator) else np.asarray(Hn)
    vec = v.amps if isinstance(v, StateRegister) else np.asarray(v, dtype=complex)
    if vec.shape[0] != m.shape[0]:
        raise ValueError("dimension mismatch between operator and state")
    out = clenshaw(c, check_contraction(m), real_if_real(vec)).astype(complex)
    return v.with_amps(out) if isinstance(v, StateRegister) else out


def real_if_real(a) -> np.ndarray:
    """a as float64 when its imaginary part is exactly zero, else complex128."""
    a = np.asarray(a)
    if not np.iscomplexobj(a):
        return a.astype(float, copy=False)
    if a.imag.any():
        return a.astype(complex, copy=False)
    return np.ascontiguousarray(a.real, dtype=float)


def check_contraction(m: np.ndarray) -> np.ndarray:
    """m, once ‖m‖ <= 1 + 1e-8 is checked (the Chebyshev recurrence is
    unstable outside [-1, 1])."""
    nrm = spectral_norm_bound(m, 1.0 + 1e-8)
    if nrm > 1.0 + 1e-8:
        raise ValueError(f"a Chebyshev series needs ||Hn|| <= 1, got {nrm:.6f}")
    return m


def aligned_empty(shape, dtype) -> np.ndarray:
    """np.empty(shape, dtype), its data starting on a CACHE_LINE boundary:
    a slice of a uint8 buffer CACHE_LINE bytes longer."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buf = np.empty(nbytes + CACHE_LINE, np.uint8)
    start = -buf.ctypes.data % CACHE_LINE
    return buf[start:start + nbytes].view(dtype).reshape(shape)


def stack_rows(arrays) -> np.ndarray:
    """np.stack(arrays), except that a single array stays unstacked: a
    stack of one runs through clenshaw's 2-D np.dot path."""
    return np.stack(arrays) if len(arrays) > 1 else np.asarray(arrays[0])


def convex_combination(m0: np.ndarray, m1: np.ndarray):
    """form(f, alpha) writes ((1-f)/alpha)·m0 + (f/alpha)·m1 into one buffer,
    allocated with its scratch term once, and returns that buffer, valid
    until the next call (a matrix or a clenshaw pair). The buffer is the
    evolution's plan operand, so it starts on a cache line (aligned_empty):
    BLAS reads a misaligned matrix 18–40% slower. The caller guarantees a
    contraction; doubled endpoints give twice the form, exactly."""
    hf = aligned_empty(m0.shape, np.result_type(m0, m1))
    term = np.empty_like(m1)

    def form(f: float, alpha: float) -> np.ndarray:
        np.multiply(m0, (1.0 - f) / alpha, out=hf)
        np.multiply(m1, f / alpha, out=term)
        np.add(hf, term, out=hf)
        return hf

    return form


def clenshaw(c: np.ndarray, ops, vec: np.ndarray) -> np.ndarray:
    """Σ_k c_k T_k(H) vec; no validation. H is the matrix ops, or for a
    tuple ops the operator whose k-th product applies ops[k % len(ops)], or
    for a (…, 2, N, N) array [B, B†] the off-diagonal σ₊⊗B + σ₋⊗B† on a
    (…, 2N) vec. Any matrix may come as an (S, N, N) stack acting row for
    row on an (S, N) vec. The vector's shape tells a pair from a stack: a
    pair's vec ends in 2N, so an S = 2 stack on (2, N) is no pair.

    The caller guarantees that each product is by a contraction
    (clenshaw_apply checks it per call; an encoding or the instance's
    ‖A‖ bounds the rest). b_D = c_D·v needs no product, so a degree-D
    series costs D products, each into a preallocated buffer. The work
    dtype is that of c, vec and ops together; a real matrix applies to a
    complex vector through its float view. A call doubles each matrix
    (exact) and runs a clenshaw_plan once (the evolution doubles once per
    propagation), so every term is bitwise the textbook b_k = c_k·v +
    2·H·b_{k+1} - b_{k+2}, c_k·v skipped where c_k is exactly 0. The result
    is a new array. A 2-D matrix multiplies by np.dot; a stack or a pair by
    one np.matmul on the (…, N, 1 or 2) column view of b_{k+1}, each row
    bitwise the np.dot of that row. A pair maps [a; c] to [B·c; B†·a], half
    the flops of the dense product, with b_{k+1}'s halves swapped there.
    """
    ops = ops if isinstance(ops, tuple) else (ops,)
    ops2 = tuple(np.multiply(m, 2.0, out=aligned_empty(
        m.shape, np.result_type(m, 2.0))) for m in ops)
    return clenshaw_plan(c, ops, vec)(ops2, vec)


def clenshaw_plan(c: np.ndarray, ops, vec: np.ndarray):
    """run(ops2, vec) -> clenshaw(c, ops, vec), bitwise, for ops2 = 2·ops and
    vec shaped as here. Built from shapes and dtypes, it owns the work vectors
    and a buffer for the c_k·v rows, BLOCK_ROWS at a time, never all D + 1,
    each starting on a cache line (aligned_empty), as clenshaw's doubled
    operands do: BLAS reads a misaligned matrix 18–40% slower."""
    ops = ops if isinstance(ops, tuple) else (ops,)
    dtype = np.result_type(c, vec, *ops)
    split = dtype.kind == "c"  # a real matrix then multiplies a float view
    stacked = ops[0].ndim > 2
    pair = stacked and vec.shape[-1] == 2 * ops[0].shape[-1]
    rows = ((*vec.shape[:-1], 2, vec.shape[-1] // 2) if pair
            else vec.shape if stacked else vec.shape[:1])

    def slot():  # a work vector, then its operands for a complex and for a
        # real matrix as product inputs (a pair's halves swapped) and outputs
        b = aligned_empty(vec.shape, dtype)
        col = b.reshape(*rows, 1) if stacked else b
        outs = (col, b.view(float).reshape(*rows, -1) if split else col)
        ins = tuple(x[..., ::-1, :, :] for x in outs) if pair else outs
        return b, *ins, *outs

    slots = slot(), slot(), slot()
    phases = []  # term j's operand, b_{k+1} input, b_k output, b_k, b_{k+2}
    for j in range(math.lcm(3, len(ops))):  # a real matrix under complex work
        i, o = (2, 4) if split and ops[j % len(ops)].dtype.kind != "c" else (1, 3)
        b1, t, b2 = slots[-j % 3], slots[(2 - j) % 3], slots[(1 - j) % 3]
        phases.append((j % len(ops), b1[i], t[o], t[0], b2[0]))
    product = np.matmul if stacked else np.dot
    coef = c[-2::-1].astype(dtype)  # c_{D-1}, …, c_0: term j's c_k
    nonzero, adds = coef[coef != 0].reshape(-1, *[1] * vec.ndim), (coef != 0).tolist()
    halves = [False] * (len(coef) - 1) + [True]  # k = 0 applies H, not 2H
    sizes = np.add.reduceat(coef != 0, range(0, len(coef), BLOCK_ROWS)).tolist()
    buf = aligned_empty((max(sizes, default=0), *vec.shape), dtype)  # c_k·v rows
    blocks, a = [], 0  # per BLOCK_ROWS terms: nonzero c_k, rows, adds, halves
    for j, n in zip(range(0, len(coef), BLOCK_ROWS), sizes):
        blocks.append((nonzero[a:a + n], buf[:n], adds[j:j + BLOCK_ROWS],
                       halves[j:j + BLOCK_ROWS]))
        a += n
    cv_rows, result = list(buf), slots[-len(coef) % 3][0]  # b_0, the last term's

    def run(ops2, vec: np.ndarray) -> np.ndarray:
        v = vec.astype(dtype, copy=False)
        np.multiply(c[-1], v, out=slots[0][0])
        slots[1][0].fill(0.0)
        ops2 = ops2 if isinstance(ops2, tuple) else (ops2,)
        steps = itertools.cycle([(ops2[n], *x) for n, *x in phases])
        for cks, out, adds, halves in blocks:
            np.multiply(cks, v, out=out)
            free = iter(cv_rows)
            for add, half, (m, x, y, acc, prev) in zip(adds, halves, steps):
                product(m, x, out=y)
                if half:
                    np.multiply(acc, 0.5, out=acc)
                if add:
                    np.add(next(free), acc, out=acc)
                np.subtract(acc, prev, out=acc)
        return result.copy()

    return run


def linsolve(A: DenseOperator | np.ndarray, b: StateRegister | np.ndarray):
    """Solve A x = b for invertible A (classical oracle for A⁻¹b).

    The singularity guard is σ_min(A) > 1e-12: min|λ| from one eigvalsh for
    a Hermitian-tagged operator, the last singular value otherwise.
    """
    m = np.asarray(A.mat if isinstance(A, DenseOperator) else A, dtype=complex)
    rhs = b.amps if isinstance(b, StateRegister) else np.asarray(b, dtype=complex)
    if isinstance(A, DenseOperator) and A.hermitian:
        smin = float(np.abs(np.linalg.eigvalsh(A.mat)).min())
    else:
        smin = float(np.linalg.svd(m, compute_uv=False)[-1])
    if smin <= 1e-12:
        raise ValueError(f"matrix is numerically singular (σ_min = {smin:.3e})")
    x = np.linalg.solve(m, rhs)
    if isinstance(b, StateRegister):
        return b.with_amps(x)
    return x
