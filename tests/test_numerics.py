"""Core linear-algebra kernel: value types, decompositions, Clenshaw."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev

from eigenfilter import numerics
from eigenfilter.aqc import AqcConfig, evolve, evolve_stack
from eigenfilter.chebpoly import FilterSpec, filter_cheb_coeffs, jacobi_anger_coeffs
from eigenfilter.harness import gen_instance
from eigenfilter.numerics import (
    BLOCK_ROWS,
    CACHE_LINE,
    DenseOperator,
    SpectralDecomposition,
    StateRegister,
    aligned_empty,
    clenshaw,
    clenshaw_apply,
    clenshaw_plan,
    convex_combination,
    eig_hermitian,
    fidelity,
    hermitian_part,
    linsolve,
    spectral_norm_bound,
)
from eigenfilter.qlsp import offdiag, offdiag_pair


def _reference_matvec(m):
    # x ↦ m @ x with a real m applied to a complex x on its float view, as
    # numerics.clenshaw does
    if m.dtype.kind == "c":
        return m.__matmul__

    def matvec(x):
        if x.dtype.kind != "c":
            return m @ x
        cols = np.ascontiguousarray(x, dtype=complex).view(float)
        return (m @ cols.reshape(x.shape[0], -1)).view(complex).reshape(x.shape)

    return matvec


def _reference_clenshaw(c, matvec, vec):
    # the textbook recurrence, one allocation per operation
    if c.size == 1:
        return c[0] * vec
    bk1, bk2 = c[-1] * vec, np.zeros_like(vec)
    for k in range(c.size - 2, 0, -1):
        bk1, bk2 = c[k] * vec + 2.0 * matvec(bk1) - bk2, bk1
    return c[0] * vec + matvec(bk1) - bk2


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitian_part(m)


def test_dense_operator_rejects_nonsquare():
    with pytest.raises(ValueError):
        DenseOperator(np.zeros((2, 3)))


def test_dense_operator_rejects_false_hermitian_tag():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        DenseOperator(m, hermitian=True)


def test_dense_operator_stores_real_input_as_float64():
    h = np.array([[2.0, -1.0], [-1.0, 2.0]])
    for given in (h, h.astype(complex), np.array([[2, -1], [-1, 2]])):
        op = DenseOperator(given, hermitian=True)
        assert op.mat.dtype == float and np.array_equal(op.mat, h)
    # any nonzero imaginary part, however small, keeps complex128
    z = h.astype(complex)
    z[0, 1], z[1, 0] = -1.0 + 1e-300j, -1.0 - 1e-300j
    op = DenseOperator(z, hermitian=True)
    assert op.mat.dtype == complex and np.array_equal(op.mat, z)


@pytest.mark.parametrize("mat, hermitian, match", [
    (np.zeros((2, 3)), False, "square"),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), False, "non-finite"),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), True, "hermitian flag"),
    (np.full((2, 3), 1j), False, "square"),
    (np.array([[1.0, complex(0.0, np.inf)], [1j, 1.0]]), False, "non-finite"),
    # symmetric but not Hermitian: the complex check conjugates
    (np.array([[0.0, 1j], [1j, 0.0]]), True, "hermitian flag"),
], ids=["real-nonsquare", "real-nonfinite", "real-asymmetric",
        "complex-nonsquare", "complex-nonfinite", "complex-non-hermitian"])
def test_dense_operator_checks_hold_in_either_dtype(mat, hermitian, match):
    with pytest.raises(ValueError, match=match):
        DenseOperator(mat, hermitian=hermitian)


def test_dense_operator_is_immutable():
    op = DenseOperator(np.eye(2))
    with pytest.raises(ValueError):
        op.mat[0, 0] = 5.0


def test_state_register_length_must_match_qubits():
    with pytest.raises(ValueError):
        StateRegister(np.ones(3), 0, 2)
    reg = StateRegister(np.ones(8) / np.sqrt(8), 1, 2)
    assert reg.dim == 8
    assert reg.norm() == pytest.approx(1.0)


def test_state_register_normalized():
    reg = StateRegister(np.array([3.0, 4.0, 0.0, 0.0]), 0, 2)
    out = reg.normalized()
    assert out.norm() == pytest.approx(1.0)
    assert fidelity(out, reg.with_amps(np.array([0.6, 0.8, 0, 0]))) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        StateRegister(np.zeros(2), 0, 1).normalized()


def test_fidelity_is_phase_invariant_and_unsquared():
    a = np.array([1.0, 0.0])
    b = np.array([np.sqrt(0.5), np.sqrt(0.5)])
    assert fidelity(a, b) == pytest.approx(np.sqrt(0.5))
    assert fidelity(a, np.exp(1j * 0.7) * a) == pytest.approx(1.0)


def test_eig_hermitian_reconstructs():
    h = random_hermitian(8, 0)
    dec = eig_hermitian(h)
    assert np.all(np.diff(dec.eigenvalues) >= 0)
    rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
    assert np.linalg.norm(rebuilt - h, 2) <= 1e-12 * max(1.0, np.abs(h).max())


def test_eig_hermitian_rejects_nonhermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_apply_function_matches_dense_function():
    h = random_hermitian(6, 1)
    dec = eig_hermitian(h)
    v = np.linspace(-1, 1, 6) + 0.5j
    via_apply = dec.apply_function(np.exp, v)
    via_dense = dec.function_of(np.exp) @ v
    assert np.allclose(via_apply, via_dense, atol=1e-12)


def _bits(x):
    # x's bytes as complex128, with -0.0 read as 0.0: skipping an exactly
    # zero term can change only the sign of a zero
    return (np.asarray(x, dtype=complex) + 0.0).tobytes()


def _block_series(degree):
    # a decaying series with every third coefficient exactly 0
    c = np.random.default_rng(degree).uniform(-1.0, 1.0, degree + 1)
    c[1::3] = 0.0
    return (c / np.arange(1, degree + 2)).tolist()


BLOCK_DEGREES = (BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1)


@pytest.mark.parametrize("via", ["clenshaw", "plan"])
@pytest.mark.parametrize("nops", [1, 2], ids=["one-op", "two-ops"])
@pytest.mark.parametrize("complex_m", [False, True], ids=["real-m", "complex-m"])
@pytest.mark.parametrize("complex_v", [False, True], ids=["real-v", "complex-v"])
@pytest.mark.parametrize("complex_c", [False, True], ids=["real-c", "complex-c"])
@pytest.mark.parametrize("coeffs", [
    [0.7], [0.3, -0.8], [0.2, 0.5, -0.4], [-0.1, 0.6, 0.3, -0.5],
    [0.4, 0.0, -0.3, 0.0, 0.2, 0.0, -0.1],
    filter_cheb_coeffs(FilterSpec(24, 0.1)).coefficients.tolist(),
    *map(_block_series, BLOCK_DEGREES),
], ids=["deg0", "deg1", "deg2", "deg3", "even6", "filter48",
        "block-1", "block", "block+1", "2block+1"])
def test_kernel_is_bitwise_the_textbook_recurrence(coeffs, complex_c, complex_v,
                                                   complex_m, nops, via):
    # the reference cycles through the operators one matvec at a time; a
    # plan runs twice on operands doubled here, its c_k·v rows formed
    # BLOCK_ROWS at a time, degrees on both sides of a block included
    rng = np.random.default_rng(len(coeffs))
    ops = []
    for _ in range(nops):
        m = rng.normal(size=(16, 16))
        if complex_m:
            m = m + 1j * rng.normal(size=(16, 16))
        ops.append(m / (1.25 * np.linalg.norm(m, 2)))
    v = rng.normal(size=16) + (1j * rng.normal(size=16) if complex_v else 0.0)
    c = np.array(coeffs) * (0.6 - 0.8j if complex_c else 1.0)
    blocks = itertools.cycle([_reference_matvec(m) for m in ops])
    want = _reference_clenshaw(c, lambda x: next(blocks)(x), v)
    operand = tuple(ops) if nops == 2 else ops[0]
    if via == "clenshaw":
        runs = [clenshaw(c, operand, v)]
    else:
        run = clenshaw_plan(c, operand, v)
        doubled = tuple(2.0 * m for m in ops) if nops == 2 else 2.0 * ops[0]
        runs = [run(doubled, v), run(doubled, v)]
    for got in runs:
        assert got.dtype == np.result_type(c, v, *ops)
        assert _bits(got) == _bits(want)


def test_kernel_result_survives_the_next_call():
    rng = np.random.default_rng(4)
    h = random_hermitian(8, 4)
    h = h / np.linalg.norm(h, 2)
    c = np.array([0.5, -0.2, 0.3])
    v = rng.normal(size=8)
    first = clenshaw(c, h, v)
    kept = first.copy()
    second = clenshaw(c, h, rng.normal(size=8))
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, v)
    assert np.array_equal(first, kept)
    assert np.array_equal(clenshaw(c[:1], h, v), c[0] * v)  # degree 0
    # a plan's result is a new array that the plan's next run leaves alone
    for coeffs in (c, c[:1]):
        run = clenshaw_plan(coeffs, h, v)
        first = run(2.0 * h, v)
        kept = first.copy()
        second = run(2.0 * h, rng.normal(size=8))
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, v)
        assert np.array_equal(first, kept)
    # the states an observer sees are not work vectors of later steps
    inst = gen_instance(3, 10.0, 14)
    seen = []
    evolve(inst, AqcConfig(T=1.0), lambda j, psi: seen.append((psi, psi.copy())))
    assert all(np.array_equal(psi, kept) for psi, kept in seen)
    # two runs of one evolve_stack, as the calibration makes, are the runs
    # of fresh stacks, and leave each other's results alone
    insts = [gen_instance(3, 6.0, seed) for seed in range(3)]
    run = evolve_stack(insts)
    cfgs = (AqcConfig(T=0.6), AqcConfig(T=1.2, steps=30))
    first, second = (run(cfg) for cfg in cfgs)
    for cfg, rows in zip(cfgs, (first, second)):
        fresh = evolve_stack(insts)(cfg)
        assert [r.amps.tobytes() for r in rows] == [r.amps.tobytes() for r in fresh]


def test_clenshaw_matches_spectral_oracle():
    h = random_hermitian(8, 2)
    h = h / (np.linalg.norm(h, 2) * 1.25)
    coeffs = np.array([0.3, -0.2, 0.5, 0.0, -0.1, 0.7])
    rng = np.random.default_rng(3)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    got = clenshaw_apply(coeffs, h, v)
    dec = eig_hermitian(h)
    want = dec.apply_function(lambda lam: chebyshev.chebval(lam, coeffs), v)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_clenshaw_rejects_expansive_operator():
    with pytest.raises(ValueError):
        clenshaw_apply([1.0, 0.5], 2.0 * np.eye(2), np.ones(2))


@pytest.mark.parametrize("degree", range(7))
def test_clenshaw_costs_one_matvec_per_degree(degree, matvec_counter):
    h = random_hermitian(8, 5)
    h = h / np.linalg.norm(h, 2)
    coeffs = np.linspace(0.9, -0.4, degree + 1)
    v = np.arange(1.0, 9.0) + 0.25j
    got = clenshaw_apply(coeffs, h, v)
    assert matvec_counter["matvecs"] == degree
    want = eig_hermitian(h).apply_function(
        lambda lam: chebyshev.chebval(lam, coeffs), v)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_clenshaw_preserves_register_split():
    reg = StateRegister(np.ones(4) / 2.0, 1, 1)
    out = clenshaw_apply([0.0, 1.0], 0.5 * np.eye(4), reg)
    assert isinstance(out, StateRegister)
    assert (out.ancilla, out.system) == (1, 1)
    assert np.allclose(out.amps, 0.5 * reg.amps)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8),
       st.integers(0, 2 ** 31 - 1))
def test_clenshaw_agrees_with_chebval_on_scalars(coeffs, seed):
    # 1x1 operator reduces Clenshaw to scalar Chebyshev evaluation
    x = float(np.random.default_rng(seed).uniform(-1.0, 1.0))
    got = clenshaw_apply(coeffs, np.array([[x]]), np.array([1.0]))
    assert got[0] == pytest.approx(chebyshev.chebval(x, coeffs), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10_000), st.integers(0, 2 ** 31 - 1),
       st.floats(0.0, 1.0), st.integers(0, 3))
def test_clenshaw_is_stable_at_high_degree(dim, degree, seed, shrink, decay):
    # degrees up to the ~1e4 of the kappa=64 inversion baseline. Clenshaw's
    # rounding error on a Chebyshev series is at most of order
    # (D+1)^2 · eps · Σ|c_k|; the eigh oracle's own error is of the same order
    rng = np.random.default_rng(seed)
    h = random_hermitian(dim, seed)
    h = h / np.linalg.norm(h, 2) * (1.0 if seed % 2 else shrink)
    coeffs = rng.uniform(-1.0, 1.0, degree + 1) * rng.uniform(size=degree + 1) ** decay
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    got = clenshaw_apply(coeffs, h, v)
    want = eig_hermitian(h).apply_function(
        lambda lam: chebyshev.chebval(lam, coeffs), v)
    tol = 16 * np.finfo(float).eps * (degree + 1) ** 2 * np.abs(coeffs).sum()
    assert np.linalg.norm(got - want) <= tol


def test_clenshaw_takes_complex_coefficients():
    # exp(-i·x·H) from its Jacobi–Anger series at a degree past 100
    h = random_hermitian(8, 6)
    h = h / np.linalg.norm(h, 2)
    coeffs = jacobi_anger_coeffs(60.0)
    assert coeffs.size > 100 and np.iscomplexobj(coeffs)
    v = np.arange(1.0, 9.0) - 0.5j
    got = clenshaw_apply(coeffs, h, v)
    want = eig_hermitian(h).apply_function(lambda lam: np.exp(-60j * lam), v)
    tol = 16 * np.finfo(float).eps * coeffs.size ** 2 * np.abs(coeffs).sum()
    assert np.linalg.norm(got - want) <= tol * np.linalg.norm(v)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 3000), st.integers(0, 2 ** 31 - 1),
       st.booleans(), st.booleans(), st.booleans())
def test_real_kernel_matches_complex_recurrence(dim, degree, seed, complex_v,
                                                complex_c, wrap):
    # a real operator runs the recurrence in float64 (real v and c) or its
    # matvecs as float64 GEMMs (complex v or c); the reference is the same
    # recurrence with every product in complex arithmetic
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(dim, dim))
    h = (h + h.T) / 2.0
    h /= np.linalg.norm(h, 2)
    coeffs = rng.uniform(-1.0, 1.0, degree + 1)
    if complex_c:
        coeffs = coeffs + 1j * rng.uniform(-1.0, 1.0, degree + 1)
    v = rng.normal(size=dim) + (1j * rng.normal(size=dim) if complex_v else 0.0)
    op = DenseOperator(h, hermitian=True) if wrap else h
    got = clenshaw_apply(coeffs, op, v)
    assert got.dtype == complex
    hc = h.astype(complex)
    want = _reference_clenshaw(coeffs.astype(complex), hc.__matmul__,
                               v.astype(complex))
    tol = 16 * np.finfo(float).eps * (degree + 1) ** 2 * np.abs(coeffs).sum()
    assert np.linalg.norm(got - want) <= tol * np.linalg.norm(v)


def test_kernel_multiplies_real_operators_in_float64(counted_view):
    rng = np.random.default_rng(7)
    h = rng.normal(size=(6, 6))
    mat = DenseOperator(h.astype(complex)).mat  # zero imaginary part: float64
    assert mat.dtype == float
    counter = {"matvecs": 0}

    def mv(x):  # T_1(H)·x = H·x, one product
        return clenshaw(np.array([0.0, 1.0]), counted_view(mat, counter), x)

    x = rng.normal(size=6)
    assert mv(x).dtype == float and np.array_equal(mv(x), h @ x)
    z = x + 1j * rng.normal(size=6)
    got = mv(z)
    assert got.dtype == complex and got.shape == z.shape
    assert np.allclose(got, h @ z.real + 1j * (h @ z.imag), rtol=0, atol=1e-14)
    block = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    assert np.allclose(mv(block), h.astype(complex) @ block, rtol=0, atol=1e-13)
    # each product was a float64 GEMV, or a GEMM on the complex vector's
    # float view
    assert counter["dtypes"] == [(float, float)] * 4


def test_complex_hermitian_operator_keeps_complex_arithmetic(matvec_counter):
    # a genuinely complex operator must not lose its imaginary part, also
    # when the vector and the coefficients are real
    h = random_hermitian(8, 11)
    h = h / np.linalg.norm(h, 2)
    op = DenseOperator(h, hermitian=True)
    assert op.mat.dtype == complex
    coeffs = np.array([0.1, -0.6, 0.3, 0.2, -0.4])
    v = np.linspace(-1.0, 1.0, 8)
    got = clenshaw_apply(coeffs, op, v)
    assert matvec_counter["dtypes"] == [(complex, complex)] * 4
    want = eig_hermitian(op).apply_function(
        lambda lam: chebyshev.chebval(lam, coeffs), v)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("nops", [1, 2], ids=["one-pair", "two-pairs"])
@pytest.mark.parametrize("complex_m", [False, True], ids=["real-m", "complex-m"])
@pytest.mark.parametrize("complex_v", [False, True], ids=["real-v", "complex-v"])
@pytest.mark.parametrize("complex_c", [False, True], ids=["real-c", "complex-c"])
@pytest.mark.parametrize("size", [1, 2, 3], ids=["S1", "S2", "S3"])
@pytest.mark.parametrize("coeffs", [
    [0.7], [0.3, -0.8], [0.2, 0.5, -0.4], [-0.1, 0.6, 0.3, -0.5],
], ids=["deg0", "deg1", "deg2", "deg3"])
def test_pair_kernel_stack_rows_are_bitwise_the_unstacked_call(
        coeffs, size, complex_c, complex_v, complex_m, nops):
    # (S, 2, N, N) stacks of pairs [B, B†] and an (S, 2N) stack of vectors:
    # row s of the result is byte for byte the (2, N, N) call on row s
    rng = np.random.default_rng(10 * size + len(coeffs))
    ops = []
    for _ in range(nops):
        m = rng.normal(size=(size, 12, 12))
        if complex_m:
            m = m + 1j * rng.normal(size=(size, 12, 12))
        m = m / (1.25 * np.linalg.norm(m, 2, axis=(1, 2)))[:, None, None]
        ops.append(np.stack([offdiag_pair(b) for b in m]))
    v = rng.normal(size=(size, 24))
    if complex_v:
        v = v + 1j * rng.normal(size=(size, 24))
    c = np.array(coeffs) * (0.6 - 0.8j if complex_c else 1.0)
    got = clenshaw(c, tuple(ops) if nops == 2 else ops[0], v)
    assert got.shape == v.shape
    assert got.dtype == np.result_type(c, v, *ops)
    for s in range(size):
        row = tuple(m[s] for m in ops) if nops == 2 else ops[0][s]
        want = clenshaw(c, row, v[s])
        assert got[s].dtype == want.dtype
        assert got[s].tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [1, 4, 8, 12, 64])
@pytest.mark.parametrize("complex_m", [False, True], ids=["real-m", "complex-m"])
@pytest.mark.parametrize("complex_v", [False, True], ids=["real-v", "complex-v"])
def test_pair_kernel_matches_dense_offdiag(dim, complex_m, complex_v):
    # [B, B†] maps [a; c] to [B·c; B†·a], the dense σ₊⊗B + σ₋⊗B† product;
    # BLAS sums N-long and 2N-long rows in different orders, so the two
    # series agree to rounding, not bitwise
    rng = np.random.default_rng(dim)
    b = rng.normal(size=(dim, dim))
    if complex_m:
        b = b + 1j * rng.normal(size=(dim, dim))
    b /= 1.25 * np.linalg.norm(b, 2)
    v = rng.normal(size=2 * dim) + (1j * rng.normal(size=2 * dim) if complex_v else 0.0)
    c = jacobi_anger_coeffs(0.9)
    got = clenshaw(c, offdiag_pair(b), v)
    want = clenshaw(c, offdiag(b).mat, v)
    assert got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps


@pytest.mark.parametrize("complex_v", [False, True], ids=["real-v", "complex-v"])
def test_pair_kernel_counts_one_matmul_per_degree(counted_view, complex_v):
    # a real stack of pairs meets a complex stacked vector through its
    # (S, 2, N, 2) float view, a real one through (S, 2, N, 1) columns
    rng = np.random.default_rng(8)
    m = np.stack([offdiag_pair(b) for b in rng.normal(size=(3, 6, 6)) / 10.0])
    v = rng.normal(size=(3, 12)) + (1j * rng.normal(size=(3, 12)) if complex_v else 0.0)
    counter = {"matvecs": 0}
    clenshaw(np.array([0.5, -0.2, 0.3, 0.1]), counted_view(m, counter), v)
    assert counter["products"] == ["matmul"] * 3
    assert counter["dtypes"] == [(float, float)] * 3


@pytest.mark.parametrize("complex_m", [False, True], ids=["real-m", "complex-m"])
@pytest.mark.parametrize("complex_v", [False, True], ids=["real-v", "complex-v"])
@pytest.mark.parametrize("dim", [1, 3, 8])
def test_two_stacked_matrices_are_not_read_as_a_pair(dim, complex_m, complex_v):
    # an (2, N, N) array is an S = 2 stack on a (2, N) vector, each row
    # bitwise its 2-D call, and a pair [B, C] only on a 2N vector; a tuple
    # of stacks alternates row for row
    rng = np.random.default_rng(dim)
    m = rng.normal(size=(2, dim, dim)) + (1j * rng.normal(size=(2, dim, dim))
                                          if complex_m else 0.0)
    m /= 2.0 * dim
    v = rng.normal(size=(2, dim)) + (1j * rng.normal(size=(2, dim)) if complex_v else 0.0)
    c = rng.uniform(-1.0, 1.0, 7)
    got = clenshaw(c, m, v)
    assert got.shape == (2, dim)
    pairs = clenshaw(c, (m, m.conj()), v)
    for row in range(2):
        assert got[row].tobytes() == clenshaw(c, m[row], v[row]).tobytes()
        alone = clenshaw(c, (m[row], m[row].conj()), v[row])
        assert pairs[row].tobytes() == alone.tobytes()
    zero = np.zeros((dim, dim))
    dense = np.block([[zero, m[0]], [m[1], zero]])
    as_pair = clenshaw(c, m, v.reshape(-1))
    assert np.max(np.abs(as_pair - clenshaw(c, dense, v.reshape(-1)))) <= 1e-14


PRODUCT_FORMS = ("matrix", "walk", "stack", "pair")


def _product_operand(form, dim, complex_m, complex_v):
    # clenshaw's operand of the given form on its vector: a 2-D matrix, the
    # walk's (B̃†, B̃) views of one pair [B, B†], an (S, N, N) stack, or an
    # (S, 2, N, N) stack of pairs
    rng = np.random.default_rng(dim)
    shape = {"matrix": (dim, dim), "walk": (dim, dim),
             "stack": (3, dim, dim), "pair": (3, dim, dim)}[form]
    m = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_m else 0.0)
    m /= 1.25 * np.linalg.norm(m, 2, axis=(-2, -1), keepdims=True)
    if form == "walk":
        pair = offdiag_pair(m)
        m = (pair[1], pair[0])
    elif form == "pair":
        m = np.stack([offdiag_pair(b) for b in m])
    rows = shape[:1] if len(shape) == 3 else ()
    size = (*rows, 2 * dim if form == "pair" else dim)
    v = rng.normal(size=size) + (1j * rng.normal(size=size) if complex_v else 0.0)
    return m, v


def _offset_empty(offset):
    # numerics.aligned_empty, moved offset bytes past the cache line
    def empty(shape, dtype):
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        return aligned_empty((offset + nbytes,), np.uint8)[offset:].view(
            dtype).reshape(shape)
    return empty


def _offset_copy(a):
    # a, copied to 16 bytes past a cache line
    out = _offset_empty(16)(a.shape, a.dtype)
    out[...] = a
    return out


@pytest.mark.parametrize("form", PRODUCT_FORMS)
@pytest.mark.parametrize("complex_m", [False, True], ids=["real-m", "complex-m"])
@pytest.mark.parametrize("complex_v", [False, True], ids=["real-v", "complex-v"])
def test_kernel_products_start_on_a_cache_line(counted_view, form, complex_m,
                                               complex_v):
    # every matrix, vector and out array handed to np.dot or np.matmul
    # starts on a 64-byte boundary, also from an operator that does not
    m, v = _product_operand(form, 128, complex_m, complex_v)
    m = tuple(map(_offset_copy, m)) if isinstance(m, tuple) else _offset_copy(m)
    counter = {"matvecs": 0}
    clenshaw(np.array([0.5, -0.2, 0.3, 0.1]), counted_view(m, counter), v)
    assert counter["offsets"] == [(0, 0, 0)] * 3


def test_evolution_operand_starts_on_a_cache_line():
    # convex_combination's buffer is the operand of the evolution's plan
    m, _ = _product_operand("pair", 8, False, False)
    form = convex_combination(_offset_copy(2.0 * m), _offset_copy(m))
    for f in (0.0, 0.5):
        assert form(f, 1.0).ctypes.data % CACHE_LINE == 0
    for shape in ((3,), (3, 5), (2, 2, 3, 3)):
        a = aligned_empty(shape, complex)
        assert a.shape == shape and a.flags.c_contiguous
        assert a.ctypes.data % CACHE_LINE == 0


@pytest.mark.parametrize("dim", [8, 64, 128])
@pytest.mark.parametrize("form", PRODUCT_FORMS)
@pytest.mark.parametrize("complex_m", [False, True], ids=["real-m", "complex-m"])
@pytest.mark.parametrize("complex_v", [False, True], ids=["real-v", "complex-v"])
def test_kernel_bits_do_not_depend_on_operand_offsets(
        monkeypatch, counted_view, dim, form, complex_m, complex_v):
    # GEMV and GEMM give the same bits from any 16-byte offset, so aligning
    # the kernel's operands and work vectors moves no output: each run
    # places them offset bytes past a cache line
    m, v = _product_operand(form, dim, complex_m, complex_v)
    c = jacobi_anger_coeffs(0.9)
    runs = []
    for offset in (0, 16, 32, 48):
        monkeypatch.setattr(numerics, "aligned_empty", _offset_empty(offset))
        counter = {"matvecs": 0}
        runs.append(clenshaw(c, counted_view(m, counter), v).tobytes())
        assert {x[0] for x in counter["offsets"]} == {offset}
    assert runs[1:] == runs[:1] * 3


def test_linsolve_matches_numpy():
    h = random_hermitian(5, 4) + 6.0 * np.eye(5)
    b = np.arange(1.0, 6.0)
    x = linsolve(h, b)
    assert np.allclose(h @ x, b, atol=1e-10)


def test_linsolve_rejects_singular():
    with pytest.raises(ValueError):
        linsolve(np.zeros((2, 2)), np.ones(2))


def test_linsolve_guards_hermitian_operators_without_svd(monkeypatch):
    h = random_hermitian(6, 5) + 7.0 * np.eye(6)
    b = np.arange(1.0, 7.0) + 0j
    want = np.linalg.solve(h, b)

    def no_svd(*args, **kwargs):
        raise AssertionError("a Hermitian operator needs no SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert np.array_equal(linsolve(DenseOperator(h, hermitian=True), b), want)
    singular = DenseOperator(np.diag([1.0, -0.5, 0.0]), hermitian=True)
    with pytest.raises(ValueError,
                       match=r"matrix is numerically singular \(σ_min = 0\.000e\+00\)"):
        linsolve(singular, np.ones(3))


def test_spectral_decomposition_is_readonly():
    dec = SpectralDecomposition(np.array([1.0]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        dec.eigenvalues[0] = 2.0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2 ** 31 - 1), st.booleans(),
       st.booleans(), st.floats(0.0, 4.0))
def test_norm_guard_decides_like_svd(dim, seed, herm, wrap, ratio):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if herm:
        m = hermitian_part(m)
    exact = float(np.linalg.norm(m, 2))
    op = DenseOperator(m, hermitian=herm) if wrap else m
    for limit in (ratio * exact, exact, float(np.nextafter(exact, 0.0))):
        got = spectral_norm_bound(op, limit)
        assert (got <= limit) == (exact <= limit)
        assert got >= exact * (1.0 - 1e-12)


@pytest.mark.parametrize("m", [
    0.7 * np.eye(4),
    np.ones((4, 4)) / 4.0,
    np.outer([1.0, -1.0, 1j, 1.0], [0.5, 0.5j, -0.5, 0.5]),
    np.diag([1.0, -0.5, 0.25]),
])
def test_norm_guard_is_exact_where_cheap_bound_is_tight(m):
    # sqrt(||m||_1 ||m||_inf) equals ||m||_2 here, so the cheap bound sits
    # on the limit up to roundoff
    exact = float(np.linalg.norm(m, 2))
    for limit in (exact, float(np.nextafter(exact, 0.0))):
        assert (spectral_norm_bound(m, limit) <= limit) == (exact <= limit)


def test_norm_guard_skips_svd_when_cheap_bound_settles_it():
    m = np.array([[1.0, 1.0], [1.0, -1.0]])  # ||m||_2 = sqrt(2), bound 2
    assert spectral_norm_bound(m, 3.0) == 2.0
    assert spectral_norm_bound(m, 1.5) == pytest.approx(np.sqrt(2.0))
    assert spectral_norm_bound(m, 1.4) > 1.4
