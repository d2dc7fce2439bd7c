"""Interpolating Hamiltonians, dilations, and the exact eigenpath."""

import dataclasses
import math

import numpy as np
import pytest

from eigenfilter.blockenc import (
    BlockEncoding,
    multiply,
    qb_matrix,
    verify,
)
from eigenfilter.harness import gen_instance, planted_tridiag_instance
from eigenfilter.numerics import (
    DenseOperator,
    StateRegister,
    eig_hermitian,
    fidelity,
    hermitian_part,
    linsolve,
    spectral_norm_bound,
)
from eigenfilter.qlsp import (
    FORMS,
    QlspInstance,
    eigenpath_bound_ratios,
    eigenpath_state,
    eigenpath_states,
    extend_general,
    gap_lower_bound,
    hamiltonian_blocks,
    lstar,
    make_h0,
    make_h0_encoding,
    make_h1,
    make_h1_encoding,
    make_hf,
    offdiag,
    offdiag_pair,
    path_vector,
    path_vectors,
    solution_state,
)
from eigenfilter.zeno import grid_spread, zeno_params

from conftest import dense_hamiltonians


def test_instance_validation():
    good = gen_instance(3, 10.0, 0)
    with pytest.raises(ValueError):
        QlspInstance(good.A, good.b, kappa=0.5, d=3)
    with pytest.raises(ValueError):
        QlspInstance(good.A, good.b, kappa=10.0, d=0)
    with pytest.raises(ValueError):
        QlspInstance(good.A, good.b.with_amps(2.0 * good.b.amps),
                     kappa=10.0, d=3)
    with pytest.raises(ValueError):
        QlspInstance(DenseOperator(3.0 * np.eye(good.dim)), good.b,
                     kappa=10.0, d=3)


@pytest.mark.parametrize("make", [
    lambda: gen_instance(4, 10.0, 3),
    lambda: gen_instance(4, 10.0, 3, "hermitian-indefinite"),
    lambda: planted_tridiag_instance(5, 16.0, 1),
], ids=["positive-definite", "hermitian-indefinite", "planted"])
def test_hermitian_instance_entry_check_needs_no_svd(monkeypatch, make):
    # one eigvalsh bounds a Hermitian A; at and past both bounds it accepts
    # and rejects exactly as the SVD does, with the SVD's messages
    inst = make()
    sv = np.linalg.svd(inst.A.mat, compute_uv=False)
    over = DenseOperator(inst.A.mat * (1.0 + 3e-10), hermitian=True)
    over_sv = np.linalg.svd(over.mat, compute_uv=False)
    general = gen_instance(3, 6.0, 1, "general")

    def no_svd(*args, **kwargs):
        raise AssertionError("a Hermitian instance needs no SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    dataclasses.replace(inst)
    dataclasses.replace(inst, kappa=1.0 / sv[-1])  # at the lower bound
    with pytest.raises(ValueError) as err:
        dataclasses.replace(inst, A=over)
    assert str(err.value) == f"||A|| = {over_sv[0]:.6g} exceeds 1"
    with pytest.raises(ValueError) as err:
        dataclasses.replace(inst, kappa=(1.0 - 1e-6) / sv[-1])
    assert str(err.value) == (
        f"smallest singular value {sv[-1]:.6g} below 1/kappa")
    with pytest.raises(AssertionError, match="needs no SVD"):
        dataclasses.replace(general)  # a non-Hermitian A keeps the SVD


def test_solution_state_solves_the_system():
    inst = gen_instance(4, 10.0, 1)
    x = solution_state(inst)
    resid = inst.A.mat @ x.amps
    resid = resid / np.linalg.norm(resid)
    assert fidelity(resid, inst.b) >= 1.0 - 1e-12


def test_h0_h1_null_spaces():
    inst = gen_instance(3, 10.0, 2)
    b = inst.b.amps
    x = solution_state(inst).amps
    h0 = make_h0(inst.b).mat
    h1 = make_h1(inst.A, inst.b).mat
    zero_b = np.concatenate([b, np.zeros_like(b)])
    one_b = np.concatenate([np.zeros_like(b), b])
    zero_x = np.concatenate([x, np.zeros_like(x)])
    assert np.linalg.norm(h0 @ zero_b) <= 1e-12
    assert np.linalg.norm(h0 @ one_b) <= 1e-12
    assert np.linalg.norm(h1 @ zero_x) <= 1e-12
    assert np.linalg.norm(h1 @ one_b) <= 1e-12


def test_h1_of_a_real_instance_is_bitwise_the_complex_product():
    # Q_b of a real b is float64, so AQ_b and Q_bA run in real arithmetic;
    # they must equal the real parts of the complex products exactly
    inst = gen_instance(7, 32.0, 0)
    v = inst.b.amps
    qb = np.eye(v.size, dtype=complex) - np.outer(v, v.conj())
    a = inst.A.mat.astype(complex)
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])
    want = np.kron(sp, a @ qb) + np.kron(sp.T, qb @ a)
    assert not want.imag.any()
    got = make_h1(inst.A, inst.b).mat
    assert got.dtype == np.float64
    assert np.array_equal(got, want.real)


def test_hf_interpolates_and_gap_bound_holds():
    inst = gen_instance(3, 10.0, 3)
    h0 = make_h0(inst.b).mat
    h1 = make_h1(inst.A, inst.b).mat
    for f in (0.0, 0.3, 0.7, 1.0):
        enc = make_hf(inst, f)
        assert np.allclose(enc.payload.mat, (1.0 - f) * h0 + f * h1,
                           atol=1e-12)
        evs = eig_hermitian(enc.payload).eigenvalues
        nonzero = np.abs(evs)[np.abs(evs) > 1e-10]
        assert nonzero.min() >= gap_lower_bound(inst, f) - 1e-10


def _h1_encoding_product(inst):
    # the circuit W·(sigma_x⊗A)·W with W = diag(I, Q_b), formed as a product
    # of three block encodings: the reference for make_h1_encoding
    qb = qb_matrix(inst.b)
    zero = np.zeros((inst.dim, inst.dim))
    wall = BlockEncoding(
        DenseOperator(np.block([[np.eye(inst.dim), zero], [zero, qb]]),
                      hermitian=True), 1.0, 1)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    mid = BlockEncoding(DenseOperator(np.kron(sx, inst.A.mat), hermitian=True),
                        float(inst.d), inst.n + 2)
    prod = multiply(multiply(wall, mid), wall)
    return prod, hermitian_part(prod.payload.mat)


def _complex_b(inst, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=inst.dim) + 1j * rng.normal(size=inst.dim)
    return dataclasses.replace(inst, b=inst.b.with_amps(amps / np.linalg.norm(amps)))


def test_h1_encoding_is_the_three_encoding_product():
    for n in (2, 3, 4):
        for seed in (0, 1):
            general = gen_instance(n, 8.0, seed, "general")
            cases = [
                planted_tridiag_instance(n, 8.0, seed),
                gen_instance(n, 8.0, seed),
                gen_instance(n, 8.0, seed, "hermitian-indefinite"),
                extend_general(general),
            ]
            for inst in cases:
                prod, payload = _h1_encoding_product(inst)
                enc = make_h1_encoding(inst)
                assert np.array_equal(enc.payload.mat, payload)
                assert enc.alpha == prod.alpha == float(inst.d)
                assert enc.ancilla == prod.ancilla == inst.n + 4
    # a complex right-hand state changes only the rounding of the products
    inst = _complex_b(gen_instance(3, 8.0, 2), 5)
    _, payload = _h1_encoding_product(inst)
    assert np.max(np.abs(make_h1_encoding(inst).payload.mat - payload)) <= 1e-15


def test_encoding_bookkeeping_matches_construction():
    inst = gen_instance(2, 10.0, 4)
    h1 = make_h1_encoding(inst)
    assert h1.alpha == float(inst.d)
    assert h1.ancilla == inst.n + 4
    assert verify(h1) <= 1e-10
    hf = make_hf(inst, 0.25)
    assert hf.alpha == pytest.approx(0.75 + 0.25 * inst.d)
    assert hf.ancilla == inst.n + 6
    assert verify(hf) <= 1e-10


def test_h0_encoding_accepted_through_exact_norm_fallback():
    inst = gen_instance(6, 10.0, 0)
    h0 = make_h0(inst.b).mat
    a = np.abs(h0)
    cheap = math.sqrt(a.sum(axis=0).max() * a.sum(axis=1).max())
    # the certified bound cannot settle ||H0|| <= alpha = 1 ...
    assert cheap == pytest.approx(2.74, abs=0.01)
    # ... but the exact norm is 1, so the guard must still accept
    assert np.linalg.norm(h0, 2) == pytest.approx(1.0, abs=1e-12)
    enc = make_h0_encoding(inst)
    assert enc.alpha == 1.0
    limit = enc.alpha * (1.0 + 1e-10)
    assert spectral_norm_bound(enc.payload, limit) <= limit


def test_gap_bound_forms():
    pd = gen_instance(3, 10.0, 5)
    assert gap_lower_bound(pd, 0.5) == pytest.approx(0.5 + 0.05)
    indef = gen_instance(3, 10.0, 5, form="hermitian-indefinite")
    assert gap_lower_bound(indef, 0.5) == pytest.approx(0.55 / math.sqrt(2.0))
    with pytest.raises(ValueError):
        gap_lower_bound(pd, 1.5)


def test_hamiltonian_pair_dilated_null_spaces_and_start():
    inst = gen_instance(3, 10.0, 6, form="hermitian-indefinite")
    h0, h1, init = dense_hamiltonians(inst)
    assert init.norm() == pytest.approx(1.0)
    assert np.linalg.norm(h0.mat @ init.amps) <= 1e-12
    x = linsolve(inst.A, inst.b).amps
    x = x / np.linalg.norm(x)
    # target |0⟩|+⟩|x⟩ lies in the null space of H1
    plus_x = np.kron([1.0, 0.0], np.kron([1.0, 1.0] / np.sqrt(2.0), x))
    assert np.linalg.norm(h1.mat @ plus_x) <= 1e-12
    gaps = np.abs(eig_hermitian(h1).eigenvalues)
    nz = gaps[gaps > 1e-9]
    assert nz.min() >= gap_lower_bound(inst, 1.0) - 1e-10


@pytest.mark.parametrize("form,complex_b", [
    ("hermitian-indefinite", False), ("general", False),
    ("hermitian-indefinite", True)])
def test_hamiltonian_pair_dilation_matches_complex_built_q(form, complex_b):
    inst = extend_general(gen_instance(3, 10.0, 4, form=form))
    b = inst.b
    if complex_b:
        amps = b.amps + 1j * np.random.default_rng(3).normal(size=b.dim)
        b = b.with_amps(amps / np.linalg.norm(amps))
    # oracle: Q = I - |+,b⟩⟨+,b| built in complex arithmetic
    dim = inst.dim
    plus_b = np.kron(np.array([1.0, 1.0]) / math.sqrt(2.0), b.amps)
    q = np.eye(2 * dim) - np.outer(plus_b, plus_b.conj())
    sz_i = np.kron(np.diag([1.0, -1.0]), np.eye(dim))
    sx_a = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), inst.A.mat)
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])
    want0 = np.kron(sp, sz_i @ q) + np.kron(sp.T, q @ sz_i)
    want1 = np.kron(sp, sx_a @ q) + np.kron(sp.T, q @ sx_a)
    h0, h1, _ = dense_hamiltonians(dataclasses.replace(inst, b=b))
    tol = 64 * np.finfo(float).eps
    assert np.max(np.abs(h0.mat - want0)) <= tol
    assert np.max(np.abs(h1.mat - want1)) <= tol
    dtype = np.complex128 if complex_b else np.float64
    assert h0.mat.dtype == h1.mat.dtype == dtype


def _explicit_pair(inst):
    """H0, H1 and the start state as explicit Kronecker products: σx⊗Q_b and
    σ₊⊗AQ_b + σ₋⊗Q_bA on positive-definite input, the 4N dilation of
    Hermitian indefinite input, and that dilation of the extended system
    for general input."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])
    inst = extend_general(inst)
    a, b = inst.A.mat, inst.b
    if inst.form == "positive-definite":
        qb = qb_matrix(b)
        return (np.kron(sx, qb), np.kron(sp, a @ qb) + np.kron(sp.T, qb @ a),
                np.kron([1.0, 0.0], b.amps))
    plus_b = np.kron(np.array([1.0, 1.0]) / math.sqrt(2.0), b.amps)
    q = qb_matrix(StateRegister(plus_b, ancilla=1, system=b.system))
    sz_i = np.kron(np.diag([1.0, -1.0]), np.eye(inst.dim))
    sx_a = np.kron(sx, a)
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    return (np.kron(sp, sz_i @ q) + np.kron(sp.T, q @ sz_i),
            np.kron(sp, sx_a @ q) + np.kron(sp.T, q @ sx_a),
            np.kron([1.0, 0.0], np.kron(minus, b.amps)))


def _phased_instance(inst, seed):
    """D·A·D† with a random phase diagonal D, and a random complex b: the
    same singular values, in complex arithmetic."""
    rng = np.random.default_rng(seed)
    d = np.exp(2j * np.pi * rng.random(inst.dim))
    a = d[:, None] * inst.A.mat * d.conj()[None, :]
    b = rng.normal(size=inst.dim) + 1j * rng.normal(size=inst.dim)
    return QlspInstance(
        DenseOperator(a, hermitian=inst.form != "general"),
        inst.b.with_amps(b / np.linalg.norm(b)), inst.kappa, inst.d,
        form=inst.form)


@pytest.mark.parametrize("form", ["positive-definite",
                                  "hermitian-indefinite", "general"])
def test_hamiltonian_blocks_match_explicit_kronecker_products(form):
    for n in (2, 3, 4):
        for seed in (0, 1):
            inst = gen_instance(n, 8.0, seed, form)
            cases = [inst] + ([planted_tridiag_instance(n, 8.0, seed)]
                              if form == "positive-definite" else [])
            for real in cases:
                b0, b1, u0 = hamiltonian_blocks(real)
                want0, want1, start = _explicit_pair(real)
                # bitwise on real instances
                assert np.array_equal(offdiag(b0).mat, want0)
                assert np.array_equal(offdiag(b1).mat, want1)
                assert np.array_equal(dense_hamiltonians(real)[2].amps, start)
                assert offdiag(b0).mat.dtype == np.float64
            # complex b and complex Hermitian A: B† and the product Q_bA
            # round differently, within a few ulps
            phased = _phased_instance(inst, seed + 11)
            b0, b1, _ = hamiltonian_blocks(phased)
            want0, want1, _ = _explicit_pair(phased)
            tol = 64 * np.finfo(float).eps
            assert np.max(np.abs(offdiag(b0).mat - want0)) <= tol
            assert np.max(np.abs(offdiag(b1).mat - want1)) <= tol
            assert offdiag(b1).mat.dtype == np.complex128


@pytest.mark.parametrize("form", FORMS)
def test_offdiag_pair_is_the_blocks_of_offdiag(form):
    # the solvers multiply [B, B†]; offdiag(B) is the dense σ₊⊗B + σ₋⊗B†
    # with the same entries, and both are float64 exactly when B is real
    inst = gen_instance(3, 8.0, 0, form)
    for case in (inst, _phased_instance(inst, 5)):
        for blk in hamiltonian_blocks(case)[:2]:
            pair, dense, half = offdiag_pair(blk), offdiag(blk).mat, blk.shape[0]
            assert pair.shape == (2, half, half)
            assert np.array_equal(pair[0], dense[:half, half:])
            assert np.array_equal(pair[1], dense[half:, :half])
            assert pair.dtype == dense.dtype


def test_extend_general_keeps_singular_values():
    inst = gen_instance(3, 10.0, 7, form="general")
    ext = extend_general(inst)
    assert ext.form == "hermitian-indefinite"
    assert (ext.kappa, ext.d) == (inst.kappa, inst.d)
    sv = np.linalg.svd(inst.A.mat, compute_uv=False)
    evs = eig_hermitian(ext.A).eigenvalues
    assert np.allclose(np.sort(np.abs(evs)), np.sort(np.repeat(sv, 2)),
                       atol=1e-10)
    # solving the extended Hermitian system recovers the original solution
    y = linsolve(ext.A, ext.b).amps
    x = y[inst.dim:]
    want = linsolve(inst.A, inst.b).amps
    assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
    # every other form is already in its Hermitian picture
    for form in ("positive-definite", "hermitian-indefinite"):
        other = gen_instance(3, 10.0, 7, form=form)
        assert extend_general(other) is other


def test_path_vector_endpoints():
    inst = gen_instance(3, 10.0, 8)
    assert fidelity(path_vector(inst, 0.0), inst.b.amps) >= 1.0 - 1e-12
    x = solution_state(inst)
    assert fidelity(path_vector(inst, 1.0), x.amps) >= 1.0 - 1e-12


def test_path_vectors_match_pointwise_solves_without_svd(monkeypatch):
    inst = gen_instance(3, 10.0, 9)
    fs = np.linspace(0.0, 1.0, 7)
    want = []
    for f in fs:
        y = np.linalg.solve((1.0 - f) * np.eye(inst.dim) + f * inst.A.mat,
                            inst.b.amps)
        want.append(y / np.linalg.norm(y))

    def no_svd(*args, **kwargs):
        raise AssertionError("Hermitian A needs no SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    got = path_vectors(inst, fs)
    # one eigh replaces the solves, so the arithmetic differs in roundoff
    tol = 64 * np.finfo(float).eps
    assert all(np.max(np.abs(g - w)) <= tol for g, w in zip(got, want))
    assert np.array_equal(path_vector(inst, fs[3]), got[3])


def _eigenvalue_minus_one(hermitian: bool) -> QlspInstance:
    # eigenvalue -1 makes (1-f)I + fA singular at f = 1/2; all singular
    # values are 1. The non-Hermitian variant adds a 90-degree rotation
    rot = np.array([[0.0, -1.0], [1.0, 0.0]]) if not hermitian else np.eye(2)
    a = np.block([[np.diag([-1.0, 1.0]), np.zeros((2, 2))],
                  [np.zeros((2, 2)), rot]])
    form = "hermitian-indefinite" if hermitian else "general"
    return QlspInstance(DenseOperator(a, hermitian=hermitian),
                        StateRegister(np.ones(4) / 2.0, 0, 2),
                        kappa=2.0, d=1, form=form)


@pytest.mark.parametrize("hermitian", [True, False])
def test_path_vectors_reject_singular_shift(hermitian):
    inst = _eigenvalue_minus_one(hermitian)
    assert len(path_vectors(inst, [0.0, 0.25, 0.75])) == 3
    with pytest.raises(ValueError, match="numerically singular at f=0.5"):
        path_vectors(inst, [0.25, 0.5])
    with pytest.raises(ValueError, match="numerically singular"):
        path_vector(inst, 0.5)


def test_eigenpath_state_is_null_vector():
    inst = gen_instance(3, 10.0, 9)
    for f in (0.2, 0.5, 0.9):
        pt = eigenpath_state(inst, f)
        # the path state is proportional to ((1-f)I + fA)^{-1} b ...
        shifted = (1.0 - f) * np.eye(inst.dim) + f * inst.A.mat
        sol = np.linalg.solve(shifted, inst.b.amps)
        assert fidelity(pt.state.amps, sol / np.linalg.norm(sol)) >= 1.0 - 1e-12
        # ... and |0⟩⊗x(f) is annihilated by the interpolating Hamiltonian
        hf = make_hf(inst, f).payload.mat
        lifted = np.concatenate([pt.state.amps, np.zeros(inst.dim)])
        assert np.linalg.norm(hf @ lifted) <= 1e-10


def test_eigenpath_states_run_one_eigh_and_equal_each_point(monkeypatch):
    # one path_vectors call (one eigh for Hermitian A) serves every point,
    # and each point is bitwise the one-point call
    inst = gen_instance(4, 10.0, 3)
    fs = np.linspace(0.0, 1.0, 21)
    singles = [eigenpath_state(inst, float(f)) for f in fs]
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda *a: calls.append(a) or eigh(*a))
    pts = eigenpath_states(inst, fs)
    assert len(calls) == 1
    for pt, single in zip(pts, singles, strict=True):
        assert pt.f == single.f
        assert np.array_equal(pt.state.amps, single.state.amps)
        assert pt.derivative_norm == single.derivative_norm
    with pytest.raises(ValueError, match="f must lie in"):
        eigenpath_states(inst, [0.5, 1.5])


def _central_difference(inst, f, h=1e-5):
    # neighbours are parallel-transported (re-phased so their overlap with
    # x(f) is real and positive) so the geometric phase does not count
    x = path_vector(inst, f)

    def transported(g):
        v = path_vector(inst, g)
        ov = np.vdot(x, v)
        return v * (ov.conjugate() / abs(ov))

    lo, hi = f - h, f + h
    return float(np.linalg.norm((transported(hi) - transported(lo)) / (hi - lo)))


def test_derivative_norm_matches_central_difference():
    cases = [gen_instance(4, kappa, seed) for kappa in (10.0, 100.0)
             for seed in (0, 1)]
    cases += [gen_instance(3, 10.0, 0, "general"),
              _complex_b(gen_instance(3, 10.0, 1), 3)]
    for inst in cases:
        for f in (0.1, 0.25, 0.5, 0.75, 0.9):
            got = eigenpath_state(inst, f).derivative_norm
            assert got == pytest.approx(_central_difference(inst, f), rel=1e-7)
        # at f = 0 the path state is b, and ∂_f x = (I - |b⟩⟨b|)·A·b there
        b = inst.b.amps
        ab = inst.A.mat @ b
        want = np.linalg.norm(ab - b * np.vdot(b, ab))
        assert eigenpath_state(inst, 0.0).derivative_norm == pytest.approx(
            want, rel=1e-12)


def test_derivative_bound_and_length():
    for kappa in (10.0, 100.0):
        length, derivs = eigenpath_bound_ratios(gen_instance(4, kappa, 10),
                                                (0.0, 0.25, 0.5, 0.75, 1.0))
        assert all(r <= 1.0 for r in derivs)
        assert length <= 1.0


def test_lstar_total_and_segmentation():
    kappa = 10.0
    assert lstar(kappa, 0.0, 1.0) == pytest.approx(
        2.0 * math.log(kappa) / (1.0 - 1.0 / kappa))
    params = zeno_params(kappa, 1e-4)
    segs = [lstar(kappa, float(a), float(b))
            for a, b in zip(params.f_grid[:-1], params.f_grid[1:])]
    assert grid_spread(kappa, 1e-4) <= 1e-10
    assert sum(segs) == pytest.approx(lstar(kappa, 0.0, 1.0))


def test_lstar_validates_segment():
    with pytest.raises(ValueError):
        lstar(10.0, 0.7, 0.3)
