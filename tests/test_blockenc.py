"""Block-encoding algebra: bookkeeping, arithmetic, explicit dilations."""

import numpy as np
import pytest

from eigenfilter import blockenc
from eigenfilter.blockenc import (
    BlockEncoding,
    dilate_to_unitary,
    encode,
    linear_combine,
    multiply,
    qb_matrix,
    shift_add_identity,
    verify,
)
from eigenfilter.harness import gen_instance
from eigenfilter.numerics import DenseOperator, StateRegister, hermitian_part
from eigenfilter.qlsp import make_h0


def small_hermitian(dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = hermitian_part(m)
    return DenseOperator(scale * m / np.linalg.norm(m, 2), hermitian=True)


def test_encode_default_ancilla_is_sparse_convention():
    op = small_hermitian(8, 0)
    enc = encode(op, alpha=3.0)
    assert enc.ancilla == 3 + 2
    assert enc.alpha == 3.0


def test_encode_rejects_undersized_alpha():
    op = small_hermitian(4, 1, scale=2.0)
    with pytest.raises(ValueError):
        encode(op, alpha=1.0)


def test_encode_checks_the_norm_once(monkeypatch):
    # the certified bound cannot settle ||H0|| <= 1 here, so the guard
    # falls back to the exact norm; encoding must take that SVD only once
    op = make_h0(gen_instance(6, 10.0, 0).b)
    calls = []
    real_norm = DenseOperator.norm

    def counting_norm(self):
        calls.append(self)
        return real_norm(self)

    monkeypatch.setattr(DenseOperator, "norm", counting_norm)
    enc = encode(op, alpha=1.0)
    assert enc.alpha == 1.0
    assert len(calls) == 1


def test_encode_rejects_non_power_of_two_without_ancilla():
    with pytest.raises(ValueError):
        encode(DenseOperator(np.eye(3)), alpha=1.0)


def test_dilation_unitary_and_block_exact():
    for seed in range(4):
        op = small_hermitian(8, seed)
        enc = encode(op, alpha=1.5)
        u = dilate_to_unitary(enc).mat
        assert np.linalg.norm(u.conj().T @ u - np.eye(16), 2) <= 1e-10
        assert np.linalg.norm(op.mat - 1.5 * u[:8, :8], 2) <= 1e-10


def test_verify_round_trip():
    op = small_hermitian(16, 5)
    err = verify(encode(op, alpha=2.0))
    assert err <= 1e-10


def test_shift_adds_alpha_and_one_ancilla():
    op = small_hermitian(4, 7)
    enc = encode(op, alpha=1.0)
    shifted = shift_add_identity(enc, -0.25)
    assert shifted.alpha == 1.25
    assert shifted.ancilla == enc.ancilla + 1
    assert np.allclose(shifted.payload.mat, op.mat - 0.25 * np.eye(4))
    assert shifted.payload.hermitian
    assert verify(shifted) <= 1e-10


def test_shift_complex_records_phase():
    enc = encode(small_hermitian(2, 8), alpha=1.0)
    shifted = shift_add_identity(enc, 0.5j)
    assert not shifted.payload.hermitian


def test_multiply_combines_alpha_and_ancilla():
    a = encode(small_hermitian(4, 9), alpha=2.0)
    b = encode(small_hermitian(4, 10), alpha=3.0)
    prod = multiply(a, b)
    assert prod.alpha == 6.0
    assert prod.ancilla == a.ancilla + b.ancilla
    assert np.allclose(prod.payload.mat, a.payload.mat @ b.payload.mat)
    assert verify(prod) <= 1e-10


def test_linear_combine_bookkeeping():
    a = encode(small_hermitian(4, 11), alpha=1.0)
    b = encode(small_hermitian(4, 12), alpha=2.0)
    comb = linear_combine([a, b], [0.5, 0.25])
    assert comb.alpha == pytest.approx(0.5 * 1.0 + 0.25 * 2.0)
    assert comb.ancilla == a.ancilla + b.ancilla + 1
    assert np.allclose(comb.payload.mat,
                       0.5 * a.payload.mat + 0.25 * b.payload.mat)
    assert comb.payload.hermitian
    assert verify(comb) <= 1e-10


def test_linear_combine_rejects_negative_weights():
    a = encode(small_hermitian(2, 13), alpha=1.0)
    with pytest.raises(ValueError):
        linear_combine([a], [-1.0])


def test_make_qb_is_projector_encoding():
    rng = np.random.default_rng(14)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    b = StateRegister(v / np.linalg.norm(v), 0, 3)
    enc = BlockEncoding(DenseOperator(qb_matrix(b), hermitian=True), 1.0, 1)
    q = enc.payload.mat
    assert np.allclose(q @ q, q, atol=1e-12)
    assert np.linalg.norm(q @ b.amps) <= 1e-12
    assert enc.alpha == 1.0
    assert enc.ancilla == 1
    # the encoding is tight (norm equals alpha), so the completion is only
    # sqrt(machine-eps) unitary; check the dilation directly at that level
    u = dilate_to_unitary(enc).mat
    assert np.linalg.norm(u.conj().T @ u - np.eye(16), 2) <= 1e-7
    assert np.linalg.norm(q - u[:8, :8], 2) <= 1e-7


def test_qb_matrix_is_real_for_a_real_b():
    rng = np.random.default_rng(15)
    v = rng.normal(size=8)
    real_b = StateRegister(v / np.linalg.norm(v), 0, 3)
    assert qb_matrix(real_b).dtype == np.float64
    w = v + 1j * rng.normal(size=8)
    complex_b = StateRegister(w / np.linalg.norm(w), 0, 3)
    assert qb_matrix(complex_b).dtype == np.complex128


def test_block_encoding_rejects_overfull_payload():
    with pytest.raises(ValueError):
        BlockEncoding(DenseOperator(2.0 * np.eye(2)), 1.0, 0)


def test_verify_rejects_a_non_unitary_dilation(monkeypatch):
    enc = BlockEncoding(DenseOperator(0.5 * np.eye(2)), 1.0, 1)
    monkeypatch.setattr(blockenc, "dilate_to_unitary",
                        lambda e: DenseOperator(np.eye(4) * 0.9))
    with pytest.raises(ValueError, match="not unitary"):
        verify(enc)


def test_dilation_size_guard():
    op = DenseOperator(np.eye(2) * 0.5)
    enc = BlockEncoding(op, 1.0, 14)
    with pytest.raises(ValueError):
        dilate_to_unitary(enc)
