"""Measurement-driven eigenpath traversal and its overlap bounds."""

import math

import numpy as np
import pytest

from eigenfilter import blockenc, filtering, zeno
from eigenfilter.chebpoly import (
    BOUND_GAP_CAP,
    FilterSpec,
    degree_for_accuracy,
    filter_cheb_coeffs,
    filter_eval,
)
from eigenfilter.harness import gen_instance, planted_tridiag_instance
from eigenfilter.numerics import DenseOperator, StateRegister, clenshaw_apply
from eigenfilter.qlsp import (
    QlspInstance,
    gap_lower_bound,
    hamiltonian_blocks,
    make_h0_encoding,
    make_hf,
    path_vectors,
)
from eigenfilter.zeno import (
    ZenoParams,
    ZenoTrace,
    query_envelope,
    solve_zeno,
    validate_zeno_bounds,
    zeno_params,
    zeno_schedule,
)


def test_params_reference_values():
    params = zeno_params(10.0, 1e-6)
    assert params.M == 27
    assert params.eps_p == pytest.approx(1.0 / (162.0 * 27 ** 2))
    assert params.final_eps == 2.5e-7
    assert params.f_grid.shape == (28,)
    assert params.f_grid[0] == 0.0 and params.f_grid[-1] == 1.0


def test_params_m_floor_near_one():
    # ln(kappa)/(1-1/kappa) -> 1 from above, so the ceil lands just past 4
    params = zeno_params(1.01, 0.1)
    assert params.M == 5
    # eps_p stays comfortably small for every M >= 4
    assert params.eps_p <= 1.0 / 128.0
    with pytest.raises(ValueError):
        ZenoParams(3, 1e-4, 1e-4, np.linspace(0.0, 1.0, 4))


def test_schedule_closed_form_value():
    # f(s) = (1 - kappa^{-s}) / (1 - 1/kappa)
    got = zeno_schedule(0.5, 10.0)
    want = (1.0 - 10.0 ** -0.5) / 0.9
    assert got == pytest.approx(want, abs=1e-15)
    assert got == pytest.approx(0.7597469266479577, abs=1e-15)
    assert zeno_schedule(0.0, 10.0) == 0.0
    assert zeno_schedule(1.0, 10.0) == pytest.approx(1.0)


def test_grid_is_strictly_increasing():
    params = zeno_params(50.0, 1e-4)
    assert np.all(np.diff(params.f_grid) > 0.0)


def test_postselect_walk_reaches_eps():
    inst = gen_instance(3, 10.0, 0)
    report, trace = solve_zeno(inst, 1e-6)
    assert report.final_fidelity >= 1.0 - 1e-6
    assert trace.final_fidelity == report.final_fidelity
    assert len(trace.per_step_success) == report.params["M"]
    assert report.attempts == 1
    trace.check_product()


def test_total_success_exceeds_analytic_floor():
    for seed in range(5):
        inst = gen_instance(3, 10.0, seed)
        _, trace = solve_zeno(inst, 1e-6)
        assert trace.total_success >= 1.0 / 400.0
        # empirically far above the loose bound
        assert trace.total_success >= 0.5


def test_idealized_projection_quarter_bound():
    # exact projections onto x(f_1), ..., x(f_M), from x(f_0) = b, succeed
    # with total probability prod_j |<x(f_j)|x(f_{j-1})>|^2
    inst = gen_instance(3, 10.0, 1)
    params = zeno_params(inst.kappa, 1e-3)
    path = path_vectors(inst, params.f_grid)
    total_success = float(np.prod([abs(np.vdot(path[j], path[j - 1])) ** 2
                                   for j in range(1, params.M + 1)]))
    # M >= 4 ln^2(kappa)/(1-1/kappa)^2 holds by construction, so >= 1/4
    assert total_success >= 0.25


def test_overlap_bounds_hold_each_step():
    inst = gen_instance(3, 10.0, 2)
    _, trace = solve_zeno(inst, 1e-6)
    params = zeno_params(inst.kappa, 1e-6)
    bounds = validate_zeno_bounds(trace, params, inst)
    assert bounds.all_hold
    assert all(m >= 0.0 for m in bounds.idealized_path_margin)
    assert len(bounds.path_overlap_margin) == params.M
    assert len(bounds.projection_margin) == params.M
    assert len(bounds.step_overlap_margin) == params.M - 1


def test_product_inequality_on_trace_values():
    # prod(a_j - b_j) >= prod(a_j) - sum(b_j) for 0 < a_j < 1, b_j >= 0
    inst = gen_instance(3, 10.0, 3)
    _, trace = solve_zeno(inst, 1e-4)
    a = np.clip(np.asarray(trace.per_step_overlap), 1e-9, 1.0 - 1e-12)
    b = np.full_like(a, 4.0 * zeno_params(inst.kappa, 1e-4).eps_p)
    lhs = float(np.prod(a - b))
    rhs = float(np.prod(a) - np.sum(b))
    assert lhs >= rhs - 1e-15


def test_query_envelope_constant_under_two():
    inst = gen_instance(4, 10.0, 4)
    report, _ = solve_zeno(inst, 1e-6)
    envelope = report.formula_derived_costs["query_envelope"]
    measured = report.query_ledger["U_Hf_filter"]
    assert measured <= 2.0 * envelope


def test_sample_mode_aborts_and_restarts():
    inst = gen_instance(3, 10.0, 5)
    report, trace = solve_zeno(inst, 1e-6, mode="sample", seed=13)
    assert report.final_fidelity >= 1.0 - 1e-6
    assert report.attempts >= 1
    assert report.query_ledger["O_B"] == report.attempts
    # same seed, same trajectory
    report2, _ = solve_zeno(inst, 1e-6, mode="sample", seed=13)
    assert report2.attempts == report.attempts
    assert report2.query_ledger == report.query_ledger


@pytest.mark.parametrize("mode,seed", [("postselect", None), ("sample", 13)])
def test_filter_ledger_equals_counted_matvecs(mode, seed, matvec_counter):
    inst = gen_instance(3, 10.0, 5)
    report, _ = solve_zeno(inst, 1e-6, mode=mode, seed=seed)
    assert report.query_ledger["U_Hf_filter"] == matvec_counter["matvecs"]


def test_sampled_walk_runs_once_and_charges_every_stage_reached(
        matvec_counter, monkeypatch):
    # seed 159 aborts the first walk at its seventh projection, then succeeds
    inst = gen_instance(3, 10.0, 5)
    base, _ = solve_zeno(inst, 1e-6)
    seen = []
    draw = filtering.sample_restarts

    def recording(probs, rng, max_attempts):
        seen.append((list(probs), draw(probs, rng, max_attempts)))
        return seen[-1][1]

    monkeypatch.setattr(filtering, "sample_restarts", recording)
    matvec_counter["matvecs"] = 0
    report, _ = solve_zeno(inst, 1e-6, mode="sample", seed=159)
    [(probs, reached)] = seen
    assert report.attempts == reached[0] == 2
    assert reached[6] == 2 and reached[7] == 1
    # one coin per filter step, then one for the final ancilla measurement
    assert len(probs) == report.params["M"] + 1
    assert probs[:-2] == base.success_probabilities[:-1]
    assert probs[-1] == 1.0  # the walk never leaves the |0> block
    # the walk itself ran once, as in postselect mode ...
    assert matvec_counter["matvecs"] == base.query_ledger["U_Hf_filter"]
    # ... while the ledger charges each step every time an attempt reached it
    ells = report.params["ells"]
    charged = sum(2 * ell * r for ell, r in zip(ells, reached))
    assert report.query_ledger == {"U_Hf_filter": charged, "O_B": 2}
    assert charged > matvec_counter["matvecs"]


def test_walk_builds_no_block_encoding(monkeypatch):
    # the walk takes its blocks from qlsp.hamiltonian_blocks: no 2N×2N
    # encoding is built, and no encoding's norm guard runs
    built = []
    guard = blockenc.BlockEncoding.__post_init__

    def counted(self):
        built.append(self)
        guard(self)

    monkeypatch.setattr(blockenc.BlockEncoding, "__post_init__", counted)
    inst = gen_instance(3, 10.0, 5)
    make_h0_encoding(inst)
    assert len(built) == 1  # the counter sees an encoding being built
    for mode, seed in (("postselect", None), ("sample", 159)):
        solve_zeno(inst, 1e-6, mode=mode, seed=seed)
    assert len(built) == 1


class _CountedPair(np.ndarray):
    """A step's pair [B̃, B̃†] whose halves, as the walk slices them, are
    counting views with a counter of their own each."""

    def __getitem__(self, key):
        plain = self.view(np.ndarray)
        half = plain[key]
        which = int(not np.shares_memory(half, plain[..., 0, :, :]))
        return self.counted_view(half, self.counters[which])


def _walk_contractions(monkeypatch, counted_view, inst):
    """(f, alpha, dense B(f)/alpha, dense B(f)†/alpha) for every filter step
    of one walk, each half of the step's one pair counted as the kernel
    applies it."""
    seen = []
    make_form = zeno.convex_combination

    def recording(m0, m1):
        form = make_form(m0, m1)

        def recorded(f, alpha):
            m, counters = form(f, alpha), ({"matvecs": 0}, {"matvecs": 0})
            seen.append((f, alpha, np.array(m), counters))
            pair = m.view(_CountedPair)
            pair.counters, pair.counted_view = counters, counted_view
            return pair
        return recorded

    monkeypatch.setattr(zeno, "convex_combination", recording)
    report, _ = solve_zeno(inst, 1e-6)
    # each step forms one pair [B(f)/alpha, B(f)†/alpha]
    grid = zeno_params(inst.kappa, 1e-6).f_grid[1:]
    assert [f for f, *_ in seen] == list(grid)
    assert [a for _, a, *_ in seen] == [(1 - f) + f * inst.d for f in grid]
    # and its filter of degree 2ℓ applies each of the two halves ℓ times
    ells = report.params["ells"]
    assert [b["matvecs"] for *_, (b, _) in seen] == ells
    assert [bh["matvecs"] for *_, (_, bh) in seen] == ells
    return [(f, alpha, pair[0], pair[1]) for f, alpha, pair, _ in seen]


def test_walk_contractions_equal_make_hf(monkeypatch, counted_view):
    inst = gen_instance(4, 10.0, 0)
    dim = inst.dim
    for f, alpha, b, bh in _walk_contractions(monkeypatch, counted_view, inst):
        ref = make_hf(inst, f)
        assert alpha == ref.alpha
        hf = ref.payload.mat / alpha
        assert np.max(np.abs(b - hf[:dim, dim:])) <= 1e-15
        assert np.max(np.abs(bh - hf[dim:, :dim])) <= 1e-15


@pytest.mark.parametrize("n,seed", [(4, 0), (3, 5)])
def test_walk_contractions_need_no_guard(monkeypatch, counted_view, n, seed):
    # the walk filters on each B(f)/alpha(f) without a norm guard: the
    # instance bounds ‖A‖ <= NORM_BOUND at entry, so ‖B(f)‖ <= (1-f) +
    # f·NORM_BOUND <= alpha(f)·(1 + 1e-10), and the exact norm agrees
    inst = gen_instance(n, 10.0, seed)
    for _, _, b, bh in _walk_contractions(monkeypatch, counted_view, inst):
        assert np.linalg.norm(b, 2) <= 1.0 + 1e-10
        assert np.linalg.norm(bh, 2) <= 1.0 + 1e-10


def _dense_walk(inst, eps):
    """The walk on the dense 2N×2N H(f)/alpha (the oracle for the walk on
    B(f)): per-step success, normalized |0>-block states and ells."""
    params = zeno_params(inst.kappa, eps)
    dim = inst.dim
    psi = np.concatenate([inst.b.amps, np.zeros(dim)])
    success, states, ells = [], [], []
    for j, f in enumerate(params.f_grid[1:], start=1):
        enc = make_hf(inst, f)
        gap = gap_lower_bound(inst, f) / enc.alpha
        ell = degree_for_accuracy(
            gap, params.eps_p if j < params.M else params.final_eps)
        series = filter_cheb_coeffs(FilterSpec(ell, min(gap, BOUND_GAP_CAP)))
        out = clenshaw_apply(series, enc.payload.mat / enc.alpha, psi)
        p = float(np.linalg.norm(out) ** 2)
        psi = out / np.linalg.norm(out)
        if j == params.M:  # the ancilla measurement keeps the |0> block
            p *= float(np.linalg.norm(psi[:dim]) ** 2)
        success.append(p)
        states.append(psi[:dim] / np.linalg.norm(psi[:dim]))
        ells.append(ell)
    return success, states, ells


def _phased(inst, seed):
    """D·A·D† with a random phase diagonal D, and a random complex b: a
    complex Hermitian instance with A's spectrum, where B(f)† != B(f)ᵀ."""
    rng = np.random.default_rng(seed)
    d = np.exp(2j * np.pi * rng.random(inst.dim))
    a = d[:, None] * inst.A.mat * d.conj()[None, :]
    b = rng.normal(size=inst.dim) + 1j * rng.normal(size=inst.dim)
    op = DenseOperator(a, hermitian=True)
    assert op.mat.dtype.kind == "c"
    return QlspInstance(op, StateRegister(b / np.linalg.norm(b), system=inst.n),
                        inst.kappa, inst.d)


@pytest.mark.parametrize("make", [
    lambda: planted_tridiag_instance(5, 32.0, 0),
    lambda: planted_tridiag_instance(5, 32.0, 7),
    lambda: planted_tridiag_instance(7, 32.0, 0),
    lambda: planted_tridiag_instance(7, 32.0, 7),
    lambda: gen_instance(4, 10.0, 0),
    lambda: gen_instance(3, 10.0, 5),
    lambda: _phased(gen_instance(4, 10.0, 0), 3),
], ids=["planted5-s0", "planted5-s7", "planted7-s0", "planted7-s7",
        "gen4-s0", "gen3-s5", "phased-gen4-s0"])
def test_block_walk_matches_dense_walk(make):
    inst = make()
    report, trace = solve_zeno(inst, 1e-6)
    success, states, ells = _dense_walk(inst, 1e-6)
    assert report.params["ells"] == ells
    assert report.query_ledger == {"U_Hf_filter": 2 * sum(ells), "O_B": 1}
    assert np.max(np.abs(np.subtract(trace.per_step_success, success))) <= 1e-12
    for got, want in zip(trace.states, states, strict=True):
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("make", [
    lambda: planted_tridiag_instance(7, 32.0, 0),
    lambda: gen_instance(4, 10.0, 0),
    lambda: _phased(gen_instance(4, 10.0, 0), 3),
], ids=["planted7-s0", "gen4-s0", "phased-gen4-s0"])
def test_block_walk_matches_svd_oracle(make):
    # with B̃ = UΣV†, an even polynomial of σ₊⊗B̃ + σ₋⊗B̃† acts on the |0⟩
    # block as U·p(Σ)·U† (the singular-value picture of QSVT): each step of
    # the (B̃†, B̃) walk is R_ℓ at the singular values of B̃(f)
    inst = make()
    report, trace = solve_zeno(inst, 1e-6)
    b0, b1, u = hamiltonian_blocks(inst)
    psi = u.amps
    grid = zeno_params(inst.kappa, 1e-6).f_grid[1:]
    for j, (f, ell) in enumerate(zip(grid, report.params["ells"], strict=True)):
        alpha = (1 - f) + f * inst.d
        w, s, _ = np.linalg.svd(((1 - f) * b0 + f * b1) / alpha)
        spec = FilterSpec(ell, min(gap_lower_bound(inst, f) / alpha, BOUND_GAP_CAP))
        out = w @ (filter_eval(spec, s) * (w.conj().T @ psi))
        psi = out / np.linalg.norm(out)
        assert abs(trace.per_step_success[j] - np.linalg.norm(out) ** 2) <= 1e-12
        assert np.max(np.abs(trace.states[j] - psi)) <= 1e-12


def test_rejects_non_positive_definite():
    indef = gen_instance(3, 10.0, 6, form="hermitian-indefinite")
    with pytest.raises(ValueError):
        solve_zeno(indef, 1e-4)


def test_check_product_detects_mismatch():
    trace = ZenoTrace(per_step_success=[0.9, 0.8], total_success=0.5)
    with pytest.raises(AssertionError):
        trace.check_product()


def test_envelope_formula_shape():
    params = zeno_params(10.0, 1e-6)
    val = query_envelope(10.0, 3, params)
    r = 0.9
    shape = (30.0 - 1.0) / math.log(10.0) - 2.0 / r
    assert val == pytest.approx(math.log(1.0 / params.eps_p) * 27 * shape)
