"""Adiabatic schedule, ideal evolution, and the seeded-filter solver."""

import numpy as np
import pytest

from eigenfilter import aqc, baseline, blockenc, numerics
from eigenfilter.aqc import (
    AqcConfig,
    aqc_run,
    evolve,
    evolve_stack,
    hsim_query_formula,
    overlap_recorder,
    schedule_p,
    seed_filter,
    solve_aqc_filtered,
)
from eigenfilter.baseline import solve_qsp_direct
from eigenfilter.blockenc import qb_matrix
from eigenfilter.chebpoly import FilterSpec, filter_eval, jacobi_anger_coeffs
from eigenfilter.filtering import apply_filter, transformed_gap
from eigenfilter.harness import (
    experiment_ell_vs_kappa,
    experiment_fidelity_vs_ell,
    experiment_kappa_scaling,
    gen_instance,
    planted_tridiag_instance,
)
from eigenfilter.numerics import (
    DenseOperator,
    StateRegister,
    eig_hermitian,
    fidelity,
)
from eigenfilter.qlsp import (
    FORMS,
    NORM_BOUND,
    QlspInstance,
    extend_general,
    gap_lower_bound,
    make_h1_encoding,
    path_vector,
    solution_state,
)

from conftest import dense_hamiltonians


def eigh_midpoint(inst, cfg):
    """Reference propagator: exp(-i·dt·H(f_mid)) through eig_hermitian."""
    h0, h1, init = dense_hamiltonians(inst)
    psi = init.amps.astype(complex)
    k = cfg.num_steps
    dt = cfg.T / k
    for step in range(k):
        f = schedule_p((step + 0.5) / k, inst.kappa, cfg.p)
        dec = eig_hermitian((1.0 - f) * h0.mat + f * h1.mat)
        psi = dec.apply_function(lambda lam: np.exp(-1j * dt * lam), psi)
    return psi


def test_config_invariants():
    cfg = AqcConfig(T=2.0)
    assert cfg.p == 1.5
    assert cfg.num_steps == 40
    AqcConfig(T=2.0, steps=100)
    with pytest.raises(ValueError):
        AqcConfig(T=2.0, steps=10)
    with pytest.raises(ValueError):
        AqcConfig(T=-1.0)
    with pytest.raises(ValueError):
        AqcConfig(T=1.0, p=2.5)


def test_schedule_endpoints_and_example():
    assert schedule_p(0.0, 10.0, 1.5) == pytest.approx(0.0, abs=1e-15)
    assert schedule_p(1.0, 10.0, 1.5) == pytest.approx(1.0, abs=1e-12)
    # direct evaluation of the power-law formula at the reference point
    base = 1.0 + 0.5 * (10.0 ** 0.5 - 1.0)
    want = 10.0 / 9.0 * (1.0 - base ** -2.0)
    assert schedule_p(0.5, 10.0, 1.5) == pytest.approx(want, abs=1e-15)
    assert schedule_p(0.5, 10.0, 1.5) == pytest.approx(0.85457, abs=1e-5)


def test_schedule_strictly_increasing():
    ss = np.linspace(0.0, 1.0, 1001)
    vals = [schedule_p(float(s), 10.0, 1.5) for s in ss]
    assert np.all(np.diff(vals) > 0.0)


def test_evolve_short_time_is_identity_like():
    inst = gen_instance(3, 10.0, 0)
    _, _, init = dense_hamiltonians(inst)
    out = evolve(inst, AqcConfig(T=1e-8))
    assert fidelity(out, init) >= 1.0 - 1e-10


def test_evolve_preserves_norm_and_null_component():
    inst = gen_instance(3, 10.0, 1)
    out = evolve(inst, AqcConfig(T=0.2 * inst.kappa))
    assert out.norm() == pytest.approx(1.0, abs=1e-10)
    # the |1>|b> null direction is never populated
    one_b = np.concatenate([np.zeros(inst.dim), inst.b.amps])
    assert abs(np.vdot(one_b, out.amps)) <= 1e-8


def test_evolve_richardson_convergence():
    # midpoint rule is second order: at 16x the step floor, one more
    # doubling moves the final state by well under 1e-6
    inst = gen_instance(3, 10.0, 2)
    coarse = evolve(inst, AqcConfig(T=2.0, steps=640))
    fine = evolve(inst, AqcConfig(T=2.0, steps=1280))
    assert np.linalg.norm(coarse.amps - fine.amps) <= 1e-6
    # and the step floor itself is already schedule-faithful to ~1e-4
    floor = evolve(inst, AqcConfig(T=2.0))
    assert np.linalg.norm(floor.amps - fine.amps) <= 1e-3


def test_evolution_reaches_useful_overlap():
    inst = gen_instance(4, 10.0, 3)
    out = evolve(inst, AqcConfig(T=0.2 * inst.kappa))
    x = solution_state(inst)
    overlap = abs(np.vdot(np.concatenate([x.amps, np.zeros(inst.dim)]),
                          out.amps))
    assert 0.45 <= overlap <= 1.0


@pytest.mark.parametrize("form", ["positive-definite",
                                  "hermitian-indefinite", "general"])
@pytest.mark.parametrize("T,steps", [(2.0, None), (1.0, 57), (1e-8, None)])
def test_evolve_matches_eigh_oracle(form, T, steps):
    inst = gen_instance(3, 10.0, 12, form=form)
    cfg = AqcConfig(T=T, steps=steps)
    got = evolve(inst, cfg).amps
    assert np.max(np.abs(got - eigh_midpoint(inst, cfg))) <= 1e-12


@pytest.mark.parametrize("form", ["positive-definite",
                                  "hermitian-indefinite", "general"])
def test_evolve_with_complex_b_matches_eigh_oracle(form):
    # a complex right-hand side makes H0 and H1 genuinely complex, so the
    # propagator keeps complex matvecs
    inst = gen_instance(3, 10.0, 15, form=form)
    rng = np.random.default_rng(1)
    b = inst.b.amps + 1j * rng.normal(size=inst.dim)
    inst = QlspInstance(inst.A, inst.b.with_amps(b / np.linalg.norm(b)),
                        inst.kappa, inst.d, form=form)
    h0, h1, _ = dense_hamiltonians(inst)
    assert np.abs(h0.mat.imag).max() > 0.0 and np.abs(h1.mat.imag).max() > 0.0
    cfg = AqcConfig(T=2.0)
    got = evolve(inst, cfg).amps
    assert np.max(np.abs(got - eigh_midpoint(inst, cfg))) <= 1e-12


def complex_phase_instance(form):
    # gen_instance(3, 10, 16, form) with A's rows and columns given complex
    # phases, under the same real b
    inst = gen_instance(3, 10.0, 16, form=form)
    rng = np.random.default_rng(2)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=inst.dim))
    a = phases[:, None] * inst.A.mat * phases.conj()[None, :]
    return QlspInstance(DenseOperator(a, hermitian=inst.A.hermitian), inst.b,
                        inst.kappa, inst.d, form=form)


@pytest.mark.parametrize("form", ["positive-definite",
                                  "hermitian-indefinite", "general"])
def test_evolve_with_complex_a_and_real_b_matches_eigh_oracle(form):
    # a complex A under a real b leaves H0 real and makes H1 complex, so
    # each step's H(f) is formed in complex arithmetic from mixed dtypes
    inst = complex_phase_instance(form)
    h0, h1, _ = dense_hamiltonians(inst)
    assert h0.mat.dtype == np.float64 and h1.mat.dtype == np.complex128
    cfg = AqcConfig(T=2.0)
    got = evolve(inst, cfg).amps
    assert np.max(np.abs(got - eigh_midpoint(inst, cfg))) <= 1e-12


def plan_counting_runs(counter):
    # aqc.clenshaw_plan, whose runs (one per evolution step) count into
    # counter["calls"]
    make_plan = aqc.clenshaw_plan

    def plan(c, ops, vec):
        run = make_plan(c, ops, vec)

        def counted_run(ops2, vec):
            counter["calls"] += 1
            return run(ops2, vec)
        return counted_run
    return plan


def test_evolve_costs_one_matvec_per_term(monkeypatch, counted_view):
    inst = gen_instance(3, 10.0, 17)
    cfg = AqcConfig(T=2.0)
    coeffs = jacobi_anger_coeffs(cfg.T / cfg.num_steps * NORM_BOUND)
    assert coeffs.size > 1
    # count the series evaluations at the plan's run and the operator
    # products at the kernel's calls on each step's pair [B(f), B(f)†]
    counter = {"calls": 0, "matvecs": 0}
    make_form = aqc.convex_combination

    def counted_convex_combination(m0, m1):
        form = make_form(m0, m1)

        def counted_form(f, alpha):
            pair = form(f, alpha)
            assert pair.shape == (2, inst.dim, inst.dim)
            return counted_view(pair, counter)
        return counted_form

    monkeypatch.setattr(aqc, "clenshaw_plan", plan_counting_runs(counter))
    monkeypatch.setattr(aqc, "convex_combination", counted_convex_combination)
    evolve(inst, cfg)
    assert counter["calls"] == cfg.num_steps
    # one np.matmul per term on the pair, a float64 pair meeting the
    # complex state through its float view
    products = cfg.num_steps * (coeffs.size - 1)
    assert counter["matvecs"] == products
    assert counter["products"] == ["matmul"] * products
    assert counter["dtypes"] == [(float, float)] * products


@pytest.mark.parametrize("form", ["positive-definite",
                                  "hermitian-indefinite", "general"])
def test_evolve_stack_rows_are_bitwise_evolve(form):
    insts = [gen_instance(3, 6.0, seed, form=form) for seed in range(3)]
    run = evolve_stack(insts)
    for cfg in (AqcConfig(T=0.6), AqcConfig(T=1.2, steps=30)):
        rows = run(cfg)
        assert len(rows) == len(insts)
        for row, inst in zip(rows, insts):
            want = evolve(inst, cfg)
            assert (row.ancilla, row.system) == (want.ancilla, want.system)
            assert row.amps.tobytes() == want.amps.tobytes()
    [alone] = evolve_stack(insts[:1])(AqcConfig(T=0.6))
    assert alone.amps.tobytes() == evolve(insts[0], AqcConfig(T=0.6)).amps.tobytes()


def one_shot_propagation(insts, cfg):
    # the propagator as one one-shot numerics.clenshaw call per step on the
    # undoubled [B(f), B(f)†]/alpha stack, which the call doubles
    h0s, h1s, inits = zip(*map(aqc._pairs, insts))
    form = numerics.convex_combination(numerics.stack_rows(h0s),
                                       numerics.stack_rows(h1s))
    psi = numerics.stack_rows([init.amps for init in inits])
    k = cfg.num_steps
    coeffs = jacobi_anger_coeffs(cfg.T / k * NORM_BOUND)
    for step in range(k):
        f = schedule_p((step + 0.5) / k, insts[0].kappa, cfg.p)
        psi = numerics.clenshaw(coeffs, form(f, NORM_BOUND), psi)
    return psi.reshape(len(insts), -1)


@pytest.mark.parametrize("insts", [
    lambda: [planted_tridiag_instance(5, 16.0, seed) for seed in range(3)],
    lambda: [planted_tridiag_instance(7, 16.0, 0)],
    lambda: [gen_instance(3, 6.0, 1, "hermitian-indefinite")],
    lambda: [gen_instance(3, 6.0, 1, "general")],
    lambda: [complex_phase_instance("positive-definite")],
], ids=["planted5-S3", "planted7", "indefinite3", "general3", "complex-phase"])
def test_planned_propagation_is_bitwise_one_shot_clenshaw(insts):
    # one plan per propagation on the endpoints doubled once gives, step for
    # step, the one-shot kernel on each step's pair
    insts = insts()
    cfg = AqcConfig(T=aqc.TIME_FACTOR * insts[0].kappa)
    rows = evolve_stack(insts)(cfg)
    want = one_shot_propagation(insts, cfg)
    assert [row.amps.tobytes() for row in rows] == [w.tobytes() for w in want]


def test_evolve_stack_row_matches_eigh_oracle():
    insts = [gen_instance(3, 10.0, seed) for seed in (12, 13)]
    cfg = AqcConfig(T=2.0)
    rows = evolve_stack(insts)(cfg)
    for row, inst in zip(rows, insts):
        assert np.max(np.abs(row.amps - eigh_midpoint(inst, cfg))) <= 1e-12


@pytest.mark.parametrize("insts", [
    lambda: [gen_instance(3, 6.0, 0), gen_instance(3, 8.0, 1)],
    lambda: [gen_instance(3, 6.0, 0), gen_instance(3, 6.0, 0, "general")],
    lambda: [gen_instance(3, 6.0, 0), gen_instance(4, 6.0, 0)],
    lambda: [],
], ids=["kappa", "form", "dimension", "empty"])
def test_evolve_stack_rejects_mixed_instances(insts):
    with pytest.raises(ValueError, match="kappa, form and dimension"):
        evolve_stack(insts())


def test_evolve_stack_costs_one_stacked_product_per_term(monkeypatch,
                                                         counted_view):
    insts = [gen_instance(3, 10.0, seed) for seed in range(3)]
    cfg = AqcConfig(T=2.0)
    coeffs = jacobi_anger_coeffs(cfg.T / cfg.num_steps * NORM_BOUND)
    counter = {"calls": 0, "matvecs": 0}
    make_form = aqc.convex_combination

    def counted_convex_combination(m0, m1):
        form = make_form(m0, m1)

        def counted_form(f, alpha):
            pairs = form(f, alpha)
            assert pairs.shape == (len(insts), 2, insts[0].dim, insts[0].dim)
            return counted_view(pairs, counter)
        return counted_form

    monkeypatch.setattr(aqc, "clenshaw_plan", plan_counting_runs(counter))
    monkeypatch.setattr(aqc, "convex_combination", counted_convex_combination)
    evolve_stack(insts)(cfg)
    assert counter["calls"] == cfg.num_steps
    # one np.matmul per term on the whole stack of pairs, a float64 stack
    # meeting the complex states through their float view
    products = cfg.num_steps * (coeffs.size - 1)
    assert counter["matvecs"] == products
    assert counter["products"] == ["matmul"] * products
    assert counter["dtypes"] == [(float, float)] * products


@pytest.mark.parametrize("form", ["positive-definite",
                                  "hermitian-indefinite", "general"])
def test_propagator_alpha_bounds_exact_pair_norms(form):
    # evolve takes alpha = NORM_BOUND from the instance's bound on ‖A‖
    # instead of computing a norm; the exact spectral norms must agree
    for seed in range(3):
        h0, h1, _ = dense_hamiltonians(gen_instance(4, 20.0, seed, form=form))
        assert np.linalg.norm(h0.mat, 2) <= NORM_BOUND
        assert np.linalg.norm(h1.mat, 2) <= NORM_BOUND


def test_evolve_observer_sees_every_step():
    inst = gen_instance(3, 10.0, 14)
    cfg = AqcConfig(T=1.0)
    seen = []
    out = evolve(inst, cfg, observer=lambda j, psi: seen.append((j, psi.copy())))
    assert [j for j, _ in seen] == list(range(cfg.num_steps + 1))
    assert np.array_equal(seen[0][1], dense_hamiltonians(inst)[2].amps)
    assert np.array_equal(seen[-1][1], out.amps)


def test_overlap_trace_endpoints():
    inst = gen_instance(3, 10.0, 4)
    record, pts = overlap_recorder(inst, AqcConfig(T=2.0), stride=10)
    final = evolve(inst, AqcConfig(T=2.0), observer=record).amps[:inst.dim]
    assert pts[0] == (0.0, pytest.approx(1.0, abs=1e-12))
    assert pts[-1][0] == 1.0
    assert 0.0 <= pts[-1][1] <= 1.0
    assert [s for s, _ in pts] == [j / 40 for j in range(0, 41, 10)]
    # the trace follows the evolution it observes
    x1 = path_vector(inst, schedule_p(1.0, inst.kappa, 1.5))
    assert pts[-1][1] == abs(np.vdot(x1, final))
    with pytest.raises(ValueError):
        overlap_recorder(gen_instance(3, 10.0, 4, form="general"),
                         AqcConfig(T=1.0))


def test_solver_postselect_reaches_eps():
    inst = gen_instance(3, 10.0, 5)
    rep = solve_aqc_filtered(inst, 1e-6)
    assert rep.method == "aqc"
    assert rep.final_fidelity >= 1.0 - 1e-6
    assert rep.attempts == 1
    assert rep.query_ledger["U_H1_filter"] == 2 * rep.params["ell"]
    assert "aqc_evolution_queries" in rep.formula_derived_costs


def test_solver_loose_eps_still_half_fidelity():
    inst = gen_instance(3, 10.0, 6)
    rep = solve_aqc_filtered(inst, 0.5)
    assert rep.params["ell"] <= 40
    assert rep.final_fidelity >= 0.5


def test_solver_handles_all_forms():
    for form in ("positive-definite", "hermitian-indefinite", "general"):
        inst = gen_instance(3, 10.0, 7, form=form)
        rep = solve_aqc_filtered(inst, 1e-8)
        assert rep.final_fidelity >= 1.0 - 1e-8, form


def test_solver_sampled_success_rate():
    # total success probability is Omega(1): one-shot empirical rate over
    # 200 seeded runs of one simulation (a run whose first attempt passes
    # every stage reports one attempt)
    [report] = aqc_run([gen_instance(3, 6.0, 8)], 1e-3)
    hits = 0
    for seed in range(200):
        rep = report("sample", seed)
        hits += rep.attempts == 1 and rep.final_fidelity >= 1.0 - 1e-3
    assert hits >= 0.25 * 200


def test_sampled_runs_are_seeded():
    inst = gen_instance(3, 10.0, 9)
    a = solve_aqc_filtered(inst, 1e-4, mode="sample", seed=11)
    b = solve_aqc_filtered(inst, 1e-4, mode="sample", seed=11)
    assert a.attempts == b.attempts
    assert a.final_fidelity == b.final_fidelity


def test_sampled_ledger_charges_filters_that_ran():
    # the dilated run's |+> acceptance fails in most attempts, before the
    # filter is applied; only attempts that got past it pay 2·ell
    inst = gen_instance(3, 6.0, 1, form="hermitian-indefinite")
    rep = solve_aqc_filtered(inst, 1e-3, mode="sample", seed=3)
    rng = np.random.default_rng(3)
    attempts = filtered = 0
    passed = False
    while not passed:
        attempts += 1
        for stage, p in enumerate(rep.success_probabilities):
            filtered += stage == 1
            if not rng.random() < p:
                break
        else:
            passed = True
    assert rep.attempts == attempts
    ell = rep.params["ell"]
    assert rep.query_ledger == {"U_H1_filter": 2 * ell * filtered,
                                "O_B": attempts}
    assert filtered < attempts


def test_hsim_formula_positive_and_growing():
    q10 = hsim_query_formula(3, 10.0)
    q100 = hsim_query_formula(3, 100.0)
    assert 0.0 < q10 < q100


@pytest.mark.parametrize("form", FORMS)
def test_seed_filter_is_apply_filter_on_h1_encoding(form):
    # the stage filters on the pair [B, B†]/d, B = A·Q_b, whose entries are
    # bitwise those of the shifted contraction (H1 - 0·I)/(d + 0) that
    # apply_filter forms from H1's encoding. BLAS sums the pair's N-long
    # rows and the dense 2N-long rows in different orders, so success and
    # state agree to a few ulps, not bitwise
    inst = extend_general(gen_instance(3, 6.0, 1, form))
    filt, gap, [target] = seed_filter([inst])
    enc, raw_gap = make_h1_encoding(inst), gap_lower_bound(inst, 1.0)
    assert gap == transformed_gap(enc, 0.0, raw_gap)
    assert np.array_equal(target.amps[:inst.dim], solution_state(inst).amps)
    assert not target.amps[inst.dim:].any()
    seeded = evolve(inst, AqcConfig(T=0.2 * inst.kappa))
    if form != "positive-definite":
        seeded, _ = aqc._dilated_to_twoblock(seeded, inst.n)
    rng = np.random.default_rng(2)
    real = rng.normal(size=2 * inst.dim)
    states = [seeded, StateRegister(real / np.linalg.norm(real), 1, inst.n)]
    for psi in states:
        for ell in (1, 4, 17, 60):
            [got] = filt(ell, [psi])
            want = apply_filter(enc, 0.0, ell, psi, gap=raw_gap)
            assert (abs(got.success_probability - want.success_probability)
                    <= 4 * np.finfo(float).eps)
            assert (np.max(np.abs(got.post_state.amps - want.post_state.amps))
                    <= 4 * np.finfo(float).eps)


@pytest.mark.parametrize("make", [
    *(lambda form=form: extend_general(gen_instance(3, 6.0, 1, form))
      for form in FORMS),
    *(lambda n=n, seed=seed: planted_tridiag_instance(n, 16.0, seed)
      for n in (5, 6, 7) for seed in (0, 7)),
], ids=[*FORMS, *(f"planted{n}-s{seed}" for n in (5, 6, 7) for seed in (0, 7))])
def test_seed_filter_matches_svd_oracle(make):
    # with B̃ = A·Q_b/d = UΣV†, an even polynomial of σ₊⊗B̃ + σ₋⊗B̃† maps
    # [a; c] to [U·p(Σ)·U†a; V·p(Σ)·V†c] (the singular-value picture of
    # QSVT): the seed filter is R_ℓ at the singular values of B̃, on the
    # adiabatic seed at the solver's ℓ and on a real state at fixed ells
    inst = make()
    filt, gap, _ = seed_filter([inst])
    u, sv, vh = np.linalg.svd(inst.A.mat @ qb_matrix(inst.b) / inst.d)
    seeded = evolve(inst, AqcConfig(T=0.2 * inst.kappa))
    if inst.form != "positive-definite":
        seeded, _ = aqc._dilated_to_twoblock(seeded, inst.n)
    rng = np.random.default_rng(2)
    real = rng.normal(size=2 * inst.dim)
    solver_ell = solve_aqc_filtered(inst, 1e-6).params["ell"]
    cases = [(seeded, ell) for ell in (1, 17, solver_ell)]
    cases += [(StateRegister(real / np.linalg.norm(real), 1, inst.n), ell)
              for ell in (4, 60)]
    for psi, ell in cases:
        r = filter_eval(FilterSpec(ell, gap), sv)
        top, bottom = np.split(psi.amps, 2)
        out = np.concatenate([u @ (r * (u.conj().T @ top)),
                              vh.conj().T @ (r * (vh @ bottom))])
        [got] = filt(ell, [psi])
        assert abs(got.success_probability - np.linalg.norm(out) ** 2) <= 1e-12
        assert np.max(np.abs(got.post_state.amps
                             - out / np.linalg.norm(out))) <= 1e-12


def test_solvers_and_sweeps_build_no_encoding_and_run_no_guard(monkeypatch):
    # the seeded filter, the inversion baseline and the sweeps work on
    # contractions the instance bounds at entry: no 2N×2N encoding is built,
    # and no spectral-norm guard runs
    built, guarded = [], []
    post_init = blockenc.BlockEncoding.__post_init__
    norm_bound = numerics.spectral_norm_bound

    def counted_init(self):
        built.append(self)
        post_init(self)

    def counted_bound(*args):
        guarded.append(args)
        return norm_bound(*args)

    monkeypatch.setattr(blockenc.BlockEncoding, "__post_init__", counted_init)
    monkeypatch.setattr(numerics, "spectral_norm_bound", counted_bound)
    inst = gen_instance(3, 6.0, 1)
    make_h1_encoding(inst)
    numerics.check_contraction(inst.A.mat)
    assert (len(built), len(guarded)) == (1, 1)  # the counters see both
    for form in FORMS:
        inst = gen_instance(3, 6.0, 1, form)
        for mode, seed in (("postselect", None), ("sample", 3)):
            solve_aqc_filtered(inst, 1e-6, mode=mode, seed=seed)
        solve_qsp_direct(inst, 1e-6)
    experiment_fidelity_vs_ell(kappas=(10.0,), seeds=1, n=3)
    experiment_ell_vs_kappa(kappas=(10.0, 20.0), seeds=1, n=3)
    experiment_kappa_scaling(kappas=(4.0, 8.0), seeds=1, n=3)
    assert (len(built), len(guarded)) == (1, 1)


@pytest.mark.parametrize("form, n", [(form, 3) for form in FORMS]
                         + [("planted", n) for n in range(2, 8)])
def test_solver_contractions_need_no_guard(monkeypatch, counted_view, form, n):
    # the seed's filter runs on H1/d, as the pair [B, B†]/d with B = A·Q_b,
    # and the baseline on A/d without a norm guard: ‖B‖ <= ‖A‖ <= NORM_BOUND
    # at entry and d >= 1, and the exact norms agree. The filter reaches the
    # kernel through numerics.clenshaw (the evolution binds it by name) and
    # the baseline through its own name
    inst = (planted_tridiag_instance(n, 16.0, 0) if form == "planted"
            else gen_instance(n, 6.0, 1, form))
    seen, counter = [], {"matvecs": 0}
    for module in (numerics, baseline):
        recurrence = module.clenshaw

        def recorded(c, ops, vec, recurrence=recurrence):
            seen.append(np.array(ops))
            return recurrence(c, counted_view(ops, counter), vec)

        monkeypatch.setattr(module, "clenshaw", recorded)
    aqc_report = solve_aqc_filtered(inst, 1e-6)
    qsp_report = solve_qsp_direct(inst, 1e-6)
    dim = extend_general(inst).dim
    pair, a = seen
    assert (pair.shape, a.shape) == ((2, dim, dim), (dim, dim))
    assert np.array_equal(pair[1], pair[0].conj().T)
    for m in (*pair, a):
        assert np.linalg.norm(m, 2) <= 1.0 + 1e-10
    # the recorded matrices are the ones applied, once per ledgered query
    assert counter["matvecs"] == (aqc_report.query_ledger["U_H1_filter"]
                                  + qsp_report.query_ledger["U_A"])
