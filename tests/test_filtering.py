"""Filter and reflection transforms against the oracle."""

import numpy as np
import pytest

from eigenfilter import aqc, baseline, numerics
from eigenfilter.aqc import aqc_run, solve_aqc_filtered
from eigenfilter.baseline import qsp_run, solve_qsp_direct
from eigenfilter.blockenc import encode
from eigenfilter.chebpoly import (BOUND_GAP_CAP, FilterSpec, filter_eval,
                                  reflection_eval)
from eigenfilter.filtering import (
    MAX_ATTEMPTS,
    apply_filter,
    measure_ancilla,
    prepend_ancilla,
    projector_error,
    reflection_apply,
    sample_restarts,
    sampled,
    transformed_gap,
)
from eigenfilter.harness import (gen_instance, planted_hermitian,
                                 planted_tridiag_instance)
from eigenfilter.numerics import StateRegister, eig_hermitian, fidelity
from eigenfilter.qlsp import FORMS, extend_general, make_h1_encoding
from eigenfilter.zeno import solve_zeno, zeno_run

from conftest import counted


def planted(n=4, gap=0.25, seed=0, lam=0.1, alpha=2.0):
    op, projector, _ = planted_hermitian(n, gap, seed, lam=lam, alpha=alpha)
    return encode(op, alpha=alpha), projector


def trial_state(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    n = max(dim - 1, 0).bit_length()
    return StateRegister(v / np.linalg.norm(v), 0, n)


def test_transformed_gap_measures_and_caps():
    # planted gap is already in transformed units |mu - lam|/(alpha + |lam|)
    enc, _ = planted(gap=0.25, lam=0.1, alpha=2.0)
    assert transformed_gap(enc, 0.1) == pytest.approx(0.25, abs=1e-12)
    assert transformed_gap(enc, 0.1, gap=10.0) == BOUND_GAP_CAP


def test_transformed_gap_rejects_non_eigenvalue():
    enc, _ = planted()
    with pytest.raises(ValueError):
        transformed_gap(enc, 0.77)


def test_projector_error_within_filter_bound():
    enc, _ = planted(gap=0.2, lam=0.05)
    for ell in (8, 16, 32):
        spec = FilterSpec(ell, transformed_gap(enc, 0.05))
        assert projector_error(enc, 0.05, ell) <= spec.error_bound


def test_apply_filter_converges_to_projection():
    enc, projector = planted(n=4, gap=0.25, seed=1, lam=0.1)
    psi = trial_state(16, 2)
    target = projector @ psi.amps
    target = StateRegister(target / np.linalg.norm(target), 0, 4)
    out = apply_filter(enc, 0.1, 40, psi)
    assert fidelity(out.post_state, target) >= 1.0 - 1e-10
    # success probability approaches the squared overlap with the eigenspace
    assert out.success_probability == pytest.approx(
        float(np.linalg.norm(projector @ psi.amps) ** 2), abs=1e-6)


def test_apply_filter_fidelity_improves_with_ell():
    enc, projector = planted(n=3, gap=0.2, seed=3, lam=0.0)
    psi = trial_state(8, 4)
    target = projector @ psi.amps
    target = StateRegister(target / np.linalg.norm(target), 0, 3)
    errs = []
    for ell in (2, 10, 60):
        out = apply_filter(enc, 0.0, ell, psi)
        errs.append(1.0 - fidelity(out.post_state, target))
    assert errs[0] >= errs[1] >= errs[2]
    assert errs[2] <= 1e-9


def test_apply_filter_sample_mode_is_seeded():
    # the projection is deterministic; a sampled run draws its coin against
    # the recorded probability, so one seed gives one restart count
    enc, _ = planted(n=3, gap=0.2, seed=5, lam=0.0)
    psi = trial_state(8, 6)
    a = apply_filter(enc, 0.0, 4, psi)
    b = apply_filter(enc, 0.0, 4, psi)
    assert np.array_equal(a.post_state.amps, b.post_state.amps)
    p = [a.success_probability]
    runs = [sample_restarts(p, np.random.default_rng(9), 10_000)
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0][0] >= 1


def test_apply_filter_starves_orthogonal_start():
    # a start with no eigenspace component keeps only the residual |R| <= bound
    enc, projector = planted(n=3, gap=0.25, seed=7, lam=0.1)
    psi = trial_state(8, 8)
    ortho = psi.amps - projector @ psi.amps
    psi0 = StateRegister(ortho / np.linalg.norm(ortho), 0, 3)
    out = apply_filter(enc, 0.1, 12, psi0)
    spec = FilterSpec(12, transformed_gap(enc, 0.1))
    assert out.success_probability <= spec.error_bound ** 2 * (1 + 1e-9)


def test_reflection_matches_spectral_oracle():
    enc, projector = planted(n=4, gap=0.25, seed=10, lam=0.1)
    psi = trial_state(16, 11)
    out = reflection_apply(enc, 0.1, 30, psi)
    want = (2.0 * projector - np.eye(16)) @ psi.amps
    got = out.post_state.amps * np.sqrt(out.success_probability)
    spec = FilterSpec(30, transformed_gap(enc, 0.1))
    assert np.linalg.norm(got - want) <= 4.0 * spec.error_bound


def test_prepend_ancilla_is_the_layout_measure_ancilla_reads():
    u = np.array([0.6, 0.0, 0.0, 0.8j])
    state = prepend_ancilla(u)
    assert (state.ancilla, state.system) == (1, 2)
    assert np.array_equal(state.amps, np.concatenate([u, np.zeros(4)]))
    out = measure_ancilla(state)
    assert out.success_probability == 1.0
    assert np.array_equal(out.post_state.amps, state.amps)


def test_measure_ancilla_postselect_and_sample():
    amps = np.array([0.6, 0.0, 0.8, 0.0])
    state = StateRegister(amps, 1, 1)
    out = measure_ancilla(state)
    assert out.success_probability == pytest.approx(0.36)
    assert np.allclose(out.post_state.amps, [1.0, 0.0, 0.0, 0.0])
    # seed 0 draws 0.637 then 0.270: one rejection, then acceptance at 0.36
    assert sample_restarts([out.success_probability],
                           np.random.default_rng(0), 10) == [2]
    with pytest.raises(ValueError):
        measure_ancilla(StateRegister(np.ones(2) / np.sqrt(2), 0, 1))


def _replay(probs, seed):
    # reference: a stage counter walked over one pre-drawn stream of coins
    coins = np.random.default_rng(seed).random(100_000)
    reached = [0] * len(probs)
    stage = 0
    for u in coins:
        reached[stage] += 1
        stage = stage + 1 if u < probs[stage] else 0
        if stage == len(probs):
            return reached
    raise AssertionError("coin stream exhausted")


@pytest.mark.parametrize("probs", [[0.5], [0.9, 0.3, 0.8],
                                   [0.2, 1.0, 0.6, 0.95]])
def test_sample_restarts_reach_counts(probs):
    for seed in range(20):
        reached = sample_restarts(probs, np.random.default_rng(seed), 10_000)
        assert reached == _replay(probs, seed)
        # entry 0 counts the attempts; later stages are reached no more often
        assert all(a >= b >= 1 for a, b in zip(reached, reached[1:]))
    certain = sample_restarts([1.0, 1.0, 1.0], np.random.default_rng(0), 1)
    assert certain == [1, 1, 1]


def test_sample_restarts_is_seeded():
    probs = [0.4, 0.7]
    runs = {tuple(sample_restarts(probs, np.random.default_rng(5), 10_000))
            for _ in range(3)}
    assert len(runs) == 1
    draws = {tuple(sample_restarts(probs, np.random.default_rng(s), 10_000))
             for s in range(10)}
    assert len(draws) > 1


def test_sample_restarts_enforces_max_attempts():
    probs = [0.3, 0.5]
    need = sample_restarts(probs, np.random.default_rng(4), 10_000)[0]
    assert need >= 2
    assert sample_restarts(probs, np.random.default_rng(4), need)[0] == need
    short = need - 1
    with pytest.raises(RuntimeError, match=f"no success within {short} attempts"):
        sample_restarts(probs, np.random.default_rng(4), short)
    with pytest.raises(RuntimeError, match="no success within 5 attempts"):
        sample_restarts([0.0], np.random.default_rng(0), 5)


@pytest.mark.parametrize("stages", [
    [(0.5, 3)],
    [(0.9, 10), (0.3, 0), (0.8, 7)],
    [(0.2, 1), (1.0, 2), (0.6, 0), (0.95, 5)],
])
def test_sampled_charges_each_stage_once_per_reach(stages):
    probs = [p for p, _ in stages]
    fields = {"method": "m", "params": {"k": 1}, "final_fidelity": 1.0}
    for seed in range(10):
        reached = sample_restarts(probs, np.random.default_rng(seed),
                                  MAX_ATTEMPTS)
        rep = sampled(stages, "Q", "sample", seed, **fields)
        charged = sum(q * r for (_, q), r in zip(stages, reached))
        assert rep.query_ledger == {"Q": charged, "O_B": reached[0]}
        assert rep.attempts == reached[0]
        assert rep.params == {"k": 1, "mode": "sample", "seed": seed}
        assert list(rep.params)[-2:] == ["mode", "seed"]
    rep = sampled(stages, "Q", "postselect", None, **fields)
    assert rep.query_ledger == {"Q": sum(q for _, q in stages), "O_B": 1}
    assert rep.attempts == 1
    assert rep.params == {"k": 1, "mode": "postselect", "seed": None}
    assert fields["params"] == {"k": 1}


def test_sampled_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        sampled([(1.0, 1)], "Q", "bogus", None, method="m", params={},
                final_fidelity=1.0)


@pytest.fixture
def product_counter(monkeypatch):
    """Count every operator product of numerics.clenshaw, under each name
    the solvers call it by (the filters, the baseline), and of the runs of
    the evolution's numerics.clenshaw_plan."""
    counter = {"matvecs": 0}
    recurrence, make_plan = numerics.clenshaw, numerics.clenshaw_plan

    def counted_recurrence(c, ops, vec):
        return recurrence(c, counted(ops, counter), vec)

    def counted_plan(c, ops, vec):
        run = make_plan(c, ops, vec)
        return lambda ops2, vec: run(counted(ops2, counter), vec)

    for module in (numerics, baseline):
        monkeypatch.setattr(module, "clenshaw", counted_recurrence)
    monkeypatch.setattr(aqc, "clenshaw_plan", counted_plan)
    return counter


RUNS = {
    "zeno": (lambda inst: zeno_run([inst], 1e-6)[0][0],
             lambda inst, s: solve_zeno(inst, 1e-6, "sample", s)[0]),
    "aqc": (lambda inst: aqc_run([inst], 1e-6)[0],
            lambda inst, s: solve_aqc_filtered(inst, 1e-6, mode="sample",
                                               seed=s)),
    "qsp-direct": (lambda inst: qsp_run([inst], 1e-6)[0],
                   lambda inst, s: solve_qsp_direct(inst, 1e-6, "sample", s)),
}


@pytest.mark.parametrize("method", sorted(RUNS))
def test_one_run_samples_ten_seeds_for_one_simulation(method, product_counter):
    run, solve = RUNS[method]
    inst = gen_instance(3, 10.0, 5)
    report = run(inst)
    simulated = product_counter["matvecs"]
    assert simulated > 0
    seeds = (*range(9), 159)  # the walk restarts at seed 159 only
    reports = [report("sample", s) for s in seeds]
    assert product_counter["matvecs"] == simulated
    for s, rep in zip(seeds, reports):
        assert rep.to_dict() == solve(inst, s).to_dict()
    # each fresh solve simulates the run again, at the same cost
    assert product_counter["matvecs"] == 11 * simulated


# The spectral-oracle rows: every form of gen_instance at n = 2-4, and the
# planted tridiagonal instances of the benchmark at n = 5-7, seeds 0 and 7.
ORACLE_INSTANCES = [
    *[(gen_instance, (n, 6.0, 1, form)) for form in FORMS for n in (2, 3, 4)],
    *[(planted_tridiag_instance, (n, 16.0, s)) for n in (5, 6, 7) for s in (0, 7)],
]
ORACLE_IDS = [f"{make.__name__}{args}" for make, args in ORACLE_INSTANCES]


@pytest.mark.parametrize("make, args", ORACLE_INSTANCES, ids=ORACLE_IDS)
def test_filter_and_reflection_match_their_values_at_the_eigenvalues(make, args):
    # apply_filter is R_ℓ and reflection_apply is S_ℓ at the eigenvalues of
    # H̃ = (H - λI)/(alpha + |λ|), H = H1 of the Hermitian picture, through
    # its eigendecomposition: to 1e-12 on the success probability and on
    # every amplitude of the state, at λ = 0 (the null space) and at the top
    # eigenvalue, on a complex trial state
    enc = make_h1_encoding(extend_general(make(*args)))
    dec = eig_hermitian(enc.payload)
    vec = dec.eigenvectors
    psi = trial_state(enc.payload.dim, 5)
    coef = vec.conj().T @ psi.amps
    for lam in (0.0, float(dec.eigenvalues[-1])):
        x = (dec.eigenvalues - lam) / (enc.alpha + abs(lam))
        spec = FilterSpec(12, transformed_gap(enc, lam))
        for apply, value in ((apply_filter, filter_eval),
                             (reflection_apply, reflection_eval)):
            want = vec @ (value(spec, x) * coef)
            got = apply(enc, lam, 12, psi)
            assert abs(got.success_probability
                       - min(np.linalg.norm(want) ** 2, 1.0)) <= 1e-12
            assert np.max(np.abs(got.post_state.amps
                                 - want / np.linalg.norm(want))) <= 1e-12


@pytest.mark.parametrize("make, args", ORACLE_INSTANCES, ids=ORACLE_IDS)
def test_inversion_series_matches_its_values_at_the_eigenvalues(
        make, args, monkeypatch):
    # qsp_run applies its series p to |b⟩ through A/d of the Hermitian
    # picture (extend_general); the oracle is p at the eigenvalues of A/d:
    # to 1e-12 on every amplitude and on the success probability
    inst = make(*args)
    work = extend_general(inst)
    outs, kernel = [], baseline.clenshaw
    monkeypatch.setattr(baseline, "clenshaw",
                        lambda *a: outs.append(kernel(*a)) or outs[-1])
    [report] = qsp_run([inst], 1e-6)
    spec = baseline.build_inversion_poly(work.d * work.kappa, 1e-6,
                                         kappa=work.kappa)
    lam, vec = np.linalg.eigh(work.A.mat / work.d)
    want = vec @ (spec.series(lam) * (vec.conj().T @ work.b.amps))
    [got] = outs
    assert np.max(np.abs(got - want)) <= 1e-12
    p = report("postselect").success_probabilities[0]
    assert abs(p - np.linalg.norm(want) ** 2) <= 1e-12
