"""Instance families, fit diagnostics, and small sweep smokes."""

import math

import numpy as np
import pytest

from eigenfilter import aqc, harness
from eigenfilter.aqc import (SCHEDULE_POWER, TIME_FACTOR, AqcConfig, evolve,
                             evolve_stack, seed_filter)
from eigenfilter.harness import (
    CALIBRATION_FACTORS,
    DEFAULT_ELL_FRACTIONS,
    FIT_FLOOR,
    calibrate_time_factor,
    experiment_ell_vs_kappa,
    experiment_fidelity_vs_ell,
    experiment_kappa_scaling,
    gen_instance,
    linear_fit,
    planted_hermitian,
    planted_tridiag_instance,
    zeno_log_factor,
)
from eigenfilter.numerics import fidelity
from eigenfilter.qlsp import solution_state
from eigenfilter.zeno import zeno_params


def test_gen_instance_spectrum_and_determinism():
    inst = gen_instance(6, 10.0, 7)
    w = np.linalg.eigvalsh(inst.A.mat)
    assert abs(w[-1] - 1.0) <= 1e-9
    assert w[0] >= 1.0 / 10.0 - 1e-9
    assert 9.5 <= w[-1] / w[0] <= 10.5
    again = gen_instance(6, 10.0, 7)
    assert np.array_equal(inst.A.mat, again.A.mat)
    assert np.array_equal(inst.b.amps, again.b.amps)


def test_gen_instance_tridiagonal_structure():
    inst = gen_instance(4, 8.0, 3)
    A = inst.A.mat
    assert inst.d == 3
    assert inst.form == "positive-definite"
    assert np.array_equal(A, A.T)
    assert np.all(np.diag(A) > 0.0)
    assert np.all(np.diag(A, 1) <= 0.0)
    for k in range(2, A.shape[0]):
        assert not np.any(np.diag(A, k))


def test_gen_instance_variant_forms_share_singular_values():
    base = gen_instance(4, 8.0, 3)
    ref = np.linalg.eigvalsh(base.A.mat)

    indef = gen_instance(4, 8.0, 3, form="hermitian-indefinite")
    w = np.linalg.eigvalsh(indef.A.mat)
    assert indef.d == base.dim
    assert np.sum(w < 0.0) == base.dim // 2
    assert np.allclose(np.sort(np.abs(w)), ref, atol=1e-9)

    gen = gen_instance(4, 8.0, 3, form="general")
    assert gen.d == base.dim
    assert not gen.A.hermitian
    sv = np.linalg.svd(gen.A.mat, compute_uv=False)
    assert np.allclose(np.sort(sv), ref, atol=1e-9)

    # the right-hand state is drawn before the form branch
    assert np.array_equal(indef.b.amps, base.b.amps)
    assert np.array_equal(gen.b.amps, base.b.amps)


def test_gen_instance_validation():
    with pytest.raises(ValueError):
        gen_instance(1, 10.0, 0)
    with pytest.raises(ValueError):
        gen_instance(13, 10.0, 0)
    with pytest.raises(ValueError):
        gen_instance(3, 1.0, 0)
    with pytest.raises(ValueError):
        gen_instance(3, 10.0, 0, form="bogus")


@pytest.mark.parametrize("experiment", [
    experiment_fidelity_vs_ell, experiment_ell_vs_kappa, experiment_kappa_scaling])
def test_experiments_need_a_seed(experiment):
    with pytest.raises(ValueError, match="at least one seed"):
        experiment(seeds=0)


def test_planted_hermitian_exact_distances():
    lam, alpha, gap = 0.1, 2.0, 0.2
    op, proj, evs = planted_hermitian(4, gap, 0, lam=lam, alpha=alpha)
    scale = alpha + abs(lam)
    rel = np.abs(evs[1:] - lam) / scale
    assert np.min(rel) == pytest.approx(gap, abs=1e-12)
    assert np.all(rel >= gap - 1e-12)
    # one eigenvalue lands exactly at distance gap on each feasible side
    signed = (evs[1:] - lam) / scale
    assert np.min(np.abs(signed - gap)) <= 1e-12
    assert np.min(np.abs(signed + gap)) <= 1e-12
    assert np.max(np.abs(evs)) <= alpha + 1e-12

    assert np.trace(proj) == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(proj @ proj, proj, atol=1e-9)
    assert np.allclose(op.mat @ proj, lam * proj, atol=1e-9)


def test_planted_hermitian_multiplicity_and_one_sided():
    op, proj, evs = planted_hermitian(3, 0.3, 1, multiplicity=3)
    assert np.trace(proj) == pytest.approx(3.0, abs=1e-9)
    assert np.allclose(op.mat @ proj, 0.0, atol=1e-9)
    assert np.sum(np.abs(evs) < 1e-12) == 3

    # gap too wide for the upper side: everything is planted below lam
    _, _, evs = planted_hermitian(3, 0.9, 2, lam=0.5, alpha=1.0)
    assert np.all(evs[1:] < 0.5)


def test_planted_hermitian_validation():
    with pytest.raises(ValueError):
        planted_hermitian(3, 1.0, 0)
    with pytest.raises(ValueError):
        planted_hermitian(3, 0.2, 0, lam=1.5, alpha=1.0)
    with pytest.raises(ValueError):
        planted_hermitian(2, 0.2, 0, multiplicity=4)


def test_planted_tridiag_pinned_spectrum():
    inst = planted_tridiag_instance(5, 16.0, 2)
    A = inst.A.mat
    w = np.linalg.eigvalsh(A)
    assert w[0] == pytest.approx(1.0 / 16.0, abs=1e-9)
    assert w[-1] == pytest.approx(1.0, abs=1e-9)
    assert w[-1] / w[0] == pytest.approx(16.0, rel=1e-6)
    assert inst.d == 3
    assert inst.b.amps[0] == 1.0 and not np.any(inst.b.amps[1:])
    assert np.array_equal(A, A.T)
    for k in range(2, A.shape[0]):
        assert not np.any(np.diag(A, k))
    again = planted_tridiag_instance(5, 16.0, 2)
    assert np.array_equal(A, again.A.mat)
    with pytest.raises(ValueError):
        planted_tridiag_instance(5, 1.0, 0)


def test_linear_fit_recovers_exact_line():
    x = np.arange(6.0)
    fit = linear_fit(x, 2.0 * x + 1.0)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(1.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    noisy = linear_fit(x, 2.0 * x + np.array([0.0, 0.5, -0.5, 0.3, -0.3, 0.1]))
    assert noisy.r2 < 1.0

    flat = linear_fit(x, np.ones_like(x))
    assert flat.r2 == 1.0

    with pytest.raises(ValueError):
        linear_fit([1.0], [2.0])
    with pytest.raises(ValueError):
        linear_fit([1.0, 2.0], [1.0, 2.0, 3.0])


def test_zeno_log_factor_matches_parameters():
    params = zeno_params(10.0, 1e-6)
    want = math.log(2.0 / params.eps_p) * params.M / math.log(10.0)
    assert zeno_log_factor(10.0, 1e-6) == pytest.approx(want, rel=1e-12)


def test_calibrate_time_factor_walks_the_grid():
    factor = calibrate_time_factor(4.0)
    assert factor in CALIBRATION_FACTORS
    assert factor == 0.1
    assert calibrate_time_factor(4.0) == factor


def test_calibrate_time_factor_picks_the_sweep_factors():
    got = {kappa: calibrate_time_factor(float(kappa)) for kappa in (4, 8, 16)}
    assert got == {4: 0.1, 8: 0.8, 16: 1.0}


@pytest.mark.parametrize("kappa", [4.0, 8.0, 16.0])
def test_calibration_stack_rows_are_bitwise_evolve(kappa):
    # the calibration's own instances, evolved as one stack
    insts = [planted_tridiag_instance(5, kappa, seed) for seed in range(3)]
    run = evolve_stack(insts)
    for factor in (0.1, 0.5, 1.0):
        cfg = AqcConfig(T=factor * kappa)
        for row, inst in zip(run(cfg), insts):
            assert row.amps.tobytes() == evolve(inst, cfg).amps.tobytes()


def test_calibrate_time_factor_builds_no_filter_stage(monkeypatch):
    # aqc.seed_filter builds H1's blocks from Q_b through aqc's qb_matrix;
    # the evolution takes its blocks from qlsp.hamiltonian_blocks
    def no_h1(*args):
        raise AssertionError("calibration built H1")

    monkeypatch.setattr(aqc, "qb_matrix", no_h1)
    assert calibrate_time_factor(4.0) == 0.1


def test_calibrate_time_factor_builds_each_instance_once(monkeypatch):
    kappa = 8.0

    def rebuilt_per_factor():
        for factor in CALIBRATION_FACTORS:
            cfg = AqcConfig(T=factor * kappa, p=1.5)
            gams = []
            for seed in range(harness.CALIBRATION_SEEDS):
                inst = planted_tridiag_instance(harness.CALIBRATION_N, kappa, seed)
                x = np.concatenate([solution_state(inst).amps,
                                    np.zeros(inst.dim)])
                gams.append(abs(np.vdot(x, evolve(inst, cfg).amps)))
            if float(np.mean(gams)) >= 0.9:
                return factor
        return CALIBRATION_FACTORS[-1]

    want = rebuilt_per_factor()
    calls = []

    def counted(*args):
        calls.append(args)
        return planted_tridiag_instance(*args)

    monkeypatch.setattr(harness, "planted_tridiag_instance", counted)
    assert calibrate_time_factor(kappa) == want
    assert want != CALIBRATION_FACTORS[0]
    assert len(calls) == harness.CALIBRATION_SEEDS


def test_fidelity_vs_ell_small_sweep_is_monotone():
    result = experiment_fidelity_vs_ell(kappas=(6.0,),
                                        ell_fractions=(0.0, 2.0, 4.0),
                                        seeds=2, n=3)
    assert result.name == "fidelity-vs-ell"
    assert result.columns == ["kappa", "ell", "seed", "eta"]
    ells = sorted({row[1] for row in result.rows})
    assert len(result.rows) == 2 * len(ells)
    means = [np.mean([r[3] for r in result.rows if r[1] == ell])
             for ell in ells]
    for lo, hi in zip(means, means[1:]):
        assert hi >= lo - 1e-10
    per = result.diagnostics["per_kappa"]["6.0"]
    assert 0.0 < per["initial_fidelity"] <= 1.0
    assert per["initial_fidelity_squared"] <= per["initial_fidelity"]


def test_ell_vs_kappa_small_sweep_is_monotone_in_target():
    result = experiment_ell_vs_kappa(etas=(0.5, 0.9), kappas=(4.0, 8.0),
                                     seeds=2, n=3)
    assert result.name == "ell-vs-kappa"
    assert result.columns == ["kappa", "eta_target", "ell_star"]
    assert len(result.rows) == 4
    by_kappa = {}
    for kappa, target, star in result.rows:
        by_kappa.setdefault(kappa, {})[target] = star
    for stars in by_kappa.values():
        assert stars[0.9] >= stars[0.5]
    assert "0.9" in result.diagnostics["per_target"]


def _per_seed(kappa, seeds, n):
    # (filt, seed state, target) per seed, each evolved and filtered alone
    prepared = []
    for seed in range(seeds):
        inst = gen_instance(n, kappa, seed)
        filt, _, [target] = seed_filter([inst])
        psi = evolve(inst, AqcConfig(T=TIME_FACTOR * inst.kappa))
        prepared.append((lambda ell, psi, filt=filt: filt(ell, [psi])[0],
                         psi, target))
    return prepared


def _fidelity_vs_ell_per_seed(kappas, seeds, n):
    # the per-seed reference of experiment_fidelity_vs_ell
    rows, per_kappa, init_all = [], {}, []
    for kappa in kappas:
        ells = sorted({int(math.ceil(f * kappa)) for f in DEFAULT_ELL_FRACTIONS})
        etas = np.zeros((seeds, len(ells)))
        init_k = []
        for seed, (filt, psi, target) in enumerate(_per_seed(kappa, seeds, n)):
            init_k.append(fidelity(target, psi))
            for j, ell in enumerate(ells):
                eta = fidelity(target, filt(ell, psi).post_state if ell else psi)
                etas[seed, j] = eta
                rows.append((kappa, ell, seed, eta))
        mean_eta = etas.mean(axis=0)
        mask = (1.0 - mean_eta) > FIT_FLOOR
        fit = linear_fit(np.asarray(ells)[mask], np.log(1.0 - mean_eta[mask]))
        init = np.asarray(init_k)
        init_all.extend(init_k)
        per_kappa[str(kappa)] = {
            "slope": fit.slope, "r2": fit.r2, "fit_points": int(mask.sum()),
            "initial_fidelity": float(init.mean()),
            "initial_fidelity_squared": float((init ** 2).mean()),
        }
    init = np.asarray(init_all)
    return rows, {
        "per_kappa": per_kappa,
        "initial_fidelity_mean": float(init.mean()),
        "initial_fidelity_squared_mean": float((init ** 2).mean()),
        "T_factor": TIME_FACTOR, "schedule_power": SCHEDULE_POWER,
        "n": n, "seeds": seeds,
    }


def _ell_vs_kappa_per_seed(kappas, seeds, n, targets=(0.9, 0.99)):
    # the per-seed reference of experiment_ell_vs_kappa
    rows, stars = [], {t: [] for t in targets}
    for kappa in kappas:
        prepared = _per_seed(kappa, seeds, n)
        cache = {}

        def mean_eta(ell):
            if ell not in cache:
                cache[ell] = float(np.mean([
                    fidelity(target, filt(ell, psi).post_state if ell else psi)
                    for filt, psi, target in prepared]))
            return cache[ell]

        for t in targets:
            if mean_eta(0) >= t:
                star = 0
            else:
                hi = max(8, int(math.ceil(kappa / 2)))
                while mean_eta(hi) < t:
                    hi *= 2
                lo = 0
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if mean_eta(mid) >= t:
                        hi = mid
                    else:
                        lo = mid
                star = hi
            stars[t].append(star)
            rows.append((kappa, t, star))
    diagnostics = {"per_target": {}, "n": n, "seeds": seeds,
                   "T_factor": TIME_FACTOR, "schedule_power": SCHEDULE_POWER}
    for t in targets:
        ys = stars[t]
        fit = linear_fit(kappas, ys)
        diagnostics["per_target"][str(t)] = {
            "slope": fit.slope, "intercept": fit.intercept, "r2": fit.r2,
            "doubling_ratios": [ys[i + 1] / ys[i] for i in range(len(ys) - 1)
                                if ys[i] > 0],
        }
    return rows, diagnostics


# 9 seeds: numpy's mean over 8 or more contiguous values sums pairwise, so
# a seed-mean taken along the wrong memory axis changes its last bits
@pytest.mark.parametrize("seeds", [3, 9])
@pytest.mark.parametrize("experiment, reference", [
    (experiment_fidelity_vs_ell, _fidelity_vs_ell_per_seed),
    (experiment_ell_vs_kappa, _ell_vs_kappa_per_seed),
], ids=["fidelity-vs-ell", "ell-vs-kappa"])
def test_fig_a2_sweeps_equal_the_per_seed_loop(experiment, reference, seeds):
    # each kappa's seeds evolve as one stack and each degree filters them
    # as one; repr keeps every float's bits in the comparison
    kappas, n = (10.0, 20.0), 4
    result = experiment(kappas=kappas, seeds=seeds, n=n)
    rows, diagnostics = reference(kappas, seeds, n)
    assert repr(result.rows) == repr(rows)
    assert repr(result.diagnostics) == repr(diagnostics)


def test_kappa_scaling_smoke():
    result = experiment_kappa_scaling(kappas=(4.0, 8.0), seeds=1, n=4,
                                      eps=1e-3)
    assert result.name == "kappa-scaling"
    assert result.columns == ["method", "kappa", "seed", "expected_queries"]
    assert len(result.rows) == 6
    diag = result.diagnostics
    for method in ("qsp-direct", "aqc", "zeno", "zeno-deflated"):
        assert method in diag["slopes"]
        assert method in diag["r2"]
    for method in ("qsp-direct", "aqc", "zeno"):
        q4 = diag["mean_queries"][method]["4.0"]
        q8 = diag["mean_queries"][method]["8.0"]
        assert 0.0 < q4 < q8
