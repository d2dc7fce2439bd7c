"""Acceptance gate: ten numbered criteria, one printed line each.

Each test prints exactly one `PASS criterion N: ...` or `FAIL criterion N:`
line with its pinned tolerances (surfaced by the -rP report option) and
asserts the same condition.
"""

import math
import subprocess
import sys
import time

import numpy as np

from eigenfilter.blockenc import (
    encode,
    linear_combine,
    multiply,
    shift_add_identity,
    verify,
)
from eigenfilter.chebpoly import (
    BOUND_GAP_CAP,
    FilterSpec,
    gap_region_max,
    minimax_oracle,
    reflection_eval,
)
from eigenfilter.filtering import (
    projector_error,
    reflection_apply,
    transformed_gap,
)
from eigenfilter.harness import (
    experiment_ell_vs_kappa,
    experiment_fidelity_vs_ell,
    experiment_kappa_scaling,
    gen_instance,
    planted_hermitian,
)
from eigenfilter.numerics import StateRegister, eig_hermitian
from eigenfilter.qlsp import (eigenpath_bound_ratios, encoding_bookkeeping,
                             make_h1_encoding, make_hf)
from eigenfilter.zeno import (
    grid_spread,
    solve_zeno,
    validate_zeno_bounds,
    zeno_params,
    zeno_run,
)


def emit(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_filter_bound_is_strict():
    t0 = time.perf_counter()
    worst = 0.0
    strict = True
    for gap in (0.05, 0.1, 0.2, BOUND_GAP_CAP):
        for ell in (8, 16, 32, 64):
            spec = FilterSpec(ell, gap)
            got = gap_region_max(spec)
            worst = max(worst, got / spec.error_bound)
            strict = strict and got < spec.error_bound
    elapsed = time.perf_counter() - t0
    ok = strict and elapsed < 5.0
    emit(1, ok, f"sup|R| / 2exp(-sqrt(2) ell gap) <= {worst:.4f} < 1 strictly "
                f"over gap in {{0.05, 0.1, 0.2, 1/sqrt(12)}} x ell in "
                f"{{8, 16, 32, 64}}; runtime {elapsed:.2f}s < 5s")


def test_criterion_02_minimax_optimality():
    worst = 0.0
    for ell in (1, 2, 3, 4):
        for gap in (0.2, 0.5):
            oracle = minimax_oracle(ell, gap)
            spec = FilterSpec(ell, gap)
            grid = gap_region_max(spec, 20001)
            worst = max(worst, abs(oracle - grid))
    closed = abs(minimax_oracle(1, 0.5) - 0.6)
    ok = worst <= 1e-6 and closed <= 1e-9
    emit(2, ok, f"LP minimax oracle equals grid sup within {worst:.2e} <= 1e-6 "
                f"for ell in 1..4, gap in {{0.2, 0.5}}; ell=1 gap=0.5 value "
                f"within {closed:.2e} <= 1e-9 of the closed form 0.6")


def test_criterion_03_filter_projector_distance_on_64x64():
    lam, alpha, theta = 0.1, 2.0, 0.9
    worst_f = worst_r = worst_t = 0.0
    for gap in (0.05, 0.15, 0.3):
        for ell in (16, 48):
            for seed in (0, 1):
                op, proj, _ = planted_hermitian(6, gap, seed, lam=lam,
                                                alpha=alpha)
                enc = encode(op, alpha=alpha)
                gap_t = transformed_gap(enc, lam)
                bound = FilterSpec(ell, gap_t).error_bound
                worst_f = max(worst_f, projector_error(enc, lam, ell) / bound)

                dec = eig_hermitian(op.mat)
                shifted = (dec.eigenvalues - lam) / (alpha + abs(lam))
                inside = np.abs(dec.eigenvalues - lam) <= 1e-9
                rspec = FilterSpec(ell, gap_t)
                svals = np.array([reflection_eval(rspec, float(x))
                                  for x in shifted])
                r_dist = np.max(np.abs(svals - np.where(inside, 1.0, -1.0)))
                worst_r = max(worst_r, float(r_dist) / (4.0 * bound))

                tvals = np.exp(1j * theta / 2.0) * (
                    math.cos(theta / 2.0) - 1j * math.sin(theta / 2.0) * svals)
                t_target = np.where(inside, 1.0, np.exp(1j * theta))
                t_dist = float(np.max(np.abs(tvals - t_target)))
                worst_t = max(worst_t, t_dist / (8.0 * bound))

    # the applied (Clenshaw) route agrees with the spectral statement
    op, proj, _ = planted_hermitian(6, 0.15, 0, lam=lam, alpha=alpha)
    enc = encode(op, alpha=alpha)
    rng = np.random.default_rng(7)
    v = rng.normal(size=64)
    psi = StateRegister(v / np.linalg.norm(v), 0, 6)
    out = reflection_apply(enc, lam, 48, psi)
    got = out.post_state.amps * math.sqrt(out.success_probability)
    want = (2.0 * proj - np.eye(64)) @ psi.amps
    bound = FilterSpec(48, transformed_gap(enc, lam)).error_bound
    route = float(np.linalg.norm(got - want)) / (4.0 * bound)

    ok = worst_f <= 1.0 and worst_r <= 1.0 and worst_t <= 1.0 and route <= 1.0
    emit(3, ok, f"planted 64x64: ||R - P||/bound <= {worst_f:.3f} <= 1, "
                f"reflection distance / 4 bound <= {worst_r:.3f} <= 1, "
                f"theta-reflection / 8 bound <= {worst_t:.3f} <= 1 "
                f"(applied route ratio {route:.3f})")


def test_criterion_04_block_encoding_verification():
    worst = 0.0
    for n, seed in ((2, 0), (3, 1), (4, 2)):
        enc = encode(gen_instance(n, 5.0, seed).A, alpha=1.5)
        worst = max(worst, verify(enc))
        worst = max(worst, verify(shift_add_identity(enc, 0.35)))
    a = encode(gen_instance(2, 5.0, 3).A, alpha=1.25)
    b = encode(gen_instance(2, 7.0, 4).A, alpha=2.0)
    worst = max(worst, verify(multiply(a, b)))
    worst = max(worst, verify(linear_combine([a, b], (0.4, 1.1))))

    inst = gen_instance(3, 10.0, 0)
    encs = (make_h1_encoding(inst), make_hf(inst, 0.25))
    book = ([(e.alpha, e.ancilla) for e in encs]
            == list(encoding_bookkeeping(inst, 0.25)))
    ok = worst <= 1e-10 and book
    emit(4, ok, f"dilated shift/product/linear-combination block error "
                f"{worst:.2e} <= 1e-10 on payload dims 4..16; "
                f"(alpha, m) bookkeeping equals (d, n+4) and (1-f+f d, n+6) "
                f"exactly: {book}")


def test_criterion_05_seed_fidelity_sweep_defaults():
    t0 = time.perf_counter()
    result = experiment_fidelity_vs_ell()
    elapsed = time.perf_counter() - t0
    diag = result.diagnostics
    sq = diag["initial_fidelity_squared_mean"]
    un = diag["initial_fidelity_mean"]
    r2s = {k: v["r2"] for k, v in diag["per_kappa"].items()}
    ok = 0.45 <= sq <= 0.75 and min(r2s.values()) >= 0.95 and elapsed < 600.0
    emit(5, ok, f"T=0.2 kappa, p=1.5, N=64, 20 seeds: squared initial overlap "
                f"{sq:.3f} in [0.45, 0.75] (unsquared convention {un:.3f}); "
                f"log(1-eta) vs ell linear with R2 "
                f">= {min(r2s.values()):.4f} >= 0.95 for kappa in 10/50/100; "
                f"runtime {elapsed:.1f}s < 600s")


def test_criterion_06_degree_vs_kappa_linear():
    result = experiment_ell_vs_kappa()
    per = result.diagnostics["per_target"]["0.99"]
    ratios = [round(r, 2) for r in per["doubling_ratios"]]
    ok = per["r2"] >= 0.95 and per["slope"] > 0.0
    emit(6, ok, f"ell*(kappa, eta=0.99) over kappa in 10/20/40/80: linear fit "
                f"R2 {per['r2']:.4f} >= 0.95, slope {per['slope']:.3f} > 0 "
                f"(kappa-doubling ratios {ratios})")


def test_criterion_07_traversal_solver():
    eps = 1e-6
    params = zeno_params(10.0, eps)
    min_fid = 1.0
    bounds_hold = True
    insts = [gen_instance(4, 10.0, seed) for seed in range(20)]
    runs = []
    # the 20 walks run as one stack, each row bitwise its own walk
    for inst, (report, trace) in zip(insts, zeno_run(insts, eps)):
        runs.append(report)
        min_fid = min(min_fid, report().final_fidelity)
        bounds_hold = bounds_hold and validate_zeno_bounds(
            trace, params, inst).all_hold
    # run r samples instance r % 20 at seed r from that instance's one walk
    attempts = 0
    for run in range(200):
        attempts += runs[run % 20]("sample", run).attempts
    for run in (7, 59, 159):
        fresh, _ = solve_zeno(insts[run % 20], eps, mode="sample", seed=run)
        assert runs[run % 20]("sample", run).to_dict() == fresh.to_dict()
    rate = 200.0 / attempts
    ok = min_fid >= 1.0 - 1e-6 and bounds_hold and rate >= 1.0 / 400.0
    emit(7, ok, f"kappa=10 N=16 eps=1e-6: postselect fidelity "
                f">= {min_fid:.12f} >= 1 - 1e-6 on 20 seeds; per-step overlap "
                f"bounds (i)-(iii) hold at every step: {bounds_hold}; sampled "
                f"success rate {rate:.3f} >= 1/400 over 200 runs "
                f"(empirical rate reported, expected > 0.5)")


def test_criterion_08_eigenpath_bounds():
    worst_len = worst_deriv = 0.0
    for kappa in (10.0, 100.0):
        for seed in (0, 1):
            length, derivs = eigenpath_bound_ratios(
                gen_instance(4, kappa, seed), np.linspace(0.0, 1.0, 21))
            worst_len = max(worst_len, length)
            worst_deriv = max(worst_deriv, *derivs)
    spread = max(grid_spread(kappa, 1e-6) for kappa in (10.0, 100.0))
    ok = worst_len <= 1.0 and worst_deriv <= 1.0 and spread <= 1e-10
    emit(8, ok, f"kappa in {{10, 100}}: path length / (2 ln k / (1 - 1/k)) "
                f"<= {worst_len:.3f} <= 1; derivative norm * gap / 2 "
                f"<= {worst_deriv:.3f} <= 1 at 21 sampled f; equal-length "
                f"segmentation spread {spread:.2e} <= 1e-10")


def test_criterion_09_query_scaling_separation():
    t0 = time.perf_counter()
    result = experiment_kappa_scaling()
    elapsed = time.perf_counter() - t0
    s = result.diagnostics["slopes"]
    ok = (abs(s["qsp-direct"] - 2.0) <= 0.2
          and abs(s["aqc"] - 1.0) <= 0.2
          and abs(s["zeno-deflated"] - 1.0) <= 0.2
          and elapsed < 900.0)
    emit(9, ok, f"log-log query slope vs kappa over {{4..64}}: qsp-direct "
                f"{s['qsp-direct']:.3f} = 2.0 +- 0.2; aqc {s['aqc']:.3f} and "
                f"zeno {s['zeno-deflated']:.3f} (log-deflated; raw "
                f"{s['zeno']:.3f} reported) = 1.0 +- 0.2; "
                f"runtime {elapsed:.1f}s < 900s")


def test_criterion_10_cli_determinism(tmp_path):
    def run_suite(outdir):
        outdir.mkdir()
        inst = str(outdir / "inst.qlsp")
        planted = str(outdir / "planted.qlsp")
        cmds = [
            ["gen", "--n", "3", "--kappa", "6", "--seed", "1", "--out", inst],
            ["gen", "--n", "3", "--kappa", "4", "--seed", "2",
             "--form", "planted", "--out", planted],
            ["poly", "--ell", "16", "--gap", "0.1",
             "--out", str(outdir / "poly.csv")],
            ["filter", "--in", planted, "--lam", "1.0", "--eps", "1e-3",
             "--mode", "sample", "--seed", "5",
             "--out", str(outdir / "outcome.json")],
            ["solve", "--in", inst, "--method", "zeno", "--eps", "1e-3",
             "--mode", "sample", "--seed", "3",
             "--out", str(outdir / "zeno.json"),
             "--trace-out", str(outdir / "zeno.csv")],
            ["solve", "--in", inst, "--method", "aqc", "--eps", "1e-4",
             "--out", str(outdir / "aqc.json"),
             "--trace-out", str(outdir / "aqc.csv")],
        ]
        stdout = []
        codes = []
        for cmd in cmds:
            proc = subprocess.run([sys.executable, "-m", "eigenfilter", *cmd],
                                  capture_output=True, text=True)
            stdout.append(proc.stdout)
            codes.append(proc.returncode)
        files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
        return codes, "".join(stdout), files

    codes1, out1, files1 = run_suite(tmp_path / "a")
    codes2, out2, files2 = run_suite(tmp_path / "b")
    ok = (all(c == 0 for c in codes1 + codes2)
          and out1 == out2 and files1 == files2)
    emit(10, ok, f"{len(files1)} output files (instances, reports, traces, "
                 f"tables) and {len(out1)} stdout bytes byte-identical across "
                 f"repeated seeded CLI runs of gen/poly/filter/solve")
