"""Instance generators, sweep experiments, and fit diagnostics.

Three instance families:
  gen_instance          random tridiagonal construction with spectrum mapped
                        into [1/kappa, 1] (plus indefinite and non-Hermitian
                        variants derived from it),
  planted_hermitian     Hermitian matrix with an exact target eigenvalue and
                        the rest of the spectrum a prescribed transformed
                        distance away (for filter norm checks),
  planted_tridiag_instance
                        Jacobi matrix with eigenvalues planted uniformly in
                        [1/kappa, 1] (for query-scaling sweeps; the plain
                        tridiagonal family puts too little b-weight near the
                        small end of the spectrum to show the kappa^2 cost).

Experiments return ExperimentResult tables with per-sweep fit diagnostics;
no plotting here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .aqc import (SCHEDULE_POWER, TIME_FACTOR, AqcConfig, aqc_run,
                  evolve_stack, seed_filter)
from .baseline import qsp_run
from .filtering import prepend_ancilla
from .numerics import DenseOperator, StateRegister, fidelity
from .qlsp import QlspInstance, solution_state
from .report import ExperimentResult, SolverReport
from .zeno import zeno_params, zeno_run

CORNER_SHIFT = 1e-4
FIT_FLOOR = 1e-10
DEFAULT_ELL_FRACTIONS = (0.0, 1.5, 3.0, 4.5, 6.0, 7.5, 9.0, 12.0, 15.0, 18.0, 21.0)
CALIBRATION_FACTORS = (0.1, 0.125, 0.16, 0.2, 0.25, 0.32, 0.4, 0.5, 0.64,
                       0.8, 1.0, 1.25, 1.6)
SEED_OVERLAP_TARGET = 0.9
# the calibration's planted instances: the seed overlap is insensitive to
# dimension, so a small n keeps it fast
CALIBRATION_N = 5
CALIBRATION_SEEDS = 3


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r2: float


def linear_fit(x, y) -> FitResult:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("fit needs at least two points")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot
    return FitResult(float(slope), float(intercept), r2)


def _haar_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def gen_instance(n: int, kappa: float, seed: int,
                 form: str = "positive-definite") -> QlspInstance:
    """Random instance with condition number kappa and d = 3 sparsity.

    The base matrix is tridiagonal: off-diagonals uniform in [-1, 0],
    diagonal the negative sum of the adjacent off-diagonals, corner entries
    raised to make it positive definite. The affine map
    (B + lmax/(kappa-1) I) (kappa-1)/(kappa lmax) puts the spectrum in
    [1/kappa, 1] with top eigenvalue exactly 1.

    hermitian-indefinite flips the signs of a random half of the eigenvalues
    (singular values unchanged); general left-multiplies by a random
    orthogonal matrix. Both variants are dense, so d is recorded as 2^n.
    Draw order (off-diagonals, b, form-specific) is fixed for determinism.
    """
    if not 2 <= n <= 12:
        raise ValueError("n must lie in [2, 12]")
    if kappa <= 1.0:
        raise ValueError("kappa must exceed 1")
    if form not in ("positive-definite", "hermitian-indefinite", "general"):
        raise ValueError(f"unknown form {form!r}")
    rng = np.random.default_rng(seed)
    dim = 2 ** n
    off = rng.uniform(-1.0, 0.0, dim - 1)
    diag = np.zeros(dim)
    diag[:-1] -= off
    diag[1:] -= off
    diag[0] += CORNER_SHIFT
    diag[-1] += CORNER_SHIFT
    B = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    lmax = float(np.linalg.eigvalsh(B)[-1])
    A = (B + lmax / (kappa - 1.0) * np.eye(dim)) * ((kappa - 1.0) / (kappa * lmax))

    bv = rng.normal(size=dim)
    bv /= np.linalg.norm(bv)
    b = StateRegister(bv, ancilla=0, system=n)

    d = 3
    if form == "hermitian-indefinite":
        w, v = np.linalg.eigh(A)
        flip = rng.choice(dim, size=dim // 2, replace=False)
        w[flip] *= -1.0
        A = (v * w) @ v.T
        A = 0.5 * (A + A.T)
        d = dim
    elif form == "general":
        A = _haar_orthogonal(dim, rng) @ A
        d = dim
    op = DenseOperator(A, hermitian=(form != "general"))
    return QlspInstance(op, b, kappa=float(kappa), d=d, form=form, seed=seed)


def planted_hermitian(n: int, gap: float, seed: int, lam: float = 0.0,
                      alpha: float = 1.0, multiplicity: int = 1):
    """Hermitian H with eigenvalue lam (given multiplicity) and every other
    eigenvalue at transformed distance |mu - lam|/(alpha + |lam|) >= gap.

    Returns (operator, projector onto the lam-eigenspace, eigenvalues).
    One planted eigenvalue sits exactly at distance gap on each feasible
    side, so filter norm bounds are exercised at their tightest point.
    """
    if not 0.0 < gap < 1.0:
        raise ValueError("gap must lie in (0, 1)")
    if abs(lam) >= alpha:
        raise ValueError("target eigenvalue must lie strictly inside [-alpha, alpha]")
    dim = 2 ** n
    rest = dim - multiplicity
    if rest < 1:
        raise ValueError("multiplicity leaves no spectrum to filter out")
    scale = alpha + abs(lam)
    pos_max = (alpha - lam) / scale
    neg_max = (alpha + lam) / scale
    sides = [s for s in (1.0, -1.0) if (pos_max if s > 0 else neg_max) >= gap]
    if not sides:
        raise ValueError("gap infeasible for this (lam, alpha)")
    rng = np.random.default_rng(seed)
    xs = np.empty(rest)
    for i in range(rest):
        s = sides[i % len(sides)]
        hi = pos_max if s > 0 else neg_max
        xs[i] = s * (gap if i < len(sides) else rng.uniform(gap, hi))
    evs = np.concatenate([np.full(multiplicity, lam), lam + scale * xs])
    q = _haar_orthogonal(dim, rng)
    H = (q * evs) @ q.T
    H = 0.5 * (H + H.T)
    proj = q[:, :multiplicity] @ q[:, :multiplicity].T
    return DenseOperator(H, hermitian=True), proj, evs


def _lanczos_jacobi(evs: np.ndarray, v0: np.ndarray):
    """Jacobi (tridiagonal) form of diag(evs) with starting vector v0.

    Full reorthogonalization keeps the planted spectrum to roundoff.
    """
    dim = evs.size
    V = np.zeros((dim, dim))
    alphas = np.zeros(dim)
    betas = np.zeros(dim - 1)
    V[:, 0] = v0
    w = evs * v0
    alphas[0] = v0 @ w
    w = w - alphas[0] * v0
    for k in range(1, dim):
        for _ in range(2):
            w -= V[:, :k] @ (V[:, :k].T @ w)
        beta = float(np.linalg.norm(w))
        if beta < 1e-13:
            raise RuntimeError("Lanczos breakdown: starting vector is eigenvector-deficient")
        betas[k - 1] = beta
        V[:, k] = w / beta
        w = evs * V[:, k] - beta * V[:, k - 1]
        alphas[k] = V[:, k] @ w
        w = w - alphas[k] * V[:, k]
    return alphas, betas


def planted_tridiag_instance(n: int, kappa: float, seed: int) -> QlspInstance:
    """Tridiagonal instance with eigenvalues planted uniformly in [1/kappa, 1].

    Endpoints are pinned, so the condition number is exactly kappa. The
    right-hand state is the first basis vector, whose eigenvector overlaps
    equal the (uniform on the sphere) Lanczos starting vector; the expected
    squared solution norm then grows like kappa^2/dim.
    """
    if kappa <= 1.0:
        raise ValueError("kappa must exceed 1")
    rng = np.random.default_rng(seed)
    dim = 2 ** n
    evs = np.empty(dim)
    evs[0] = 1.0 / kappa
    evs[-1] = 1.0
    evs[1:-1] = np.sort(rng.uniform(1.0 / kappa, 1.0, dim - 2))
    v0 = rng.normal(size=dim)
    v0 /= np.linalg.norm(v0)
    alphas, betas = _lanczos_jacobi(evs, v0)
    A = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    bv = np.zeros(dim)
    bv[0] = 1.0
    return QlspInstance(DenseOperator(A, hermitian=True),
                        StateRegister(bv, ancilla=0, system=n),
                        kappa=float(kappa), d=3,
                        form="positive-definite", seed=seed)


def _seed_fidelities(kappa: float, seeds: int, n: int):
    """eta(ell): each seed's fidelity with |0⟩|x⟩ after the degree-ell seed
    filter (ell = 0: none). The seeds evolve as one aqc.evolve_stack for
    time TIME_FACTOR·kappa, and each degree runs one stacked seed_filter."""
    insts = [gen_instance(n, kappa, seed) for seed in range(seeds)]
    psis = evolve_stack(insts)(AqcConfig(T=TIME_FACTOR * kappa))
    filt, _, targets = seed_filter(insts)

    def eta(ell: int) -> list[float]:
        outs = [out.post_state for out in filt(ell, psis)] if ell else psis
        return [fidelity(target, psi) for target, psi in zip(targets, outs)]

    return eta


def experiment_fidelity_vs_ell(kappas=(10.0, 50.0, 100.0),
                               ell_fractions=DEFAULT_ELL_FRACTIONS,
                               seeds: int = 20, n: int = 6) -> ExperimentResult:
    """Fidelity of the filtered adiabatic seed versus filter degree.

    For each kappa, the seeds' states evolve as one stack for time
    0.2*kappa under the power-1.5 schedule (aqc's defaults), then one
    stacked aqc.seed_filter filters them at each degree in the grid
    (degrees scale with kappa via ell_fractions; 0 means no filter).
    Diagnostics hold per-kappa linear fits of log(1 - eta) versus ell above
    the 1e-10 floor and the initial fidelity in both conventions.
    """
    if seeds < 1:
        raise ValueError(f"need at least one seed, got {seeds}")
    rows = []
    per_kappa: dict[str, dict] = {}
    init_all: list[float] = []
    for kappa in kappas:
        ells = sorted({int(math.ceil(f * kappa)) for f in ell_fractions})
        eta = _seed_fidelities(kappa, seeds, n)
        init_k = eta(0)
        # seeds × ells, C-contiguous: mean(axis=0) sums seed by seed
        etas = np.array([eta(ell) for ell in ells]).T.copy()
        rows += [(kappa, ell, seed, float(etas[seed, j]))
                 for seed in range(seeds) for j, ell in enumerate(ells)]
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
    diagnostics = {
        "per_kappa": per_kappa,
        "initial_fidelity_mean": float(init.mean()),
        "initial_fidelity_squared_mean": float((init ** 2).mean()),
        "T_factor": TIME_FACTOR, "schedule_power": SCHEDULE_POWER,
        "n": n, "seeds": seeds,
    }
    return ExperimentResult("fidelity-vs-ell", ["kappa", "ell", "seed", "eta"],
                            rows, diagnostics)


def experiment_ell_vs_kappa(etas=(0.9, 0.99), kappas=(10.0, 20.0, 40.0, 80.0),
                            seeds: int = 10, n: int = 6) -> ExperimentResult:
    """Smallest filter degree reaching each target mean fidelity, per kappa.

    Each kappa's seeds evolve as one stack, once, and each degree probed
    runs one stacked seed filter, once; ell* is located by doubling then
    bisection on the seed-averaged fidelity. Diagnostics hold a linear fit
    of ell* versus kappa per target and the ratios between consecutive
    (doubling) kappa values.
    """
    if seeds < 1:
        raise ValueError(f"need at least one seed, got {seeds}")
    rows = []
    targets = sorted(etas)
    stars: dict[float, list[int]] = {t: [] for t in targets}
    for kappa in kappas:
        eta = _seed_fidelities(kappa, seeds, n)

        @functools.cache
        def mean_eta(ell: int) -> float:
            return float(np.mean(eta(ell)))

        for t in targets:
            if mean_eta(0) >= t:
                star = 0
            else:
                hi = max(8, int(math.ceil(kappa / 2)))
                while mean_eta(hi) < t:
                    hi *= 2
                    if hi > 200 * kappa:
                        raise RuntimeError("fidelity target unreachable")
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
    diagnostics: dict = {"per_target": {}, "n": n, "seeds": seeds,
                         "T_factor": TIME_FACTOR,
                         "schedule_power": SCHEDULE_POWER}
    for t in targets:
        ys = stars[t]
        fit = linear_fit(kappas, ys)
        ratios = [ys[i + 1] / ys[i] for i in range(len(ys) - 1) if ys[i] > 0]
        diagnostics["per_target"][str(t)] = {
            "slope": fit.slope, "intercept": fit.intercept, "r2": fit.r2,
            "doubling_ratios": ratios,
        }
    return ExperimentResult("ell-vs-kappa", ["kappa", "eta_target", "ell_star"],
                            rows, diagnostics)


def _expected_queries(report: SolverReport, key: str) -> float:
    """Per-attempt ledger count divided by the overall success probability."""
    per_attempt = report.query_ledger[key] / report.attempts
    p = float(np.prod(report.success_probabilities))
    if p <= 0.0:
        raise ValueError("zero success probability")
    return per_attempt / p


def zeno_log_factor(kappa: float, eps: float) -> float:
    """Known per-solve log factor ln(2/eps_P) * M / ln(kappa) of the walk cost."""
    params = zeno_params(kappa, eps)
    return math.log(2.0 / params.eps_p) * params.M / math.log(kappa)


def calibrate_time_factor(kappa: float) -> float:
    """Smallest time factor whose mean seed overlap reaches SEED_OVERLAP_TARGET.

    Constant-precision preparation: the adiabatic seed should land at a
    kappa-independent overlap with the solution, so the repetition count
    stays flat and the query slope reflects the filter degree alone. The
    search walks a fixed geometric factor grid (ascending, early exit), so
    the result is deterministic. It evolves the CALIBRATION_SEEDS planted
    instances of size CALIBRATION_N. The instances, targets |0⟩|x⟩ and
    H0/H1 stack (aqc.evolve_stack) are built once, for all factors.
    """
    insts = [planted_tridiag_instance(CALIBRATION_N, kappa, seed)
             for seed in range(CALIBRATION_SEEDS)]
    goals = [prepend_ancilla(solution_state(inst).amps) for inst in insts]
    run = evolve_stack(insts)
    for factor in CALIBRATION_FACTORS:
        states = run(AqcConfig(T=factor * kappa))
        gams = [fidelity(goal, state) for goal, state in zip(goals, states)]
        if float(np.mean(gams)) >= SEED_OVERLAP_TARGET:
            return factor
    return CALIBRATION_FACTORS[-1]


def experiment_kappa_scaling(kappas=(4.0, 8.0, 16.0, 32.0, 64.0),
                             seeds: int = 5, n: int = 7,
                             eps: float = 1e-6) -> ExperimentResult:
    """Expected query count versus kappa for the three solvers.

    Uses the planted-spectrum tridiagonal family. Expected queries are the
    measured per-attempt ledger divided by the overall success probability.
    The adiabatic seed time is calibrated per kappa to a fixed overlap
    target (see calibrate_time_factor), so its repetition count does not
    drift with kappa. Each solver runs once per kappa over the stack of its
    seeds' instances (qsp_run, aqc_run, zeno_run), each row bitwise a
    single solve; the table keeps one row per (seed, method). Slopes are
    log-log fits of the seed means; for the traversal solver a deflated
    slope (raw queries divided by the known log factor, see
    zeno_log_factor) is reported alongside the raw one.
    """
    if seeds < 1:
        raise ValueError(f"need at least one seed, got {seeds}")
    rows = []
    means: dict[str, list[float]] = {"qsp-direct": [], "aqc": [], "zeno": []}
    factors: list[float] = []
    for kappa in kappas:
        factor = calibrate_time_factor(kappa)
        factors.append(factor)
        cfg = AqcConfig(T=factor * kappa)
        per_method: dict[str, list[float]] = {m: [] for m in means}
        insts = [planted_tridiag_instance(n, kappa, seed) for seed in range(seeds)]
        runs = zip(qsp_run(insts, eps), aqc_run(insts, eps, cfg=cfg),
                   [report for report, _ in zeno_run(insts, eps)])
        for seed, (qsp, aqc, zen) in enumerate(runs):
            for method, run, key in (("qsp-direct", qsp, "U_A"),
                                     ("aqc", aqc, "U_H1_filter"),
                                     ("zeno", zen, "U_Hf_filter")):
                q = _expected_queries(run(), key)
                per_method[method].append(q)
                rows.append((method, kappa, seed, q))
        for method in means:
            means[method].append(float(np.mean(per_method[method])))
    logk = np.log(np.asarray(kappas, dtype=float))
    slopes: dict[str, float] = {}
    r2s: dict[str, float] = {}
    for method, ys in means.items():
        fit = linear_fit(logk, np.log(ys))
        slopes[method] = fit.slope
        r2s[method] = fit.r2
    deflators = [zeno_log_factor(k, eps) for k in kappas]
    fit = linear_fit(logk, np.log(np.asarray(means["zeno"]) / deflators))
    slopes["zeno-deflated"] = fit.slope
    r2s["zeno-deflated"] = fit.r2
    diagnostics = {
        "slopes": slopes, "r2": r2s,
        "mean_queries": {m: dict(zip(map(str, kappas), v)) for m, v in means.items()},
        "zeno_log_factor": dict(zip(map(str, kappas), deflators)),
        "aqc_time_factor": dict(zip(map(str, kappas), factors)),
        "eps": eps, "n": n, "seeds": seeds,
    }
    return ExperimentResult("kappa-scaling",
                            ["method", "kappa", "seed", "expected_queries"],
                            rows, diagnostics)
