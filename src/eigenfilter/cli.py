"""Command-line interface.

Subcommands: gen, poly, filter, solve, experiment, validate. All output is
seeded and timestamp-free, so repeated runs with the same arguments produce
byte-identical files and stdout.

Exit codes: 0 success, 1 usage error, 2 validation or input-parse failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .aqc import (SCHEDULE_POWER, TIME_FACTOR, AqcConfig, overlap_recorder,
                  solve_aqc_filtered)
from .baseline import solve_qsp_direct
from .blockenc import encode, verify
from .chebpoly import (FilterSpec, degree_for_accuracy, filter_eval,
                       gap_region_max, reflection_eval)
from .filtering import (EIGENSPACE_TOL, apply_filter, measured_gap,
                        transformed_gap)
from .harness import (
    experiment_ell_vs_kappa,
    experiment_fidelity_vs_ell,
    experiment_kappa_scaling,
    gen_instance,
    planted_tridiag_instance,
)
from .numerics import StateRegister, eig_hermitian, fidelity
from .qlsp import (
    FORMS,
    QlspInstance,
    eigenpath_bound_ratios,
    encoding_bookkeeping,
    make_h1_encoding,
    make_hf,
)
from .storage import (
    StorageError,
    load_instance,
    save_experiment,
    save_instance,
    save_report,
    write_table,
)
from .zeno import grid_spread, solve_zeno, validate_zeno_bounds, zeno_params

USAGE_ERROR = 1
VALIDATION_ERROR = 2

FORM_CHOICES = (*FORMS, "planted")


class ValidationFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for
    # validation failures, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _instance_from_args(args) -> QlspInstance:
    if getattr(args, "infile", None):
        inst = load_instance(args.infile)
    else:
        if args.n is None or args.kappa is None:
            raise ValidationFailure(
                "need an instance file (--in) or --n and --kappa")
        if args.form == "planted":
            inst = planted_tridiag_instance(args.n, args.kappa, args.seed)
        else:
            inst = gen_instance(args.n, args.kappa, args.seed, form=args.form)
    if getattr(args, "d", None) is not None:
        # a looser sparsity bound is always sound; a tighter one is a lie
        if args.d < inst.d:
            raise ValidationFailure(
                f"--d {args.d} understates the instance sparsity {inst.d}")
        inst = dataclasses.replace(inst, d=args.d)
    return inst


def _cmd_gen(args) -> int:
    inst = _instance_from_args(args)
    if args.out:
        save_instance(args.out, inst)
    w = np.linalg.svd(inst.A.mat, compute_uv=False)
    print(f"instance n={inst.n} N={inst.dim} kappa={inst.kappa} d={inst.d} "
          f"form={inst.form} seed={inst.seed} "
          f"measured_kappa={float(w[0] / w[-1])!r}")
    return 0


def _cmd_poly(args) -> int:
    if args.ell is None:
        raise ValidationFailure("--ell is required for poly")
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    spec = FilterSpec(args.ell, args.gap)
    xs = np.linspace(-1.0, 1.0, args.points)
    fn = filter_eval if args.kind == "filter" else reflection_eval
    rows = list(zip(xs.tolist(), fn(spec, xs).tolist()))
    if args.out:
        write_table(args.out, ["x", "value"], rows)
    # distance to the gap-region value: 0 for R_ell, -1 for S_ell
    target = 0.0 if args.kind == "filter" else -1.0
    dmax = max(abs(v - target) for x, v in rows if abs(x) >= args.gap)
    print(f"poly kind={args.kind} ell={spec.ell} gap={spec.gap!r} "
          f"points={args.points} max_on_gap_region={dmax!r} "
          f"error_bound={spec.error_bound!r}")
    return 0


def _cmd_filter(args) -> int:
    inst = _instance_from_args(args)
    if not inst.A.hermitian:
        raise ValidationFailure("filtering needs a Hermitian instance")
    enc = encode(inst.A, alpha=float(inst.d))
    dec = eig_hermitian(inst.A.mat)
    idx = int(np.argmin(np.abs(dec.eigenvalues - args.lam)))
    lam = float(dec.eigenvalues[idx])
    if abs(lam - args.lam) > EIGENSPACE_TOL:
        raise ValidationFailure(
            f"{args.lam!r} is not an eigenvalue (nearest: {lam!r})")
    gap = measured_gap(dec.eigenvalues, lam)  # enc's payload is inst.A
    ell = args.ell
    if ell is None:
        ell = degree_for_accuracy(transformed_gap(enc, lam, gap), args.eps)
    out = apply_filter(enc, lam, ell, inst.b, gap=gap)
    post, sampled = out.post_state, None
    if args.mode == "sample":
        # one seeded coin; the failure branch keeps b as its post state
        sampled = bool(np.random.default_rng(args.seed).random()
                       < out.success_probability)
        if not sampled:
            post = inst.b
    mask = np.abs(dec.eigenvalues - lam) <= EIGENSPACE_TOL
    proj = (dec.eigenvectors[:, mask] @
            (dec.eigenvectors[:, mask].conj().T @ inst.b.amps))
    oracle = proj / np.linalg.norm(proj)
    fid = fidelity(post, StateRegister(oracle, 0, inst.n))
    record = {
        "kind": "filter-outcome", "lam": lam, "ell": ell, "mode": args.mode,
        "success_probability": float(out.success_probability),
        "fidelity_vs_oracle": float(fid),
        "sampled_success": sampled,
        "ancilla_budget": out.ancilla_budget,
    }
    text = json.dumps(record, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
    print(f"filter lam={lam!r} ell={ell} "
          f"p={float(out.success_probability)!r} fidelity={float(fid)!r}")
    return 0


def _cmd_solve(args) -> int:
    inst = _instance_from_args(args)
    trace_rows = None
    if args.method == "qsp-direct":
        report = solve_qsp_direct(inst, args.eps, mode=args.mode, seed=args.seed)
    elif args.method == "aqc":
        cfg = AqcConfig(T=args.T_factor * inst.kappa, p=args.p)
        record = None
        if args.trace_out:  # checks the form before the solve
            record, pts = overlap_recorder(inst, cfg, max(1, cfg.num_steps // 200))
            trace_rows = ("s,overlap", pts)
        report = solve_aqc_filtered(inst, args.eps, cfg=cfg, mode=args.mode,
                                    seed=args.seed, observer=record)
    else:
        report, trace = solve_zeno(inst, args.eps, mode=args.mode,
                                   seed=args.seed)
        if args.trace_out:
            params = zeno_params(inst.kappa, args.eps)
            pts = [(j + 1, float(params.f_grid[j + 1]), p, o)
                   for j, (p, o) in enumerate(zip(trace.per_step_success,
                                                  trace.per_step_overlap))]
            trace_rows = ("j,f,per_step_success,per_step_overlap", pts)
    if args.out:
        save_report(args.out, report)
    if trace_rows is not None:
        header, pts = trace_rows
        write_table(args.trace_out, header.split(","), pts)
    print(f"solve method={report.method} "
          f"fidelity={float(report.final_fidelity)!r} "
          f"attempts={report.attempts} queries={report.total_queries}")
    return 0


def _cmd_experiment(args) -> int:
    if args.which == "fig-a2-left":
        result = experiment_fidelity_vs_ell(seeds=args.trials)
    elif args.which == "fig-a2-right":
        result = experiment_ell_vs_kappa(seeds=args.trials)
    else:
        result = experiment_kappa_scaling(seeds=args.trials)
    if args.out:
        save_experiment(args.out, result)
    print(f"experiment {result.name} rows={len(result.rows)} "
          f"columns={','.join(result.columns)}")
    return 0


def _check(failures, ok, label, detail=""):
    """Print one check's ok/FAIL line and record its label if it failed."""
    print(f"{'ok' if ok else 'FAIL'} {label} {detail}".rstrip())
    if not ok:
        failures.append(label)


def _validate_minimax(args, failures):
    for gap in (0.05, 0.1, 0.2):
        for ell in (8, 16, 32):
            spec = FilterSpec(ell, gap)
            got = gap_region_max(spec)
            _check(failures, got <= spec.error_bound,
                   f"minimax ell={ell} gap={gap!r}",
                   f"max={got!r} bound={spec.error_bound!r}")


def _validate_eigenpath(args, failures):
    fs = (0.0, 0.25, 0.5, 0.75, 1.0)
    for kappa in (10.0, 100.0):
        inst = gen_instance(4, kappa, args.seed)
        length, derivs = eigenpath_bound_ratios(inst, fs)
        _check(failures, length <= 1.0, f"eigenpath kappa={kappa!r}",
               f"length/bound={length!r}")
        over = [f for f, r in zip(fs, derivs) if r > 1.0]
        _check(failures, not over, f"eigenpath derivatives kappa={kappa!r}",
               f"over 2/gap at f={over!r}" if over else "")
        spread = grid_spread(kappa, 1e-4)
        _check(failures, spread <= 1e-10, f"equal-segment grid kappa={kappa!r}",
               f"spread={spread!r}")


def _validate_zeno(args, failures):
    inst = gen_instance(4, 10.0, args.seed)
    report, trace = solve_zeno(inst, 1e-6)
    try:
        validate_zeno_bounds(trace, zeno_params(inst.kappa, 1e-6), inst)
    except AssertionError as e:
        _check(failures, False, "zeno bounds", str(e))
        return
    _check(failures, True, "zeno bounds",
           f"fidelity={report.final_fidelity!r} "
           f"total_success={trace.total_success!r}")


def _validate_blockenc(args, failures):
    inst = gen_instance(2, 10.0, args.seed)
    encs = {"H1": make_h1_encoding(inst), "H(f)": make_hf(inst, 0.5)}
    for (label, enc), book in zip(encs.items(),
                                  encoding_bookkeeping(inst, 0.5)):
        err = verify(enc)
        ok = err <= 1e-10 and (enc.alpha, enc.ancilla) == book
        _check(failures, ok, f"encoding {label}",
               f"alpha={enc.alpha!r} m={enc.ancilla} err={err!r}")


def _cmd_validate(args) -> int:
    suites = {
        "minimax": _validate_minimax,
        "eigenpath": _validate_eigenpath,
        "zeno": _validate_zeno,
        "blockenc": _validate_blockenc,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    failures: list[str] = []
    for name in names:
        suites[name](args, failures)
    if failures:
        raise ValidationFailure("; ".join(failures))
    print(f"validate suite={args.suite} all checks passed")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="eigenfilter",
                     description="Polynomial eigenstate filtering toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_instance_flags(p):
        p.add_argument("--in", dest="infile", default=None,
                       help="instance file (overrides --n/--kappa)")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--kappa", type=float, default=None)
        p.add_argument("--d", type=int, default=None,
                       help="override the assumed sparsity bound")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--form", choices=FORM_CHOICES,
                       default="positive-definite")

    p = sub.add_parser("gen", help="generate an instance file")
    add_instance_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("poly", help="tabulate a filter polynomial")
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--gap", type=float, required=True)
    p.add_argument("--kind", choices=("filter", "reflection"), default="filter")
    p.add_argument("--points", type=int, default=1001)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("filter", help="project an instance's b onto an eigenspace")
    add_instance_flags(p)
    p.add_argument("--lam", type=float, default=0.0)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--mode", choices=("postselect", "sample"),
                   default="postselect")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("solve", help="run a linear-system solver")
    p.add_argument("--method", choices=("aqc", "zeno", "qsp-direct"),
                   required=True)
    add_instance_flags(p)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--mode", choices=("postselect", "sample"),
                   default="postselect")
    p.add_argument("--T-factor", dest="T_factor", type=float, default=TIME_FACTOR)
    p.add_argument("--p", type=float, default=SCHEDULE_POWER)
    p.add_argument("--out", default=None)
    p.add_argument("--trace-out", dest="trace_out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("experiment", help="run a sweep experiment")
    p.add_argument("which",
                   choices=("fig-a2-left", "fig-a2-right", "kappa-scaling"))
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("validate", help="run bound-check suites")
    p.add_argument("--suite",
                   choices=("minimax", "eigenpath", "zeno", "blockenc", "all"),
                   default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationFailure, StorageError) as e:
        print(f"validation failure: {e}", file=sys.stderr)
        return VALIDATION_ERROR
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
