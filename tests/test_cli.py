"""Exit codes, determinism, and output formats of the command line."""

import json
import os
import subprocess
import sys
from collections import namedtuple

import numpy as np
import pytest

from eigenfilter import aqc, cli, filtering, numerics
from eigenfilter.chebpoly import FilterSpec
from eigenfilter.cli import main
from eigenfilter.storage import (
    load_experiment,
    load_instance,
    load_report,
    write_table,
)


def run(*argv) -> int:
    # argparse raises SystemExit on usage errors; the process exit code is
    # what the contract pins down, so collapse both paths to one integer
    try:
        return main(list(argv))
    except SystemExit as e:
        return int(e.code)


def test_gen_writes_loadable_instance(tmp_path, capsys):
    path = tmp_path / "inst.qlsp"
    assert run("gen", "--n", "3", "--kappa", "6", "--seed", "1",
               "--out", str(path)) == 0
    out = capsys.readouterr().out
    assert out.startswith("instance n=3 N=8 kappa=6.0 d=3")
    assert "np.float64" not in out
    inst = load_instance(path)
    assert inst.kappa == 6.0 and inst.seed == 1


def test_gen_planted_form_pins_kappa(capsys):
    assert run("gen", "--n", "3", "--kappa", "8", "--form", "planted") == 0
    out = capsys.readouterr().out
    measured = float(out.rsplit("measured_kappa=", 1)[1])
    assert abs(measured - 8.0) <= 1e-6


def test_sparsity_override_is_one_sided(tmp_path, capsys):
    path = tmp_path / "inst.qlsp"
    assert run("gen", "--n", "3", "--kappa", "6", "--d", "5",
               "--out", str(path)) == 0
    capsys.readouterr()
    assert load_instance(path).d == 5
    assert run("gen", "--n", "3", "--kappa", "6", "--d", "2") == 2


def test_poly_is_deterministic_and_within_bound(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("poly", "--ell", "8", "--gap", "0.2", "--points", "401")
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    out = capsys.readouterr().out
    assert out.count("poly kind=filter ell=8") == 2

    lines = a.read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 402
    bound = FilterSpec(8, 0.2).error_bound
    for line in lines[1:]:
        x, value = map(float, line.split(","))
        if abs(x) >= 0.2:
            assert abs(value) <= bound
        assert abs(value) <= 1.0 + 1e-12


@pytest.mark.parametrize("ell, gap", [(16, 0.1), (64, 0.05), (8, 0.2), (2, 0.3)])
def test_poly_reflection_prints_distance_to_minus_one(tmp_path, capsys, ell, gap):
    # S_ell sits near -1 on the gap region, so the line gives max |S_ell + 1|
    # there, which is within 2·error_bound (criterion 3)
    path = tmp_path / "s.csv"
    assert run("poly", "--ell", str(ell), "--gap", str(gap),
               "--kind", "reflection", "--out", str(path)) == 0
    fields = dict(kv.split("=") for kv in capsys.readouterr().out.split()[1:])
    rows = [tuple(map(float, line.split(",")))
            for line in path.read_text().splitlines()[1:]]
    want = max(abs(v + 1.0) for x, v in rows if abs(x) >= gap)
    assert float(fields["max_on_gap_region"]) == want
    assert want <= 2.0 * float(fields["error_bound"])


def test_poly_requires_degree():
    assert run("poly", "--gap", "0.2") == 2


def test_filter_at_exact_eigenvalue(tmp_path, capsys):
    inst_path = tmp_path / "inst.qlsp"
    assert run("gen", "--n", "3", "--kappa", "4", "--form", "planted",
               "--out", str(inst_path)) == 0
    record_path = tmp_path / "outcome.json"
    assert run("filter", "--in", str(inst_path), "--lam", "1.0",
               "--eps", "1e-3", "--out", str(record_path)) == 0
    out = capsys.readouterr().out
    assert "filter lam=" in out
    record = json.loads(record_path.read_text())
    assert record["kind"] == "filter-outcome"
    assert record["fidelity_vs_oracle"] >= 1.0 - 1e-3
    assert 0.0 < record["success_probability"] <= 1.0

    # a point off the spectrum is refused, not silently snapped
    assert run("filter", "--in", str(inst_path), "--lam", "0.123456") == 2


def test_filter_command_computes_one_eigendecomposition(monkeypatch, capsys):
    # the command's own decomposition supplies the filter's gap
    calls = []
    decompose = numerics.eig_hermitian

    def counted(h):
        calls.append(h)
        return decompose(h)

    for module in (cli, filtering, numerics):
        monkeypatch.setattr(module, "eig_hermitian", counted)
    assert run("filter", "--n", "3", "--kappa", "4", "--seed", "2",
               "--form", "planted", "--lam", "1.0", "--eps", "1e-3") == 0
    assert "filter lam=" in capsys.readouterr().out
    assert len(calls) == 1


def test_solve_writes_report_and_trace(tmp_path, capsys):
    inst_path = tmp_path / "inst.qlsp"
    assert run("gen", "--n", "3", "--kappa", "6", "--seed", "2",
               "--out", str(inst_path)) == 0

    report_path = tmp_path / "aqc.json"
    trace_path = tmp_path / "aqc_trace.csv"
    assert run("solve", "--in", str(inst_path), "--method", "aqc",
               "--eps", "1e-4", "--out", str(report_path),
               "--trace-out", str(trace_path)) == 0
    report = load_report(report_path)
    assert report.method == "aqc"
    assert report.final_fidelity >= 1.0 - 1e-4
    trace = trace_path.read_text().splitlines()
    assert trace[0] == "s,overlap"
    assert float(trace[1].split(",")[0]) == 0.0

    zeno_trace = tmp_path / "zeno_trace.csv"
    assert run("solve", "--in", str(inst_path), "--method", "zeno",
               "--eps", "1e-3", "--trace-out", str(zeno_trace)) == 0
    lines = zeno_trace.read_text().splitlines()
    assert lines[0] == "j,f,per_step_success,per_step_overlap"
    last = lines[-1].split(",")
    assert float(last[1]) == 1.0

    assert run("solve", "--in", str(inst_path), "--method", "qsp-direct",
               "--eps", "1e-3") == 0
    out = capsys.readouterr().out
    assert out.count("solve method=") == 3
    assert "np.float64" not in out


def test_aqc_trace_observes_the_one_evolution(tmp_path, monkeypatch):
    # --trace-out records the overlaps during the solve's own evolution, one
    # propagation per solve (aqc_run's evolve_stack on a stack of one): the
    # report is the bare solve's, and the trace is what a separate observed
    # evolution records
    inst_path = tmp_path / "inst.qlsp"
    assert run("gen", "--n", "4", "--kappa", "10", "--form", "planted",
               "--out", str(inst_path)) == 0
    calls = []
    propagate = aqc._propagate

    def counted(*args, **kwargs):
        calls.append(args)
        return propagate(*args, **kwargs)

    monkeypatch.setattr(aqc, "_propagate", counted)
    solve = ("solve", "--in", str(inst_path), "--method", "aqc", "--out")
    assert run(*solve, str(tmp_path / "bare.json")) == 0
    assert run(*solve, str(tmp_path / "traced.json"),
               "--trace-out", str(tmp_path / "trace.csv")) == 0
    assert len(calls) == 2
    traced = (tmp_path / "traced.json").read_bytes()
    assert traced == (tmp_path / "bare.json").read_bytes()

    inst = load_instance(inst_path)
    cfg = aqc.AqcConfig(T=aqc.TIME_FACTOR * inst.kappa)
    record, pts = aqc.overlap_recorder(inst, cfg, max(1, cfg.num_steps // 200))
    aqc.evolve(inst, cfg, observer=record)
    write_table(tmp_path / "want.csv", ["s", "overlap"], pts)
    assert len(pts) > 2
    want = (tmp_path / "want.csv").read_bytes()
    assert (tmp_path / "trace.csv").read_bytes() == want


def test_aqc_trace_form_is_checked_before_solving(tmp_path, capsys,
                                                  monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved an instance the trace rejects")

    monkeypatch.setattr(cli, "solve_aqc_filtered", no_solve)
    report_path = tmp_path / "aqc.json"
    for form in ("hermitian-indefinite", "general"):
        assert run("solve", "--n", "3", "--kappa", "6", "--form", form,
                   "--method", "aqc", "--out", str(report_path),
                   "--trace-out", str(tmp_path / "trace.csv")) == 1
        err = capsys.readouterr().err
        assert err == ("error: overlap trace requires a positive-definite "
                       "instance\n")
    assert not report_path.exists()


def test_exit_codes(tmp_path):
    assert run("no-such-command") == 1
    assert run("solve", "--method", "aqc") == 2
    assert run("validate", "--suite", "bogus") == 1
    csv_path = tmp_path / "table.csv"
    csv_path.write_text("kappa,ell,seed,eta\n")
    assert run("solve", "--in", str(csv_path), "--method", "aqc") == 2


@pytest.mark.parametrize("argv", [
    ("experiment", "fig-a2-right", "--trials", "0"),
    ("poly", "--ell", "8", "--gap", "0.2", "--points", "0"),
], ids=["experiment-trials", "poly-points"])
def test_empty_counts_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert run(*argv, "--out", str(out)) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if argv[0] == "poly":
        assert "--points" in err


def test_validate_minimax_suite(capsys):
    assert run("validate", "--suite", "minimax") == 0
    out = capsys.readouterr().out
    assert out.count("ok minimax") == 9
    assert "validate suite=minimax all checks passed" in out


def test_validate_reports_each_failed_check(capsys, monkeypatch):
    # a filter that misses its bound everywhere fails all nine minimax checks
    monkeypatch.setattr(cli, "gap_region_max", lambda spec: 2.0)
    assert run("validate", "--suite", "minimax") == 2
    captured = capsys.readouterr()
    assert captured.out.count("FAIL minimax") == 9
    assert "all checks passed" not in captured.out
    assert "minimax ell=8 gap=0.05; minimax ell=16 gap=0.05" in captured.err


def test_validate_eigenpath_reports_each_failed_check(capsys, monkeypatch):
    # ratios over 1 and a spread over 1e-10 fail all six eigenpath checks
    monkeypatch.setattr(cli, "eigenpath_bound_ratios",
                        lambda inst, fs: (2.0, [2.0] * len(fs)))
    monkeypatch.setattr(cli, "grid_spread", lambda kappa, eps: 1.0)
    assert run("validate", "--suite", "eigenpath") == 2
    out = capsys.readouterr().out
    assert out.count("FAIL ") == 6 and "ok " not in out
    assert "over 2/gap at f=[0.0, 0.25, 0.5, 0.75, 1.0]" in out


def test_validate_blockenc_suite(capsys):
    assert run("validate", "--suite", "blockenc") == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_experiment_writes_table_and_sidecar(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    assert run("experiment", "fig-a2-right", "--trials", "1",
               "--out", str(path)) == 0
    out = capsys.readouterr().out
    assert "experiment ell-vs-kappa rows=" in out
    result = load_experiment(path)
    assert result.columns == ["kappa", "eta_target", "ell_star"]
    assert result.diagnostics["per_target"]


# Byte identity across BLAS thread counts: row "solve[zeno]" is the test
# test_solve_is_identical_across_blas_thread_counts[zeno], and row "gen" the
# unparametrized test_gen_is_identical_across_blas_thread_counts. A row writes
# `files` files (0: no --out), adds --trace-out if `trace`, and says `says`.
Row = namedtuple("Row", "id command files says trace", defaults=(1, "", False))
Run = namedtuple("Run", "code stdout stderr files")
PLANTED = "solve --n 7 --kappa 16 --form planted --method"
SAMPLED = ("solve --n 6 --kappa 16 --form planted --mode sample --seed 159 "
           "--method")
SMALL = "solve --n 3 --kappa 6 --form"
INSTANCE = "filter --in ../p.qlsp --lam 1.0"
PASSED = "all checks passed"
BLAS_ROWS = [
    Row("aqc_solve", f"{PLANTED} aqc"),
    # the walk, whose filters take the halves of one [B, B†] pair per step
    Row("solve[zeno]", f"{PLANTED} zeno"),
    Row("solve[qsp-direct]", f"{PLANTED} qsp-direct"),
    # the dilated adiabatic path; every evolution step runs the one plan
    Row("solve[aqc-dilated]", "solve --n 4 --kappa 6 --seed 1 --method aqc "
        "--form hermitian-indefinite"),
    Row("solve[aqc-indefinite3]",
        f"{SMALL} hermitian-indefinite --method aqc"),
    Row("solve[aqc-general3]", f"{SMALL} general --method aqc"),
    # the inversion polynomial's Dolph-Chebyshev window on a dilated instance
    Row("solve[qsp-direct-general]",
        f"{SMALL} general --seed 1 --method qsp-direct"),
    # gen_instance solves at N = 16, through the 2-D np.dot path
    Row("solve[qsp-direct-gen4]", "solve --n 4 --kappa 10 --method qsp-direct"),
    Row("solve[zeno-gen4]", "solve --n 4 --kappa 10 --method zeno"),
    # the planted spectrum, measured_kappa's SVD and the real matrix block
    Row("gen", "gen --n 7 --kappa 16 --form planted"),
    # table and sidecar: the fig-A2 sweeps evolve and filter each kappa's
    # seeds as one stack; kappa-scaling calibrates and runs three solvers
    Row("experiment[fig-a2-left]", "experiment fig-a2-left --trials 2", 2),
    Row("experiment[fig-a2-right]", "experiment fig-a2-right --trials 2", 2),
    Row("experiment[kappa-scaling]", "experiment kappa-scaling --trials 1", 2),
    # every suite, among them the walk's overlap bounds and the encodings
    Row("validate", "validate --suite all", 0, PASSED),
    # the array filter evaluation and the closed-form reflection norm
    Row("poly", "poly --ell 64 --gap 0.05 --kind reflection"),
    Row("command[poly-reflection-16]",
        "poly --ell 16 --gap 0.1 --kind reflection"),
    # the eigenpath suite's points come from one eigenpath_states call
    Row("command[validate-eigenpath]", "validate --suite eigenpath", 0,
        PASSED),
    Row("command[poly-filter-64]", "poly --ell 64 --gap 0.05 --kind filter"),
    # the dilated forms' instances and matrix blocks
    Row("command[gen-general4]", "gen --n 4 --kappa 10 --form general"),
    Row("command[gen-indefinite4]",
        "gen --n 4 --kappa 10 --form hermitian-indefinite"),
    Row("command[validate-seed7]", "validate --suite all --seed 7", 0, PASSED),
    # apply_filter, through filtering.filter_ops, on an instance file
    Row("filter", INSTANCE),
    # the overlaps recorded during the evolution, and the walk's step trace
    Row("traced_solve[aqc]", f"{PLANTED} aqc", 2, trace=True),
    Row("traced_solve[zeno]", f"{PLANTED} zeno", 2, trace=True),
    # filtering.sampled's coins under each solver; seed 159 restarts the walk
    Row("sampled_solve[aqc]", f"{SAMPLED} aqc"),
    Row("sampled_solve[zeno]", f"{SAMPLED} zeno"),
    Row("sampled_solve[qsp-direct]", f"{SAMPLED} qsp-direct"),
    # the filter command's one seeded coin on an instance file
    Row("sampled_filter", f"{INSTANCE} --mode sample"),
]

# Imports eigenfilter once, then runs each argv through cli.main from the
# given directory and prints its exit code, stdout and stderr as JSON.
RUNNER = """
import contextlib, io, json, os, sys, traceback
from eigenfilter.cli import main
os.chdir(sys.argv[1])
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except (SystemExit, Exception) as e:
            code = e.code if isinstance(e, SystemExit) else 1
            traceback.print_exc()
    print(json.dumps((code, out.getvalue(), err.getvalue())),
          file=sys.__stdout__)
"""


@pytest.fixture(scope="session")
def blas_runs(tmp_path_factory):
    # two runners, one per BLAS thread count, run every row side by side
    base = tmp_path_factory.mktemp("blas")
    assert run("gen", "--form", "planted", "--n", "3", "--kappa", "4",
               "--seed", "2", "--out", str(base / "p.qlsp")) == 0
    argvs = json.dumps([
        [*r.command.split(), *["--out", f"{r.id}/out"] * bool(r.files),
         *["--trace-out", f"{r.id}/out.trace.csv"] * r.trace]
        for r in BLAS_ROWS])
    for path in (base / t / r.id for t in ("1", "2") for r in BLAS_ROWS):
        path.mkdir(parents=True)
    procs = {t: subprocess.Popen(
        [sys.executable, "-c", RUNNER, base / t, argvs], text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, OPENBLAS_NUM_THREADS=t)) for t in ("1", "2")}
    runs = {}
    for t, proc in procs.items():
        stdout, stderr = proc.communicate()
        assert proc.returncode == 0, stderr
        runs[t] = {r.id: Run(*json.loads(line), [
            f.read_bytes() for f in sorted((base / t / r.id).iterdir())])
            for r, line in zip(BLAS_ROWS, stdout.splitlines())}
    return runs


def assert_identical(blas_runs, row):
    one, two = blas_runs["1"][row.id], blas_runs["2"][row.id]
    for got in (one, two):
        assert got.code == 0, got.stderr
        assert len(got.files) == row.files and row.says in got.stdout
    assert (one.stdout, one.files) == (two.stdout, two.files)


def identity_test(rows):
    if "[" not in rows[0].id:
        return lambda blas_runs: assert_identical(blas_runs, rows[0])

    @pytest.mark.parametrize("row", rows,
                             ids=[r.id[r.id.index("[") + 1:-1] for r in rows])
    def test(blas_runs, row):
        assert_identical(blas_runs, row)
    return test


for _name in dict.fromkeys(r.id.split("[")[0] for r in BLAS_ROWS):
    globals()[f"test_{_name}_is_identical_across_blas_thread_counts"] = (
        identity_test([r for r in BLAS_ROWS if r.id.split("[")[0] == _name]))


def test_fresh_interpreters_match_the_runners(blas_runs, tmp_path):
    # build_inversion_poly is memoized per process, so state carried between
    # one runner's rows could hide a thread-count difference: the module
    # entry point, fresh under each thread count, must match the runner
    row = next(r for r in BLAS_ROWS if r.id == "solve[qsp-direct]")
    for threads, runs in blas_runs.items():
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "eigenfilter", *row.command.split(),
             "--out", str(out)], capture_output=True, text=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        want = runs[row.id]
        assert (proc.stdout, [out.read_bytes()]) == (want.stdout, want.files)
