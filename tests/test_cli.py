"""Exit codes, determinism, and output formats of the command line."""

import json
import os
import subprocess
import sys

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
    monkeypatch.setattr(cli, "filter_eval", lambda spec, xs: np.full_like(xs, 2.0))
    assert run("validate", "--suite", "minimax") == 2
    captured = capsys.readouterr()
    assert captured.out.count("FAIL minimax") == 9
    assert "all checks passed" not in captured.out
    assert "minimax ell=8 gap=0.05; minimax ell=16 gap=0.05" in captured.err


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


def test_module_entry_point_is_reproducible(tmp_path):
    cmd = [sys.executable, "-m", "eigenfilter", "gen", "--n", "2",
           "--kappa", "4", "--seed", "9"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.startswith("instance ")


def under_blas_thread_counts(tmp_path, *argv, out=True):
    # stdout, and the bytes of every file --out writes when out is set, of
    # one command under one and two BLAS threads
    outputs = []
    for threads in ("1", "2"):
        path = tmp_path / f"out-{threads}"
        cmd = [sys.executable, "-m", "eigenfilter", *argv]
        cmd += ["--out", str(path)] if out else []
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        files = sorted(tmp_path.glob(f"out-{threads}*"))
        assert bool(files) == out
        outputs.append((proc.stdout, [f.read_bytes() for f in files]))
    return outputs


def test_aqc_solve_is_identical_across_blas_thread_counts(tmp_path):
    one, two = under_blas_thread_counts(
        tmp_path, "solve", "--n", "7", "--kappa", "16", "--form", "planted",
        "--method", "aqc")
    assert one == two


@pytest.mark.parametrize("solve_args", [
    ("--n", "7", "--kappa", "16", "--form", "planted", "--method", "zeno"),
    ("--n", "7", "--kappa", "16", "--form", "planted",
     "--method", "qsp-direct"),
    # the dilated adiabatic path; every evolution step runs the one plan
    ("--n", "4", "--kappa", "6", "--seed", "1",
     "--form", "hermitian-indefinite", "--method", "aqc"),
    ("--n", "3", "--kappa", "6", "--form", "hermitian-indefinite",
     "--method", "aqc"),
    ("--n", "3", "--kappa", "6", "--form", "general", "--method", "aqc"),
    # the inversion polynomial's Dolph-Chebyshev window on a dilated instance
    ("--n", "3", "--kappa", "6", "--seed", "1", "--form", "general",
     "--method", "qsp-direct"),
], ids=["zeno", "qsp-direct", "aqc-dilated", "aqc-indefinite3", "aqc-general3",
        "qsp-direct-general"])
def test_solve_is_identical_across_blas_thread_counts(tmp_path, solve_args):
    one, two = under_blas_thread_counts(tmp_path, "solve", *solve_args)
    assert one == two


def test_gen_is_identical_across_blas_thread_counts(tmp_path):
    # the planted spectrum, the SVD behind measured_kappa and the real-field
    # matrix block
    one, two = under_blas_thread_counts(
        tmp_path, "gen", "--n", "7", "--kappa", "16", "--form", "planted")
    assert one == two


@pytest.mark.parametrize("preset, trials", [
    ("fig-a2-left", "2"), ("fig-a2-right", "2"), ("kappa-scaling", "1"),
], ids=["fig-a2-left", "fig-a2-right", "kappa-scaling"])
def test_experiment_is_identical_across_blas_thread_counts(tmp_path, preset,
                                                          trials):
    # table and sidecar of the fig-A2 sweeps, whose two seeds per kappa
    # evolve and filter as S = 2 stacks (one np.matmul per term on
    # (S, 2, N, N) pairs), and of the kappa-scaling sweep: the
    # calibration's stacked evolution and its three solvers
    one, two = under_blas_thread_counts(
        tmp_path, "experiment", preset, "--trials", trials)
    assert len(one[1]) == 2
    assert one == two


def test_validate_is_identical_across_blas_thread_counts(tmp_path):
    # every suite, among them the walk's overlap bounds and the encodings
    one, two = under_blas_thread_counts(tmp_path, "validate", "--suite", "all",
                                        out=False)
    assert "all checks passed" in one[0]
    assert one == two


def test_poly_is_identical_across_blas_thread_counts(tmp_path):
    # the array filter evaluation and the closed-form reflection norm
    one, two = under_blas_thread_counts(
        tmp_path, "poly", "--ell", "64", "--gap", "0.05", "--kind", "reflection")
    assert one == two
