"""Roundtrips, determinism, and parse-error locations for the file formats."""

import io
import json

import numpy as np
import pytest

from eigenfilter.cli import main
from eigenfilter.harness import gen_instance
from eigenfilter.numerics import DenseOperator, StateRegister
from eigenfilter.qlsp import QlspInstance
from eigenfilter.report import ExperimentResult, SolverReport
from eigenfilter.storage import (
    StorageError,
    io_roundtrip,
    load,
    load_instance,
    load_report,
    save,
    save_instance,
)


def mm_block(mat) -> str:
    # a MatrixMarket block written the way save_instance writes one
    from scipy.io import mmwrite
    from scipy.sparse import coo_matrix

    buf = io.BytesIO()
    mmwrite(buf, coo_matrix(mat), precision=17)
    return buf.getvalue().decode("ascii")


def small_report() -> SolverReport:
    return SolverReport(
        method="qsp-direct",
        params={"kappa": 6.0, "d": 3, "N": 8, "eps": 1e-3, "degree": 41,
                "mode": "postselect", "seed": None},
        final_fidelity=0.9991,
        success_probabilities=[0.015625],
        query_ledger={"U_A": 41, "O_B": 1},
        formula_derived_costs={"expected_queries": 2624.0},
        attempts=1,
    )


def small_table() -> ExperimentResult:
    rows = [(10.0, 0, 0, 0.25), (10.0, 5, 0, 0.75), (10.0, 10, 1, 0.984375)]
    return ExperimentResult("fidelity-vs-ell", ["kappa", "ell", "seed", "eta"],
                            rows, {"per_kappa": {"10.0": {"slope": -0.31}}})


def test_instance_roundtrip_is_exact(tmp_path):
    inst = gen_instance(3, 5.0, 4)
    back = io_roundtrip(tmp_path / "inst.qlsp", inst)
    assert np.array_equal(back.A.mat, inst.A.mat)
    assert np.array_equal(back.b.amps, inst.b.amps)
    assert (back.kappa, back.d, back.form, back.seed, back.n) == \
        (inst.kappa, inst.d, inst.form, inst.seed, inst.n)
    assert back.A.hermitian


def test_complex_field_matrix_block_loads_as_the_real_matrix(tmp_path):
    # files written before operators were stored as float64 carry a complex
    # block with zero imaginary parts
    inst = gen_instance(3, 5.0, 4)
    real_path, complex_path = tmp_path / "real.qlsp", tmp_path / "complex.qlsp"
    save_instance(real_path, inst)
    head, _, block = real_path.read_text().partition("\n")
    assert "coordinate real symmetric" in block
    old = mm_block(inst.A.mat.astype(complex))
    assert "coordinate complex symmetric" in old
    complex_path.write_text(head + "\n" + old)
    want, got = load_instance(real_path).A.mat, load_instance(complex_path).A.mat
    assert want.dtype == got.dtype == float
    assert want.tobytes() == got.tobytes() == inst.A.mat.tobytes()


def test_complex_right_hand_state_roundtrips(tmp_path):
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0 / np.sqrt(2.0)
    amps[1] = 1j / np.sqrt(2.0)
    inst = QlspInstance(DenseOperator(np.diag([1.0, 0.5, 0.5, 0.25]),
                                      hermitian=True),
                        StateRegister(amps, ancilla=0, system=2),
                        kappa=4.0, d=1, form="positive-definite")
    back = io_roundtrip(tmp_path / "inst.qlsp", inst)
    assert np.array_equal(back.b.amps, amps)


def test_save_is_deterministic(tmp_path):
    inst = gen_instance(2, 3.0, 0)
    save(tmp_path / "a.qlsp", inst)
    save(tmp_path / "b.qlsp", inst)
    assert (tmp_path / "a.qlsp").read_bytes() == (tmp_path / "b.qlsp").read_bytes()

    save(tmp_path / "a.json", small_report())
    save(tmp_path / "b.json", small_report())
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_report_roundtrip(tmp_path):
    report = small_report()
    back = io_roundtrip(tmp_path / "report.json", report)
    assert back.method == report.method
    assert back.params == report.params
    assert back.final_fidelity == report.final_fidelity
    assert back.success_probabilities == report.success_probabilities
    assert back.query_ledger == report.query_ledger
    assert back.formula_derived_costs == report.formula_derived_costs
    assert back.attempts == report.attempts


def test_experiment_roundtrip_header_and_sidecar(tmp_path):
    path = tmp_path / "table.csv"
    result = small_table()
    back = io_roundtrip(path, result)
    first = path.read_text().splitlines()[0]
    assert first == "kappa,ell,seed,eta"
    side = tmp_path / "table.csv.meta.json"
    assert side.exists()
    meta = json.loads(side.read_text())
    assert meta["name"] == "fidelity-vs-ell"
    assert back.name == result.name
    assert back.columns == result.columns
    assert back.rows == result.rows  # int cells stay int, float cells float
    assert back.diagnostics == result.diagnostics


def test_load_dispatches_on_shape(tmp_path):
    inst = gen_instance(2, 3.0, 1)
    save(tmp_path / "inst.qlsp", inst)
    save(tmp_path / "report.json", small_report())
    save(tmp_path / "table.csv", small_table())
    assert isinstance(load(tmp_path / "inst.qlsp"), QlspInstance)
    assert isinstance(load(tmp_path / "report.json"), SolverReport)
    assert isinstance(load(tmp_path / "table.csv"), ExperimentResult)


def test_empty_matrix_block_is_rejected(tmp_path):
    path = tmp_path / "inst.qlsp"
    inst = gen_instance(2, 3.0, 0)
    save_instance(path, inst)
    header = path.read_text().partition("\n")[0]
    block = "%%MatrixMarket matrix coordinate real general\n4 4 0\n"
    path.write_text(header + "\n" + block)
    with pytest.raises(StorageError, match="empty"):
        load_instance(path)


def test_malformed_matrix_line_reports_location(tmp_path):
    path = tmp_path / "inst.qlsp"
    save_instance(path, gen_instance(2, 3.0, 0))
    lines = path.read_text().splitlines()
    bad_index = len(lines) - 1  # last data triple
    parts = lines[bad_index].split()
    parts[2] = "abc"
    lines[bad_index] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StorageError, match="malformed matrix block") as err:
        load_instance(path)
    assert err.value.line == bad_index + 1
    assert err.value.column is not None and err.value.column >= 1


def test_malformed_and_mislabeled_headers(tmp_path):
    path = tmp_path / "inst.qlsp"
    save_instance(path, gen_instance(2, 3.0, 0))
    body = path.read_text()
    head, _, rest = body.partition("\n")

    path.write_text(head[: len(head) // 2] + "\n" + rest)
    with pytest.raises(StorageError, match="header"):
        load_instance(path)

    path.write_text('{"kind": "something-else"}\n' + rest)
    with pytest.raises(StorageError, match="not an instance file"):
        load_instance(path)

    path.write_text('{"kind": "qlsp-instance"}')
    with pytest.raises(StorageError, match="missing matrix block"):
        load_instance(path)


def test_report_kind_is_checked(tmp_path):
    path = tmp_path / "report.json"
    path.write_text('{\n  "kind": "something-else"\n}\n')
    with pytest.raises(StorageError, match="not a report file"):
        load(path)
    path.write_text('{ not json')
    with pytest.raises(StorageError, match="malformed report"):
        load(path)


@pytest.mark.parametrize("edit, match, line", [
    (lambda h, a: h.pop("b_real"), "missing field 'b_real'", 1),
    (lambda h, a: h.update(kappa="x"), "ill-typed field 'kappa'", 1),
    (lambda h, a: h.update(n=h["n"] + 1), "right-hand state", 1),
    # values that parse but fail the instance's checks (no single line)
    (lambda h, a: h.update(n=1, b_real=[1.0, 0.0], b_imag=[0.0, 0.0]),
     "dimensions differ", None),
    (lambda h, a: h.update(b_real=[2.0 * x for x in h["b_real"]]),
     "must be normalized", None),
    (lambda h, a: h.update(kappa=0.5), "kappa must exceed 1", None),
    (lambda h, a: h.update(kappa=float("nan")), "kappa must exceed 1", None),
    (lambda h, a: np.multiply(a, 2.0, out=a), "exceeds 1", None),
], ids=["missing-b_real", "string-kappa", "n-mismatch", "dim-mismatch",
        "unnormalized-b", "kappa-below-1", "kappa-nan", "norm-above-1"])
def test_bad_instance_header_fields_fail_to_parse(tmp_path, capsys, edit,
                                                  match, line):
    path = tmp_path / "inst.qlsp"
    inst = gen_instance(2, 3.0, 0)
    save_instance(path, inst)
    header = json.loads(path.read_text().partition("\n")[0])
    mat = inst.A.mat.copy()
    edit(header, mat)
    path.write_text(json.dumps(header) + "\n" + mm_block(mat))
    with pytest.raises(StorageError, match=match) as err:
        load_instance(path)
    assert err.value.line == line
    # an input-parse failure: exit 2, not a traceback or a usage error
    assert main(["solve", "--in", str(path), "--method", "zeno"]) == 2
    assert match in capsys.readouterr().err


def test_missing_or_ill_typed_report_fields_fail_to_parse(tmp_path):
    path = tmp_path / "report.json"
    path.write_text('{"kind": "solver-report"}\n')
    with pytest.raises(StorageError, match="missing field 'method'"):
        load_report(path)
    record = {"kind": "solver-report", **small_report().to_dict()}
    record["query_ledger"] = {"U_A": 41.5}
    path.write_text(json.dumps(record))
    with pytest.raises(StorageError, match="ill-typed field 'query_ledger'"):
        load_report(path)
    path.write_text("[1, 2]\n")
    with pytest.raises(StorageError, match="not a report file"):
        load_report(path)


def test_short_csv_row_reports_line(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("kappa,ell,seed,eta\n10.0,0,0,0.25\n10.0,5\n")
    with pytest.raises(StorageError, match="line 3") as err:
        load(path)
    assert err.value.line == 3


def test_save_rejects_unknown_values(tmp_path):
    with pytest.raises(StorageError):
        save(tmp_path / "x", {"not": "supported"})
