"""Roundtrips, determinism, and parse-error locations for the file formats."""

import io
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eigenfilter.cli import main
from eigenfilter.harness import gen_instance, planted_tridiag_instance
from eigenfilter.numerics import DenseOperator, StateRegister, hermitian_part
from eigenfilter.qlsp import QlspInstance
from eigenfilter.report import ExperimentResult, SolverReport
from eigenfilter.storage import (
    StorageError,
    _matrix_block,
    _parse_matrix_block,
    io_roundtrip,
    load,
    load_experiment,
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


@pytest.mark.parametrize("sidecar", ["[]", '"s"', '{"name": 3, "diagnostics": []}'],
                         ids=["list", "string", "ill-typed-fields"])
def test_malformed_experiment_sidecar_fails_at_line_1(tmp_path, sidecar):
    path = tmp_path / "table.csv"
    save(path, small_table())
    (tmp_path / "table.csv.meta.json").write_text(sidecar)
    with pytest.raises(StorageError) as err:
        load(path)
    assert err.value.line == 1


def test_experiment_sidecar_defaults_missing_keys(tmp_path):
    path = tmp_path / "table.csv"
    save(path, small_table())
    (tmp_path / "table.csv.meta.json").write_text("{}")
    back = load_experiment(path)
    assert (back.name, back.diagnostics) == ("table", {})


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


def _replace(i, old, new):
    # the file's lines with the first `old` of line i (0-based) made `new`
    return lambda lines: lines[:i] + [lines[i].replace(old, new, 1)] + lines[i + 1:]


# a gen --n 2 file: header (line 1), banner (2), % (3), "4 4 7" (4), and
# the seven entries of the lower triangle (5-11), the first "1 1 ..."; a
# short block stops at its last line
@pytest.mark.parametrize("edit, line, column", [
    (_replace(4, "1", "9"), 5, 1),
    (_replace(4, "1", "0"), 5, 1),
    (_replace(4, "1 1", "1 5"), 5, 3),
    (_replace(1, "real", "reel"), 2, 34),
    (lambda lines: lines + ["4 1 1.0"], 12, 1),
    (lambda lines: lines[:-1], 10, 1),
    (_replace(3, " 7", ""), 4, 4),
], ids=["row-index-9", "row-index-0", "column-index-5", "field-reel",
        "one-entry-more", "one-entry-fewer", "size-line-short"])
def test_matrix_block_fault_reports_its_line_and_column(tmp_path, edit, line,
                                                        column):
    path = tmp_path / "inst.qlsp"
    save_instance(path, gen_instance(2, 3.0, 0))
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(StorageError, match="malformed matrix block") as err:
        load_instance(path)
    assert (err.value.line, err.value.column) == (line, column)


def mm_read(block: str) -> np.ndarray:
    from scipy.io import mmread

    return np.asarray(mmread(io.BytesIO(block.encode("ascii"))).todense())


def assert_codec_matches_scipy(mat) -> str:
    """The block of mat is mm_block's bytes and reads back as mmread's matrix."""
    block = _matrix_block(mat)
    assert block == mm_block(mat)
    want, got = mm_read(block), _parse_matrix_block(block, offset=0)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.array_equal(got, mat)
    return block


def _phased(mat, seed):
    # D·A·D† for a diagonal of random phases D, made exactly Hermitian
    rng = np.random.default_rng(seed)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, len(mat)))
    return hermitian_part(phases[:, None] * mat * phases.conj()[None, :])


def _random(n, seed, kind):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(1 << n, 1 << n))
    z = m + 1j * rng.normal(size=m.shape)
    return {"complex-general": z, "real-skew": m - m.T,
            "complex-symmetric": z + z.T}[kind]


MM_FAMILIES = (
    [(f"{form}-n{n}", lambda n=n, form=form: gen_instance(n, 5.0, n, form).A.mat)
     for form in ("positive-definite", "hermitian-indefinite", "general")
     for n in range(2, 9)]
    + [(f"planted-n{n}", lambda n=n: planted_tridiag_instance(n, 8.0, n).A.mat)
       for n in range(2, 9)]
    + [(f"complex-hermitian-n{n}",
        lambda n=n: _phased(gen_instance(n, 5.0, n, "hermitian-indefinite").A.mat, n))
       for n in (3, 6, 7)]
    + [(f"{kind}-n{n}", lambda n=n, kind=kind: _random(n, n, kind))
       for kind in ("complex-general", "real-skew", "complex-symmetric")
       for n in (3, 6, 7)]
)


@pytest.mark.parametrize("make", [m for _, m in MM_FAMILIES],
                         ids=[name for name, _ in MM_FAMILIES])
def test_matrix_block_is_scipy_bytes_and_reads_as_mmread(make):
    assert_codec_matches_scipy(make())


@pytest.mark.parametrize("dim, symmetry", [(64, "symmetric"), (99, "symmetric"),
                                           (100, "general"), (128, "general")])
def test_symmetry_is_looked_for_only_below_dimension_100(dim, symmetry):
    # scipy's mmwrite looks for symmetry only when max(shape) < 100: so a
    # 64 x 64 instance (n = 6) is written symmetric and n = 7 general
    m = np.random.default_rng(dim).normal(size=(dim, dim))
    block = assert_codec_matches_scipy(m + m.T)
    assert block.splitlines()[0] == f"%%MatrixMarket matrix coordinate real {symmetry}"


_ENTRIES = st.floats(allow_nan=False, allow_infinity=False) | st.just(0.0)


@st.composite
def mm_matrices(draw):
    """Small real or complex matrices of each symmetry, zeros and -0.0 included."""
    symmetry = draw(st.sampled_from(["general", "symmetric", "skew-symmetric",
                                     "hermitian"]))
    rows = draw(st.integers(1, 6))
    shape = (rows, draw(st.integers(1, 6)) if symmetry == "general" else rows)
    m = draw(arrays(np.float64, shape, elements=_ENTRIES))
    if symmetry == "hermitian" or draw(st.booleans()):
        m = m + 1j * draw(arrays(np.float64, shape, elements=_ENTRIES))
    if symmetry == "general":
        return m
    low, diag = np.tril(m, -1), np.diag(np.diag(m))
    if symmetry == "skew-symmetric":
        return low - low.T
    if symmetry == "hermitian":
        return low + diag.real + low.conj().T
    return low + diag + low.T


@settings(max_examples=150, deadline=None)
@given(mm_matrices())
def test_codec_matches_scipy_on_random_matrices(mat):
    off = np.where(np.eye(*mat.shape, dtype=bool), 0, mat)
    # scipy's symmetry search skips the first nonzero diagonal entry, so it
    # writes "hermitian" for a complex matrix whose off-diagonal part is
    # Hermitian even if that entry is not real, which the format does not
    # allow; the codec writes such a matrix general
    assume(not (np.iscomplexobj(mat) and np.array_equal(off, off.conj().T)
                and np.diag(mat).imag.any()))
    if not np.any(mat):
        with pytest.raises(StorageError, match="empty"):
            _matrix_block(mat)
        return
    assert_codec_matches_scipy(mat)


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


@pytest.mark.parametrize("loader, files, byte, line, column", [
    (load_instance, {"x.qlsp": b'{"kind": "qlsp-instance"}\n\xff\n'},
     0xff, 2, 1),
    (load_report, {"x.json": b'{\n  "kind": "solver-r\xe9port"\n}\n'},
     0xe9, 2, 20),
    (load_experiment, {"x.csv": b"kappa,ell\n10.0,0\n10.0,\x80\n"},
     0x80, 3, 6),
    (load_experiment, {"x.csv": b"kappa,ell\n10.0,0\n",
                       "x.csv.meta.json": b'{"name": "\xc3\xa9"}\n'},
     0xc3, 1, 11),
    (load, {"x.qlsp": b'{"kind": "qlsp-instance"}\n\xff\n'}, 0xff, 2, 1),
    (load, {"x.csv": b"\x80kappa,ell\n"}, 0x80, 1, 1),
], ids=["instance", "report", "table", "sidecar", "load-instance",
        "load-table"])
def test_non_ascii_byte_fails_to_parse_at_its_place(tmp_path, loader, files,
                                                    byte, line, column):
    for name, body in files.items():
        (tmp_path / name).write_bytes(body)
    with pytest.raises(StorageError, match=f"non-ASCII byte 0x{byte:02x}") as err:
        loader(tmp_path / next(iter(files)))
    assert (err.value.line, err.value.column) == (line, column)


def test_non_ascii_instance_file_is_an_input_parse_failure(tmp_path, capsys):
    path = tmp_path / "bad.qlsp"
    path.write_bytes(b'{"kind": "qlsp-instance"}\n\xff\n')
    assert main(["solve", "--in", str(path), "--method", "zeno"]) == 2
    assert "non-ASCII byte 0xff at line 2, column 1" in capsys.readouterr().err
