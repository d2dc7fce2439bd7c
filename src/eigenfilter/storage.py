"""File formats: instance containers, report records, experiment tables.

One format per value kind, all text, all deterministic (sorted keys, repr
floats, no timestamps), so identical inputs produce byte-identical files.

  QlspInstance      single file: a one-line JSON header (kappa, d, form,
                    seed, right-hand state) followed by the matrix as a
                    MatrixMarket coordinate block, real or complex as the
                    matrix is (a complex block with zero imaginary parts
                    loads as the same float64 matrix)
  SolverReport      indented JSON record
  ExperimentResult  CSV table with declared header, plus a JSON sidecar
                    (path + ".meta.json") holding name and diagnostics

Floats are written with repr (JSON) or 17 significant digits (MatrixMarket),
both exact for doubles, so roundtrips reproduce values bit for bit. The
MatrixMarket codec is numpy's and writes scipy 1.17's mmwrite bytes: below
dimension 100 a symmetric, skew-symmetric or Hermitian matrix keeps only its
lower triangle, as mmwrite looks for symmetry only there (the look costs an
O(N²) pass), so files match those that earlier, scipy-based versions wrote.
"""

from __future__ import annotations

import csv
import io
import json
import re
from pathlib import Path

import numpy as np

from .numerics import DenseOperator, StateRegister
from .qlsp import FORMS, QlspInstance
from .report import ExperimentResult, SolverReport

_FIELDS = {"real": [float], "integer": [int], "complex": [float, float]}
_MIRROR = {"symmetric": lambda v: v, "skew-symmetric": np.negative,
           "hermitian": np.conj}  # the upper triangle from the stored lower one
_BANNER = [{"%%matrixmarket"}, {"matrix"}, {"coordinate"}, _FIELDS.keys(),
           {"general", *_MIRROR}]


class StorageError(ValueError):
    """Parse or format failure, with 1-based line/column when known."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        loc = f" at line {line}" + (f", column {column}" if column else "")
        super().__init__(message + (loc if line is not None else ""))
        self.line, self.column = line, column


def _read_text(path) -> str:
    """A file's ASCII text; a non-ASCII byte fails to parse at its place."""
    try:
        return Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
    pos = re.search(rb"[\x80-\xff]", data).start()
    raise StorageError(f"non-ASCII byte 0x{data[pos]:02x}", data.count(b"\n", 0, pos) + 1,
                       pos - data.rfind(b"\n", 0, pos))


def _plain(value):
    """JSON-safe copy: numpy scalars and arrays to native types."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    return value


def _dump_json(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, indent=2) + "\n"


_NUM = (int, float)
# field -> (type, type of each list element or dict value, or None)
_INSTANCE_FIELDS = {"b_real": (list, _NUM), "b_imag": (list, _NUM),
                    "n": (int, None), "kappa": (_NUM, None), "d": (int, None),
                    "form": (str, None), "seed": ((int, type(None)), None)}
_REPORT_FIELDS = {"method": (str, None), "params": (dict, None),
                  "final_fidelity": (_NUM, None),
                  "success_probabilities": (list, _NUM),
                  "query_ledger": (dict, int),
                  "formula_derived_costs": (dict, _NUM), "attempts": (int, None)}
_SIDECAR_FIELDS = {"name": (str, None), "diagnostics": (dict, None)}


def _is(value, kinds) -> bool:
    # JSON true/false load as bool, a subclass of int; no field takes them
    return isinstance(value, kinds) and not isinstance(value, bool)


def _fields(record: dict, schema: dict, line: int | None = None) -> dict:
    """The schema's fields of record; StorageError if one is missing or ill-typed."""
    for key, (kinds, items) in schema.items():
        if key not in record:
            raise StorageError(f"missing field {key!r}", line)
        value = record[key]
        elems = value.values() if isinstance(value, dict) else value
        if not _is(value, kinds) or items and not all(_is(v, items) for v in elems):
            raise StorageError(f"ill-typed field {key!r}", line)
    return {key: record[key] for key in schema}


def _matrix_block(mat: np.ndarray) -> str:
    """mat's coordinate block, byte for byte as scipy 1.17's
    mmwrite(coo_matrix(mat), precision=17) writes it."""
    symmetry = next((s for s, mirror in _MIRROR.items() if max(mat.shape) < 100
                     and np.array_equal(mat, mirror(mat.T))), "general")
    lower = np.tri(*mat.shape, dtype=bool) | (symmetry == "general")  # row >= col
    rows, cols = np.nonzero((mat != 0) & lower)
    if rows.size == 0:
        raise StorageError("refusing to write an empty matrix")
    field = "complex" if np.iscomplexobj(mat) else "real"
    lines = [f"%%MatrixMarket matrix coordinate {field} {symmetry}", "%",
             f"{mat.shape[0]} {mat.shape[1]} {rows.size}"]
    parts = len(_FIELDS[field])  # 17 significant digits each, exact for doubles
    lines += [f"{i} {j} " + " ".join(f"{p:.16e}" for p in (v.real, v.imag)[:parts])
              for i, j, v in zip(rows + 1, cols + 1, mat[rows, cols].tolist())]
    return "\n".join(lines) + "\n"


def _field(kind, ok):
    """A field's parser: kind(token), and a ValueError unless ok accepts it."""
    def parse(token: str):
        if not ok(value := kind(token)):
            raise ValueError(token)
        return value
    return parse


def _parse_matrix_block(text: str, offset: int) -> np.ndarray:
    """One pass over a coordinate block: the banner, any % lines, the size
    line, then exactly its nnz entries, duplicates summed. The first fault
    raises StorageError at its line (offset = file lines before the block)."""
    lines = text.splitlines() + [""]  # the empty last line marks the end

    def fail(why: str, i: int, column: int = 1):
        raise StorageError(f"malformed matrix block: {why}", offset + i + 1, column)

    def read(i: int, fields: list) -> list:
        """Line i's fields, parsed; the last match, $'s empty one, is its end."""
        values, end = [], _field(str, "".__eq__)
        for tok, parse in zip(re.finditer(r"\S+|$", lines[i]), fields + [end]):
            try:
                values.append(parse(tok.group()))
            except ValueError:
                fail(f"unexpected {tok.group()!r}" if tok.group() else "missing field",
                     i, tok.start() + 1)
        return values[:-1]

    *_, field, symmetry = read(0, [_field(str.lower, w.__contains__) for w in _BANNER])
    body = [i for i, line in enumerate(lines) if i and line.strip()] + [len(lines) - 1]
    while lines[body[0]].startswith("%"):
        body.pop(0)
    m, n, nnz = read(body[0], [_field(int, lambda v: v >= 0)] * 3)
    mirror, entries = _MIRROR.get(symmetry), body[1:-1]
    if mirror and m != n:
        fail(f"{symmetry} block of shape {m} x {n}", body[0])
    fields = [_field(int, lambda v: 1 <= v <= m), _field(int, lambda v: 1 <= v <= n),
              *_FIELDS[field]]
    kind = complex if field == "complex" else float
    mat = np.zeros((m, n), kind)
    for i in entries[:nnz]:
        row, col, *parts = read(i, fields)
        mat[row - 1, col - 1] += kind(*parts)
        if mirror and row != col:
            mat[col - 1, row - 1] += mirror(kind(*parts))
    if len(entries) != nnz:
        fail(f"{len(entries)} entries, {nnz} declared", (entries[nnz:] + body[-2:])[0])
    if not np.any(mat):
        raise StorageError("matrix block is empty", offset + 1, 1)
    return mat


def save_instance(path, inst: QlspInstance) -> None:
    header = {
        "kind": "qlsp-instance",
        "kappa": inst.kappa, "d": inst.d, "form": inst.form,
        "seed": inst.seed, "n": inst.n,
        "b_real": np.real(inst.b.amps).tolist(),
        "b_imag": np.imag(inst.b.amps).tolist(),
    }
    body = json.dumps(_plain(header), sort_keys=True) + "\n" + _matrix_block(inst.A.mat)
    Path(path).write_text(body, encoding="ascii")


def load_instance(path) -> QlspInstance:
    text = _read_text(path)
    head, sep, rest = text.partition("\n")
    if not sep:
        raise StorageError("missing matrix block", 2, 1)
    try:
        meta = json.loads(head)
    except json.JSONDecodeError as e:
        raise StorageError("malformed instance header", 1, e.colno) from None
    if not isinstance(meta, dict) or meta.get("kind") != "qlsp-instance":
        raise StorageError("not an instance file", 1, 1)
    meta = _fields(meta, _INSTANCE_FIELDS, line=1)
    amps = np.asarray(meta["b_real"], dtype=float)
    imag = np.asarray(meta["b_imag"], dtype=float)
    n, form = meta["n"], meta["form"]
    if imag.size != amps.size or not 0 <= n < 64 or amps.size != 1 << n:
        raise StorageError(f"right-hand state of {amps.size} real and "
                           f"{imag.size} imaginary amplitudes for n = {n}", 1)
    if form not in FORMS:
        raise StorageError(f"unknown form {form!r}", 1)
    mat = _parse_matrix_block(rest, offset=1)
    if np.any(imag):
        amps = amps + 1j * imag
    try:  # the value checks of the header and the block against each other
        return QlspInstance(DenseOperator(mat, hermitian=form != "general"),
                            StateRegister(amps, ancilla=0, system=n),
                            kappa=float(meta["kappa"]), d=meta["d"], form=form,
                            seed=meta["seed"])
    except ValueError as e:
        raise StorageError(f"invalid instance: {e}") from None


def save_report(path, report: SolverReport) -> None:
    record = {"kind": "solver-report", **report.to_dict()}
    Path(path).write_text(_dump_json(record), encoding="ascii")


def load_report(path) -> SolverReport:
    text = _read_text(path)
    try:
        record = json.loads(text)
    except json.JSONDecodeError as e:
        raise StorageError("malformed report", e.lineno, e.colno) from None
    if not isinstance(record, dict) or record.get("kind") != "solver-report":
        raise StorageError("not a report file", 1, 1)
    return SolverReport(**_fields(record, _REPORT_FIELDS))


def _cell(value) -> str:
    if isinstance(value, (bool, str)):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    raise StorageError(f"unsupported cell type {type(value).__name__}")


def _parse_cell(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _sidecar(path) -> Path:
    return Path(str(path) + ".meta.json")


def write_table(path, columns, rows) -> None:
    """CSV table: the header line, then one line per row (repr floats)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    Path(path).write_text(buf.getvalue(), encoding="ascii")


def save_experiment(path, result: ExperimentResult) -> None:
    write_table(path, result.columns, result.rows)
    meta = {"kind": "experiment-meta", "name": result.name,
            "columns": list(result.columns), "diagnostics": result.diagnostics}
    _sidecar(path).write_text(_dump_json(meta), encoding="ascii")


def load_experiment(path) -> ExperimentResult:
    text = _read_text(path)
    lines = text.splitlines()
    if not lines:
        raise StorageError("empty table", 1, 1)
    reader = csv.reader(lines)
    columns = next(reader)
    rows = []
    for i, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(columns):
            raise StorageError(f"expected {len(columns)} cells, got {len(row)}",
                               i, 1)
        rows.append(tuple(_parse_cell(c) for c in row))
    name = Path(path).stem
    diagnostics = {}
    side = _sidecar(path)
    if side.exists():
        try:
            meta = json.loads(_read_text(side))
        except json.JSONDecodeError as e:
            raise StorageError("malformed experiment sidecar", e.lineno, e.colno) from None
        if not isinstance(meta, dict):
            raise StorageError("experiment sidecar is not a JSON object", 1, 1)
        name, diagnostics = _fields({"name": name, "diagnostics": {}, **meta},
                                    _SIDECAR_FIELDS, 1).values()
    return ExperimentResult(name, columns, rows, diagnostics)


def save(path, value) -> None:
    if isinstance(value, QlspInstance):
        save_instance(path, value)
    elif isinstance(value, SolverReport):
        save_report(path, value)
    elif isinstance(value, ExperimentResult):
        save_experiment(path, value)
    else:
        raise StorageError(f"unsupported value type {type(value).__name__}")


def load(path):
    """Dispatch on file shape: instance header, JSON record, or CSV table."""
    text = _read_text(path)
    first = text.partition("\n")[0].strip()
    if first.startswith("{"):
        if '"qlsp-instance"' in first:
            return load_instance(path)
        return load_report(path)
    return load_experiment(path)


def io_roundtrip(path, value):
    """Write value to path, read it back, and return the reloaded value."""
    save(path, value)
    return load(path)
