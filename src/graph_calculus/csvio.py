"""Output records and file persistence: one key map, atomic writes, 17-significant-digit floats."""

from __future__ import annotations

import os
import secrets
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "RESULTS_HEADER",
    "output_key",
    "record_dict",
    "format_float",
    "write_text_atomic",
    "results_csv_text",
    "read_vector_csv",
    "write_vector_csv",
    "read_matrix_csv",
    "write_matrix_csv",
    "read_results_csv",
]

# The output key (JSON key or CSV column) of each record field whose key is
# not the field's name. Every output record is written through this map.
_OUTPUT_KEYS = {
    "n": "N", "n_list": "N_list", "prediction_mean": "curvature_prediction_mean", "name": "id",
}


def output_key(name: str) -> str:
    """The output key of the record field `name`."""
    return _OUTPUT_KEYS.get(name, name)


def record_dict(record, names=None) -> dict:
    """A dataclass record's fields under their output keys, in field order.

    Given names, only those fields, in that order. A field that holds a
    record is inlined in its place, and tuples become lists, as JSON has them.
    """
    out = {}
    for name in names or [f.name for f in fields(record)]:
        value = getattr(record, name)
        if is_dataclass(value):
            out.update(record_dict(value))
        else:
            out[output_key(name)] = list(value) if isinstance(value, tuple) else value
    return out


def format_float(x: float) -> str:
    # 17 significant digits round-trip any IEEE double exactly
    return f"{x:.17g}"


def write_text_atomic(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file.

    Mode 0666 lets the umask set the permissions, as for a plain open(path, "w").
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# Fixed result-table schema, as CellResult field names. wall_ms is always 0,
# so results.csv is byte-reproducible; measured wall times live in summary.json.
_RESULTS_COLUMNS = (
    "manifold", "function", "n", "epsilon", "seed", "mode", "err_abs_median", "err_abs_mean",
    "err_abs_max", "err_rel_median", "degree_ratio_mean", "degree_ratio_dev", "wall_ms",
)
RESULTS_HEADER = ",".join(map(output_key, _RESULTS_COLUMNS))


def _csv_field(value) -> str:
    return format_float(value) if isinstance(value, float) else str(value)


def results_csv_text(rows) -> str:
    lines = [RESULTS_HEADER]
    for r in rows:
        lines.append(
            ",".join("0" if name == "wall_ms" else _csv_field(getattr(r, name)) for name in _RESULTS_COLUMNS)
        )
    return "\n".join(lines) + "\n"


def read_results_csv(path) -> list[dict]:
    """Result table as a list of row dicts, values kept as strings.

    Blank lines are skipped; a row with more or fewer fields than the header
    raises ValueError naming its line.
    """
    import csv

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = []
        for fields in filter(None, reader):
            if len(fields) != len(header):
                raise ValueError(
                    f"{path}: line {reader.line_num} has {len(fields)} field(s) "
                    f"where the header has {len(header)}"
                )
            rows.append(dict(zip(header, fields)))
    return rows


def write_vector_csv(path, values) -> None:
    values = np.asarray(values, dtype=np.float64).ravel()
    write_text_atomic(path, "\n".join(format_float(v) for v in values) + "\n")


def read_vector_csv(path) -> np.ndarray:
    """A CSV file of one value per line as a 1-d float64 array; read_matrix_csv's rules apply."""
    values = read_matrix_csv(path)
    if values.shape[1] != 1:
        width = values.shape[1]
        raise ValueError(f"could not parse CSV file {path}: expected one value per line, got {width}")
    return values.ravel()


def write_matrix_csv(path, matrix) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {matrix.shape}")
    lines = [",".join(format_float(v) for v in row) for row in matrix]
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    """A numeric CSV file as a 2-d float64 array, rows starting with '#' skipped.

    A file that does not parse, or holds no data row, raises ValueError
    naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            # np.loadtxt only warns on a file without data, and returns an empty array
            if not any(line.split("#", 1)[0].strip() for line in fh):
                raise ValueError("no data rows")
            fh.seek(0)
            return np.loadtxt(fh, delimiter=",", comments="#", ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"could not parse CSV file {path}: {exc}") from exc
