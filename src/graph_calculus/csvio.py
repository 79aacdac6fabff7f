"""CSV and file persistence: atomic writes, 17-significant-digit floats."""

from __future__ import annotations

import os
import secrets
from pathlib import Path

import numpy as np

__all__ = [
    "RESULTS_HEADER",
    "format_float",
    "write_text_atomic",
    "results_csv_text",
    "read_vector_csv",
    "write_vector_csv",
    "read_matrix_csv",
    "write_matrix_csv",
    "read_results_csv",
]

# Fixed result-table schema. wall_ms is 0 unless timings were requested:
# results.csv is byte-reproducible by default, and measured wall times
# (which never are) live in summary.json.
RESULTS_HEADER = (
    "manifold,function,N,epsilon,seed,mode,err_abs_median,err_abs_mean,"
    "err_abs_max,err_rel_median,degree_ratio_mean,degree_ratio_dev,wall_ms"
)


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


def results_csv_text(rows, include_timings: bool = False) -> str:
    lines = [RESULTS_HEADER]
    for r in rows:
        wall = format_float(r.wall_ms) if include_timings else "0"
        lines.append(
            ",".join(
                [
                    r.manifold,
                    r.function,
                    str(r.n),
                    format_float(r.epsilon),
                    str(r.seed),
                    r.mode,
                    format_float(r.err_abs_median),
                    format_float(r.err_abs_mean),
                    format_float(r.err_abs_max),
                    format_float(r.err_rel_median),
                    format_float(r.degree_ratio_mean),
                    format_float(r.degree_ratio_dev),
                    wall,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def read_results_csv(path) -> list[dict]:
    """Result table as a list of row dicts, values kept as strings."""
    import csv

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        return [dict(row) for row in reader]


def write_vector_csv(path, values) -> None:
    values = np.asarray(values, dtype=np.float64).ravel()
    write_text_atomic(path, "\n".join(format_float(v) for v in values) + "\n")


def read_vector_csv(path) -> np.ndarray:
    vec = np.loadtxt(path, delimiter=",", comments="#", ndmin=1)
    return np.asarray(vec, dtype=np.float64).ravel()


def write_matrix_csv(path, matrix) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {matrix.shape}")
    lines = [",".join(format_float(v) for v in row) for row in matrix]
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    return np.asarray(np.loadtxt(path, delimiter=",", comments="#", ndmin=2), dtype=np.float64)
