"""File formats for joint distributions: CSV and a raw binary.

CSV layout: comment lines carrying the plane/axis tags, then a header
row with the idler axis values (first cell ``signal``), then
one row per signal coordinate.  Floats are written with ``repr``
(shortest round-trip form), so identical inputs produce byte-identical
files.

Binary layout (little-endian throughout):

    8 bytes   magic b"SPDCJID1"
    3 float64 signal axis descriptor: min, max, N
    3 float64 idler axis descriptor: min, max, N
    N*M float64 row-major intensity matrix (signal-major)

Both writers take the matrix as a ``RowBand``: a dense matrix is the
band of full width (every start 0).  The binary format carries no
plane/axis tags; callers that need them use the CSV form, whose tags
``read_matrix_csv`` returns as its meta.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from spdcsim.biphoton import RowBand

__all__ = [
    "MAGIC",
    "write_matrix_csv",
    "read_matrix_csv",
    "write_matrix_binary",
    "read_matrix_binary",
]

MAGIC = b"SPDCJID1"


def write_matrix_csv(
    path: str | Path,
    axis_signal: np.ndarray,
    axis_idler: np.ndarray,
    intensity: RowBand,
    meta: dict | None = None,
) -> None:
    """Write the matrix ``intensity`` holds as CSV, each float as
    ``repr(float(v))``, one row at a time; the columns outside a row's
    window, and the leading and trailing runs of +0.0 (not -0.0) inside
    it, are written as ``0.0`` without the per-element ``repr``."""
    data, n, width = intensity.data, intensity.n_cols, intensity.width
    printable = (data != 0) | np.signbit(data)
    first = np.where(printable.any(axis=1), printable.argmax(axis=1), width)
    stop = width - printable[:, ::-1].argmax(axis=1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key}: {value}\n")
        fh.write(",".join(["signal", *map(repr, np.asarray(axis_idler, dtype=float).tolist())]))
        fh.write("\n")
        for coord, row, s, a, b in zip(
            np.asarray(axis_signal, dtype=float).tolist(), data,
            intensity.start.tolist(), first.tolist(), stop.tolist(),
        ):
            cells = ["0.0"] * n
            cells[s + a:s + b] = map(repr, row[a:b].tolist())
            fh.write(repr(coord) + "," + ",".join(cells) + "\n")


def read_matrix_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Read what ``write_matrix_csv`` wrote: the signal axis, the idler
    axis, the matrix, and the ``# key: value`` comment lines as strings."""
    meta = {}
    rows = []
    axis_idler = None
    axis_signal = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
                continue
            cells = line.split(",")
            if axis_idler is None:
                axis_idler = np.array([float(v) for v in cells[1:]])
                continue
            axis_signal.append(float(cells[0]))
            rows.append([float(v) for v in cells[1:]])
    if axis_idler is None or not rows:
        raise ValueError(f"{path}: no matrix data found")
    return np.array(axis_signal), axis_idler, np.array(rows), meta


def write_matrix_binary(
    path: str | Path,
    axis_signal: np.ndarray,
    axis_idler: np.ndarray,
    intensity: RowBand,
) -> None:
    """Write the matrix ``intensity`` holds in the binary layout, streamed
    one row at a time: +0.0 before the row's window, the window, +0.0
    after it."""
    data = np.ascontiguousarray(intensity.data, dtype="<f8")
    after = intensity.n_cols - intensity.width
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        header = np.array(
            [
                axis_signal[0], axis_signal[-1], axis_signal.size,
                axis_idler[0], axis_idler[-1], axis_idler.size,
            ],
            dtype="<f8",
        )
        fh.write(header.tobytes())
        for row, s in zip(data, intensity.start.tolist()):
            fh.write(bytes(8 * s))
            fh.write(row.tobytes())
            fh.write(bytes(8 * (after - s)))


def read_matrix_binary(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    raw = Path(path).read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: bad magic, not a joint-distribution file")
    header = np.frombuffer(raw, dtype="<f8", count=6, offset=len(MAGIC))
    n_s, n_i = int(header[2]), int(header[5])
    expected = len(MAGIC) + 6 * 8 + n_s * n_i * 8
    if len(raw) != expected:
        raise ValueError(f"{path}: truncated ({len(raw)} bytes, expected {expected})")
    matrix = np.frombuffer(
        raw, dtype="<f8", count=n_s * n_i, offset=len(MAGIC) + 6 * 8
    ).reshape(n_s, n_i)
    axis_signal = np.linspace(header[0], header[1], n_s)
    axis_idler = np.linspace(header[3], header[4], n_i)
    return axis_signal, axis_idler, matrix.copy()
