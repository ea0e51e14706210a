"""File formats for joint distributions: CSV, JSON and a raw binary.

CSV layout: comment lines carrying the plane/axis tags, then a header
row with the idler axis values (first cell ``signal``), then
one row per signal coordinate.  Floats are written as ``repr`` writes
them (shortest round-trip form), so identical inputs produce
byte-identical files.  A picture's values get those digits from orjson's
Ryu writer, one row window at a time, and are put into ``repr``'s
notation (``_row_texts``).

JSON layout: ``json.dumps`` with sorted keys of the tags, both axes and
``intensity``, the dense matrix as a list of rows, and a newline.

Binary layout (little-endian throughout):

    8 bytes   magic b"SPDCJID1"
    3 float64 signal axis descriptor: min, max, N
    3 float64 idler axis descriptor: min, max, N
    N*M float64 row-major intensity matrix (signal-major)

Every writer takes the matrix as ``RowBand`` row blocks in signal-row
order and writes each as it comes; a dense matrix is one block of full
width (every start 0).  The binary format carries no plane/axis tags;
callers that need them use the CSV form, whose tags ``read_matrix_csv``
returns as its meta.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

if TYPE_CHECKING:
    from spdcsim.biphoton import RowBand

__all__ = [
    "MAGIC",
    "write_matrix_csv",
    "write_matrix_json",
    "read_matrix_csv",
    "write_matrix_binary",
    "read_matrix_binary",
]

MAGIC = b"SPDCJID1"


#: Ryu's one-digit negative exponents, followed here by their cell's ``,`` (left),
#: and ``repr``'s (right).
_NOTATION = (("e-6,", "e-06,"), ("e-7,", "e-07,"), ("e-8,", "e-08,"), ("e-9,", "e-09,"))


def _row_texts(intensity: Iterable[RowBand], sep: str) -> Iterator[str]:
    """Each row of the matrix the blocks hold, as the cells ``repr(float(v))``
    joined by ``sep``; the columns outside a row's window are ``0.0``.

    orjson writes the window's shortest round-trip digits (Ryu), as ``repr``
    does, and ``_NOTATION`` pads their exponents as ``repr`` does.  The
    cells orjson writes otherwise take ``repr``: 1e-5 <= |v| < 1e-4
    (positional), |v| >= 1e16 (an unsigned exponent) and NaN (``null``)."""
    import orjson

    zero = "0.0" + sep
    for band in intensity:
        data, n, width = np.ascontiguousarray(band.data, dtype=np.float64), band.n_cols, band.width
        size = np.abs(data)
        odd = ~((size < 1e-5) | ((size >= 1e-4) & (size < 1e16)))  # NaN too
        for row, s, row_odd in zip(data, band.start.tolist(), odd):
            text = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY).decode()
            text = text[1:-1] + "," if width else ""  # the window's cells, each followed by ","
            for ryu, python in _NOTATION:
                text = text.replace(ryu, python)
            if row_odd.any():
                cells = text.split(",")
                for j in np.flatnonzero(row_odd).tolist():
                    cells[j] = repr(float(row[j]))
                text = ",".join(cells)
            yield (zero * s + text.replace(",", sep) + zero * (n - s - width))[:-len(sep)]


def write_matrix_csv(path: str | Path, axis_signal: np.ndarray, axis_idler: np.ndarray,
                     intensity: Iterable[RowBand], meta: dict | None = None) -> None:
    """Write the matrix the blocks ``intensity`` hold as CSV, each float as
    ``repr(float(v))``, one row at a time (``_row_texts``)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key}: {value}\n")
        fh.write(",".join(["signal", *map(repr, np.asarray(axis_idler, dtype=float).tolist())]))
        fh.write("\n")
        coords = np.asarray(axis_signal, dtype=float).tolist()
        for coord, text in zip(coords, _row_texts(intensity, ",")):
            fh.write(repr(coord) + "," + text + "\n")


def write_matrix_json(path: str | Path, axis_signal: np.ndarray, axis_idler: np.ndarray,
                      intensity: Iterable[RowBand], meta: dict | None = None) -> None:
    """Write ``json.dumps`` of ``meta``, the axes and ``intensity``, the
    matrix the blocks hold as rows, with sorted keys and a newline, one row
    at a time (``_row_texts``: a finite float's JSON is its ``repr``)."""
    blob = {**(meta or {}), "axis_signal": np.asarray(axis_signal, dtype=float).tolist(),
            "axis_idler": np.asarray(axis_idler, dtype=float).tolist(), "intensity": []}
    # the key is the one unescaped '"intensity": []' in the text
    head, tail = json.dumps(blob, sort_keys=True).split('"intensity": []')
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head + '"intensity": [')
        for k, text in enumerate(_row_texts(intensity, ", ")):
            fh.write(f"{', ' if k else ''}[{text}]")
        fh.write("]" + tail + "\n")


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


def write_matrix_binary(path: str | Path, axis_signal: np.ndarray, axis_idler: np.ndarray,
                        intensity: Iterable[RowBand]) -> None:
    """Write the matrix the blocks ``intensity`` hold in the binary layout,
    one row at a time: +0.0 before the row's window, the window, +0.0 after."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.array([axis_signal[0], axis_signal[-1], axis_signal.size,
                           axis_idler[0], axis_idler[-1], axis_idler.size], dtype="<f8").tobytes())
        for band in intensity:
            after = band.n_cols - band.width
            for row, s in zip(np.ascontiguousarray(band.data, dtype="<f8"), band.start.tolist()):
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
