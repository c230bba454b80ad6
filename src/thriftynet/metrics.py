"""Run outputs: training curves, sweep tables, matrices.  `atomic_write`
writes every file the package writes, and `BlobReader` reads back every
binary container it writes, checkpoints and RAWT1 containers alike.

CSVs are plain, with '.'-decimal floats rendered by repr(), so re-parsing
recovers the exact values.  Wall-clock time is kept in the in-memory log but
written to a separate timing file: the canonical metric CSV must be
byte-identical across reruns with the same seed, and timings never can be.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, DataError, ThriftyNetError

METRIC_COLUMNS = ("epoch", "lr", "train_loss", "train_acc", "test_acc", "lambda")
TIMING_COLUMNS = ("epoch", "wall_time_s")


@dataclass
class MetricRow:
    epoch: int
    lr: float
    train_loss: float
    train_acc: float
    test_acc: float
    lam: float
    wall_time_s: float = 0.0

    def values(self) -> tuple:
        return (self.epoch, self.lr, self.train_loss, self.train_acc,
                self.test_acc, self.lam)


@dataclass
class MetricLog:
    rows: list[MetricRow] = field(default_factory=list)

    def append(self, row: MetricRow) -> None:
        if self.rows and row.epoch <= self.rows[-1].epoch:
            raise ConfigurationError(
                f"epochs must be strictly increasing: {row.epoch} after "
                f"{self.rows[-1].epoch}"
            )
        for name in ("train_acc", "test_acc"):
            acc = getattr(row, name)
            if not 0.0 <= acc <= 100.0:
                raise ConfigurationError(f"{name}={acc} outside [0, 100]")
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)


def _render(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def atomic_write(path, *parts) -> None:
    """Replace `path` with the bytes-like `parts`, written in order, so that a
    crash leaves the old or the new file.

    The temp file is synced before the rename and the directory after it.
    """
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(parts)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # the error that stopped the write wins
            tmp.unlink(missing_ok=True)
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


class BlobReader:
    """Reads one binary container in order.  A read past its end raises
    `error`, naming the container `name`, before it copies anything; so do
    bytes left over at `finish`."""

    def __init__(self, blob: bytes, error: type[ThriftyNetError], name: str,
                 offset: int = 0):
        self.blob, self.error, self.name, self.offset = memoryview(blob), error, name, offset

    def take(self, n: int) -> memoryview:
        """The next n bytes, in place."""
        if self.offset + n > len(self.blob):
            raise self.error(f"{self.name} truncated: wanted {n} bytes at offset "
                             f"{self.offset}, file has {len(self.blob)}")
        self.offset += n
        return self.blob[self.offset - n : self.offset]

    def array(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        view = self.take(math.prod(shape) * dtype.itemsize)
        return np.frombuffer(view, dtype).reshape(shape).copy()

    def finish(self) -> None:
        if self.offset != len(self.blob):
            raise self.error(f"{self.name} has {len(self.blob) - self.offset} trailing bytes")


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Header + rows, repr'd floats, newline-terminated."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_render(v) for v in row))
    atomic_write(path, ("\n".join(lines) + "\n").encode())


def _parse_cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path) -> tuple[list[str], list[list]]:
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not text: {exc}") from None
    if not lines:
        raise DataError(f"{path} is empty")
    header = lines[0].split(",")
    rows = [[_parse_cell(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def write_metric_log(log: MetricLog, path) -> None:
    write_csv(path, METRIC_COLUMNS, [row.values() for row in log.rows])


def write_timing(log: MetricLog, path) -> None:
    write_csv(path, TIMING_COLUMNS, [(row.epoch, row.wall_time_s) for row in log.rows])


def _numeric_rows(path, columns: Sequence[str]) -> Iterator[tuple[int, list[float]]]:
    """(line number, cells) of each row of a CSV written with `columns`.  A
    torn or non-numeric row, or a non-integral epoch, is a DataError naming
    the file and line."""
    header, rows = read_csv(path)
    if header != list(columns):
        raise DataError(f"{path} has header {header}, expected {list(columns)}")
    for lineno, cells in enumerate(rows, start=2):
        if len(cells) != len(columns):
            raise DataError(f"{path}:{lineno}: {len(cells)} cells, expected {len(columns)}")
        if any(isinstance(cell, str) for cell in cells):
            raise DataError(f"{path}:{lineno}: non-numeric cell in {cells}")
        if not cells[0].is_integer():
            raise DataError(f"{path}:{lineno}: epoch {cells[0]} is not an integer")
        yield lineno, cells


def read_metric_log(path) -> list[MetricRow]:
    """The rows of a metrics.csv, held to what `MetricLog.append` holds a new
    row to.  A torn or malformed row is a DataError naming the file and line."""
    log = MetricLog()
    for lineno, cells in _numeric_rows(path, METRIC_COLUMNS):
        try:
            log.append(MetricRow(int(cells[0]), *cells[1:]))
        except ConfigurationError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    return log.rows


def read_timing(path) -> dict[int, float]:
    """Epoch -> wall seconds, from a timing.csv; a malformed row is a
    DataError naming the file and line."""
    return {int(epoch): wall for _, (epoch, wall) in _numeric_rows(path, TIMING_COLUMNS)}


def write_matrix_csv(matrix, path) -> None:
    """T x f matrix with a leading index column."""
    header = ["t"] + [f"c{j}" for j in range(matrix.shape[1])]
    rows = [[i, *(float(v) for v in matrix[i])] for i in range(matrix.shape[0])]
    write_csv(path, header, rows)


def now() -> float:
    return time.perf_counter()
