"""Structured experiment outputs: training curves, sweep tables, matrices.

Everything is written as plain CSV with '.'-decimal floats rendered by
repr(), so re-parsing recovers the exact values.  Wall-clock time is kept
in the in-memory log but written to a separate timing file: the canonical
metric CSV must be byte-identical across reruns with the same seed, and
timings never can be.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .errors import ConfigurationError, DataError

METRIC_COLUMNS = ("epoch", "lr", "train_loss", "train_acc", "test_acc", "lambda")


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


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Header + rows, repr'd floats, newline-terminated."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_render(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path) -> tuple[list[str], list[list]]:
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise DataError(f"{path} is empty")
    header = lines[0].split(",")
    rows = [[_parse_cell(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def write_metric_log(log: MetricLog, path) -> None:
    write_csv(path, METRIC_COLUMNS, [row.values() for row in log.rows])


def write_timing(log: MetricLog, path) -> None:
    write_csv(path, ("epoch", "wall_time_s"),
              [(row.epoch, row.wall_time_s) for row in log.rows])


def read_metric_log(path) -> list[tuple]:
    header, rows = read_csv(path)
    if header != list(METRIC_COLUMNS):
        raise DataError(f"{path} has header {header}, expected {list(METRIC_COLUMNS)}")
    return [tuple(row) for row in rows]


def write_matrix_csv(matrix, path) -> None:
    """T x f matrix with a leading index column."""
    header = ["t"] + [f"c{j}" for j in range(matrix.shape[1])]
    rows = [[i, *(float(v) for v in matrix[i])] for i in range(matrix.shape[0])]
    write_csv(path, header, rows)


# ---------------------------------------------------------------------------
# Trade-off sweeps
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ("f", "T", "h", "n_pools", "params_total", "macs_total",
                 "test_acc", "status")


def sweep(configs, train_ds, test_ds, train_config, input_hw: tuple[int, int],
          repeats: int = 1, out_dir=None):
    """Train every config with the shared settings; emit the trade-off table.

    `input_hw` is the (H, W) of the images, at which the MACs are counted.

    One seed per point by default; `repeats` > 1 averages over consecutive
    seeds.  A failing run is recorded as a failed row and the sweep
    continues.  Rows are emitted in config order.
    """
    from dataclasses import replace as _replace

    from . import planner
    from .model import ThriftyNet
    from .training import train

    rows = []
    for i, config in enumerate(configs):
        params = planner.param_count(config)
        macs = planner.mac_count(config, input_hw)
        accs = []
        status = "ok"
        for r in range(repeats):
            run_seed = train_config.seed + r
            run_config = _replace(train_config, seed=run_seed)
            try:
                model = ThriftyNet(config, seed=run_seed)
                result = train(model, train_ds, test_ds, run_config)
                accs.append(result.best_test_acc)
            except Exception as exc:  # noqa: BLE001 - sweep must survive bad points
                status = f"failed: {type(exc).__name__}"
                break
        mean_acc = sum(accs) / len(accs) if accs else float("nan")
        rows.append([config.filters, config.iterations, config.history,
                     config.n_pools, params.total, macs.total, mean_acc, status])
        if out_dir is not None:
            write_csv(Path(out_dir) / "sweep.csv", SWEEP_COLUMNS, rows)
    return rows


def parse_manifest(path) -> list[dict]:
    """One sweep point per non-blank line of key=value pairs."""
    entries = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        entry = {}
        for token in line.replace(",", " ").split():
            if "=" not in token:
                raise DataError(f"{path}:{lineno}: expected key=value, got {token!r}")
            key, value = token.split("=", 1)
            entry[key] = value
        entries.append(entry)
    return entries


def now() -> float:
    return time.perf_counter()
