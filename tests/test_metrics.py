"""CSV round-trips, metric-log invariants, atomic writes, the one finiteness
check."""

import ast
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import thriftynet
from thriftynet.errors import ConfigurationError, DataError, NumericalError, require_finite
from thriftynet.metrics import (
    METRIC_COLUMNS,
    MetricLog,
    MetricRow,
    read_csv,
    read_metric_log,
    write_csv,
    write_matrix_csv,
    write_metric_log,
)


def sample_row(epoch=0, **overrides):
    values = dict(epoch=epoch, lr=0.1, train_loss=2.3, train_acc=10.0,
                  test_acc=11.5, lam=3e-4, wall_time_s=1.25)
    values.update(overrides)
    return MetricRow(**values)


class TestMetricLog:
    def test_epochs_strictly_increasing(self):
        log = MetricLog()
        log.append(sample_row(0))
        log.append(sample_row(1))
        with pytest.raises(ConfigurationError):
            log.append(sample_row(1))

    def test_accuracy_range_checked(self):
        log = MetricLog()
        with pytest.raises(ConfigurationError):
            log.append(sample_row(0, test_acc=101.0))

    def test_empty_log_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_metric_log(MetricLog(), path)
        assert path.read_text() == ",".join(METRIC_COLUMNS) + "\n"

    def test_round_trip_exact(self, tmp_path):
        log = MetricLog()
        log.append(sample_row(0, train_loss=1 / 3, lam=3e-4 * 1.00015 ** 977))
        log.append(sample_row(1, train_loss=0.1 + 0.2))
        path = tmp_path / "log.csv"
        write_metric_log(log, path)
        parsed = read_metric_log(path)
        for row, read in zip(log.rows, parsed):
            assert read.values() == row.values()

    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        # a resume reads metrics.csv back, so a crash must not leave it torn
        log = MetricLog()
        log.append(sample_row(0))
        path = tmp_path / "metrics.csv"
        write_metric_log(log, path)
        old = path.read_bytes()
        log.append(sample_row(1))

        def crash(src, dst):
            raise OSError("crashed before the rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="crashed"):
            write_metric_log(log, path)
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv"]

    def test_wall_time_not_in_metric_csv(self, tmp_path):
        log = MetricLog()
        log.append(sample_row(0, wall_time_s=123.456))
        path = tmp_path / "log.csv"
        write_metric_log(log, path)
        assert "123.456" not in path.read_text()


class TestCsv:
    def test_floats_survive_reparse(self, tmp_path):
        rows = [[np.pi, 1e-300, 7.0], [1 / 7, 2.5e17, -0.0]]
        path = tmp_path / "vals.csv"
        write_csv(path, ("a", "b", "c"), rows)
        _, parsed = read_csv(path)
        for row, expect in zip(parsed, rows):
            for value, target in zip(row, expect):
                assert abs(value - target) <= 1e-9 * max(1.0, abs(target))

    def test_newline_terminated(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("x",), [[1.0]])
        assert path.read_text().endswith("\n")

    def test_matrix_layout(self, tmp_path):
        matrix = np.arange(12, dtype=np.float32).reshape(3, 4)
        path = tmp_path / "m.csv"
        write_matrix_csv(matrix, path)
        header, rows = read_csv(path)
        assert header == ["t", "c0", "c1", "c2", "c3"]
        assert len(rows) == 3
        np.testing.assert_allclose([r[1:] for r in rows], matrix)

    def test_byte_identical_reruns(self, tmp_path):
        rows = [[1 / 3, 2 / 7], [0.1, 0.2]]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, ("u", "v"), rows)
        write_csv(b, ("u", "v"), rows)
        assert a.read_bytes() == b.read_bytes()

    def test_read_empty_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(DataError):
            read_csv(path)


# ---------------------------------------------------------------------------
# One writer: every file the package writes goes through metrics.atomic_write
# ---------------------------------------------------------------------------

WRITE_METHODS = {"write_bytes", "write_text", "tofile"}


def _writes_a_file(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        name, owner = func.id, None
    elif isinstance(func, ast.Attribute):
        name = func.attr
        owner = func.value.id if isinstance(func.value, ast.Name) else ""
    else:
        return False
    if name in WRITE_METHODS:
        return True
    if owner in ("np", "numpy") and name.startswith("save"):
        return True
    if name != "open":
        return False
    if owner == "os":  # flags, not a mode: only a read-only open writes nothing
        flags = call.args[1:2]
        return not flags or ast.unparse(flags[0]) != "os.O_RDONLY"
    # open(path, mode) and io.open(path, mode), or path.open(mode)
    position = 1 if owner in (None, "io") else 0
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    mode = (modes or call.args[position : position + 1] or [ast.Constant("r")])[0]
    if not isinstance(mode, ast.Constant):
        return True  # a mode the scan cannot read counts as a write
    return any(flag in mode.value for flag in "wax+")


def file_writes(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of every call in `source` that writes a file."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _writes_a_file(child):
                found.append((function, child.lineno))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(ast.parse(source), "<module>")
    return found


class TestOneWriter:
    def test_only_atomic_write_writes_files(self):
        package = Path(thriftynet.__file__).parent
        writes = {(path.name, function, line)
                  for path in sorted(package.glob("*.py"))
                  for function, line in file_writes(path.read_text())}
        writers = {(name, function) for name, function, _ in writes}
        assert ("metrics.py", "atomic_write") in writers  # the scan sees the package
        assert sorted(w for w in writes if w[:2] != ("metrics.py", "atomic_write")) == []

    @pytest.mark.parametrize("call", [
        'open(p, "w")', 'open(p, "ab")', 'open(p, mode="x")', 'open(p, "r+b")',
        "open(p, m)", 'io.open(p, "wb")', 'p.open("w")', "p.open(mode=m)",
        "os.open(p, os.O_WRONLY | os.O_CREAT)", "p.write_bytes(b)", "p.write_text(s)",
        "np.save(p, a)", "np.savetxt(p, a)", "numpy.savez(p, a=a)", "a.tofile(p)",
    ])
    def test_scan_sees_a_write(self, call):
        assert file_writes(f"def f():\n    {call}\n") == [("f", 2)]

    @pytest.mark.parametrize("call", [
        "open(p)", 'open(p, "rb")', 'io.open(p, "r")', "p.open()", 'p.open("rb")',
        "os.open(p, os.O_RDONLY)", "p.read_bytes()", "np.load(p)", "fh.write(b)",
    ])
    def test_scan_passes_a_read(self, call):
        assert file_writes(f"def f():\n    {call}\n") == []


# ---------------------------------------------------------------------------
# One finiteness check: arrays through errors.require_finite, scalars
# through math.isfinite, and no elementwise np.isfinite mask anywhere
# ---------------------------------------------------------------------------

class TestRequireFinite:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_the_given_error(self, dtype, bad):
        array = np.zeros((3, 5, 7), dtype=dtype)
        array[2, 4, 6] = bad
        with pytest.raises(NumericalError, match="^tensor w is bad$"):
            require_finite(array, NumericalError, "tensor w is bad")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_finite_passes(self, dtype):
        info = np.finfo(dtype)
        require_finite(np.array([info.min, -1.0, 0.0, info.tiny, info.max], dtype=dtype),
                       DataError, "unused")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_empty_passes(self, dtype):
        require_finite(np.zeros((0, 3), dtype=dtype), DataError, "unused")

    def test_allocates_no_mask(self):
        # an elementwise np.isfinite would build a 4 MB boolean array here
        array = np.ones(2**22, dtype=np.float32)
        array[-1] = np.nan
        tracemalloc.start()
        try:
            require_finite(array[:-1], DataError, "unused")
            with pytest.raises(DataError):
                require_finite(array, DataError, "non-finite")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10


def elementwise_isfinite_calls(source: str) -> list[int]:
    """Lines of every call in `source` to an `isfinite` other than
    `math.isfinite`: np.isfinite, numpy.isfinite or a bare imported name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "isfinite":
            lines.append(node.lineno)
        elif isinstance(func, ast.Attribute) and func.attr == "isfinite" and not (
                isinstance(func.value, ast.Name) and func.value.id == "math"):
            lines.append(node.lineno)
    return lines


class TestOneFinitenessCheck:
    def test_no_elementwise_isfinite_in_the_package(self):
        package = Path(thriftynet.__file__).parent
        sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
        assert "require_finite(" in sources["errors.py"]  # the scan sees the package
        found = [(name, line) for name, source in sources.items()
                 for line in elementwise_isfinite_calls(source)]
        assert found == []

    @pytest.mark.parametrize("call", [
        "np.isfinite(a).all()", "np.all(np.isfinite(g))", "numpy.isfinite(a)",
        "not np.isfinite(loss)", "isfinite(a)",
    ])
    def test_scan_sees_an_elementwise_check(self, call):
        assert elementwise_isfinite_calls(f"def f():\n    {call}\n") == [2]

    @pytest.mark.parametrize("call", [
        "math.isfinite(x)", "require_finite(a, DataError, m)", "np.isnan(a)",
    ])
    def test_scan_passes_a_scalar_or_shared_check(self, call):
        assert elementwise_isfinite_calls(f"def f():\n    {call}\n") == []
