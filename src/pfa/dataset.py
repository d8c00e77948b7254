"""Tabular measurement data: rows are variables, columns are data points.

The on-disk interchange format is a headerless CSV where each column holds
one data point and each row one variable.  By convention the first
``n_outputs`` rows are output variables (row 1 = first output, the next row
= first feature).  The accompanying text of the original data layout labels
row 1 "the input function"; context makes clear it is the output, and this
module treats it as such.  ``read_rows`` parses that layout a row at a time.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import operator
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import _csvrows


class DatasetError(Exception):
    """Raised for malformed dataset files (ragged rows, bad cells, empty input)."""


def check_integer(name: str, value, least: int | None) -> None:
    """Raise ValueError unless value is an integer (``operator.index``) >= least.

    ``least=None`` takes any integer.  A ``bool`` is refused, although
    ``operator.index`` takes it, and so is an integer past the float range,
    which float arithmetic on it (a chi-square ``dof``, say) would overflow.
    """
    try:
        index = operator.index(value)
        valid = not isinstance(value, bool) and (least is None or index >= least)
        float(index)  # OverflowError past the float range
    except (TypeError, OverflowError):
        valid = False
    if not valid:
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {_shown(value, repr)}")


def _shown(value, show) -> str:
    """``show(value)``, but an integer past the float range by that fact, not by its
    digits, which past 4,300 of them ``str`` refuses to print."""
    if isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            return "an integer past the float range"
    return show(value)


def check_range(name: str, value, within, bounds: str) -> None:
    """Raise ValueError unless ``within(value)``, naming the bounds.

    A ``bool`` is refused, and so is an array with an axis, whose
    comparisons give arrays.  So is a value that ``within`` cannot compare
    or convert: a ``TypeError``, or an ``ArithmeticError`` such as a
    ``Decimal`` NaN's signal or the overflow of ``math.isfinite`` on an
    integer past the float range.  NaN fails every comparison, so a
    ``within`` made of comparisons refuses it.
    """
    try:
        valid = (
            not isinstance(value, bool) and not getattr(value, "ndim", 0) and within(value)
        )
    except (TypeError, ArithmeticError):
        valid = False
    if not valid:
        raise ValueError(f"{name} must be {bounds}, got {_shown(value, str)}")


def check_n_outputs(n_outputs, n_rows: int) -> None:
    """Raise ValueError unless ``n_outputs`` is an integer >= 0 below ``n_rows``."""
    check_integer("n_outputs", n_outputs, 0)
    if n_outputs >= n_rows:
        raise ValueError(
            f"n_outputs={n_outputs} leaves no feature rows (dataset has {n_rows} rows)"
        )


@dataclass(frozen=True)
class Dataset:
    """Immutable matrix of measurements, shape (n_outputs + n_features, n_points)."""

    values: np.ndarray = field(hash=False)
    n_outputs: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("values must be a 2-d matrix")
        if values.shape[1] < 1:
            raise ValueError("dataset needs at least one data point")
        check_n_outputs(self.n_outputs, values.shape[0])
        if not _all_finite(values):
            raise ValueError("dataset contains non-finite entries")
        # only a valid matrix is frozen: a refused one may be the caller's own
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_points(self) -> int:
        return self.values.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.n_outputs == other.n_outputs and np.array_equal(
            self.values, other.values
        )


# elements per step of the finite check: its temporary is a bool per element
_FINITE_BLOCK = 1 << 16


def _all_finite(values: np.ndarray) -> bool:
    """``np.isfinite(values).all()``, a block of elements at a time.

    ``np.nditer`` cuts the array into blocks in memory order, whatever its
    layout or shape, so the check holds one block's temporary and takes one
    Python step per block, not per row.
    """
    blocks = np.nditer(
        values, flags=["external_loop", "buffered"], buffersize=_FINITE_BLOCK, order="K"
    )
    return all(np.isfinite(block).all() for block in blocks)


def load_csv(path, n_outputs: int = 1) -> Dataset:
    """Read a dataset from the headerless variables-by-points CSV layout.

    The rows come from ``read_rows``, which names the first bad cell.  The
    matrix grows by an eighth at a time, so beside the parse of one line the
    call holds at most about 1.125 times the matrix.
    """
    values = np.empty((0, 0))
    for n_rows, row in enumerate(read_rows(path)):
        if n_rows == len(values):
            # a realloc, not a second matrix to copy into
            values.resize((n_rows + n_rows // 8 + 1, row.size), refcheck=False)
        values[n_rows] = row
    values.resize((n_rows + 1, row.size), refcheck=False)
    return Dataset(values, n_outputs)


def read_rows(path) -> Iterator[np.ndarray]:
    """Each row of a headerless CSV file as 64-bit floats, in file order.

    Rejects an empty file, and ragged rows, blank lines and non-numeric or
    non-finite cells with their row (and column): each row left to right, a
    ragged row before its cells.  Each line is parsed by ``np.loadtxt``,
    which reads a number as ``float()`` does but refuses a ``_``; from the
    first line whose values might differ from the per-cell parser's (see
    ``_numpy_row``), such as one with a quoted cell or a non-ASCII digit,
    the per-cell parser reads the rest of the file.  A UTF-8 byte-order
    mark that starts the file, as spreadsheet programs write, is skipped;
    anywhere else it is part of its cell.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        n_rows = width = 0
        for line in fh:
            row = _numpy_row(line, width)
            if row is None:
                yield from _cell_rows(itertools.chain([line], fh), n_rows, width)
                return
            n_rows, width = n_rows + 1, row.size
            yield row
    if not n_rows:
        raise DatasetError(f"empty dataset file: {path}")


def _numpy_row(line: str, width: int) -> np.ndarray | None:
    """The line's values by ``np.loadtxt``, or None to parse it per cell.

    None unless they are certain to be the per-cell parser's: the line is not
    blank, parses without a warning, and is finite and ``width`` wide (if set).
    """
    if not line.strip():  # loadtxt skips a blank line
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            row = np.loadtxt([line], delimiter=",", dtype=np.float64, ndmin=1, comments=None)
        except (ValueError, Warning):
            return None
    if row.ndim != 1 or (width and row.size != width) or not np.isfinite(row).all():
        return None
    return row


def _cell_rows(lines, n_read: int, width: int) -> Iterator[np.ndarray]:
    """Parse ``lines``, which follow ``n_read`` rows of ``width`` cells, with ``float()``.

    Raises on the first bad cell.  A ``_`` makes a cell non-numeric:
    ``float()`` would read ``1_0`` as 10.0.
    """
    for row_no, record in enumerate(csv.reader(lines), start=n_read + 1):
        if not record:
            raise DatasetError(f"blank line at row {row_no}")
        if width and len(record) != width:
            raise DatasetError(f"row {row_no} has {len(record)} columns, expected {width}")
        parsed = []
        for col_no, cell in enumerate(record, start=1):
            try:
                if "_" in cell:
                    raise ValueError(cell)
                value = float(cell)
            except ValueError:
                raise DatasetError(
                    f"non-numeric cell {cell!r} at row {row_no}, column {col_no}"
                ) from None
            if not np.isfinite(value):
                raise DatasetError(
                    f"non-finite cell {cell!r} at row {row_no}, column {col_no}"
                )
            parsed.append(value)
        width = len(parsed)
        yield np.array(parsed, dtype=np.float64)


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset in the interchange CSV layout; round-trips bit-exactly.

    Each value is written as its shortest ``repr``, a row per line.  That
    formatting is nearly all of the time, so a large matrix is cut into
    contiguous shares of rows: one per CPU this process may run on
    (``taskset`` limits them), each of at least ``_CELLS_PER_SHARE`` values.
    This process formats the first share; each other share goes as raw
    floats to a worker interpreter (``_csvrows``, standard library only),
    which writes its text to an unnamed temporary file in ``path``'s
    directory, and the files are appended in order.  The bytes are those of
    one process.  The caller holds no share's text, only a row's, and no
    copy of the rows of a C-contiguous matrix.  If ``path`` is not a regular
    file, or the temporary files or workers cannot be made, this process
    formats every row.  A worker that fails raises ``OSError`` naming
    ``path``; on any error or interrupt every worker is killed and reaped.
    """
    values = ds.values
    n_shares = min(_usable_cpus(), len(values), values.size // _CELLS_PER_SHARE)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if n_shares < 2 or not _write_shares(values, n_shares, fh, path):
            _csvrows.write_rows(values, fh)


# the fewest values worth a worker: two shares of 2^17 values began to win
# over one process on 2 CPUs, where starting a worker costs ~10 ms
_CELLS_PER_SHARE = 1 << 17


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_shares(values: np.ndarray, n_shares: int, fh, path) -> bool:
    """Write ``values`` to ``fh`` in ``n_shares`` shares, all but the first by workers.

    False, having written nothing, if ``fh`` is not a regular file or the
    temporary files or workers cannot be made.
    """
    if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode) or not os.path.isfile(_csvrows.__file__):
        return False
    bounds = [len(values) * i // n_shares for i in range(n_shares + 1)]
    directory = os.path.dirname(os.path.abspath(path))
    command = [sys.executable, "-I", "-S", _csvrows.__file__, str(values.shape[1])]
    workers = []
    with contextlib.ExitStack() as cleanup:
        cleanup.callback(_stop, workers)
        try:
            texts = [
                cleanup.enter_context(tempfile.TemporaryFile(dir=directory))
                for _ in range(n_shares - 1)
            ]
            for text in texts:
                workers.append(subprocess.Popen(command, stdin=subprocess.PIPE, stdout=text))
        except OSError:  # e.g. a read-only directory, or no interpreter to run
            return False
        # each worker reads its whole share before it formats, so these
        # writes take about as long as a copy of the rows
        for worker, start, stop in zip(workers, bounds[1:], bounds[2:]):
            try:
                with worker.stdin:
                    for row in values[start:stop]:
                        worker.stdin.write(np.ascontiguousarray(row))
            except BrokenPipeError:
                _check_exit(worker, path)
                raise
        _csvrows.write_rows(values[:bounds[1]], fh)
        fh.flush()
        for worker, text in zip(workers, texts):
            _check_exit(worker, path)
            text.seek(0)
            shutil.copyfileobj(text, fh.buffer)
    return True


def _stop(workers: list[subprocess.Popen]) -> None:
    """Kill and reap each worker that is still running, and close its input."""
    for worker in workers:
        worker.kill()
        worker.wait()
        with contextlib.suppress(BrokenPipeError):
            worker.stdin.close()


def _check_exit(worker: subprocess.Popen, path) -> None:
    """Wait for ``worker``; raise ``OSError`` naming ``path`` unless it exited 0."""
    if worker.wait():
        raise OSError(
            f"could not write {os.fspath(path)!r}: a CSV formatting worker "
            f"exited with status {worker.returncode}"
        )


def subsample_size(n_points: int, fraction: float) -> int:
    """round(fraction * n_points), the size of every subsample of ``fraction``.

    The one check of ``fraction``, shared by ``subsample`` and
    ``robust_intersection``: it must be in (0, 1] and select a column.
    """
    check_range("fraction", fraction, lambda f: 0.0 < f <= 1.0, "in (0, 1]")
    size = int(round(fraction * n_points))
    if size < 1:
        raise ValueError(
            f"fraction {fraction} of {n_points} points selects no columns"
        )
    return size


def subsample_columns(n_points: int, fraction: float, seed: int) -> np.ndarray:
    """Ascending indices of ``subsample_size(n_points, fraction)`` distinct columns.

    Deterministic in (n_points, fraction, seed).
    """
    size = subsample_size(n_points, fraction)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n_points, size=size, replace=False))


def subsample(ds: Dataset, fraction: float, seed: int) -> Dataset:
    """Uniform random subset of round(fraction * n_points) columns.

    Deterministic in (ds, fraction, seed); kept columns preserve their
    original relative order and are never duplicated.
    """
    keep = subsample_columns(ds.n_points, fraction, seed)
    return Dataset(ds.values[:, keep], ds.n_outputs)
