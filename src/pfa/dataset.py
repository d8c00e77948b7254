"""Tabular measurement data: rows are variables, columns are data points.

The on-disk interchange format is a headerless CSV where each column holds
one data point and each row one variable.  By convention the first
``n_outputs`` rows are output variables (row 1 = first output, the next row
= first feature).  The accompanying text of the original data layout labels
row 1 "the input function"; context makes clear it is the output, and this
module treats it as such.
"""

from __future__ import annotations

import csv
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np


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
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


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
        raise ValueError(f"{name} must be {bounds}, got {value}")


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
        check_integer("n_outputs", self.n_outputs, 0)
        if self.n_outputs >= values.shape[0]:
            raise ValueError(
                f"n_outputs={self.n_outputs} leaves no feature rows "
                f"(dataset has {values.shape[0]} rows)"
            )
        if not np.all(np.isfinite(values)):
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


def load_csv(path, n_outputs: int = 1) -> Dataset:
    """Read a dataset from the headerless variables-by-points CSV layout.

    Cells are parsed as 64-bit floats.  Rejects empty files, and ragged
    rows, blank lines and non-numeric or non-finite cells with their row
    (and column): each row left to right, a ragged row before its cells.

    The file is first parsed whole by ``np.loadtxt``, which reads a number
    the way ``float()`` does but refuses a ``_`` digit separator.  Its
    result is kept only when it is certain to equal the per-cell parser's:
    the parse succeeded without a warning, the file has no blank line, and
    every value is finite.  Any other file, whether malformed or merely
    unusual (quoted cells, non-ASCII digits), is read again by the per-cell
    parser, which accepts it or reports the first bad cell.
    """
    values = _load_whole_rows(path)
    if values is None:
        values = _load_cells(path)
    return Dataset(values, n_outputs)


def _nonblank_lines(fh):
    """The file's lines; a blank one, which ``np.loadtxt`` skips, raises."""
    for line in fh:
        if not line.strip():
            raise DatasetError("blank line")
        yield line


def _load_whole_rows(path) -> np.ndarray | None:
    """The file's matrix by numpy's row parser, or None to parse it per cell."""
    with open(path, newline="", encoding="utf-8") as fh, warnings.catch_warnings():
        # loadtxt warns (and returns an empty array) on a file without data
        warnings.simplefilter("error")
        try:
            values = np.loadtxt(
                _nonblank_lines(fh),
                delimiter=",",
                dtype=np.float64,
                ndmin=2,
                comments=None,
            )
        except (ValueError, Warning, DatasetError):
            return None
    if values.size == 0 or not np.isfinite(values).all():
        return None
    return values


def _load_cells(path) -> np.ndarray:
    """Parse cell by cell with ``float()``; raises on the first bad cell.

    A ``_`` makes a cell non-numeric: ``float()`` would read ``1_0`` as 10.0.
    """
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for row_no, record in enumerate(reader, start=1):
            if not record:
                raise DatasetError(f"blank line at row {row_no}")
            if rows and len(record) != len(rows[0]):
                raise DatasetError(
                    f"row {row_no} has {len(record)} columns, expected {len(rows[0])}"
                )
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
            rows.append(parsed)
    if not rows:
        raise DatasetError(f"empty dataset file: {path}")
    return np.array(rows, dtype=np.float64)


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset in the interchange CSV layout; round-trips bit-exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for row in ds.values:
            fh.write(",".join(map(repr, row.tolist())))
            fh.write("\n")


def subsample_columns(n_points: int, fraction: float, seed: int) -> np.ndarray:
    """Ascending indices of round(fraction * n_points) distinct columns.

    Deterministic in (n_points, fraction, seed).  The one check of
    ``fraction``, shared by ``subsample`` and ``robust_intersection``.
    """
    check_range("fraction", fraction, lambda f: 0.0 < f <= 1.0, "in (0, 1]")
    size = int(round(fraction * n_points))
    if size < 1:
        raise ValueError(
            f"fraction {fraction} of {n_points} points selects no columns"
        )
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n_points, size=size, replace=False))


def subsample(ds: Dataset, fraction: float, seed: int) -> Dataset:
    """Uniform random subset of round(fraction * n_points) columns.

    Deterministic in (ds, fraction, seed); kept columns preserve their
    original relative order and are never duplicated.
    """
    keep = subsample_columns(ds.n_points, fraction, seed)
    return Dataset(ds.values[:, keep], ds.n_outputs)
