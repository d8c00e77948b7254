"""Occupancy-driven discretization of continuous variables.

Each variable's values are walked in ascending order; a bin is closed once
it holds at least ``nu`` points and the next unassigned value is strictly
greater than the bin's last value, so equal values never split across bins.
A trailing remainder of fewer than ``nu`` points is merged into the
preceding full bin.

Bin codes are stored in the smallest unsigned dtype that holds
``n_bins - 1`` (``uint8`` up to 256 bins, then ``uint16``/``uint32``), so a
pair test reads an eighth of the bytes an ``int64`` code would take.
Arithmetic on ``bin_of_point`` wraps in that dtype: widen it first, as in
``feature.bin_of_point.astype(np.int64) * n``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, check_integer


@dataclass(frozen=True)
class DiscretizedFeature:
    """Per-point ordinal bin indices for one variable.

    ``is_constant`` marks variables whose measurements show a single value.
    A variable that ends up with a single bin for any reason (constant, or
    too few points to ever fill a bin) carries no contingency information
    and is excluded from independence testing.  Codes must be integers in
    ``[0, n_bins)``; they are kept read-only in the compact dtype of the
    module docstring, with the points per bin in ``bin_counts`` (``int64``).
    """

    bin_of_point: np.ndarray = field(hash=False)
    n_bins: int
    is_constant: bool
    bin_counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a Python int, so code arithmetic sized from it keeps its dtype
        object.__setattr__(self, "n_bins", operator.index(self.n_bins))
        if self.n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {self.n_bins}")
        codes = np.asarray(self.bin_of_point)
        if codes.size:
            if codes.dtype.kind not in "iu":
                raise ValueError(f"bin codes must be integers, got dtype {codes.dtype}")
            low, high = int(codes.min()), int(codes.max())
            if low < 0 or high >= self.n_bins:
                raise ValueError(
                    f"bin codes must lie in [0, {self.n_bins}), got {low}..{high}"
                )
        codes = codes.astype(np.min_scalar_type(self.n_bins - 1), copy=False)
        codes.setflags(write=False)
        counts = np.bincount(codes, minlength=self.n_bins)
        counts.setflags(write=False)
        object.__setattr__(self, "bin_of_point", codes)
        object.__setattr__(self, "bin_counts", counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscretizedFeature):
            return NotImplemented
        return (
            self.n_bins == other.n_bins
            and self.is_constant == other.is_constant
            and np.array_equal(self.bin_of_point, other.bin_of_point)
        )

    @property
    def n_points(self) -> int:
        return len(self.bin_of_point)

    @property
    def testable(self) -> bool:
        return self.n_bins > 1


def discretize(values, nu: int) -> DiscretizedFeature:
    """Bin one variable's finite values so every bin holds >= nu points.

    Every bin boundary falls between two distinct values, so equal values
    share a bin whatever their order in the sort; the partition depends only
    on the values, and no stable sort is needed.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot discretize an empty value sequence")
    check_integer("nu", nu, 1)
    low, high = values.min(), values.max()  # NaN propagates through both
    if not (np.isfinite(low) and np.isfinite(high)):
        raise ValueError("cannot discretize non-finite values")

    if high <= low:
        return DiscretizedFeature(np.zeros(values.size, dtype=np.uint8), 1, True)

    order = np.argsort(values)
    ordered = values[order]
    n = values.size

    boundaries = []  # exclusive end position of each closed bin
    i = 0
    while i < n:
        if n - i < nu:
            # trailing remainder: merge into the last full bin
            if boundaries:
                boundaries[-1] = n
            else:
                boundaries.append(n)
            break
        end = i + nu
        if end < n and ordered[end] == ordered[end - 1]:
            # extend across ties so equal values stay in one bin
            end = int(np.searchsorted(ordered, ordered[end - 1], side="right"))
        boundaries.append(end)
        i = end

    n_bins = len(boundaries)
    code_dtype = np.min_scalar_type(n_bins - 1)
    sizes = np.diff(boundaries, prepend=0)
    bin_in_order = np.repeat(np.arange(n_bins, dtype=code_dtype), sizes)

    bin_of_point = np.empty(n, dtype=code_dtype)
    bin_of_point[order] = bin_in_order
    return DiscretizedFeature(bin_of_point, n_bins, False)


def discretize_all(ds: Dataset, nu: int) -> list[DiscretizedFeature]:
    """Discretize every row of a dataset (outputs included), in row order."""
    result = []
    for row_index in range(ds.n_rows):
        try:
            result.append(discretize(ds.values[row_index], nu))
        except ValueError as exc:
            raise ValueError(f"row {row_index + 1}: {exc}") from exc
    return result
