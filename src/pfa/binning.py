"""Occupancy-driven discretization of continuous variables.

Each variable's values are walked in ascending order; a bin is closed once
it holds at least ``nu`` points and the next unassigned value is strictly
greater than the bin's last value, so equal values never split across bins.
A trailing remainder of fewer than ``nu`` points is merged into the
preceding full bin.

The bins therefore depend only on the ranks of the values: their order and
their ties, not their magnitudes.  ``discretize`` walks a row's sorted
values; ``rank_rows`` ranks every row of a matrix once, and
``discretize_ranks`` bins any subset of a row's points from those ranks,
with no further sort.  Both walks close bins by one rule, ``_bin_ends``,
and give identical bins for identical points.

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


def _constant(n_points: int) -> DiscretizedFeature:
    return DiscretizedFeature(np.zeros(n_points, dtype=np.uint8), 1, True)


def _bin_ends(n: int, nu: int, tie_end) -> list[int]:
    """Exclusive end position of each bin of n ascending, non-constant points.

    ``tie_end(p)`` is the exclusive end of the run of values equal to the
    one at ascending position ``p``.
    """
    ends = []
    i = 0
    while n - i >= nu:
        # close after nu points, extended across ties so equal values share a bin
        i = tie_end(i + nu - 1)
        ends.append(i)
    if i < n:
        # trailing remainder: merge into the last full bin
        if ends:
            ends[-1] = n
        else:
            ends.append(n)
    return ends


def _codes(ends: list[int]) -> np.ndarray:
    """Bin ``b`` repeated over ``ends[b] - ends[b - 1]`` slots, in the compact dtype."""
    sizes = [end - start for start, end in zip([0, *ends], ends)]
    n_bins = len(ends)
    return np.repeat(np.arange(n_bins, dtype=np.min_scalar_type(n_bins - 1)), sizes)


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
        return _constant(values.size)

    order = np.argsort(values)
    ordered = values[order]
    n = values.size

    def tie_end(p):
        if p + 1 < n and ordered[p + 1] == ordered[p]:
            return int(np.searchsorted(ordered, ordered[p], side="right"))
        return p + 1

    ends = _bin_ends(n, nu, tie_end)
    bin_in_order = _codes(ends)
    bin_of_point = np.empty(n, dtype=bin_in_order.dtype)
    bin_of_point[order] = bin_in_order
    return DiscretizedFeature(bin_of_point, len(ends), False)


def rank_rows(values: np.ndarray) -> np.ndarray:
    """Dense ranks of each row's values: 0 for its smallest, equal values equal.

    One contiguous ``uint32`` matrix of the input's shape; ``-0.0`` and
    ``0.0`` share a rank, as they share a bin.
    """
    values = np.asarray(values, dtype=np.float64)
    ranks = np.empty(values.shape, dtype=np.uint32)
    rank_in_order = np.empty(values.shape[1], dtype=np.uint32)
    rank_in_order[0] = 0
    for row, out in zip(values, ranks):
        order = np.argsort(row)
        ordered = row[order]
        np.cumsum(ordered[1:] != ordered[:-1], dtype=np.uint32, out=rank_in_order[1:])
        out[order] = rank_in_order
    return ranks


def discretize_ranks(ranks: np.ndarray, nu: int) -> DiscretizedFeature:
    """``discretize`` of the points whose dense ranks (``rank_rows``) are given.

    The ranks may be any subset of a ranked row's points.  Their cumulative
    counts give each rank's ascending end position, and so the bins, with no
    sort; each point then reads the bin of its rank.
    """
    check_integer("nu", nu, 1)
    # bincount and take cast any other index dtype at several times the cost
    ranks = np.asarray(ranks).astype(np.intp)
    if ranks.size == 0:
        raise ValueError("cannot discretize an empty value sequence")
    cum = np.cumsum(np.bincount(ranks))  # points at or below each rank
    n = ranks.size

    def tie_end(p):
        return int(cum[np.searchsorted(cum, p, side="right")])

    if tie_end(0) == n:  # one rank holds every point
        return _constant(n)
    ends = _bin_ends(n, nu, tie_end)
    # the rank that closes each bin; the last bin runs to the highest rank
    rank_ends = np.searchsorted(cum, ends[:-1]) + 1
    code_of_rank = _codes([*rank_ends.tolist(), cum.size])
    return DiscretizedFeature(np.take(code_of_rank, ranks), len(ends), False)


def discretize_all(ds: Dataset, nu: int) -> list[DiscretizedFeature]:
    """Discretize every row of a dataset (outputs included), in row order."""
    result = []
    for row_index in range(ds.n_rows):
        try:
            result.append(discretize(ds.values[row_index], nu))
        except ValueError as exc:
            raise ValueError(f"row {row_index + 1}: {exc}") from exc
    return result
