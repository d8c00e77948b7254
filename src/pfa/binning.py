"""Occupancy-driven discretization of continuous variables.

Each variable's values are walked in ascending order; a bin is closed once
it holds at least ``nu`` points and the next unassigned value is strictly
greater than the bin's last value, so equal values never split across bins.
A trailing remainder of fewer than ``nu`` points is merged into the
preceding full bin.

The bins therefore depend only on the ranks of the values: their order and
their ties, not their magnitudes.  There is one walk, ``discretize_ranks``:
it bins any subset of a ranked row's points from the cumulative counts of
their dense ranks, with no sort.  ``discretize`` ranks its one row and
bins it there; ``rank_rows`` ranks every row of a matrix once, so that
``robust`` can bin each subsample without sorting it again.

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
        if codes.ndim != 1:
            raise ValueError(f"bin codes must be one row, got shape {codes.shape}")
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


def _bin_ends(cum: np.ndarray, nu: int) -> list[int]:
    """Exclusive end position of each bin of ascending, non-constant points.

    ``cum[r]`` counts the points of rank ``r`` or below, so the first entry
    above a position is the end of the run of equal values there.
    """
    n = int(cum[-1])
    ends = []
    i = 0
    while n - i >= nu:
        # close after nu points, extended across ties so equal values share a bin
        i = int(cum[cum.searchsorted(i + nu - 1, side="right")])
        ends.append(i)
    if i < n:
        # trailing remainder: merge into the last full bin
        if ends:
            ends[-1] = n
        else:
            ends.append(n)
    return ends


def _rank_into(row: np.ndarray, out: np.ndarray) -> None:
    """Write the dense ranks of a non-empty float64 row into ``out``."""
    order = np.argsort(row)
    ordered = row[order]
    rank_in_order = np.zeros(row.size, dtype=out.dtype)
    np.cumsum(ordered[1:] != ordered[:-1], dtype=out.dtype, out=rank_in_order[1:])
    out[order] = rank_in_order


def discretize(values, nu: int) -> DiscretizedFeature:
    """Bin one variable's finite values so every bin holds >= nu points.

    The row is ranked densely and binned by ``discretize_ranks``.  Every bin
    boundary falls between two distinct values, so equal values share a bin
    whatever their order in the sort; no stable sort is needed.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"cannot discretize values of shape {values.shape}: not one row")
    if values.size == 0:
        raise ValueError("cannot discretize an empty value sequence")
    check_integer("nu", nu, 1)
    low, high = values.min(), values.max()  # NaN propagates through both
    if not (np.isfinite(low) and np.isfinite(high)):
        raise ValueError("cannot discretize non-finite values")
    ranks = np.empty(values.size, dtype=np.intp)
    _rank_into(values, ranks)
    return discretize_ranks(ranks, nu)


def rank_rows(values: np.ndarray) -> np.ndarray:
    """Dense ranks of each row's values: 0 for its smallest, equal values equal.

    One contiguous ``uint32`` matrix of the input's shape; ``-0.0`` and
    ``0.0`` share a rank, as they share a bin.  The values must be finite,
    which is the caller's check (``Dataset`` makes it).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"cannot rank values of shape {values.shape}: not a 2-d matrix")
    ranks = np.empty(values.shape, dtype=np.uint32)
    for row, out in zip(values, ranks):
        _rank_into(row, out)
    return ranks


def discretize_ranks(ranks: np.ndarray, nu: int) -> DiscretizedFeature:
    """Bin the points whose dense ranks (``rank_rows``) are given, as ``discretize``.

    The ranks may be any subset of a ranked row's points.  Their cumulative
    counts give each rank's ascending end position, and so the bins, with no
    sort; each point then reads the bin of its rank.
    """
    check_integer("nu", nu, 1)
    ranks = np.asarray(ranks)
    if ranks.ndim != 1 or ranks.dtype.kind not in "iu":
        raise ValueError(
            f"ranks must be one row of integers, got {ranks.dtype} of shape {ranks.shape}"
        )
    if ranks.size == 0:
        raise ValueError("cannot discretize an empty value sequence")
    # bincount and take cast any other index dtype at several times the cost
    ranks = ranks.astype(np.intp, copy=False)
    try:
        counts = np.bincount(ranks)
    except ValueError:  # bincount's one refusal of a 1-d integer row
        raise ValueError(f"ranks must be >= 0, got {ranks.min()}") from None
    n = ranks.size
    if np.count_nonzero(counts) == 1:  # one rank holds every point
        return DiscretizedFeature(np.zeros(n, dtype=np.uint8), 1, True)
    cum = np.cumsum(counts)  # points at or below each rank
    ends = _bin_ends(cum, nu)
    # the rank that closes each bin; the last bin runs to the highest rank
    rank_ends = [*(cum.searchsorted(ends[:-1]) + 1).tolist(), cum.size]
    n_bins = len(ends)
    codes = np.arange(n_bins, dtype=np.min_scalar_type(n_bins - 1))
    code_of_rank = np.repeat(codes, np.diff([0, *rank_ends]))
    return DiscretizedFeature(np.take(code_of_rank, ranks), n_bins, False)


def discretize_all(ds: Dataset, nu: int) -> list[DiscretizedFeature]:
    """Discretize every row of a dataset (outputs included), in row order."""
    result = []
    for row_index in range(ds.n_rows):
        try:
            result.append(discretize(ds.values[row_index], nu))
        except ValueError as exc:
            raise ValueError(f"row {row_index + 1}: {exc}") from exc
    return result
