"""Occupancy-driven discretization of continuous variables.

Each variable's values are walked in ascending order; a bin is closed once
it holds at least ``nu`` points and the next unassigned value is strictly
greater than the bin's last value, so equal values never split across bins.
A trailing remainder of fewer than ``nu`` points is merged into the
preceding full bin.

The bins therefore depend only on the ranks of the values: their order and
their ties, not their magnitudes.  There is one ranker, ``rank_rows``, and
one walk, ``discretize_ranks``: it bins any subset of a ranked row's points
from the cumulative counts of their dense ranks, with no sort and no special
case; a row whose points share one rank falls out of the walk as one bin.
``discretize`` ranks its one row and bins it there; ``robust`` ranks every
row of a matrix once and bins each subsample from those ranks.

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
    """Exclusive end rank of each bin of the points counted by ``cum``.

    ``cum[r]`` counts the points of rank ``r`` or below, so the first rank
    whose count reaches a bin's ``nu`` points closes it, ties included.  A
    trailing remainder of fewer than ``nu`` points merges into the last bin,
    which runs to ``cum.size``; fewer than ``nu`` points make one bin.
    """
    n = int(cum[-1])
    ends = []
    i = 0
    while n - i >= nu:
        # close after nu points, extended across ties so equal values share a bin
        rank = int(cum.searchsorted(i + nu - 1, side="right"))
        ends.append(rank + 1)
        i = int(cum[rank])
    if i < n:
        # trailing remainder: merge into the last full bin, or make the one bin
        ends[-1:] = [cum.size]
    return ends


def discretize(values, nu: int) -> DiscretizedFeature:
    """Bin one variable's finite values so every bin holds >= nu points.

    The row is ranked by ``rank_rows`` and binned by ``discretize_ranks``.
    Every bin boundary falls between two distinct values, so equal values
    share a bin whatever their order in the sort; no stable sort is needed.
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
    return discretize_ranks(rank_rows(values[np.newaxis])[0], nu)


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
        order = np.argsort(row)
        ordered = row[order]
        rank_in_order = np.zeros(row.size, dtype=np.uint32)
        np.cumsum(ordered[1:] != ordered[:-1], dtype=np.uint32, out=rank_in_order[1:])
        out[order] = rank_in_order
    return ranks


def discretize_ranks(ranks: np.ndarray, nu: int) -> DiscretizedFeature:
    """Bin the points whose dense ranks (``rank_rows``) are given, as ``discretize``.

    The ranks may be any subset of a ranked row's points.  Their cumulative
    counts give each bin's end rank, with no sort; each point then reads the
    bin of its rank.  A subset whose points share one rank is constant.
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
    # a Python bool: its repr is part of what the pinned digests hash
    is_constant = bool(np.count_nonzero(counts) == 1)
    cum = np.cumsum(counts)  # points at or below each rank
    rank_ends = _bin_ends(cum, nu)
    n_bins = len(rank_ends)
    codes = np.arange(n_bins, dtype=np.min_scalar_type(n_bins - 1))
    code_of_rank = np.repeat(codes, np.diff([0, *rank_ends]))
    return DiscretizedFeature(np.take(code_of_rank, ranks), n_bins, is_constant)


def discretize_all(ds: Dataset, nu: int) -> list[DiscretizedFeature]:
    """Discretize every row of a dataset (outputs included), in row order."""
    return [discretize(row, nu) for row in ds.values]
