"""Pairwise independence tests and mutual information over binned variables.

The chi-square p-value is the upper tail of the chi-square distribution,
computed from the regularized upper incomplete gamma function Q(a, x).
Q is evaluated with the classic series / continued-fraction split at
x = a + 1, which keeps absolute error below 1e-10 across the dof and
statistic ranges this package produces.

A pair test and the mutual information take their marginals from the
features' cached ``bin_counts`` and their integer joint counts from one
``np.bincount`` over the flat code ``a * l + b``, computed in the smallest
unsigned dtype that holds ``k * l``.  A ``k`` by ``l`` table, whose margins
come from the data, is tested with ``dof = (k - 1) * (l - 1)`` (Fisher 1922).
Its expected-frequency guard is Cochran's rule (Biometrics 1954): every
expected cell must hold at least ``MIN_EXPECTED = 5`` points.  The guard
changes no verdict; a table that fails it is flagged with ``guard_ok``.
That cell is ``s_a * s_b / n``, with ``s`` a variable's smallest bin count:
``guard_failures`` counts failing pairs from the ``s`` alone, before any test.
The chi-square statistic is an exact sum of its cells, correctly rounded
as ``math.fsum`` is, so its bits do not depend on the order of the cells
or on the summation method.  The cells split at one power of two into
high parts, whose float sum is exact in any order, and exact remainders
(the error-free extraction of Rump, Ogita & Oishi, SIAM J. Sci. Comput.
31(1), 2008).  The remainders are summed in float; Knuth's TwoSum of the
two sums, with a static bound on the remainders' rounding, certifies
that their float total is the correctly rounded sum, and ``math.fsum``
decides whenever it cannot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binning import DiscretizedFeature
from .dataset import check_integer, check_range

_EPS = 1e-15
_TINY = 1e-300
_MAX_ITER = 10_000_000

#: Cochran's minimum expected cell count for the chi-square approximation
MIN_EXPECTED = 5.0


@dataclass(frozen=True)
class IndependenceVerdict:
    chi2: float
    dof: int
    p_value: float
    independent: bool
    guard_ok: bool


def _joint_counts(a: DiscretizedFeature, b: DiscretizedFeature) -> np.ndarray:
    """The pair's integer joint bin counts, a ``(k, l)`` array."""
    if a.n_points != b.n_points:
        raise ValueError(
            f"mismatched point counts: {a.n_points} vs {b.n_points}"
        )
    k, l = a.n_bins, b.n_bins
    # explicit dtypes: the flat code never wraps, under either NumPy casting rule
    flat = np.multiply(a.bin_of_point, l, dtype=np.min_scalar_type(k * l))
    np.add(flat, b.bin_of_point, out=flat)
    return np.bincount(flat, minlength=k * l).reshape(k, l)


def _exact_sum(values: np.ndarray) -> float:
    """The correctly rounded sum of a 1-d float64 array, equal to math.fsum.

    With sigma a power of two of at least (n + 2) * max|x|, the high parts
    q = (sigma + x) - sigma are multiples of ulp(sigma) / 2, so their float
    sum tau is exact in any order, and the remainders x - q are exact and at
    most ulp(sigma) / 2; below 2**26 terms their float sum s errs by under
    n**2 * 2**-52 * ulp(sigma) / 2 (past that, this bound exceeds every gap).
    r = tau + s is the rounded exact sum when that bound plus TwoSum's
    residual of the addition stays below half the gap from r to its nearer
    neighbour.  Otherwise, and for no terms, zeros only, a non-finite term
    or a sigma past the float range or small enough for the bound to
    underflow, ``math.fsum`` decides.
    """
    n = values.size
    scale = (n + 2) * float(np.maximum.reduce(np.abs(values), initial=0.0))
    if not 2.0**-900 < scale < 2.0**1023:
        return math.fsum(values.tolist())
    sigma = math.ldexp(1.0, math.frexp(scale)[1])
    high = values + sigma
    high -= sigma
    tau = float(np.add.reduce(high))
    s = float(np.add.reduce(np.subtract(values, high, out=high)))
    r = tau + s
    b = r - tau
    residual = (tau - (r - b)) + (s - b)  # TwoSum: tau + s == r + residual exactly
    if abs(residual) + n * n * sigma * 2.0**-105 < abs(r - math.nextafter(r, 0.0)) / 2:
        return r
    return math.fsum(values.tolist())


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for x < a + 1."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if term < total * _EPS:  # both start at 1/a > 0 and gain factors x/denom > 0
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for x >= a + 1 (Lentz)."""
    log_prefactor = -x + a * math.log(x) - math.lgamma(a)
    if log_prefactor < -745.0:  # underflows exp(); tail is numerically zero
        return 0.0
    # -t < v < t stands for abs(v) < t: equal for every float, NaN too
    tiny, neg_tiny, eps, neg_eps = _TINY, -_TINY, _EPS, -_EPS
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if neg_tiny < d < tiny:
            d = tiny
        c = b + an / c
        if neg_tiny < c < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if neg_eps < delta - 1.0 < eps:
            break
    return math.exp(log_prefactor) * h


def _upper_gamma(a: float, x: float) -> float:
    """Q(a, x) for checked float arguments ``a > 0``, ``x >= 0``."""
    if x == 0.0:
        return 1.0
    q = 1.0 - _lower_gamma_series(a, x) if x < a + 1.0 else _upper_gamma_cf(a, x)
    return min(1.0, max(0.0, q))


def regularized_upper_gamma(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a), clamped into [0, 1]."""
    check_range("a", a, lambda v: v > 0.0 and math.isfinite(v), "finite and > 0")
    check_range("x", x, lambda v: v >= 0.0 and math.isfinite(v), "finite and >= 0")
    return _upper_gamma(float(a), float(x))


def chi_square_p_value(chi2: float, dof: int) -> float:
    """Upper-tail probability P(X >= chi2) for X chi-square with dof d.o.f."""
    check_range("chi2", chi2, lambda v: v >= 0.0 and math.isfinite(v), "finite and >= 0")
    check_integer("dof", dof, 1)
    return _upper_gamma(dof / 2.0, float(chi2) / 2.0)


def is_independent(
    a: DiscretizedFeature,
    b: DiscretizedFeature,
    alpha: float,
) -> IndependenceVerdict:
    """Chi-square independence verdict for a pair of binned variables.

    A variable with a single bin (constant over the measurements) is
    unconditionally independent of anything.  The hypothesis is rejected
    when p < alpha; the boundary p == alpha counts as not rejected.
    ``guard_ok`` is Cochran's rule, every expected cell at least
    ``MIN_EXPECTED`` (5); a table that breaks it keeps its verdict and is
    only flagged, since the remedy is a coarser binning, not an abort.

    The statistic sums ``(observed - expected)**2 / expected`` over the
    joint counts, with ``expected`` the outer product of the cached bin
    counts over n.  The guard and the zero-cell check both read
    ``expected.min()``, the cell of the two smallest marginals.
    """
    check_range("alpha", alpha, lambda x: 0.0 < x < 1.0, "in (0, 1)")
    observed = _joint_counts(a, b)  # checks the sizes, for a single bin too
    if not a.testable or not b.testable:
        return IndependenceVerdict(0.0, 0, 1.0, True, True)
    expected = np.multiply.outer(a.bin_counts, b.bin_counts, dtype=np.float64)
    expected /= a.n_points
    least = expected.min()
    if least == 0.0:
        raise ValueError("contingency table has a zero expected cell")
    cells = observed - expected
    cells *= cells
    cells /= expected
    chi2 = _exact_sum(cells.ravel())
    dof = (a.n_bins - 1) * (b.n_bins - 1)
    p = _upper_gamma(dof / 2.0, chi2 / 2.0)  # both valid by construction
    return IndependenceVerdict(
        chi2=chi2,
        dof=dof,
        p_value=p,
        independent=p >= alpha,
        guard_ok=bool(least >= MIN_EXPECTED),
    )


def guard_failures(smallest, n_points: int) -> int:
    """Pairs of variables, by smallest bin counts ``s >= 1``, failing the guard.

    A pair fails, as its verdict's ``guard_ok`` does, when ``s_a * s_b`` is
    below ``MIN_EXPECTED * n_points``; one sort and one search count them.
    """
    s = np.sort(np.asarray(smallest, dtype=np.int64))
    limit = math.ceil(MIN_EXPECTED * n_points)
    partners = s.searchsorted((limit - 1) // s, side="right")  # s * partner < limit
    return int(partners.sum() - np.count_nonzero(s * s < limit)) // 2


def mutual_information(a: DiscretizedFeature, b: DiscretizedFeature) -> float:
    """Mutual information in nats from the pair's joint bin distribution."""
    n = a.n_points
    row = a.bin_counts.astype(np.float64)
    col = b.bin_counts.astype(np.float64)
    p_joint = _joint_counts(a, b) / n
    p_prod = np.outer(row, col) / (n**2)
    mask = p_joint > 0.0
    terms = p_joint[mask] * np.log(p_joint[mask] / p_prod[mask])
    return max(0.0, math.fsum(terms.tolist()))  # fsum keeps MI(a,b) == MI(b,a) exact
