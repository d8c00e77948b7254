import hashlib
import itertools
import math
from decimal import Decimal

import mpmath as mp
import numpy as np
import pytest
from helpers import (
    float_table_mutual_information,
    fsum_contingency,
    fsum_is_independent,
    scalar_p_value,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfa import stats
from pfa.analysis import PfaConfig, run_pfa
from pfa.binning import DiscretizedFeature, discretize
from pfa.dataset import Dataset
from pfa.stats import (
    chi_square_p_value,
    is_independent,
    mutual_information,
    regularized_upper_gamma,
)
from pfa.synth import SynthSpec, generate, random_dag

mp.mp.dps = 40


def feature(bins, n_bins=None):
    bins = np.asarray(bins, dtype=np.int64)
    n_bins = n_bins if n_bins is not None else int(bins.max()) + 1
    return DiscretizedFeature(bins, n_bins, n_bins == 1)


def upper_gamma_by_quadrature(a: float, x: float) -> float:
    """Independent oracle: numerically integrate the gamma density tail."""
    if x == 0.0:
        return 1.0
    integrand = lambda t: mp.e ** ((a - 1) * mp.log(t) - t - mp.loggamma(a))
    split = [x, a] if a > x else [x]
    return float(mp.quad(integrand, split + [mp.inf]))


def expected_counts(a, b):
    """The expected cells ``is_independent`` forms from the cached bin counts."""
    row = a.bin_counts.astype(np.float64)
    return np.outer(row, b.bin_counts.astype(np.float64)) / a.n_points


def assert_huge_integer_not_printed(error: ValueError, value) -> None:
    """An integer past the float range is named so, not by its digits.

    Past 4,300 digits Python refuses to print them.
    """
    if isinstance(value, int) and abs(value) > 10**308:
        assert str(error).endswith(", got an integer past the float range")


class TestContingency:
    def test_identical_two_bin_variable(self):
        half = feature([0] * 50 + [1] * 50)
        observed = stats._joint_counts(half, half)
        assert np.array_equal(observed, [[50, 0], [0, 50]])
        assert np.array_equal(expected_counts(half, half), [[25, 25], [25, 25]])
        assert half.n_points == 100

    def test_constant_against_three_bins(self):
        const = feature([0] * 9, n_bins=1)
        tri = feature([0, 0, 0, 1, 1, 1, 2, 2, 2])
        observed = stats._joint_counts(const, tri)
        assert observed.shape == (1, 3)
        assert np.array_equal(observed[0], tri.bin_counts)
        assert np.array_equal(observed, expected_counts(const, tri))

    def test_constant_against_widest_uint8_partner(self):
        # k * l = 256 does not fit the partner's uint8 codes
        const = feature([0] * 512, n_bins=1)
        wide = feature(np.arange(512) % 256)
        assert stats._joint_counts(const, wide).tolist() == [[2] * 256]

    def test_transpose_symmetry(self):
        a = feature([0, 1, 0, 1, 2, 2, 0, 1])
        b = feature([1, 1, 0, 0, 1, 0, 1, 0])
        assert np.array_equal(stats._joint_counts(a, b), stats._joint_counts(b, a).T)
        assert np.array_equal(expected_counts(a, b), expected_counts(b, a).T)

    def test_conservation(self):
        a = feature([0, 1, 2, 0, 1, 2, 0])
        b = feature([0, 0, 1, 1, 0, 1, 0])
        observed = stats._joint_counts(a, b)
        assert observed.sum() == a.n_points
        assert np.array_equal(observed.sum(axis=1), a.bin_counts)
        assert np.array_equal(observed.sum(axis=0), b.bin_counts)
        assert math.isclose(expected_counts(a, b).sum(), a.n_points, rel_tol=1e-12)

    def test_mismatched_lengths(self):
        short, long = feature([0, 1]), feature([0, 1, 0])
        for pair_statistic in (stats._joint_counts, mutual_information):
            with pytest.raises(ValueError, match="mismatched"):
                pair_statistic(short, long)
        # a single bin takes the untestable shortcut, after the size check
        single = feature([0, 0, 0], n_bins=1)
        for x, y in ((short, long), (single, feature([0, 1, 0, 1]))):
            for pair in ((x, y), (y, x)):
                with pytest.raises(ValueError, match="mismatched"):
                    is_independent(*pair, 0.01)


def chi2(a, b):
    return is_independent(a, b, alpha=0.01).chi2


class TestChiSquareStatistic:
    def test_zero_for_matching_distributions(self):
        # observed [[1,1],[1,1]] equals expected exactly
        assert chi2(feature([0, 0, 1, 1]), feature([0, 1, 0, 1])) == 0.0
        # a constant partner takes the untestable shortcut
        const = feature([0] * 6, n_bins=1)
        other = feature([0, 0, 1, 1, 2, 2])
        assert chi2(const, other) == 0.0

    def test_identical_two_bin_gives_n(self):
        half = feature([0] * 500 + [1] * 500)
        assert chi2(half, half) == pytest.approx(1000.0)

    def test_hand_computed_2x2(self):
        # observed [[10,20],[20,10]], expected 15 everywhere -> 100/15
        a = feature([0] * 30 + [1] * 30)
        b = feature([0] * 10 + [1] * 20 + [0] * 20 + [1] * 10)
        assert chi2(a, b) == pytest.approx(100.0 / 15.0)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(0)
        a = feature(rng.integers(0, 4, 200))
        b = feature(rng.integers(0, 3, 200))
        assert chi2(a, b) == chi2(b, a)

    def test_invariant_under_bin_relabeling(self):
        rng = np.random.default_rng(1)
        bins = rng.integers(0, 4, 300)
        other = feature(rng.integers(0, 3, 300))
        relabeled = feature((3 - bins))
        assert chi2(feature(bins), other) == pytest.approx(chi2(relabeled, other))


class TestPValue:
    def test_zero_statistic(self):
        for dof in (1, 5, 100):
            assert chi_square_p_value(0.0, dof) == 1.0

    def test_published_critical_values(self):
        assert chi_square_p_value(3.841, 1) == pytest.approx(0.05, abs=1e-3)
        assert chi_square_p_value(13.277, 4) == pytest.approx(0.01, abs=1e-3)

    def test_monotone_in_chi2(self):
        for dof in (1, 4, 30):
            values = [chi_square_p_value(x, dof) for x in np.linspace(0, 80, 60)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_gamma_against_quadrature(self):
        for dof in (1, 2, 7, 40, 200):
            for chi2 in (0.5, dof * 0.5, float(dof), dof * 2.0):
                mine = regularized_upper_gamma(dof / 2.0, chi2 / 2.0)
                ref = upper_gamma_by_quadrature(dof / 2.0, chi2 / 2.0)
                assert mine == pytest.approx(ref, abs=1e-10)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            chi_square_p_value(float("nan"), 1)
        with pytest.raises(ValueError):
            chi_square_p_value(-1.0, 1)
        with pytest.raises(ValueError):
            chi_square_p_value(1.0, 0)

    @pytest.mark.parametrize(
        "chi2, dof, name",
        [
            (3.841458820694124, True, "dof"),
            (True, 1, "chi2"),
            (3.84, 1.5, "dof"),
            ("3", 1, "chi2"),
            (3.0, "1", "dof"),
            (math.inf, 1, "chi2"),
            (1.0, -1, "dof"),
            (Decimal("NaN"), 1, "chi2"),
            pytest.param(1.0, 10**400, "dof", id="dof-past-the-float-range"),
            pytest.param(10**400, 1, "chi2", id="chi2-past-the-float-range"),
            pytest.param(1.0, 10**5000, "dof", id="dof-past-the-digit-limit"),
            pytest.param(10**5000, 1, "chi2", id="chi2-past-the-digit-limit"),
        ],
    )
    def test_refuses_bools_non_numbers_and_non_integer_dof(self, chi2, dof, name):
        with pytest.raises(ValueError, match=f"^{name} must be") as raised:
            chi_square_p_value(chi2, dof)
        assert_huge_integer_not_printed(raised.value, {"chi2": chi2, "dof": dof}[name])

    @pytest.mark.parametrize(
        "a, x, name",
        [
            (True, 2.0, "a"),
            (2.0, False, "x"),
            ("1", 2.0, "a"),
            (1.0, None, "x"),
            (0.0, 1.0, "a"),
            (1.0, -1.0, "x"),
            (math.nan, 1.0, "a"),
            (1.0, math.inf, "x"),
            pytest.param(10**400, 1.0, "a", id="a-past-the-float-range"),
            pytest.param(1.0, 10**400, "x", id="x-past-the-float-range"),
            pytest.param(10**5000, 1.0, "a", id="a-past-the-digit-limit"),
            pytest.param(1.0, 10**5000, "x", id="x-past-the-digit-limit"),
        ],
    )
    def test_gamma_refuses_bad_arguments(self, a, x, name):
        with pytest.raises(ValueError, match=f"^{name} must be") as raised:
            regularized_upper_gamma(a, x)
        assert_huge_integer_not_printed(raised.value, {"a": a, "x": x}[name])

    def test_accepts_numpy_scalars(self):
        assert chi_square_p_value(np.float64(7.5), np.int64(4)) == chi_square_p_value(7.5, 4)
        assert regularized_upper_gamma(np.float64(2.0), 3) == regularized_upper_gamma(2.0, 3.0)

    @given(
        dof=st.integers(1, 4000),
        # 1 puts x = chi2 / 2 at a + 1, the split between series and fraction;
        # past about 3 the continued fraction's prefactor underflows for most dof
        factor=st.one_of(st.just(1.0), st.floats(0.0, 3.0), st.floats(3.0, 2000.0)),
        steps=st.integers(-3, 3),
    )
    @example(dof=1, factor=1000.0, steps=0)  # x = 1500: exp(-x...) underflows
    @example(dof=4000, factor=10.0, steps=0)
    @example(dof=361, factor=1.0, steps=-1)  # just below the split
    @settings(max_examples=300, deadline=None)
    def test_p_value_bits_equal_the_scalar_oracle(self, dof, factor, steps):
        chi2 = (dof + 2) * factor
        for _ in range(abs(steps)):
            chi2 = math.nextafter(chi2, math.copysign(math.inf, steps))
        chi2 = max(chi2, 0.0)
        assert chi_square_p_value(chi2, dof).hex() == scalar_p_value(chi2, dof).hex()


class TestIsIndependent:
    def test_constant_is_independent_of_anything(self):
        const = feature([0] * 1000, n_bins=1)
        half = feature([0] * 500 + [1] * 500)
        verdict = is_independent(const, half, alpha=0.01)
        assert verdict.independent
        assert verdict.chi2 == 0.0
        assert verdict.p_value == 1.0

    def test_identical_non_constant_is_dependent(self):
        half = feature([0] * 500 + [1] * 500)
        verdict = is_independent(half, half, alpha=0.01)
        assert verdict.chi2 == pytest.approx(1000.0)
        assert not verdict.independent
        assert verdict.p_value < 1e-6

    def test_independent_uniform_samples(self):
        rng = np.random.default_rng(2024)  # recorded reference seed
        a = discretize(rng.uniform(0, 5, 5000), nu=100)
        b = discretize(rng.uniform(0, 5, 5000), nu=100)
        assert is_independent(a, b, alpha=0.01).independent

    def test_guard_flag_reports_sparse_expectations(self):
        rng = np.random.default_rng(3)
        a = discretize(rng.uniform(0, 1, 400), nu=10)  # 40 bins, f_E = 0.25
        b = discretize(rng.uniform(0, 1, 400), nu=10)
        verdict = is_independent(a, b, alpha=0.01)
        assert not verdict.guard_ok

    @given(
        smallest=st.lists(st.integers(1, 300), max_size=40),
        n_points=st.integers(1, 5000),
    )
    @settings(max_examples=200, deadline=None)
    def test_guard_failures_count_like_a_pair_loop(self, smallest, n_points):
        pairs = itertools.combinations(smallest, 2)
        failing = sum(a * b < stats.MIN_EXPECTED * n_points for a, b in pairs)
        assert stats.guard_failures(smallest, n_points) == failing

    def test_dof_of_a_5_by_3_table_is_8(self):
        a = feature(np.arange(300) % 5)
        b = feature(np.arange(300) // 100)
        assert (a.n_bins, b.n_bins) == (5, 3)
        assert is_independent(a, b, alpha=0.01).dof == 8

    def test_matching_distribution_independent_for_any_alpha(self):
        const = feature([0] * 100, n_bins=1)
        other = feature([0] * 50 + [1] * 50)
        for alpha in (0.001, 0.05, 0.5, 0.99):
            assert is_independent(const, other, alpha=alpha).independent

    @pytest.mark.parametrize(
        "alpha", [0.0, 1.0, float("nan"), True, "x", None, Decimal("NaN"), np.array([0.01])]
    )
    def test_rejects_bad_alpha(self, alpha):
        half = feature([0] * 5 + [1] * 5)
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            is_independent(half, half, alpha)

    def test_accepts_a_decimal_alpha(self):
        half = feature([0] * 5 + [1] * 5)
        assert is_independent(half, half, Decimal("0.5")) == is_independent(half, half, 0.5)


class TestMutualInformation:
    def test_product_distribution_is_zero(self):
        # blocks arranged so observed == expected exactly
        a = feature([0, 0, 1, 1])
        b = feature([0, 1, 0, 1])
        assert mutual_information(a, b) == 0.0

    def test_identical_two_equal_bins_gives_ln2(self):
        half = feature([0] * 100 + [1] * 100)
        assert mutual_information(half, half) == pytest.approx(math.log(2))

    def test_self_information_is_entropy(self):
        rng = np.random.default_rng(5)
        bins = rng.integers(0, 5, 1000)
        counts = np.bincount(bins) / len(bins)
        entropy = -sum(p * math.log(p) for p in counts if p > 0)
        assert mutual_information(feature(bins), feature(bins)) == pytest.approx(
            entropy
        )

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_nonnegativity(self, seed):
        rng = np.random.default_rng(seed)
        a = feature(rng.integers(0, 4, 100))
        b = feature(rng.integers(0, 3, 100))
        assert mutual_information(a, b) == mutual_information(b, a)
        assert mutual_information(a, b) >= 0.0


def random_feature(rng, n, n_bins, skew=0.0):
    """Codes with every bin used; ``skew`` > 0 piles points into bin 0."""
    codes = rng.integers(0, n_bins, n)
    codes[rng.random(n) < skew] = 0
    codes[rng.permutation(n)[:n_bins]] = np.arange(n_bins)
    return DiscretizedFeature(codes, n_bins, n_bins == 1)


class TestMatchesFsumOracle:
    """Verdicts and MI equal, bit for bit, those of the float-table chain."""

    def assert_same_verdict(self, a, b, alpha=0.01):
        for x, y in ((a, b), (b, a)):
            mine = is_independent(x, y, alpha)
            assert mine == fsum_is_independent(x, y, alpha)
        return mine

    @pytest.mark.parametrize("seed", range(6))
    def test_random_tables(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            n = int(rng.integers(50, 20_000))
            k = int(rng.integers(2, min(60, n // 2)))
            l = int(rng.integers(2, min(60, n // 2)))
            skew = float(rng.choice([0.0, 0.5, 0.95]))  # heavy ties in one bin
            a, b = random_feature(rng, n, k, skew), random_feature(rng, n, l)
            self.assert_same_verdict(a, b, float(rng.uniform(1e-6, 0.5)))

    @pytest.mark.parametrize("seed", range(3))
    def test_sparse_tables_and_guard(self, seed):
        # many bins over few points: empty cells and a failing guard
        rng = np.random.default_rng(10 + seed)
        for _ in range(10):
            n = int(rng.integers(200, 1000))
            a = random_feature(rng, n, int(rng.integers(20, 100)))
            b = random_feature(rng, n, int(rng.integers(20, 100)))
            assert not self.assert_same_verdict(a, b).guard_ok

    @pytest.mark.parametrize("seed", range(3))
    def test_guard_at_its_boundary(self, seed):
        # n = 40m points, bins of 10m/30m points against 20/(40m - 20): the
        # smallest expected cell is 10m * 20 / 40m = 5, exactly Cochran's
        # minimum, and one point less in the small row bin puts it below
        rng = np.random.default_rng(40 + seed)
        m = seed + 1
        n = 40 * m
        b = feature(rng.permutation(np.repeat([0, 1], [20, n - 20])))
        for small_row, guard_ok in ((10 * m, True), (10 * m - 1, False)):
            a = feature(rng.permutation(np.repeat([0, 1], [small_row, n - small_row])))
            smallest = fsum_contingency(a, b)[4].min()
            assert (smallest == 5.0) == guard_ok
            assert self.assert_same_verdict(a, b).guard_ok is guard_ok
        # the rule on smallest bin counts passes at s_a * s_b = 5n, fails at 5n - 1
        assert [stats.guard_failures(s, n) for s in ([10 * m, 20], [1, 5 * n - 1])] == [0, 1]

    def test_one_bin_partner(self):
        rng = np.random.default_rng(20)
        lone = DiscretizedFeature(np.zeros(500, dtype=np.int64), 1, True)
        self.assert_same_verdict(lone, random_feature(rng, 500, 7))

    @pytest.mark.parametrize(
        "k, l, code, joint",
        [
            (256, 3, np.uint8, np.uint16),
            (300, 250, np.uint16, np.uint32),  # joint codes past 65,536
            (1000, 70, np.uint16, np.uint32),
        ],
    )
    def test_wide_codes(self, k, l, code, joint):
        rng = np.random.default_rng(k + l)
        a, b = random_feature(rng, 30_000, k), random_feature(rng, 30_000, l)
        assert a.bin_of_point.dtype == code
        assert np.min_scalar_type(k * l) == joint
        self.assert_same_verdict(a, b)
        observed, row, col, n, expected = fsum_contingency(a, b)
        assert np.array_equal(stats._joint_counts(a, b), observed)
        assert np.array_equal(a.bin_counts, row)
        assert np.array_equal(b.bin_counts, col)
        assert np.array_equal(expected_counts(a, b), expected)

    @pytest.mark.parametrize("seed", range(3))
    def test_discretized_rows(self, seed):
        rng = np.random.default_rng(30 + seed)
        base = rng.normal(size=20_000)
        rows = [
            base,
            np.round(base + rng.normal(size=base.size), 1),  # repeated values
            rng.exponential(size=base.size),
        ]
        for nu in (40, 250, 1000):
            features = [discretize(row, nu) for row in rows]
            for i in range(len(features)):
                for j in range(i + 1, len(features)):
                    self.assert_same_verdict(features[i], features[j], 1e-3)

    @pytest.mark.parametrize("seed", range(4))
    def test_mutual_information_bits(self, seed):
        # dense, skewed, sparse, one-bin and wide-code tables
        rng = np.random.default_rng(50 + seed)
        shapes = [(int(rng.integers(1, 60)), int(rng.integers(1, 60))) for _ in range(40)]
        shapes += [(1, 1), (1, 7), (300, 250), (1000, 3)]
        for k, l in shapes:
            n = int(rng.integers(max(k, l), 30_000))
            a = random_feature(rng, n, k, float(rng.choice([0.0, 0.5, 0.95])))
            b = random_feature(rng, n, l)
            for x, y in ((a, b), (b, a)):
                assert mutual_information(x, y) == float_table_mutual_information(x, y)

    def test_unused_bin_rejected_like_oracle(self):
        a = DiscretizedFeature(np.array([0, 0, 2, 2]), 3, False)
        b = DiscretizedFeature(np.array([0, 1, 0, 1]), 2, False)
        for test in (is_independent, fsum_is_independent):
            with pytest.raises(ValueError, match="zero expected cell"):
                test(a, b, 0.01)


def random_magnitudes(rng, size, low_exp, high_exp):
    signs = rng.choice([-1.0, 1.0], size)
    return signs * 10.0 ** rng.uniform(low_exp, high_exp, size)


class TestExactSum:
    """``stats._exact_sum`` equals ``math.fsum`` bit for bit."""

    SIZES = [0, 1, 2, 699, 700, 2025, 6000]

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("seed", range(4))
    def test_wide_magnitudes(self, size, seed):
        rng = np.random.default_rng(seed)
        values = random_magnitudes(rng, size, -300, 300)
        values[rng.random(size) < 0.1] = 0.0
        assert stats._exact_sum(values) == math.fsum(values.tolist())

    @pytest.mark.parametrize("size", SIZES)
    def test_cancellation_and_ties(self, size):
        # near cancellation: the exact sum is tiny against the terms
        rng = np.random.default_rng(size)
        half = random_magnitudes(rng, size // 2, -5, 5)
        values = np.concatenate([half, -half, [1e-20] * (size % 2)])
        values = values[rng.permutation(values.size)]
        assert stats._exact_sum(values) == math.fsum(values.tolist())
        same = np.full(size, 0.1)
        assert stats._exact_sum(same) == math.fsum(same.tolist())

    @pytest.mark.parametrize("size", SIZES)
    def test_subnormals_and_extremes(self, size):
        rng = np.random.default_rng(size + 1)
        tiny = np.array([5e-324, 2.2e-308, 1e-310, 2.0**-1021, 2.0**-1022])
        huge = np.array([1e300, 2.0**997, 1.7e308])
        for pool in (tiny, np.concatenate([tiny, [1.0, 1e-300]]), huge[:2]):
            values = rng.choice(pool, size) * rng.choice([-1.0, 1.0], size)
            assert stats._exact_sum(values) == math.fsum(values.tolist())

    @pytest.mark.parametrize(
        "terms, total",
        [
            ([1.0, 2.0**-53], 1.0),  # halfway: ties to even
            ([1.0, 2.0**-53, 2.0**-105], 1.0 + 2.0**-52),  # just above halfway
            ([1.0, 2.0**-53, -(2.0**-105)], 1.0),  # just below halfway
        ],
    )
    def test_rounds_the_exact_sum_once(self, terms, total):
        # adding in float order rounds 1 + 2**-53 to 1 before the last term
        values = np.zeros(1400)
        values[: len(terms)] = terms
        assert stats._exact_sum(values) == math.fsum(values.tolist()) == total

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(0, 6000),
        low=st.integers(-340, 260),
        span=st.integers(0, 40),
        zeros=st.floats(0.0, 1.0),
        subnormals=st.floats(0.0, 0.3),
        midpoint=st.none() | st.tuples(st.floats(1e-300, 1e300), st.integers(-3, 3)),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_fsum(self, seed, size, low, span, zeros, subnormals, midpoint):
        rng = np.random.default_rng(seed)
        values = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(low, low + span, size)
        values[rng.random(size) < zeros] = 0.0
        tiny = rng.random(size) < subnormals
        values[tiny] = rng.integers(-(2**52), 2**52, tiny.sum()) * 5e-324
        if midpoint is not None:
            # cancelling pairs leave m + ulp(m) / 2, a rounding midpoint, plus
            # a few ulps of that half-gap
            m, ulps = midpoint
            half = math.ulp(m) / 2
            pairs = values[: max(size - 3, 0) // 2]
            values = np.concatenate([pairs, -pairs, [m, half, ulps * math.ulp(half)]])
            values = values[rng.permutation(values.size)]
        assert stats._exact_sum(values).hex() == math.fsum(values.tolist()).hex()

    def test_fallback_runs_only_when_uncertified(self, monkeypatch):
        # 1 + 2**-53 is the midpoint of 1 and the next float: no certificate
        tie = np.zeros(1400)
        tie[:2] = [1.0, 2.0**-53]
        rng = np.random.default_rng(7)
        a, b = random_feature(rng, 90_000, 45), random_feature(rng, 90_000, 45, 0.3)
        observed, expected = stats._joint_counts(a, b), expected_counts(a, b)
        cells = ((observed - expected) ** 2 / expected).ravel()
        fsum = math.fsum
        total = fsum(cells.tolist())
        calls = []
        monkeypatch.setattr(math, "fsum", lambda terms: calls.append(len(terms)) or fsum(terms))
        assert stats._exact_sum(tie) == 1.0
        assert calls == [1400]
        assert cells.size == 2025
        assert stats._exact_sum(cells) == total
        assert calls == [1400]

    def test_chi_square_cells(self):
        rng = np.random.default_rng(7)
        a, b = random_feature(rng, 90_000, 45), random_feature(rng, 90_000, 45, 0.3)
        observed, expected = stats._joint_counts(a, b), expected_counts(a, b)
        cells = ((observed - expected) ** 2 / expected).ravel()
        assert cells.size == 45 * 45
        assert chi2(a, b) == math.fsum(cells.tolist())


class TestPinnedVerdicts:
    """Every cached verdict's bits over two seeded runs, as sha256 pins.

    One run's tables hold 256 to 400 cells and the other's 1,190 to 1,296,
    either side of the 700 cells where the statistic's exact sum once
    switched from ``math.fsum`` to per-exponent buckets; the pins were taken
    then.  Rows rounded to a few decimals tie, so margins are uneven.
    """

    @pytest.mark.parametrize(
        "n_base, n_derived, seed, n_points, nu, decimals, cells, sha256",
        [
            (8, 52, 3, 3100, 150, 1, (256, 400),
             "8950ff1081fed627679e0b47a6ff35a5e11c5512f6c0881e574a28bd4992984f"),
            (6, 44, 4, 9100, 250, 2, (1190, 1296),
             "3152ffbfbb385fe5d69959b0dafab67c12f7685a2a8bc3ce0bab3880a6cafe53"),
        ],
        ids=["small-tables", "large-tables"],
    )
    def test_verdict_bits(self, n_base, n_derived, seed, n_points, nu, decimals, cells, sha256):
        dag = random_dag(n_base, n_derived, seed=seed)
        values = generate(SynthSpec("custom", n_points, seed=seed + 1, dag=dag)).values
        result = run_pfa(
            Dataset(np.round(values, decimals), n_outputs=1),
            PfaConfig(nu=nu, ns=50, alpha=1e-3),
        )
        bins = {i: d.n_bins for i, d in result.discretized.items()}
        sizes = [bins[i] * bins[j] for i, j in result.cache.verdicts]
        assert (min(sizes), max(sizes)) == cells
        digest = hashlib.sha256()
        for (i, j), v in sorted(result.cache.verdicts.items()):
            bits = (i, j, v.chi2.hex(), v.p_value.hex(), v.dof, v.independent, v.guard_ok)
            digest.update(repr(bits).encode())
        assert digest.hexdigest() == sha256
