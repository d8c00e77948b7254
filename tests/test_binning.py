import numpy as np
import pytest
from helpers import one_bin_rows, stable_sort_bins
from hypothesis import given, settings
from hypothesis import strategies as st

from pfa.binning import (
    DiscretizedFeature,
    discretize,
    discretize_all,
    discretize_ranks,
    rank_rows,
)
from pfa.dataset import Dataset, subsample_columns
from pfa.stats import is_independent
from pfa.synth import SynthSpec, generate


def bin_sizes(feature):
    return np.bincount(feature.bin_of_point, minlength=feature.n_bins).tolist()


class TestDiscretize:
    def test_constant_values_flagged(self):
        feature = discretize([4.2] * 10, nu=3)
        assert feature.is_constant
        assert feature.n_bins == 1
        assert not feature.testable

    def test_distinct_run_of_ten(self):
        # hand trace: three bins of 3, remainder {10} merged into the last
        feature = discretize(list(range(1, 11)), nu=3)
        assert feature.n_bins == 3
        assert bin_sizes(feature) == [3, 3, 4]
        assert list(feature.bin_of_point) == [0, 0, 0, 1, 1, 1, 2, 2, 2, 2]

    def test_tie_extension_then_trailing_merge(self):
        # hand trace: {1,1,1} by tie extension, then {2,2} takes trailing {3}
        feature = discretize([1, 1, 1, 2, 2, 3], nu=2)
        assert feature.n_bins == 2
        assert bin_sizes(feature) == [3, 3]
        assert list(feature.bin_of_point) == [0, 0, 0, 1, 1, 1]

    def test_single_point_is_constant(self):
        assert discretize([7.0], nu=1).is_constant

    def test_too_few_points_for_one_bin(self):
        # two distinct values but fewer than nu points: one catch-all bin,
        # not constant, but excluded from testing
        feature = discretize([1.0, 2.0, 3.0], nu=10)
        assert not feature.is_constant
        assert feature.n_bins == 1
        assert not feature.testable

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            discretize([], nu=1)

    def test_bad_nu_rejected(self):
        with pytest.raises(ValueError):
            discretize([1.0, 2.0], nu=0)

    @pytest.mark.parametrize(
        "values",
        [
            [np.nan, np.nan, np.nan],
            [np.nan, 1.0, 2.0, np.nan],
            [1.0, np.inf, 2.0],
            [1.0, -np.inf, 2.0],
        ],
    )
    def test_non_finite_values_rejected(self, values):
        with pytest.raises(ValueError, match="non-finite"):
            discretize(values, nu=1)

    def test_non_integer_nu_rejected(self):
        for nu in (1.5, True):  # operator.index takes a bool
            with pytest.raises(ValueError, match="nu must be an integer"):
                discretize([1.0, 2.0, 3.0, 4.0, 5.0], nu=nu)

    def test_two_dimensional_values_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(3, 4\)"):
            discretize(np.arange(12.0).reshape(3, 4), 2)


class TestDiscretizedFeature:
    @pytest.mark.parametrize(
        "n_bins, dtype",
        [(1, np.uint8), (256, np.uint8), (257, np.uint16), (65_536, np.uint16),
         (65_537, np.uint32)],
    )
    def test_codes_in_smallest_unsigned_dtype(self, n_bins, dtype):
        codes = np.arange(n_bins, dtype=np.int64)
        feature = DiscretizedFeature(codes, n_bins, n_bins == 1)
        assert feature.bin_of_point.dtype == dtype
        assert np.array_equal(feature.bin_of_point, codes)
        assert feature.bin_counts.dtype == np.int64
        assert feature.bin_counts.tolist() == [1] * n_bins

    @pytest.mark.parametrize(
        "codes, n_bins",
        [([0, 300], 256), ([0, 1, 3], 3), ([-1, 0, 1], 2), ([0, 2**40], 2)],
    )
    def test_out_of_range_codes_rejected(self, codes, n_bins):
        # 300 would wrap to 44 in uint8 without the check
        with pytest.raises(ValueError, match=r"\[0, "):
            DiscretizedFeature(np.array(codes), n_bins, False)

    def test_non_integer_codes_and_bin_count_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            DiscretizedFeature(np.array([0.0, 1.0]), 2, False)
        with pytest.raises(ValueError, match="n_bins"):
            DiscretizedFeature(np.array([0, 0]), 0, True)

    def test_two_dimensional_codes_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(2, 3\)"):
            DiscretizedFeature(np.zeros((2, 3), dtype=int), 1, True)

    def test_numpy_integer_bin_count(self):
        codes = np.array([0, 1, 2] * 20)
        feature = DiscretizedFeature(codes, codes.max() + 1, False)
        assert type(feature.n_bins) is int and feature.n_bins == 3
        assert is_independent(feature, feature, 0.05).dof == 4

    def test_codes_and_counts_read_only(self):
        feature = discretize(np.arange(10.0), nu=3)
        for array in (feature.bin_of_point, feature.bin_counts):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_value_equality(self):
        a = discretize([1.0, 2, 3, 4], 2)
        assert a == discretize([1.0, 2, 3, 5], 2)  # same codes, other values
        assert a == DiscretizedFeature(np.array([0, 0, 1, 1], dtype=np.int64), 2, False)
        assert a != discretize([4.0, 3, 2, 1], 2)  # codes differ
        assert a != DiscretizedFeature(a.bin_of_point, 3, False)  # n_bins differs
        const = discretize([7.0] * 4, 2)
        assert const != DiscretizedFeature(const.bin_of_point, 1, False)
        assert a != "a feature" and a != (a.bin_of_point, 2, False)
        assert a.__eq__(a.bin_of_point) is NotImplemented

    def test_equal_features_hash_equal(self):
        a = discretize([1.0, 2, 3, 4], 2)
        same = discretize([1.0, 2, 3, 5], 2)
        assert hash(a) == hash(same)
        assert len({a, same, discretize([4.0, 3, 2, 1], 2)}) == 2
        assert {a: "first"}[same] == "first"

    def test_counts_are_bin_sizes(self):
        rng = np.random.default_rng(0)
        values = np.round(rng.normal(size=5000), 1)
        for nu in (1, 50, 700):
            feature = discretize(values, nu)
            assert feature.bin_counts.tolist() == bin_sizes(feature)
            assert feature.bin_of_point.dtype == np.min_scalar_type(feature.n_bins - 1)


values_lists = st.lists(
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    min_size=2,
    max_size=200,
)


class TestProperties:
    @given(values=values_lists, nu=st.integers(1, 20))
    @settings(max_examples=200, deadline=None)
    def test_structure_invariants(self, values, nu):
        feature = discretize(values, nu)
        sizes = bin_sizes(feature)
        assert all(size > 0 for size in sizes)
        assert feature.bin_of_point.max() == feature.n_bins - 1
        # monotone: smaller value never lands in a later bin
        order = np.argsort(values, kind="stable")
        assert (np.diff(feature.bin_of_point[order].astype(np.int64)) >= 0).all()
        # occupancy: once enough points exist, every bin reaches nu
        if len(values) >= nu and feature.n_bins > 1:
            assert min(sizes) >= nu

    @given(values=values_lists, nu=st.integers(1, 20), seed=st.integers(0, 99))
    @settings(max_examples=100, deadline=None)
    def test_permutation_equivariance(self, values, nu, seed):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(len(values))
        base = discretize(values, nu)
        shuffled = discretize(np.asarray(values)[perm], nu)
        assert shuffled.n_bins == base.n_bins
        assert np.array_equal(shuffled.bin_of_point, base.bin_of_point[perm])

    @given(values=values_lists, nu=st.integers(1, 15))
    @settings(max_examples=100, deadline=None)
    def test_coarsening_monotonicity(self, values, nu):
        finer = discretize(values, nu)
        coarser = discretize(values, nu + 1)
        assert coarser.n_bins <= finer.n_bins


class TestMatchesStableSortWalk:
    @pytest.mark.parametrize("seed", range(20))
    def test_heavy_ties(self, seed):
        # few distinct values (with -0.0 tied to 0.0) over many points, so
        # the sort's order inside each tie run is free to differ
        rng = np.random.default_rng(seed)
        pool = np.array([-0.0, 0.0, 1.0, 2.5, -3.0, 1e-300, 7.0, 7.0 + 2**-49])
        for _ in range(15):
            n = int(rng.integers(2, 3000))
            values = rng.choice(pool[: rng.integers(2, len(pool) + 1)], size=n)
            nu = int(rng.integers(1, n + 50))  # n < nu included
            if values.max() <= values.min():
                continue
            feature = discretize(values, nu)
            bins, n_bins = stable_sort_bins(values, nu)
            assert feature.n_bins == n_bins
            assert np.array_equal(feature.bin_of_point, bins)

    @pytest.mark.parametrize("seed", range(5))
    def test_continuous_with_repeats(self, seed):
        rng = np.random.default_rng(100 + seed)
        values = np.round(rng.normal(size=20_000), 2)  # ~800 distinct values
        for nu in (1, 7, 250, 19_999, 20_001):
            feature = discretize(values, nu)
            bins, n_bins = stable_sort_bins(values, nu)
            assert feature.n_bins == n_bins
            assert np.array_equal(feature.bin_of_point, bins)


def assert_rank_path_matches(values, keep, nu):
    """Each row's bins from its ranks equal ``discretize`` of its kept values,
    and, where those values are not all equal, the stable-sort walk's bins."""
    ranks = rank_rows(values)
    features = []
    for row, row_ranks in zip(values, ranks):
        from_ranks = discretize_ranks(row_ranks[keep], nu)
        plain = discretize(row[keep], nu)
        assert from_ranks == plain
        assert from_ranks.bin_of_point.dtype == plain.bin_of_point.dtype
        if not from_ranks.is_constant:
            bins, n_bins = stable_sort_bins(row[keep], nu)
            assert from_ranks.n_bins == n_bins
            assert np.array_equal(from_ranks.bin_of_point, bins)
        features.append(from_ranks)
    return features


class TestRankRows:
    def test_dense_ranks_with_ties(self):
        values = np.array([[2.5, -1.0, 2.5, 0.0, -0.0, 7.0]])
        ranks = rank_rows(values)
        assert ranks.dtype == np.uint32
        assert ranks.flags.c_contiguous
        assert ranks.tolist() == [[2, 0, 2, 1, 1, 3]]

    def test_one_point_per_row(self):
        assert rank_rows(np.array([[3.0], [-1.0]])).tolist() == [[0], [0]]

    def test_values_that_are_not_a_matrix_rejected(self):
        for values in (np.arange(5.0), np.zeros((2, 3, 4))):
            with pytest.raises(ValueError, match=r"shape \(.*\): not a 2-d matrix"):
                rank_rows(values)


class TestRankPath:
    """``discretize_ranks`` of a subset of a ranked row equals ``discretize``
    and the stable-sort walk."""

    def test_heavy_ties(self):
        rng = np.random.default_rng(11)
        pool = np.array([-0.0, 0.0, 1.0, 2.5, -3.0, 7.0])
        values = rng.choice(pool, size=(6, 3000))
        for seed in range(5):
            keep = subsample_columns(3000, 0.8, seed)
            assert_rank_path_matches(values, keep, nu=int(rng.integers(1, 600)))

    def test_binary_row(self):
        rng = np.random.default_rng(12)
        values = (rng.random((2, 1000)) < np.array([[0.5], [0.1]])).astype(float)
        for nu in (1, 50, 99, 400):
            features = assert_rank_path_matches(values, subsample_columns(1000, 0.9, 1), nu)
            assert {f.n_bins for f in features} <= {1, 2}

    def test_row_constant_only_inside_the_subsample(self):
        values = np.vstack([np.arange(10.0), [0.0] * 9 + [1.0]])
        keep = np.arange(9)  # drops the one point where row 2 differs
        features = assert_rank_path_matches(values, keep, nu=3)
        assert features[1].is_constant
        assert features[1].n_bins == 1
        assert not features[0].is_constant

    @pytest.mark.parametrize("nu", [1, 2, 3, 10])
    def test_points_sharing_one_high_rank_make_one_constant_bin(self, nu):
        # ranks 0-4 hold no point: the walk must still give one bin, code 0
        feature = discretize_ranks(np.array([5, 5, 5], dtype=np.uint32), nu)
        assert feature.is_constant is True
        assert feature.n_bins == 1
        assert feature.bin_of_point.dtype == np.uint8
        assert feature.bin_of_point.tolist() == [0, 0, 0]

    def test_one_bin_row(self):
        values = one_bin_rows()
        features = assert_rank_path_matches(values, np.arange(2000), nu=100)
        assert not features[1].is_constant
        assert features[1].n_bins == 1
        for seed in range(3):
            assert_rank_path_matches(values, subsample_columns(2000, 0.9, seed), nu=100)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_subsets(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(1, 600))
        values = np.vstack(
            [
                np.round(rng.normal(size=n), 1),
                rng.choice([-0.0, 0.0, 1.0, 2.0], size=n),
                rng.normal(size=n),
            ]
        )
        for _ in range(10):
            keep = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            assert_rank_path_matches(values, keep, nu=int(rng.integers(1, 80)))

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError, match="nu must be an integer"):
            discretize_ranks(np.array([0, 1, 2]), nu=0)
        with pytest.raises(ValueError, match="empty"):
            discretize_ranks(np.array([], dtype=np.uint32), nu=1)

    @pytest.mark.parametrize(
        "ranks", [np.array([0.5, 1.7, 2.2, 3.9]), np.zeros((2, 3), dtype=np.uint32)]
    )
    def test_non_integer_or_two_dimensional_ranks_rejected(self, ranks):
        # a cast to intp would truncate float ranks into other bins
        with pytest.raises(ValueError, match="ranks must be one row of integers"):
            discretize_ranks(ranks, nu=1)

    def test_negative_ranks_rejected(self):
        with pytest.raises(ValueError, match="ranks must be >= 0, got -1"):
            discretize_ranks(np.array([-1, 0, 1, 2]), nu=1)


class TestDiscretizeAll:
    def test_two_constant_rows(self):
        ds = Dataset(np.ones((2, 5)), n_outputs=0)
        features = discretize_all(ds, nu=2)
        assert all(f.is_constant for f in features)

    def test_example1_bins_meet_occupancy(self):
        ds = generate(SynthSpec("example1", 5000, seed=42))
        features = discretize_all(ds, nu=100)
        assert len(features) == 5
        for feature in features:
            assert not feature.is_constant
            assert min(bin_sizes(feature)) >= 100

    def test_bad_nu_reported_without_a_row(self):
        # Dataset rows are finite, 1-d and non-empty, so the one refusal
        # left is nu's, and it belongs to no row
        ds = Dataset(np.ones((3, 4)), n_outputs=0)
        with pytest.raises(ValueError, match=r"^nu must be an integer >= 1, got 0$"):
            discretize_all(ds, nu=0)
