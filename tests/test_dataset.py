import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfa.dataset import Dataset, DatasetError, load_csv, save_csv, subsample
from pfa.synth import SynthSpec, generate


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_minimal_two_column_file(self, tmp_path):
        ds = load_csv(write(tmp_path, "1,0\n3.5,2.0\n"), n_outputs=1)
        assert ds.n_points == 2
        assert ds.n_outputs == 1
        assert ds.n_features == 1
        assert ds.values[1, 0] == 3.5

    def test_single_row_no_outputs(self, tmp_path):
        ds = load_csv(write(tmp_path, "1.0,2.0,3.0\n"), n_outputs=0)
        assert ds.n_features == 1
        assert ds.n_outputs == 0

    def test_ragged_rows_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="row 2"):
            load_csv(write(tmp_path, "1,2,3\n4,5\n"), n_outputs=0)

    def test_non_numeric_cell_located(self, tmp_path):
        with pytest.raises(DatasetError, match="row 2, column 3"):
            load_csv(write(tmp_path, "1,2,3\n4,5,x\n"), n_outputs=0)

    def test_digit_separator_rejected(self, tmp_path):
        # float() would read 1_0 as 10.0
        with pytest.raises(DatasetError, match="'1_0' at row 2, column 2"):
            load_csv(write(tmp_path, "1,2,3\n4,1_0,6\n"), n_outputs=0)

    def test_nan_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="non-finite"):
            load_csv(write(tmp_path, "1,nan\n"), n_outputs=0)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="empty"):
            load_csv(write(tmp_path, ""), n_outputs=0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")


class TestRoundTrip:
    def test_example1_export_round_trips_bit_identically(self, tmp_path):
        ds = generate(SynthSpec("example1", 5000, seed=42))
        path = tmp_path / "ex1.csv"
        save_csv(ds, path)
        again = load_csv(path, n_outputs=0)
        assert np.array_equal(again.values, ds.values)

    @given(
        values=st.lists(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("rt") / "d.csv"
        ds = Dataset(np.array(values), n_outputs=0)
        save_csv(ds, path)
        assert load_csv(path, n_outputs=0) == ds


class TestSubsample:
    def test_full_fraction_is_identity(self):
        ds = generate(SynthSpec("example1", 100, seed=0))
        assert subsample(ds, 1.0, seed=3) == ds

    def test_deterministic_and_sized(self):
        ds = generate(SynthSpec("example1", 1000, seed=0))
        a = subsample(ds, 0.95, seed=7)
        b = subsample(ds, 0.95, seed=7)
        assert a.n_points == 950
        assert a == b

    def test_different_seeds_differ(self):
        ds = generate(SynthSpec("example1", 1000, seed=0))
        a = subsample(ds, 0.95, seed=1)
        b = subsample(ds, 0.95, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_rejects_bad_fraction(self):
        ds = generate(SynthSpec("example1", 10, seed=0))
        for fraction in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                subsample(ds, fraction, seed=0)

    def test_no_duplicate_columns_and_order_preserved(self):
        ds = generate(SynthSpec("example1", 200, seed=5))
        sub = subsample(ds, 0.5, seed=9)
        # each kept column appears in the original, in the same relative order
        original = [tuple(col) for col in ds.values.T]
        kept = [tuple(col) for col in sub.values.T]
        positions = [original.index(col) for col in kept]
        assert positions == sorted(positions)
        assert len(set(positions)) == len(positions)


class TestDatasetValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0, np.inf]]), n_outputs=0)

    def test_rejects_all_output_rows(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 3)), n_outputs=2)

    def test_row_access_is_one_based(self):
        ds = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), n_outputs=1)
        assert list(ds.row(1)) == [1.0, 2.0]
        assert list(ds.output_ids) == [1]
        assert list(ds.feature_ids) == [2]
