import contextlib
import warnings
from decimal import Decimal

import numpy as np
import pytest
from helpers import DIFFERENTIAL_INPUTS, per_cell_load_csv, per_value_csv_text
from hypothesis import given, settings
from hypothesis import strategies as st

import pfa.dataset
from pfa.dataset import (
    Dataset,
    DatasetError,
    load_csv,
    save_csv,
    subsample,
    subsample_columns,
    subsample_size,
)
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
        assert ds.n_rows - ds.n_outputs == 1
        assert ds.values[1, 0] == 3.5

    def test_single_row_no_outputs(self, tmp_path):
        ds = load_csv(write(tmp_path, "1.0,2.0,3.0\n"), n_outputs=0)
        assert ds.n_rows - ds.n_outputs == 1
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

    @pytest.mark.parametrize(
        "text, row",
        [("\n1,2\n3,4\n", 1), ("1,2\n\n3,4\n", 2), ("1,2\n3,4\n\n", 3)],
        ids=["first", "middle", "last"],
    )
    def test_blank_line_named_at_its_row(self, tmp_path, text, row):
        with pytest.raises(DatasetError) as raised:
            load_csv(write(tmp_path, text), n_outputs=0)
        assert str(raised.value) == f"blank line at row {row}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x,1_0\n", "non-numeric cell 'x' at row 1, column 1"),
            ("1,2\n3_0,4,5\n", "row 2 has 3 columns, expected 2"),
            ('"1_0",2\n', "non-numeric cell '1_0' at row 1, column 1"),
        ],
        ids=["cell_before_separator", "ragged_row_before_its_cells", "quoted_separator"],
    )
    def test_first_bad_cell_reported(self, tmp_path, text, message):
        with pytest.raises(DatasetError) as raised:
            load_csv(write(tmp_path, text), n_outputs=0)
        assert str(raised.value) == message

    def test_byte_order_mark_skipped_only_at_the_start(self, tmp_path):
        # as spreadsheet programs save "CSV UTF-8"
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1.0,2\n3,4\n")
        assert load_csv(path, n_outputs=0) == Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), 0)
        path.write_bytes(b"1,2\n\xef\xbb\xbf3,4\n")
        with pytest.raises(DatasetError) as raised:
            load_csv(path, n_outputs=0)
        assert str(raised.value) == "non-numeric cell '\\ufeff3' at row 2, column 1"

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")


class TestLoadCsvMatchesPerCellParser:
    @pytest.mark.parametrize("text", DIFFERENTIAL_INPUTS.values(), ids=DIFFERENTIAL_INPUTS)
    def test_same_values_or_same_error(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = per_cell_load_csv(path, n_outputs=0)
        except DatasetError as exc:
            expected = exc
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if isinstance(expected, DatasetError):
                with pytest.raises(DatasetError) as raised:
                    load_csv(path, n_outputs=0)
                assert str(raised.value) == str(expected)
            else:
                got = load_csv(path, n_outputs=0)
                assert got.values.shape == expected.values.shape
                assert np.array_equal(
                    got.values.view(np.uint64), expected.values.view(np.uint64)
                )
        assert caught == [], "a warning of the fast path leaked"

    def test_plain_file_is_not_parsed_per_cell(self, tmp_path, monkeypatch):
        def per_cell(lines, n_read, width):
            raise AssertionError("the per-cell parser ran on a plain file")

        monkeypatch.setattr("pfa.dataset._cell_rows", per_cell)
        ds = generate(SynthSpec("example1", 200, seed=1))
        path = tmp_path / "ex1.csv"
        save_csv(ds, path)
        assert load_csv(path, n_outputs=0) == ds

    @pytest.mark.parametrize(
        "odd_line", ['"5",6\n', "\u0665,6\n", "5,6,7\n", "5,x\n", "\n", "5,nan\n"],
        ids=["quoted", "arabic_indic", "ragged", "non_numeric", "blank", "nan"],
    )
    def test_per_cell_parser_takes_over_at_the_first_odd_line(
        self, tmp_path, monkeypatch, odd_line
    ):
        handed_over = []
        cell_rows = pfa.dataset._cell_rows

        def spy(lines, n_read, width):
            lines = list(lines)
            handed_over.append((lines, n_read, width))
            return cell_rows(lines, n_read, width)

        monkeypatch.setattr("pfa.dataset._cell_rows", spy)
        path = write(tmp_path, "1,2\n3,4\n" + odd_line + "7,8\n")
        with contextlib.suppress(DatasetError):
            load_csv(path, n_outputs=0)
        assert handed_over == [([odd_line, "7,8\n"], 2, 2)]


def random_finite_values(seed: int, shape=(7, 300)) -> np.ndarray:
    """Random float64 bit patterns, made finite, with edge values in row 0."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, np.iinfo(np.uint64).max, size=shape, dtype=np.uint64, endpoint=True)
    exponent = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    bits[exponent == 0x7FF] ^= np.uint64(1 << 62)  # inf/nan -> a finite value
    values = bits.view(np.float64)
    values[0, :8] = [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                     1.7e308, -1.7e308, 1.7976931348623157e308]
    assert np.isfinite(values).all()
    return values


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_bit_patterns_round_trip_bit_exactly(self, tmp_path, seed):
        values = random_finite_values(seed)
        path = tmp_path / "bits.csv"
        save_csv(Dataset(values, n_outputs=0), path)
        again = load_csv(path, n_outputs=0)
        assert np.array_equal(again.values.view(np.uint64), values.view(np.uint64))

    def test_save_csv_writes_repr_of_each_value(self, tmp_path):
        values = random_finite_values(3)
        path = tmp_path / "bits.csv"
        save_csv(Dataset(values, n_outputs=0), path)
        assert path.read_bytes() == per_value_csv_text(values).encode("utf-8")

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
        for fraction in (0.0, -0.5, 1.5, True, "x"):
            with pytest.raises(ValueError):
                subsample(ds, fraction, seed=0)

    @pytest.mark.parametrize(
        "n, fraction, seed", [(1000, 0.95, 7), (100_000, 0.9, 2), (10, 0.3, 0)]
    )
    def test_picks_the_seeded_draw(self, n, fraction, seed):
        # the draw every subsample has made: round(fraction * n) columns of
        # one default_rng(seed).choice, sorted
        expected = np.sort(
            np.random.default_rng(seed).choice(n, size=int(round(fraction * n)), replace=False)
        )
        assert np.array_equal(subsample_columns(n, fraction, seed), expected)
        assert subsample_size(n, fraction) == expected.size
        ds = Dataset(np.arange(2.0 * n).reshape(2, n), n_outputs=0)
        assert np.array_equal(subsample(ds, fraction, seed).values, ds.values[:, expected])

    @pytest.mark.parametrize(
        "pick",
        [lambda n, fraction: subsample_columns(n, fraction, seed=0), subsample_size],
        ids=["columns", "size"],
    )
    def test_column_picker_checks_fraction(self, pick):
        for fraction in (
            0.0, -0.5, 1.5, float("nan"), True, False, "x", None, Decimal("sNaN"), np.array([0.5])
        ):
            with pytest.raises(ValueError, match="fraction must be in"):
                pick(10, fraction)
        with pytest.raises(ValueError, match="fraction 0.01 of 10 points selects no columns"):
            pick(10, 0.01)

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
        # a refused float64 matrix is the caller's own, and stays writable
        a = np.array([[1.0, 2.0], [np.nan, 3.0]])
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(a, 0)
        assert a.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "layout", ["c_order", "fortran_order", "one_row", "strided_view"]
    )
    def test_rejects_non_finite_in_every_block(self, layout, bad):
        # two full blocks of the check and a partial one, in memory order
        block = pfa.dataset._FINITE_BLOCK
        shape, order = {
            "c_order": ((3, block - 1), "C"),
            "fortran_order": ((block - 1, 3), "F"),
            "one_row": ((1, 2 * block + 5), "C"),
            "strided_view": ((3, block - 1), "C"),
        }[layout]
        size = shape[0] * shape[1]
        for position in (0, block - 1, block, 2 * block, size - 1):
            if layout == "strided_view":
                values = np.ones((shape[0], 2 * shape[1]))[:, ::2]
            else:
                values = np.ones(shape, order=order)
            values[np.unravel_index(position, shape, order=order)] = bad
            with pytest.raises(ValueError, match="^dataset contains non-finite entries$"):
                Dataset(values, n_outputs=0)
            values[np.unravel_index(position, shape, order=order)] = 1.0
            assert Dataset(values, n_outputs=0).n_points == shape[1]

    def test_rejects_all_output_rows(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 3)), n_outputs=2)

    @pytest.mark.parametrize("n_outputs", [1.5, "1", None, True])
    def test_rejects_a_non_integer_n_outputs(self, n_outputs):
        # a float would otherwise fail later, where ranges are sized from it
        with pytest.raises(ValueError, match="n_outputs must be an integer >= 0"):
            Dataset(np.ones((2, 3)), n_outputs=n_outputs)

    def test_accepts_a_numpy_integer_n_outputs(self):
        ds = Dataset(np.ones((2, 3)), n_outputs=np.int64(1))
        assert ds.n_rows - ds.n_outputs == 1

    def test_equal_datasets_hash_equal(self):
        a = Dataset(np.ones((2, 3)), 1)
        same = Dataset(np.ones((2, 3), dtype=np.float32), 1)
        assert a == same and hash(a) == hash(same)
        assert a != Dataset(np.ones((2, 3)), 0)
        assert a != Dataset(np.zeros((2, 3)), 1)
        assert len({a, same, Dataset(np.zeros((2, 3)), 1)}) == 2
