import dataclasses
import hashlib
import io
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from helpers import (
    DIFFERENTIAL_INPUTS,
    per_cell_load_csv,
    reference_robust_report,
    reference_run_report,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import pfa.cli
from pfa.analysis import PfaConfig, analyze, robust_intersection
from pfa.cli import main
from pfa.dataset import Dataset, DatasetError, load_csv, save_csv
from pfa.stats import IndependenceVerdict
from pfa.synth import SynthSpec, generate


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def example1_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "example1.csv"
    assert (
        run_cli(
            "synth", "--scenario", "example1", "--n", "5000",
            "--seed", "42", "--out", str(path),
        )
        == 0
    )
    return path


@pytest.fixture(scope="module")
def example2_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "example2.csv"
    assert (
        run_cli(
            "synth", "--scenario", "example2", "--n", "5000",
            "--seed", "42", "--out", str(path),
        )
        == 0
    )
    return path


@pytest.fixture(scope="module")
def example4_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "example4.csv"
    assert (
        run_cli(
            "synth", "--scenario", "example4", "--n", "5000",
            "--seed", "0", "--out", str(path),
        )
        == 0
    )
    return path


def read_outputs(prefix):
    with open(f"{prefix}.features.txt") as fh:
        features = [int(line) for line in fh.read().splitlines()]
    with open(f"{prefix}.report.json") as fh:
        report = json.load(fh)
    return features, report


class TestSynthCommand:
    def test_writes_loadable_csv(self, example1_csv):
        ds = load_csv(example1_csv, n_outputs=0)
        assert ds.n_rows == 5
        assert ds.n_points == 5000

    def test_deterministic_bytes(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run_cli(
                "synth", "--scenario", "example2", "--n", "500",
                "--seed", "3", "--out", str(out),
            )
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]

    def test_negative_seed_named_and_nothing_written(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run_cli(
            "synth", "--scenario", "example1", "--n", "10", "--seed", "-1",
            "--out", str(out),
        )
        assert code == 1
        assert "pfa: error: seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_points_names_the_flag_and_nothing_written(self, tmp_path, capsys):
        out = tmp_path / "z.csv"
        code = run_cli("synth", "--scenario", "example1", "--n", "0", "--out", str(out))
        assert code == 1
        assert "pfa: error: --n must be an integer >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_absent_out_directory_named_before_generating(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "x.csv"
        with mock.patch.object(pfa.cli.synth, "generate") as generate:
            code = run_cli("synth", "--scenario", "example1", "--out", str(out))
        assert code == 1
        assert f"--out directory {str(out.parent)!r} does not exist" in (
            capsys.readouterr().err
        )
        generate.assert_not_called()
        assert list(tmp_path.iterdir()) == []

    def test_custom_scenario_not_offered(self, tmp_path, capsys):
        # custom needs a DagSpec, which the command line cannot give
        with pytest.raises(SystemExit):
            run_cli("synth", "--scenario", "custom", "--out", str(tmp_path / "x.csv"))
        assert "invalid choice: 'custom'" in capsys.readouterr().err


class TestRunCommand:
    def test_example1_selects_bases(self, example1_csv, tmp_path):
        prefix = tmp_path / "out"
        code = run_cli(
            "run", "--input", str(example1_csv), "--n-outputs", "0",
            "--nu", "100", "--out", str(prefix),
        )
        assert code == 0
        features, report = read_outputs(prefix)
        assert features == [1, 2, 3]
        assert report["principal_subgraphs"] == [[1], [2], [3]]
        assert [r["nodes"] for r in report["removed"]] == [[4], [5]]
        assert report["config"]["nu"] == 100
        assert report["graph"]["edges"] == [
            [1, 4], [1, 5], [2, 4], [2, 5], [3, 4], [4, 5]
        ]

    def test_relevance_and_theta(self, example2_csv, tmp_path):
        prefix = tmp_path / "out"
        code = run_cli(
            "run", "--input", str(example2_csv), "--n-outputs", "1",
            "--nu", "100", "--theta", "0.05", "--out", str(prefix),
        )
        assert code == 0
        features, report = read_outputs(prefix)
        assert features == [2]
        assert report["relevant_features"] == [2]
        assert "2" in report["mi_scores"]

    def test_byte_identical_across_invocations(self, example1_csv, tmp_path):
        blobs = []
        for name in ("one", "two"):
            prefix = tmp_path / name
            run_cli(
                "run", "--input", str(example1_csv), "--n-outputs", "0",
                "--nu", "100", "--tie-seed", "5", "--out", str(prefix),
            )
            blobs.append(
                (
                    (tmp_path / f"{name}.features.txt").read_bytes(),
                    (tmp_path / f"{name}.report.json").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1]

    def test_features_byte_identical_across_runs(self, example1_csv, tmp_path):
        blobs = []
        for name in ("first", "second"):
            prefix = tmp_path / name
            run_cli(
                "run", "--input", str(example1_csv), "--n-outputs", "0",
                "--nu", "100", "--out", str(prefix),
            )
            blobs.append((tmp_path / f"{name}.features.txt").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("command", ["run", "robust"])
    def test_threads_flag_refused(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(
                command, "--input", str(tmp_path / "absent.csv"), "--nu", "100",
                "--threads", "2", "--out", str(tmp_path / "out"),
            )
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "robust"])
    def test_dof_mode_flag_refused(self, command, example1_csv, tmp_path, capsys):
        # one chi-square rule, dof = (k - 1) * (l - 1): nothing to choose
        with pytest.raises(SystemExit) as exit_info:
            run_cli(
                command, "--input", str(example1_csv), "--n-outputs", "0",
                "--nu", "100", "--dof-mode", "independence",
                "--out", str(tmp_path / "out"),
            )
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --dof-mode" in capsys.readouterr().err
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("command", ["run", "robust"])
    def test_min_expected_flag_refused(self, command, example1_csv, tmp_path, capsys):
        # the guard is Cochran's fixed 5: nothing to choose
        with pytest.raises(SystemExit) as exit_info:
            run_cli(
                command, "--input", str(example1_csv), "--n-outputs", "0",
                "--nu", "100", "--min-expected", "5",
                "--out", str(tmp_path / "out"),
            )
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --min-expected" in capsys.readouterr().err
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("command", ["run", "robust"])
    def test_nu_leaving_a_single_bin_refused(
        self, command, example1_csv, tmp_path, capsys
    ):
        # 5,000 points (4,750 per robust subsample) give no variable two bins
        code = run_cli(
            command, "--input", str(example1_csv), "--n-outputs", "0",
            "--nu", "2501", "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert "pfa: error: nu=2501 leaves every variable a single bin" in (
            capsys.readouterr().err
        )
        assert list(tmp_path.glob("out*")) == []

    def test_seed_has_no_effect_under_ordered_batching(self, example2_csv, tmp_path):
        # --seed seeds the random batching shuffle and robust's subsamples
        blobs = {}
        for seed in ("0", "5"):
            prefix = tmp_path / f"seed{seed}"
            assert run_cli(
                "run", "--input", str(example2_csv), "--n-outputs", "1",
                "--nu", "100", "--batching", "ordered", "--seed", seed,
                "--out", str(prefix),
            ) == 0
            blobs[seed] = (
                (tmp_path / f"seed{seed}.features.txt").read_bytes(),
                (tmp_path / f"seed{seed}.report.json").read_text().splitlines(),
            )
        assert blobs["0"][0] == blobs["5"][0]
        report0, report5 = blobs["0"][1], blobs["5"][1]
        assert len(report0) == len(report5)
        assert [
            (a, b) for a, b in zip(report0, report5) if a != b
        ] == [('    "seed": 0,', '    "seed": 5,')]

    def test_config_echo_holds_the_config_defaults(self, example1_csv, tmp_path):
        prefix = tmp_path / "out"
        run_cli(
            "run", "--input", str(example1_csv), "--n-outputs", "0",
            "--nu", "100", "--out", str(prefix),
        )
        _, report = read_outputs(prefix)
        assert report["config"] == {
            "input": str(example1_csv),
            "n_outputs": 0,
            **dataclasses.asdict(PfaConfig(nu=100)),
        }
        assert list(report["config"]) == [
            "input", "n_outputs", "nu", "alpha", "ns", "batching", "seed",
            "tie_seed", "theta",
        ]

    def test_missing_input_fails_without_artifacts(self, tmp_path):
        prefix = tmp_path / "out"
        code = run_cli(
            "run", "--input", str(tmp_path / "absent.csv"), "--nu", "100",
            "--out", str(prefix),
        )
        assert code == 1
        assert not (tmp_path / "out.features.txt").exists()
        assert not (tmp_path / "out.report.json").exists()

    def test_theta_without_outputs_fails(self, example1_csv, tmp_path):
        code = run_cli(
            "run", "--input", str(example1_csv), "--n-outputs", "0",
            "--nu", "100", "--theta", "0.1", "--out", str(tmp_path / "out"),
        )
        assert code == 1

    @pytest.mark.parametrize("command", ["run", "robust"])
    def test_theta_without_outputs_rejected_before_ingest(
        self, command, tmp_path, capsys
    ):
        # the input does not exist: only a check made before load_csv can
        # report the flag instead of the missing file
        code = run_cli(
            command, "--input", str(tmp_path / "absent.csv"), "--n-outputs", "0",
            "--nu", "100", "--theta", "0.1", "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert "--theta needs at least one output row" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "robust"])
    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--theta", "nan", "theta must be >= 0, got nan"),
            ("--n-outputs", "-1", "--n-outputs must be >= 0, got -1"),
            ("--seed", "-1", "seed must be an integer >= 0, got -1"),
            ("--theta", "inf", "theta must be finite, got inf"),
        ],
        ids=["theta-nan", "negative-n-outputs", "negative-seed", "theta-inf"],
    )
    def test_bad_value_rejected_before_ingest(
        self, command, flag, value, message, tmp_path, capsys
    ):
        code = run_cli(
            command, "--input", str(tmp_path / "absent.csv"), "--n-outputs", "1",
            "--nu", "100", flag, value, "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "robust"])
    def test_infinite_theta_refused_and_nothing_written(
        self, command, example2_csv, tmp_path, capsys
    ):
        # inf would select nothing and write "theta": Infinity, which is not JSON
        code = run_cli(
            command, "--input", str(example2_csv), "--n-outputs", "1", "--nu", "100",
            "--theta", "inf", "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert "pfa: error: theta must be finite, got inf" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "robust"])
    def test_absent_out_directory_rejected_before_ingest(self, command, tmp_path, capsys):
        # the input does not exist: only a check made before load_csv can
        # name --out instead of the missing file
        out_dir = tmp_path / "no" / "such"
        code = run_cli(
            command, "--input", str(tmp_path / "absent.csv"), "--n-outputs", "0",
            "--nu", "100", "--out", str(out_dir / "r"),
        )
        assert code == 1
        assert f"--out directory {str(out_dir)!r} does not exist" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bare_out_prefix_is_in_the_current_directory(
        self, example1_csv, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code = run_cli(
            "run", "--input", str(example1_csv), "--n-outputs", "0", "--nu", "100",
            "--out", "result",
        )
        assert code == 0
        assert (tmp_path / "result.report.json").exists()



class TestRobustCommand:
    def test_example1_intersection(self, example1_csv, tmp_path):
        prefix = tmp_path / "rob"
        code = run_cli(
            "robust", "--input", str(example1_csv), "--n-outputs", "0",
            "--nu", "100", "--runs", "5", "--fraction", "0.9",
            "--out", str(prefix),
        )
        assert code == 0
        features, report = read_outputs(prefix)
        assert features == [1, 2, 3]
        assert report["intersection"] == [1, 2, 3]
        assert len(report["runs"]) == 5

    def test_logs_guard_warnings_like_run(self, example4_csv, tmp_path, capsys):
        logged = {}
        for command in ("run", "robust"):
            code = run_cli(
                command, "--input", str(example4_csv), "--n-outputs", "1",
                "--nu", "100", "--out", str(tmp_path / command),
            )
            assert code == 0
            logged[command] = [
                line for line in capsys.readouterr().err.splitlines()
                if line.startswith("pfa: warning:")
            ]
        # one guard line per run; robust's five runs share theirs, on
        # 4,750-point subsamples, and log it once
        guard = (
            "pfa: warning: expected frequency below 5.0 in 1 of 3 variable pairs at "
            "n={n}, nu=100: the smallest bin holds 100 points in 2 variables, first "
            "[2, 3]; consider increasing nu to {nu}, which clears every pair"
        )
        assert logged["run"] == [guard.format(n=5000, nu=159)]
        assert logged["robust"] == [guard.format(n=4750, nu=155)]

    def test_logs_the_single_bin_warning_like_run(self, tmp_path, capsys):
        # row 2 is binary with 2 of 10 points above: at nu=3 one bin
        path = tmp_path / "binary.csv"
        path.write_text("1,2,3,4,5,6,7,8,9,10\n0,0,0,0,0,0,0,0,1,1\n")
        warning = (
            "variable 2 is not constant but has a single bin at nu=3, "
            "so it is not tested; consider decreasing nu"
        )
        flags = {"run": (), "robust": ("--runs", "2", "--fraction", "1.0")}
        for command, extra in flags.items():
            code = run_cli(
                command, "--input", str(path), "--n-outputs", "0", "--nu", "3",
                *extra, "--out", str(tmp_path / command),
            )
            assert code == 0
            assert f"pfa: warning: {warning}" in capsys.readouterr().err.splitlines()
            _, report = read_outputs(tmp_path / command)
            runs = report["runs"] if command == "robust" else [report]
            assert all(run["warnings"] == [warning] for run in runs)

    def test_theta_applied_per_run_like_run(self, example4_csv, tmp_path):
        selected = {}
        for command in ("run", "robust"):
            prefix = tmp_path / command
            code = run_cli(
                command, "--input", str(example4_csv), "--n-outputs", "1",
                "--nu", "100", "--theta", "0.1", "--out", str(prefix),
            )
            assert code == 0
            selected[command], report = read_outputs(prefix)
        assert selected["robust"] == selected["run"] == [2]
        assert report["intersection"] == [2]
        assert report["config"]["theta"] == 0.1
        for run in report["runs"]:
            assert set(run["mi_scores"]) == {"2", "3"}
            assert run["selected_features"] == [2]

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_bad_runs_rejected_before_ingest(self, runs, tmp_path, capsys):
        # the input does not exist: only a check made before load_csv can
        # report the flag instead of the missing file
        code = run_cli(
            "robust", "--input", str(tmp_path / "absent.csv"), "--n-outputs", "0",
            "--nu", "100", "--runs", runs, "--out", str(tmp_path / "r"),
        )
        assert code == 1
        assert f"--runs must be >= 1, got {runs}" in capsys.readouterr().err
        assert not (tmp_path / "r.report.json").exists()

    def test_bad_fraction_rejected(self, tmp_path, capsys):
        # the input does not exist, as in test_bad_runs_rejected_before_ingest
        code = run_cli(
            "robust", "--input", str(tmp_path / "absent.csv"), "--n-outputs", "0",
            "--nu", "100", "--fraction", "1.5", "--out", str(tmp_path / "r"),
        )
        assert code == 1
        assert "--fraction must be in (0, 1], got 1.5" in capsys.readouterr().err
        assert not (tmp_path / "r.report.json").exists()

    def test_help_describes_every_flag(self, capsys):
        # each flag has a description that ends with its default, taken from
        # PfaConfig or the parser
        defaults = {
            "--ns": "50", "--alpha": "0.01", "--theta": "None: off", "--batching": "ordered",
            "--seed": "0", "--tie-seed": "None: canonical",
        }
        for command, extra in (("run", {}), ("robust", {"--runs": "5", "--fraction": "0.95"})):
            with pytest.raises(SystemExit):
                run_cli(command, "--help")
            options = " ".join(capsys.readouterr().out.split()).split("options:")[1]
            for flag, default in {**defaults, **extra}.items():
                entry = re.search(rf" {flag} \S+ (\S.*?) \(default ([^)]*)\)", options)
                assert entry, f"pfa {command} {flag} has no description"
                assert not entry.group(1).startswith("-"), entry.group(1)
                assert entry.group(2) == default


def without_timings(err: str) -> str:
    return re.sub(r" in \d+\.\d+s$", " in <time>", err, flags=re.MULTILINE)


class TestIngest:
    """``run`` and ``robust`` read their input as ``load_csv`` does, row by row."""

    @pytest.mark.parametrize("command", ["run", "robust"])
    @pytest.mark.parametrize("text", DIFFERENTIAL_INPUTS.values(), ids=DIFFERENTIAL_INPUTS)
    def test_same_outputs_or_same_error_as_the_per_cell_parser(
        self, command, text, tmp_path, monkeypatch, capsys
    ):
        odd, plain = tmp_path / "odd", tmp_path / "plain"
        odd.mkdir()
        plain.mkdir()
        (odd / "data.csv").write_bytes(text.encode("utf-8"))
        monkeypatch.chdir(odd)
        try:
            expected = per_cell_load_csv("data.csv", n_outputs=0)
        except DatasetError as exc:
            expected = exc
        argv = [command, "--input", "data.csv", "--n-outputs", "0", "--nu", "1", "--out", "out"]
        if isinstance(expected, DatasetError):
            assert run_cli(*argv) == 1
            assert capsys.readouterr().err == f"pfa: error: {expected}\n"
            assert [p.name for p in odd.iterdir()] == ["data.csv"]
            return
        # an accepted file runs as the per-cell parser's values written plainly
        save_csv(expected, plain / "data.csv")
        outcomes = []
        for where in (odd, plain):
            monkeypatch.chdir(where)
            code = run_cli(*argv)
            written = {p.name: p.read_bytes() for p in where.iterdir() if p.name != "data.csv"}
            outcomes.append((code, without_timings(capsys.readouterr().err), written))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("command", ["run", "robust"])
    @pytest.mark.parametrize(
        "flags", [("--nu", "3"), ("--n-outputs", "2")], ids=["nu_above_half", "no_features"]
    )
    def test_a_bad_last_row_wins_over_checks_of_the_whole(
        self, command, flags, tmp_path, capsys
    ):
        # nu=3 leaves 4 points a single bin, and two outputs leave no feature
        path = tmp_path / "data.csv"
        path.write_text("1,2,3,4\n5,6,7,x\n")
        argv = [command, "--input", str(path), "--n-outputs", "0", "--nu", "1"]
        code = run_cli(*argv, *flags, "--out", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == (
            "pfa: error: non-numeric cell 'x' at row 2, column 4\n"
        )
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("command", ["run", "robust"])
    def test_outputs_leaving_no_feature_refused_after_the_last_row(
        self, command, tmp_path, capsys
    ):
        path = tmp_path / "data.csv"
        path.write_text("1,2,3,4\n5,6,7,8\n")
        code = run_cli(
            command, "--input", str(path), "--n-outputs", "2", "--nu", "1",
            "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "pfa: error: n_outputs=2 leaves no feature rows (dataset has 2 rows)\n"
        )
        assert list(tmp_path.glob("out*")) == []


@pytest.fixture(scope="module")
def many_points_csv(tmp_path_factory):
    """40 rows of 25,000 points, whose float matrix takes 8 MB.

    One-digit cells keep the parse of a line (np.loadtxt copies it at four
    bytes a character) small beside what is held per cell, which these
    tests measure.
    """
    values = np.random.default_rng(0).integers(0, 10, size=(40, 25_000))
    path = tmp_path_factory.mktemp("data") / "many_points.csv"
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in values.tolist()))
    return path, values.size * np.dtype(np.float64).itemsize


def traced_peak(call):
    """``call()``'s result and the most memory tracemalloc saw it hold."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestHeldPerCell:
    """``run`` holds a bin code per input cell, ``robust`` a rank, ``load_csv`` a float."""

    def test_run_stays_below_half_the_float_matrix(self, many_points_csv, tmp_path):
        path, matrix_bytes = many_points_csv
        code, peak = traced_peak(lambda: run_cli(
            "run", "--input", str(path), "--n-outputs", "1", "--nu", "1000",
            "--out", str(tmp_path / "out"),
        ))
        assert code == 0
        assert peak < matrix_bytes / 2

    def test_robust_stays_below_the_float_matrix(self, many_points_csv, tmp_path):
        # the ranks take half the matrix, and each run keeps its codes
        path, matrix_bytes = many_points_csv
        code, peak = traced_peak(lambda: run_cli(
            "robust", "--input", str(path), "--n-outputs", "1", "--nu", "1000",
            "--runs", "2", "--out", str(tmp_path / "out"),
        ))
        assert code == 0
        assert peak < matrix_bytes

    def test_load_csv_holds_little_beside_its_matrix(self, many_points_csv):
        path, matrix_bytes = many_points_csv
        ds, peak = traced_peak(lambda: load_csv(path, n_outputs=1))
        assert ds.values.nbytes == matrix_bytes
        assert peak <= 1.25 * matrix_bytes


class TestReportShape:
    def test_one_guard_line_counts_every_failing_test(self, tmp_path):
        data, prefix = tmp_path / "example2.csv", tmp_path / "out"
        assert run_cli(
            "synth", "--scenario", "example2", "--n", "200", "--seed", "0",
            "--out", str(data),
        ) == 0
        assert run_cli(
            "run", "--input", str(data), "--n-outputs", "1", "--nu", "5",
            "--out", str(prefix),
        ) == 0
        _, report = read_outputs(prefix)
        # the line counts failing pairs of all four variables, tested or not
        (line,) = report["warnings"]
        failing, pairs = map(int, re.search(r"in (\d+) of (\d+) variable pairs", line).groups())
        tested = [t["pair"] for t in report["graph"]["tests"] if not t["guard_ok"]]
        assert 0 < len(tested) <= failing <= pairs == 6

    def test_report_carries_full_test_log(self, example1_csv, tmp_path):
        prefix = tmp_path / "out"
        run_cli(
            "run", "--input", str(example1_csv), "--n-outputs", "0",
            "--nu", "100", "--out", str(prefix),
        )
        _, report = read_outputs(prefix)
        for entry in report["graph"]["tests"]:
            assert set(entry) == {
                "pair", "chi2", "dof", "p_value", "independent", "guard_ok"
            }
        pairs = [tuple(e["pair"]) for e in report["graph"]["tests"]]
        assert pairs == sorted(pairs)
        assert report["config"]["input"] == str(example1_csv)


def binary_rows(*flips) -> np.ndarray:
    """1,000 zeros then 1,000 ones, and per flip count a copy with that many
    points of each half flipped: at nu=500, a 2x2 table per pair."""
    base = np.repeat([0.0, 1.0], 1000)
    rows = [base]
    for n in flips:
        row = base.copy()
        row[:n], row[1000 : 1000 + n] = 1.0, 0.0
        rows.append(row)
    return np.vstack(rows)


def p_values(report) -> list:
    return sorted(test["p_value"] for test in report["graph"]["tests"])


# rows or a synth scenario, n_outputs, nu, robust's runs and fraction (None
# for run), and what the case must show about the report it writes
STREAMED_CASES = {
    "example1-no-outputs": ("example1", 0, 100, None, lambda r: r["graph"]["edges"]),
    "example2-nu20-guard": ("example2", 1, 20, None, lambda r: r["warnings"]),
    "single-bin-output": (
        np.array([[0.0] * 8 + [1.0] * 2, np.arange(10.0)]), 1, 3, None,
        lambda r: [t for t in r["graph"]["tests"] if (t["chi2"], t["dof"]) == (0.0, 0)],
    ),
    "p-zero-and-below-1e-300": (
        np.vstack([binary_rows(70, 85), binary_rows()]), 0, 500, None,
        lambda r: 0.0 in p_values(r) and any(0.0 < p < 1e-300 for p in p_values(r)),
    ),
    "one-testable-feature": (
        np.array([[1.0, 2, 3, 4, 5, 6], [7.0] * 6]), 0, 2, None,
        lambda r: r["graph"] == {"nodes": [1], "edges": [], "tests": []},
    ),
    "robust-example1": ("example1", 0, 100, (2, 0.9), lambda r: len(r["runs"]) == 2),
}


class TestStreamedReport:
    """The written report equals ``json.dump`` of the dict it was built as."""

    @pytest.mark.parametrize(
        "source, n_outputs, nu, robust, shows", STREAMED_CASES.values(), ids=STREAMED_CASES
    )
    def test_same_bytes_as_the_whole_dict(
        self, tmp_path, monkeypatch, source, n_outputs, nu, robust, shows
    ):
        monkeypatch.chdir(tmp_path)
        if isinstance(source, str):
            source = generate(SynthSpec(source, 5000, seed=42)).values
        save_csv(Dataset(source, n_outputs), "in.csv")
        ds = load_csv("in.csv", n_outputs)
        argv = ["--input", "in.csv", "--n-outputs", str(n_outputs), "--nu", str(nu)]
        cfg = PfaConfig(nu=nu)
        config = {"input": "in.csv", "n_outputs": n_outputs, **vars(cfg)}
        if robust is None:
            assert run_cli("run", *argv, "--out", "out") == 0
            expected = reference_run_report(config, analyze(ds, cfg))
        else:
            runs, fraction = robust
            argv += ["--runs", str(runs), "--fraction", str(fraction)]
            assert run_cli("robust", *argv, "--out", "out") == 0
            config.update(runs=runs, fraction=fraction)
            expected = reference_robust_report(
                config, *robust_intersection(ds, cfg, runs, fraction)
            )
        written = (tmp_path / "out.report.json").read_text()
        assert written == json.dumps(expected, indent=2, default=pfa.cli._encode) + "\n"
        assert shows(json.loads(written))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        found=st.lists(
            st.builds(
                IndependenceVerdict,
                chi2=st.floats(allow_nan=False, allow_infinity=False),
                dof=st.integers(0, 10**6),
                p_value=st.floats(0.0, 1.0),
                independent=st.booleans(),
                guard_ok=st.booleans(),
            ),
            max_size=12,
        ),
        rows_per_write=st.integers(1, 4),
    )
    def test_rows_match_json_for_any_finite_verdict(self, found, rows_per_write):
        # pairs in reverse order, so the writer must sort them; chunks of a
        # few rows, so the joins between writes are covered
        verdicts = {
            (i, i + 1 + i % 3): verdict
            for i, verdict in reversed(list(enumerate(found, start=1)))
        }
        graph = {"nodes": [1], "edges": [[1, 2]]}
        report = {"config": {"theta": 0.5}, "graph": graph}
        tests = [{"pair": list(pair), **vars(verdicts[pair])} for pair in sorted(verdicts)]
        fh = io.StringIO()
        with mock.patch.object(pfa.cli, "_ROWS_PER_WRITE", rows_per_write):
            pfa.cli._dump_run_report(fh, report, verdicts)
        expected = {**report, "graph": {**graph, "tests": tests}}
        assert fh.getvalue() == json.dumps(expected, indent=2) + "\n"

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_verdict_refused_as_json_refuses_it(self, value):
        verdicts = {(1, 2): IndependenceVerdict(value, 1, 0.5, True, True)}
        report = {"graph": {"nodes": [1, 2], "edges": []}}
        with pytest.raises(ValueError, match="not JSON compliant"):
            json.dumps({"chi2": value}, indent=2, allow_nan=False)
        with pytest.raises(ValueError, match=f"not JSON compliant: {value!r}"):
            pfa.cli._dump_run_report(io.StringIO(), report, verdicts)


# sha256 of the written (features.txt, report.json) for fixed flags.  Runs
# use a relative --input, so the config echo holds the same string on every
# machine; --theta is left out, since MI goes through numpy's vectorised log,
# whose last bit may differ between machines.
PINNED_INPUTS = {
    "example1.csv": ("example1", "5000", "42"),
    "example2.csv": ("example2", "2000", "0"),
    "example4.csv": ("example4", "5000", "0"),
}
SINGLE_BIN_CSV = "1,2,3,4,5,6,7,8,9,10\n0,0,0,0,0,0,0,0,1,1\n"
PINNED_OUTPUTS = {
    "run-example2-nu20": (
        ("run", "--input", "example2.csv", "--n-outputs", "1", "--nu", "20"),
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
        "e0d13ae41e3c5486955b0726a7200f249981e72a320466642bebc5c7689ee389",
    ),
    "run-example2-nu50": (
        ("run", "--input", "example2.csv", "--n-outputs", "1", "--nu", "50"),
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
        "73f7cbddb74de79679c15ad7ee11c8648c7ac89e5b894149fba8520e9f98f2f1",
    ),
    "run-example4-tie-seed": (
        ("run", "--input", "example4.csv", "--n-outputs", "1", "--nu", "100",
         "--tie-seed", "2", "--batching", "random", "--ns", "2"),
        "fcb9cc30b0f3e4715d032f3a0ce158e4d6bea8c618bda0f5d1f167300a087b8a",
        "eb9b6e04feeb4b9406351f03e97b3ae25f0ee0c5d1606255afb793fa541f6a26",
    ),
    "robust-example1": (
        ("robust", "--input", "example1.csv", "--n-outputs", "0", "--nu", "100",
         "--runs", "3", "--fraction", "0.9"),
        "14c5e74c4b96ccef41cd94db73a9ec3348038ac094feca4fd897cecffa07cdae",
        "1cff2eeef35cc8d43eda6786810c75ef772aa826533c29c9a55371e073b58acd",
    ),
    "run-single-bin": (
        ("run", "--input", "single_bin.csv", "--n-outputs", "0", "--nu", "3"),
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
        "682685e0280d63740a11654f2381309939cc61055cabec2d3810be156b63195a",
    ),
}


class TestPinnedOutputs:
    @pytest.mark.parametrize(
        "argv, features_sha256, report_sha256",
        PINNED_OUTPUTS.values(),
        ids=PINNED_OUTPUTS,
    )
    def test_written_files_keep_their_bytes(
        self, tmp_path, monkeypatch, argv, features_sha256, report_sha256
    ):
        monkeypatch.chdir(tmp_path)
        name = argv[2]
        if name in PINNED_INPUTS:
            scenario, n, seed = PINNED_INPUTS[name]
            assert run_cli(
                "synth", "--scenario", scenario, "--n", n, "--seed", seed, "--out", name
            ) == 0
        else:
            (tmp_path / name).write_text(SINGLE_BIN_CSV)
        assert run_cli(*argv, "--out", "out") == 0
        digests = [
            hashlib.sha256((tmp_path / f"out.{kind}").read_bytes()).hexdigest()
            for kind in ("features.txt", "report.json")
        ]
        assert digests == [features_sha256, report_sha256]

    def test_mi_scores_keyed_by_ascending_decimal_ids(self, tmp_path, monkeypatch):
        # two outputs and twelve noisy copies of them, all relevant: features
        # 3..14, whose ascending order is not the order of their strings
        rng = np.random.default_rng(0)
        outputs = rng.uniform(size=(2, 2000))
        features = outputs[np.arange(12) % 2] + 0.1 * rng.normal(size=(12, 2000))
        ds = Dataset(np.vstack([outputs, features]), n_outputs=2)
        monkeypatch.chdir(tmp_path)
        save_csv(ds, "data.csv")
        assert run_cli(
            "run", "--input", "data.csv", "--n-outputs", "2", "--nu", "100",
            "--theta", "0.01", "--out", "out",
        ) == 0
        _, report = read_outputs(tmp_path / "out")
        scores = analyze(ds, PfaConfig(nu=100, theta=0.01)).mi_scores
        assert sorted(scores) == list(range(3, 15))
        assert list(report["mi_scores"]) == [str(f) for f in sorted(scores)]
        for feature, by_output in report["mi_scores"].items():
            assert list(by_output) == ["1", "2"]
            assert by_output == {str(o): s for o, s in scores[int(feature)].items()}
