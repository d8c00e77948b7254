"""Acceptance gate: one test per criterion, one pass/fail line per criterion.

Each test prints ``criterion <n> (<label>): PASS`` or ``... FAIL`` so the
suite output doubles as a checklist.  Run with ``pytest -v`` (the lines
appear with ``-s`` or in captured output on failure).
"""

import contextlib
import time

import mpmath as mp
import pytest

from helpers import (
    assert_cut_minimality,
    assert_dissection_invariants,
    brute_force_min_node_cut,
    feature_ids,
)
from pfa.analysis import (
    PfaConfig,
    filter_by_mi,
    filter_relevant,
    robust_intersection,
    run_pfa,
)
from pfa.binning import DiscretizedFeature, discretize, discretize_all
from pfa.cli import main as cli_main
from pfa.depgraph import IndependenceCache, build_graph, connected_components
from pfa.dissect import dissect, min_node_cut
from pfa.stats import (
    chi_square_p_value,
    is_independent,
    regularized_upper_gamma,
)
from pfa.synth import SynthSpec, generate, random_dag
from test_dissect import connected_incomplete_graphs

mp.mp.dps = 40


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def feature(bins, n_bins):
    import numpy as np

    return DiscretizedFeature(
        np.asarray(bins, dtype=np.int64), n_bins, n_bins == 1
    )


def example1_result(seed):
    ds = generate(SynthSpec("example1", 5000, seed=seed))
    return run_pfa(ds, PfaConfig(nu=100, alpha=0.01))


def test_criterion_1_example1_recovery():
    with criterion(1, "example-1 recovery"):
        started = time.perf_counter()
        result = example1_result(42)
        elapsed = time.perf_counter() - started
        assert result.principal_subgraphs == [
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        ]
        assert [sorted(r.nodes) for r in result.removed] == [[4], [5]]
        assert elapsed < 5.0, f"single run took {elapsed:.2f}s"
        hits = sum(
            example1_result(seed).principal_features == {1, 2, 3}
            for seed in range(20)
        )
        assert hits >= 18, f"exact recovery in only {hits}/20 seeds"


def test_criterion_2_example2_non_commutation():
    with criterion(2, "example-2 non-commutation"):
        ds = generate(SynthSpec("example2", 5000, seed=42))
        cfg = PfaConfig(nu=100, alpha=0.01)
        # dissect first, then filter against the output
        result = filter_relevant(run_pfa(ds, cfg))
        assert result.relevant_features == {2}  # {x1}
        # filter first, then dissect what remains
        disc = discretize_all(ds, cfg.nu)
        cache = IndependenceCache({i + 1: d for i, d in enumerate(disc)}, cfg.alpha)
        related = [
            f for f in feature_ids(ds) if not cache.verdict(1, f).independent
        ]
        assert related == [2, 4]  # {x1, x3}
        filtered_graph = build_graph(cache, related)
        filtered_result = dissect(filtered_graph)
        assert filtered_result.removals == ()
        assert filtered_result.complete_subgraphs == (frozenset({2, 4}),)


def test_criterion_3_example3_non_uniqueness():
    with criterion(3, "example-3 tie-seed non-uniqueness"):
        ds = generate(SynthSpec("example3", 5000, seed=42))
        disc = discretize_all(ds, 100)
        cache = IndependenceCache({i + 1: d for i, d in enumerate(disc)}, 0.01)
        g = build_graph(cache, feature_ids(ds))
        a = dissect(g, tie_seed=0)
        b = dissect(g, tie_seed=3)
        removed_a = [frozenset(r.nodes) for r in a.removals]
        removed_b = [frozenset(r.nodes) for r in b.removals]
        assert removed_a != removed_b, "tie seeds 0 and 3 agreed unexpectedly"
        for result in (a, b):
            assert_dissection_invariants(g, result)
            assert_cut_minimality(g, result)


def test_criterion_4_example4_mi_ordering():
    with criterion(4, "example-4 MI ordering"):
        ds = generate(SynthSpec("example4", 10_000, seed=42))
        cfg = PfaConfig(nu=500, alpha=0.01)
        result = filter_relevant(run_pfa(ds, cfg))
        scored = filter_by_mi(result, theta=0.0)
        mi_x1 = scored.mi_scores[2][1]
        mi_x2 = scored.mi_scores[3][1]
        assert mi_x1 / mi_x2 >= 5.0, f"ratio only {mi_x1 / mi_x2:.2f}"
        theta = (mi_x1 + mi_x2) / 2.0
        assert filter_by_mi(result, theta=theta).theta_selected == {2}  # {x1}


def test_criterion_5_min_cut_oracle_equivalence():
    with criterion(5, "min-cut oracle equivalence"):
        started = time.perf_counter()
        graphs = connected_incomplete_graphs(max_nodes=10)
        assert len(graphs) == 200
        matches = 0
        for g in graphs:
            if len(min_node_cut(g)) == len(brute_force_min_node_cut(g)):
                matches += 1
        elapsed = time.perf_counter() - started
        assert matches == 200, f"only {matches}/200 matched the oracle"
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_6_chi_square_numerics():
    with criterion(6, "chi-square numerics"):
        def chi2(x, y):
            return is_independent(x, y, alpha=0.01).chi2

        # identical distributions give exactly zero: a table equal to its
        # expectation, and a constant partner
        assert chi2(feature([0, 0, 1, 1], 2), feature([0, 1, 0, 1], 2)) == 0.0
        const = feature([0] * 6, 1)
        other = feature([0, 0, 1, 1, 2, 2], 3)
        assert chi2(const, other) == 0.0
        # identical two-equal-bin variable gives exactly N
        half = feature([0] * 500 + [1] * 500, 2)
        assert chi2(half, half) == pytest.approx(1000.0)
        # hand-computed table [[10,20],[20,10]] gives 100/15
        a = feature([0] * 30 + [1] * 30, 2)
        b = feature([0] * 10 + [1] * 20 + [0] * 20 + [1] * 10, 2)
        assert chi2(a, b) == pytest.approx(100.0 / 15.0)
        # published critical values
        assert chi_square_p_value(3.841, 1) == pytest.approx(0.05, abs=1e-3)
        assert chi_square_p_value(13.277, 4) == pytest.approx(0.01, abs=1e-3)
        # gamma tail vs numerical integration on a 100-point grid
        def quadrature(av, xv):
            if xv == 0.0:
                return 1.0
            integrand = lambda t: mp.e ** (
                (av - 1) * mp.log(t) - t - mp.loggamma(av)
            )
            split = [xv, av] if av > xv else [xv]
            return float(mp.quad(integrand, split + [mp.inf]))

        grid = [
            (dof / 2.0, chi2 / 2.0)
            for dof in (1, 2, 3, 5, 8, 13, 21, 40, 80, 200)
            for chi2 in (
                0.1, 0.5, 1.0, dof * 0.5, dof * 0.9, float(dof),
                dof * 1.5, dof * 2.0, dof * 3.0, dof * 5.0,
            )
        ]
        assert len(grid) == 100
        worst = max(
            abs(regularized_upper_gamma(av, xv) - quadrature(av, xv))
            for av, xv in grid
        )
        assert worst <= 1e-10, f"worst gamma error {worst:.2e}"


def test_criterion_7_special_case_rules():
    with criterion(7, "special-case independence rules"):
        const = feature([0] * 1000, 1)
        half = feature([0] * 500 + [1] * 500, 2)
        assert is_independent(const, half, alpha=0.01).independent
        verdict = is_independent(half, half, alpha=0.01)
        assert not verdict.independent
        assert verdict.p_value < 1e-6


def test_criterion_8_batching_equivalence():
    with criterion(8, "batching equivalence"):
        for seed in range(50):
            dag = random_dag(5, 5, seed=seed)
            ds = generate(SynthSpec("custom", 2000, seed=seed + 1000, dag=dag))
            cfg = PfaConfig(nu=100, ns=50)  # ns >= number of features
            batched = run_pfa(ds, cfg)
            disc = discretize_all(ds, cfg.nu)
            cache = IndependenceCache(
                {i + 1: d for i, d in enumerate(disc)}, cfg.alpha
            )
            nodes = [i for i in feature_ids(ds) if disc[i - 1].testable]
            direct = dissect(build_graph(cache, nodes))
            assert sorted(batched.principal_subgraphs, key=min) == sorted(
                direct.complete_subgraphs, key=min
            ), f"dag seed {seed}"


def test_criterion_9_robustness_and_scale():
    with criterion(9, "robustness protocol and performance"):
        ds = generate(SynthSpec("example1", 5000, seed=42))
        common, _ = robust_intersection(
            ds, PfaConfig(nu=100, alpha=0.01), runs=5, fraction=0.9
        )
        assert common == {1, 2, 3}
        # performance smoke test: 50 bases + 450 products, 5000 points
        dag = random_dag(50, 450, seed=7)
        big = generate(SynthSpec("custom", 5000, seed=123, dag=dag))
        started = time.perf_counter()
        result = run_pfa(big, PfaConfig(nu=250, ns=50, alpha=0.001))
        elapsed = time.perf_counter() - started
        recovered = result.principal_features & set(range(1, 51))
        assert elapsed < 120.0, f"took {elapsed:.2f}s"
        assert len(recovered) >= 45, f"recovered {len(recovered)}/50 bases"


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "CLI determinism"):
        csv = tmp_path / "example1.csv"
        assert (
            cli_main(
                ["synth", "--scenario", "example1", "--n", "5000",
                 "--seed", "42", "--out", str(csv)]
            )
            == 0
        )
        repeat = tmp_path / "again.csv"
        cli_main(
            ["synth", "--scenario", "example1", "--n", "5000",
             "--seed", "42", "--out", str(repeat)]
        )
        assert csv.read_bytes() == repeat.read_bytes()
        blobs = []
        for name in ("first", "second"):
            prefix = tmp_path / name
            code = cli_main(
                ["run", "--input", str(csv), "--n-outputs", "0",
                 "--nu", "100", "--out", str(prefix)]
            )
            assert code == 0
            blobs.append(
                (
                    (tmp_path / f"{name}.features.txt").read_bytes(),
                    (tmp_path / f"{name}.report.json").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1], "run outputs differ between two runs"
        rob = []
        for name in ("ra", "rb"):
            prefix = tmp_path / name
            code = cli_main(
                ["robust", "--input", str(csv), "--n-outputs", "0",
                 "--nu", "100", "--runs", "3", "--fraction", "0.9",
                 "--out", str(prefix)]
            )
            assert code == 0
            rob.append((tmp_path / f"{name}.report.json").read_bytes())
        assert rob[0] == rob[1]
