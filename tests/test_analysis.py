import dataclasses
import hashlib
import itertools
import math
from decimal import Decimal

import numpy as np
import pytest
from helpers import one_bin_rows

import pfa.analysis
from pfa.analysis import (
    PfaConfig,
    analyze,
    explain_feature,
    filter_by_mi,
    filter_relevant,
    robust_intersection,
    run_pfa,
)
from pfa.dataset import Dataset, subsample, subsample_columns
from pfa.stats import guard_failures
from pfa.synth import DagSpec, SynthSpec, generate, random_dag


class TestPfaConfig:
    def test_defaults(self):
        cfg = PfaConfig(nu=100)
        assert cfg.alpha == 0.01
        assert cfg.ns == 50
        assert cfg.batching == "ordered"
        assert cfg.tie_seed is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nu": 0},
            {"nu": 10, "alpha": 0.0},
            {"nu": 10, "alpha": 1.0},
            {"nu": 10, "ns": 1},
            {"nu": 10, "batching": "sideways"},
            {"nu": 10, "theta": -0.1},
            {"nu": 10, "theta": float("nan")},
            {"nu": 10, "alpha": float("nan")},
            {"nu": 10, "alpha": 1.5},
            {"nu": 2.5},
            {"nu": 10, "ns": 2.5},
            {"nu": 10, "seed": 2.5},
            {"nu": 10, "seed": -1},
            {"nu": 10, "seed": "x"},
            {"nu": 10, "tie_seed": 2.5},
            {"nu": 10, "tie_seed": "x"},
            {"nu": 10, "tie_seed": [1]},
            {"nu": True},
            {"nu": 10, "seed": True},
            {"nu": 10, "tie_seed": True},
            {"nu": 10, "tie_seed": False},
            {"nu": 10, "theta": True},
            {"nu": 10, "theta": False},
            {"nu": 10, "theta": "x"},
            {"nu": 10, "alpha": "x"},
            {"nu": 10, "alpha": None},
            {"nu": 10, "alpha": Decimal("NaN")},
            {"nu": 10, "theta": Decimal("NaN")},
            {"nu": 10, "theta": 10**400},
            {"nu": 10, "alpha": np.array([0.01])},
            {"nu": 10**400},
            {"nu": 10**5000},
            {"nu": 10, "theta": 10**5000},
            {"nu": 10, "alpha": 10**5000},
            {"nu": 10, "tie_seed": -(10**5000)},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        # the message names the last argument, the one out of range
        with pytest.raises(ValueError, match=f"^{list(kwargs)[-1]} must be") as raised:
            PfaConfig(**kwargs)
        # an integer past the float range is named so, not by its digits,
        # which past 4,300 of them Python refuses to print
        if isinstance(value := list(kwargs.values())[-1], int) and abs(value) > 10**308:
            assert str(raised.value).endswith(", got an integer past the float range")

    @pytest.mark.parametrize(
        "theta,message",
        [(math.inf, "theta must be finite, got inf"), (-math.inf, "theta must be >= 0, got -inf")],
    )
    def test_theta_must_be_finite(self, theta, message):
        # an infinite threshold selects nothing, and JSON has no number for it
        with pytest.raises(ValueError, match=message):
            PfaConfig(nu=10, theta=theta)

    def test_accepts_a_decimal_alpha(self):
        assert PfaConfig(nu=10, alpha=Decimal("0.01")).alpha == Decimal("0.01")

    @pytest.mark.parametrize(
        "kwargs", [{"alpha": np.float64(0.01)}, {"alpha": np.array(0.01)}, {"theta": 1}]
    )
    def test_accepts_numpy_scalars_and_an_integer_theta(self, kwargs):
        cfg = PfaConfig(nu=10, **kwargs)
        assert all(getattr(cfg, name) is value for name, value in kwargs.items())

    def test_accepts_a_negative_tie_seed(self):
        assert PfaConfig(nu=10, tie_seed=-1).tie_seed == -1

    def test_has_no_dof_mode(self):
        # the pair test has one rule, dof = (k - 1) * (l - 1)
        with pytest.raises(TypeError):
            PfaConfig(nu=10, dof_mode="independence")

    def test_has_no_min_expected(self):
        # the guard is Cochran's fixed 5, stats.MIN_EXPECTED
        with pytest.raises(TypeError):
            PfaConfig(nu=10, min_expected=5.0)


class TestRunPfa:
    def test_example1_recovers_bases(self):
        ds = generate(SynthSpec("example1", 5000, seed=42))
        result = run_pfa(ds, PfaConfig(nu=100))
        assert result.principal_features == {1, 2, 3}
        assert [sorted(r.nodes) for r in result.removed] == [[4], [5]]
        assert result.principal_subgraphs == [
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        ]

    def test_removal_steps_are_global_and_sequential(self):
        dag = random_dag(8, 12, seed=2)
        ds = generate(SynthSpec("custom", 4000, seed=5, dag=dag))
        result = run_pfa(ds, PfaConfig(nu=200, ns=6))
        assert [r.step for r in result.removed] == list(
            range(1, len(result.removed) + 1)
        )

    def test_constants_are_set_aside(self):
        rng = np.random.default_rng(0)
        rows = np.vstack([rng.uniform(0, 5, 2000), np.full(2000, 3.0)])
        result = run_pfa(Dataset(rows, n_outputs=0), PfaConfig(nu=100))
        assert result.constants == [2]
        assert result.principal_features == {1}

    def test_rejects_a_nu_that_leaves_one_bin_before_binning(self, monkeypatch):
        # 2 * nu points are needed for a second bin: at nu=501 of 1,000 no
        # row could be tested, and none is constant
        ds = generate(SynthSpec("example1", 1000, seed=0))

        def no_binning(*args):
            raise AssertionError("binned before validating nu")

        monkeypatch.setattr("pfa.analysis.discretize_all", no_binning)
        with pytest.raises(ValueError, match=r"nu=501 .*n_points=1000"):
            run_pfa(ds, PfaConfig(nu=501))

    def test_nu_of_half_the_points_gives_two_bins(self):
        ds = generate(SynthSpec("example1", 1000, seed=0))
        result = run_pfa(ds, PfaConfig(nu=500))
        assert result.constants == []
        assert {d.n_bins for d in result.discretized.values()} == {2}
        assert result.principal_features

    def test_batched_matches_direct_dissection(self):
        # small sublists force multiple batching passes; the survivors
        # must equal those of a single unbatched run
        for seed in range(5):
            dag = random_dag(6, 10, seed=seed)
            ds = generate(SynthSpec("custom", 4000, seed=seed + 50, dag=dag))
            direct = run_pfa(ds, PfaConfig(nu=200, ns=50))
            batched = run_pfa(ds, PfaConfig(nu=200, ns=4))
            assert batched.principal_features == direct.principal_features

    def test_random_batching_is_seeded(self):
        dag = random_dag(6, 10, seed=1)
        ds = generate(SynthSpec("custom", 4000, seed=9, dag=dag))
        cfg = PfaConfig(nu=200, ns=4, batching="random", seed=13)
        assert run_pfa(ds, cfg).principal_features == run_pfa(
            ds, cfg
        ).principal_features

    def test_no_pair_tested_twice(self):
        ds = generate(SynthSpec("example1", 3000, seed=7))
        result = run_pfa(ds, PfaConfig(nu=100, ns=3))
        assert result.cache.test_calls == len(result.cache.verdicts)

    def test_guard_warning_surfaces(self):
        rng = np.random.default_rng(21)
        rows = rng.uniform(0, 5, (2, 400))
        result = run_pfa(Dataset(rows, n_outputs=0), PfaConfig(nu=10))
        assert any("expected frequency" in w for w in result.warnings)

    @pytest.mark.parametrize("case", range(10))
    def test_guard_rule_matches_every_verdict(self, case):
        # the rule on the smallest bin counts equals each tested pair's
        # guard_ok; its count of all failing pairs, tested or not, equals a
        # pair loop's, and the run's one guard line states it
        ds, nu = list(guard_corpus())[case]
        result = run_pfa(ds, PfaConfig(nu=nu, alpha=1e-3))
        smallest = {
            i: int(d.bin_counts.min()) for i, d in result.discretized.items() if d.testable
        }
        for (i, j), verdict in result.cache.verdicts.items():
            assert (guard_failures([smallest[i], smallest[j]], ds.n_points) == 0) is (
                verdict.guard_ok
            )
        failing = sum(
            a * b < 5 * ds.n_points for a, b in itertools.combinations(smallest.values(), 2)
        )
        assert guard_failures(list(smallest.values()), ds.n_points) == failing
        guard_lines = [w for w in result.warnings if w.startswith("expected frequency")]
        assert len(guard_lines) == (failing > 0)
        pairs = len(smallest) * (len(smallest) - 1) // 2
        for line in guard_lines:
            assert line.startswith(
                f"expected frequency below 5.0 in {failing} of {pairs} variable pairs "
                f"at n={ds.n_points}, nu={nu}: "
            )


def guard_corpus():
    """Untied product DAGs at three nu, tied and untied rows, a small example."""
    dag = random_dag(30, 120, seed=7)
    for n_points in (500, 2000):
        ds = generate(SynthSpec("custom", n_points, seed=1, dag=dag))
        yield from ((ds, nu) for nu in (25, 50, 100))
    # ten three-valued rows and ten uniform ones: tied rows pass below sqrt(5n)
    rng = np.random.default_rng(3)
    rows = np.vstack([rng.integers(0, 3, (10, 2000)), rng.uniform(0, 1, (10, 2000))])
    yield from ((Dataset(rows, 0), nu) for nu in (40, 80, 100))
    yield generate(SynthSpec("example2", 200, seed=0)), 5


def count_graph_calls(monkeypatch) -> dict[str, list[tuple[int, ...]]]:
    """Record the nodes of every graph the driver builds and dissects."""
    calls = {"build_graph": [], "dissect": []}
    build_graph, dissect = pfa.analysis.build_graph, pfa.analysis.dissect

    def counted_build(cache, nodes):
        calls["build_graph"].append(tuple(sorted(nodes)))
        return build_graph(cache, nodes)

    def counted_dissect(graph, tie_seed=None):
        calls["dissect"].append(graph.nodes)
        return dissect(graph, tie_seed)

    monkeypatch.setattr(pfa.analysis, "build_graph", counted_build)
    monkeypatch.setattr(pfa.analysis, "dissect", counted_dissect)
    return calls


class TestFinalPass:
    def test_one_sublist_is_dissected_once(self, monkeypatch):
        # all five features fit in one sublist: that pass is the final one,
        # even though it removes nodes
        calls = count_graph_calls(monkeypatch)
        ds = generate(SynthSpec("example1", 5000, seed=42))
        result = run_pfa(ds, PfaConfig(nu=100, ns=50))
        assert [sorted(r.nodes) for r in result.removed] == [[4], [5]]
        assert calls == {"build_graph": [(1, 2, 3, 4, 5)], "dissect": [(1, 2, 3, 4, 5)]}

    def test_pass_that_removes_nothing_is_followed_by_one_whole_dissection(
        self, monkeypatch
    ):
        # sublists [1, 2], [3, 4], [5] are complete or edgeless; the next
        # pass dissects the whole remaining graph once and ends the run
        calls = count_graph_calls(monkeypatch)
        ds = generate(SynthSpec("example1", 5000, seed=42))
        result = run_pfa(ds, PfaConfig(nu=100, ns=2))
        whole = (1, 2, 3, 4, 5)
        assert calls["dissect"] == [(1, 2), (3, 4), (5,), whole]
        assert calls["build_graph"] == calls["dissect"]
        assert [r.step for r in result.removed] == [1, 2]
        assert result.principal_subgraphs == [
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        ]


def driver_corpus():
    """Product DAGs with their first row as the output; one has a constant."""
    shapes = ((5, 9, 0, 1500), (6, 12, 1, 1200), (4, 10, 2, 800))
    for n_base, n_derived, seed, n_points in shapes:
        dag = random_dag(n_base, n_derived, seed=seed)
        values = generate(SynthSpec("custom", n_points, seed=seed + 20, dag=dag)).values
        if seed == 2:
            values = np.vstack([values, np.full(n_points, 2.0)])
        yield Dataset(values, n_outputs=1)


class TestPinnedDriver:
    # sha256 of the records below as computed by the driver whose last pass
    # was a separate dissection of the survivors after a pass removing nothing;
    # re-pinned when each run's guard warnings became one line from its bins,
    # with every other field of the records unchanged
    DRIVER_SHA256 = (
        "da704489087e667fe5abd06ebb51184addcac60c9c20c55a4416bc2c93077733"
    )

    def test_results_match_the_reference_driver(self):
        digest = hashlib.sha256()
        for ds in driver_corpus():
            # ns=4 forces several passes, ns=50 holds every feature; nu=12
            # leaves sparse tables that raise guard warnings
            for batching, ns, tie_seed, nu in itertools.product(
                ("ordered", "random"), (4, 50), (None, 1), (12, 100)
            ):
                theta = None if tie_seed is None else 0.05
                cfg = PfaConfig(
                    nu=nu, ns=ns, batching=batching, seed=3, tie_seed=tie_seed, theta=theta
                )
                result = analyze(ds, cfg)
                record = (
                    [sorted(s) for s in result.principal_subgraphs],
                    [
                        (r.step, sorted(r.nodes), sorted(r.from_component))
                        for r in result.removed
                    ],
                    result.constants,
                    result.warnings,
                    sorted(result.relevant_features),
                    None if theta is None else sorted(result.theta_selected),
                    list(result.cache.verdicts),
                )
                digest.update(repr(record).encode())
        assert digest.hexdigest() == self.DRIVER_SHA256


class TestRelevanceFilter:
    def test_example2_whole_subgraph_inclusion(self):
        # dissecting first leaves x1 alone; the dependent pair x1, x3 is
        # only kept together when filtering precedes dissection
        ds = generate(SynthSpec("example2", 5000, seed=42))
        cfg = PfaConfig(nu=100)
        result = filter_relevant(run_pfa(ds, cfg))
        assert result.relevant_features == {2}

    def test_irrelevant_subgraph_dropped(self):
        rng = np.random.default_rng(8)
        x1 = rng.uniform(0, 5, 5000)
        x2 = rng.uniform(0, 5, 5000)
        y = (x1 >= np.median(x1)).astype(float)
        ds = Dataset(np.vstack([y, x1, x2]), n_outputs=1)
        cfg = PfaConfig(nu=100)
        result = filter_relevant(run_pfa(ds, cfg))
        assert result.relevant_features == {2}
        assert result.principal_features == {2, 3}

    def test_guard_failing_relevance_test_warned(self):
        # the feature-output pair 1-2 is first tested by the filter; the
        # run's one guard line, made from the bins, already counts it
        ds = generate(SynthSpec("example2", 200, seed=0))
        dissected = run_pfa(ds, PfaConfig(nu=5))
        assert (1, 2) not in dissected.cache.verdicts
        result = filter_relevant(dissected)
        assert not result.cache.verdicts[(1, 2)].guard_ok
        assert result.warnings == dissected.warnings == [
            "expected frequency below 5.0 in 6 of 6 variable pairs at n=200, nu=5: "
            "the smallest bin holds 5 points in 3 variables, first [2, 3, 4]; "
            "consider increasing nu to 32, which clears every pair"
        ]

    def test_repeated_calls_warn_alike(self):
        ds = generate(SynthSpec("example2", 200, seed=0))
        dissected = run_pfa(ds, PfaConfig(nu=5))
        first = filter_relevant(dissected)
        assert filter_relevant(dissected).warnings == first.warnings
        assert len(first.warnings) == 1

    @pytest.mark.parametrize("case", ["guard", "single-bin-and-guard"])
    def test_warnings_do_not_depend_on_the_cache_history(self, case):
        # explain_feature fills the shared cache before the filters run;
        # every step still gives the run's warnings, a function of its bins.
        # At nu=90 one_bin_dataset's y (80 ones) has one bin, x fails the guard
        if case == "guard":
            ds, cfg = generate(SynthSpec("example2", 200, seed=0)), PfaConfig(nu=5, theta=0.01)
        else:
            ds, cfg = one_bin_dataset(1), PfaConfig(nu=90, theta=0.01)
        warnings = run_pfa(ds, cfg).warnings
        assert warnings[-1].startswith("expected frequency")
        assert len(warnings) == (1 if case == "guard" else 2)
        explained = run_pfa(ds, cfg)
        explain_feature(explained, 1)
        for dissected in (run_pfa(ds, cfg), explained):
            related = filter_relevant(dissected)
            assert related.warnings == warnings
            assert filter_by_mi(related, cfg.theta).warnings == warnings
        assert analyze(ds, cfg).warnings == warnings

    def test_requires_outputs(self):
        ds = generate(SynthSpec("example1", 1000, seed=0))
        cfg = PfaConfig(nu=50)
        with pytest.raises(ValueError, match="output"):
            filter_relevant(run_pfa(ds, cfg))


class TestMiFilter:
    def test_example4_separates_strong_from_weak(self):
        # x1 carries most of the information about y; x2's small weight
        # leaves it with a score well under x1's
        ds = generate(SynthSpec("example4", 10_000, seed=42))
        cfg = PfaConfig(nu=500)
        result = filter_by_mi(filter_relevant(run_pfa(ds, cfg)), theta=0.1)
        assert result.theta_selected == {2}
        assert result.mi_scores[2][1] / result.mi_scores[3][1] >= 5.0

    def test_zero_theta_keeps_all_relevant(self):
        ds = generate(SynthSpec("example2", 5000, seed=42))
        cfg = PfaConfig(nu=100)
        result = filter_relevant(run_pfa(ds, cfg))
        scored = filter_by_mi(result, theta=0.0)
        assert scored.theta_selected == result.relevant_features

    def test_needs_relevance_first(self):
        ds = generate(SynthSpec("example2", 2000, seed=0))
        result = run_pfa(ds, PfaConfig(nu=100))
        with pytest.raises(ValueError, match="filter_relevant"):
            filter_by_mi(result, theta=0.1)

    @pytest.mark.parametrize("theta", [float("nan"), -1.0, True, False, "x", None])
    def test_rejects_bad_theta(self, theta):
        ds = generate(SynthSpec("example4", 2000, seed=0))
        result = filter_relevant(run_pfa(ds, PfaConfig(nu=50)))
        with pytest.raises(ValueError, match="theta must be >= 0"):
            filter_by_mi(result, theta)

    def test_rejects_infinite_theta(self):
        ds = generate(SynthSpec("example4", 2000, seed=0))
        result = filter_relevant(run_pfa(ds, PfaConfig(nu=50)))
        with pytest.raises(ValueError, match="theta must be finite, got inf"):
            filter_by_mi(result, math.inf)


class TestImmutableResults:
    def test_filters_return_new_results(self):
        ds = generate(SynthSpec("example4", 5000, seed=0))
        cfg = PfaConfig(nu=100)
        dissected = run_pfa(ds, cfg)
        relevant = filter_relevant(dissected)
        scored = filter_by_mi(relevant, theta=0.1)
        assert dissected.relevant_features is None
        assert relevant.mi_scores is None and relevant.theta_selected is None
        assert scored.theta_selected == {2}
        assert scored.relevant_features == relevant.relevant_features
        assert scored.cache is dissected.cache

    def test_result_is_frozen(self):
        ds = generate(SynthSpec("example1", 1000, seed=0))
        result = run_pfa(ds, PfaConfig(nu=50))
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.relevant_features = frozenset()


def _outcome(result):
    """Every field of a result except the shared cache and discretization."""
    return (
        result.principal_subgraphs,
        result.removed,
        result.constants,
        result.warnings,
        result.relevant_features,
        result.mi_scores,
        result.theta_selected,
        result.selected_features(),
        result.n_outputs,
        list(result.cache.verdicts.items()),
    )


class TestAnalyze:
    @pytest.mark.parametrize(
        "scenario,theta,selected",
        [("example2", 0.05, {2}), ("example4", 0.1, {2})],
    )
    def test_matches_the_filter_chain(self, scenario, theta, selected):
        ds = generate(SynthSpec(scenario, 5000, seed=0))
        cfg = PfaConfig(nu=100, theta=theta)
        chained = filter_by_mi(filter_relevant(run_pfa(ds, cfg)), theta)
        result = analyze(ds, cfg)
        assert _outcome(result) == _outcome(chained)
        assert result.selected_features() == selected

    def test_without_theta_stops_after_relevance(self):
        ds = generate(SynthSpec("example4", 5000, seed=0))
        cfg = PfaConfig(nu=100)
        result = analyze(ds, cfg)
        assert _outcome(result) == _outcome(filter_relevant(run_pfa(ds, cfg)))
        assert result.mi_scores is None

    def test_without_outputs_is_run_pfa(self):
        ds = generate(SynthSpec("example1", 3000, seed=3))
        cfg = PfaConfig(nu=100)
        result = analyze(ds, cfg)
        assert _outcome(result) == _outcome(run_pfa(ds, cfg))
        assert result.relevant_features is None

    def test_theta_without_outputs_rejected(self):
        ds = generate(SynthSpec("example1", 1000, seed=0))
        with pytest.raises(ValueError, match="output row"):
            analyze(ds, PfaConfig(nu=50, theta=0.1))


class TestExplainFeature:
    def test_example1_products(self):
        ds = generate(SynthSpec("example1", 5000, seed=42))
        result = run_pfa(ds, PfaConfig(nu=100))
        assert explain_feature(result, 5) == {1, 2}
        assert explain_feature(result, 4) == {1, 2, 3}

    @pytest.mark.parametrize(
        "scenario,expected",
        [
            ("example1", {1: set(), 2: set(), 3: set()}),
            ("example3", {1: set(), 2: {5, 6}, 3: set(), 5: {2, 6}, 6: {2, 5}}),
        ],
    )
    def test_principal_target(self, scenario, expected):
        # a principal target gets the other members of its own subgraph,
        # plus any other principal related to it
        ds = generate(SynthSpec(scenario, 5000, seed=42))
        result = run_pfa(ds, PfaConfig(nu=100))
        explained = {p: explain_feature(result, p) for p in result.principal_features}
        assert explained == expected
        for subgraph in result.principal_subgraphs:
            for target in subgraph:
                assert subgraph - {target} <= explained[target]

    def test_single_bin_target_tests_nothing(self):
        rng = np.random.default_rng(3)
        rows = np.vstack([rng.uniform(0, 5, (2, 1000)), np.full(1000, 2.0)])
        result = run_pfa(Dataset(rows, n_outputs=0), PfaConfig(nu=50))
        assert result.constants == [3]
        cached = list(result.cache.verdicts)
        assert explain_feature(result, 3) == frozenset()
        assert list(result.cache.verdicts) == cached

    def test_unknown_id(self):
        ds = generate(SynthSpec("example1", 1000, seed=0))
        result = run_pfa(ds, PfaConfig(nu=50))
        with pytest.raises(ValueError, match="unknown"):
            explain_feature(result, 99)

    def test_graphs_and_explanations_read_verdicts_through_compute_pairs(
        self, monkeypatch
    ):
        # one bulk call per graph and per target: no pair is read a second time
        def no_verdict(*args):
            raise AssertionError("verdict() called")

        monkeypatch.setattr(pfa.analysis.IndependenceCache, "verdict", no_verdict)
        ds = generate(SynthSpec("example1", 5000, seed=42))
        result = run_pfa(ds, PfaConfig(nu=100, ns=3))
        assert explain_feature(result, 5) == {1, 2}


def one_bin_dataset(n_outputs: int) -> Dataset:
    """``one_bin_rows``; with ``n_outputs=1`` the output [x >= 2.5] leads.

    At nu=100 y has a single bin: it is variable 3 with the output, else 2.
    """
    values = one_bin_rows()
    if n_outputs:
        values = np.vstack([values[0] >= 2.5, values])
    return Dataset(values, n_outputs)


def single_bin_warning(variable: int, nu: int) -> str:
    return (
        f"variable {variable} is not constant but has a single bin at nu={nu}, "
        "so it is not tested; consider decreasing nu"
    )


class TestSingleBinWarning:
    def test_run_names_the_variable_and_nu(self):
        result = run_pfa(one_bin_dataset(0), PfaConfig(nu=100))
        assert result.constants == [2]
        assert not result.discretized[2].is_constant
        assert result.discretized[2].n_bins == 1
        assert result.principal_features == {1, 3}
        assert result.warnings == [single_bin_warning(2, 100)]

    def test_no_warning_for_a_constant_or_at_a_smaller_nu(self):
        ds = one_bin_dataset(0)
        at_50 = run_pfa(ds, PfaConfig(nu=50))
        assert at_50.discretized[2].n_bins == 2
        assert not any("single bin" in w for w in at_50.warnings)
        values = np.vstack([ds.values, np.full(2000, 3.0)])
        result = run_pfa(Dataset(values, 0), PfaConfig(nu=100))
        assert result.constants == [2, 4]
        assert result.warnings == [single_bin_warning(2, 100)]

    def test_survives_the_filters(self):
        ds = one_bin_dataset(1)
        cfg = PfaConfig(nu=100, theta=0.01)
        warning = single_bin_warning(3, 100)
        run = run_pfa(ds, cfg)
        assert run.warnings[0] == warning
        related = filter_relevant(run)
        assert related.warnings == run.warnings
        assert filter_by_mi(related, 0.01).warnings == related.warnings
        assert analyze(ds, cfg).warnings == related.warnings

    def test_survives_robust(self):
        ds = one_bin_dataset(1)
        _, results = robust_intersection(ds, PfaConfig(nu=100), runs=3, fraction=0.9)
        for result in results:
            assert result.warnings[0] == single_bin_warning(3, 100)


def _verdict_bits(result):
    return [
        (pair, v.chi2.hex(), v.dof, v.p_value.hex(), v.independent, v.guard_ok)
        for pair, v in result.cache.verdicts.items()
    ]


def robust_corpus():
    """Seeded robust_intersection arguments: guard warnings, ties, a full fraction."""
    yield (
        generate(SynthSpec("example2", 3000, seed=5)),
        PfaConfig(nu=60, ns=4, batching="random", seed=3, theta=0.02),
        0.8,
    )
    tied = generate(SynthSpec("example4", 4000, seed=2))
    yield Dataset(np.round(tied.values, 1), tied.n_outputs), PfaConfig(nu=80, seed=7), 0.7
    yield generate(SynthSpec("example1", 2500, seed=1)), PfaConfig(nu=50, tie_seed=1), 1.0


class TestPinnedRobust:
    # sha256 of the records below as computed when every run analyzed a
    # copied subsample binned by its own sort; re-pinned, as DRIVER_SHA256
    # was, for the one guard line per run
    ROBUST_SHA256 = (
        "f4c8a5c000e4a990f1caee6481819ef6c344a926319dd70f98bb911af42fa37b"
    )

    def test_outputs_match_the_subsample_copy_driver(self):
        digest = hashlib.sha256()
        for ds, cfg, fraction in robust_corpus():
            common, results = robust_intersection(ds, cfg, runs=3, fraction=fraction)
            digest.update(repr(sorted(common)).encode())
            for result in results:
                record = (
                    [sorted(s) for s in result.principal_subgraphs],
                    [
                        (r.step, sorted(r.nodes), sorted(r.from_component))
                        for r in result.removed
                    ],
                    result.constants,
                    result.warnings,
                    None
                    if result.relevant_features is None
                    else sorted(result.relevant_features),
                    None if result.theta_selected is None else sorted(result.theta_selected),
                    result.mi_scores,
                    [
                        (pair, v.chi2, v.dof, v.p_value, v.independent, v.guard_ok)
                        for pair, v in result.cache.verdicts.items()
                    ],
                    [
                        (i, d.n_bins, d.is_constant, d.bin_of_point.dtype.str)
                        for i, d in sorted(result.discretized.items())
                    ],
                )
                digest.update(repr(record).encode())
                for _, feature in sorted(result.discretized.items()):
                    digest.update(feature.bin_of_point.tobytes())
        assert digest.hexdigest() == self.ROBUST_SHA256


class TestRobustIntersection:
    @pytest.mark.parametrize("case", range(4))
    def test_each_run_equals_analyze_of_its_subsample(self, case):
        corpus = [*robust_corpus(), (one_bin_dataset(1), PfaConfig(nu=100, seed=2), 0.9)]
        ds, cfg, fraction = corpus[case]
        _, results = robust_intersection(ds, cfg, runs=3, fraction=fraction)
        for run_index, result in enumerate(results):
            seed = cfg.seed + run_index
            expected = analyze(subsample(ds, fraction, seed), dataclasses.replace(cfg, seed=seed))
            assert _outcome(result) == _outcome(expected)
            assert _verdict_bits(result) == _verdict_bits(expected)
            assert result.discretized == expected.discretized

    def test_example1_stable_bases(self):
        ds = generate(SynthSpec("example1", 5000, seed=42))
        common, results = robust_intersection(
            ds, PfaConfig(nu=100), runs=5, fraction=0.9
        )
        assert common == {1, 2, 3}
        assert len(results) == 5

    def test_single_run_full_fraction_matches_plain_run(self):
        ds = generate(SynthSpec("example1", 3000, seed=3))
        cfg = PfaConfig(nu=100)
        common, _ = robust_intersection(ds, cfg, runs=1, fraction=1.0)
        assert common == run_pfa(ds, cfg).principal_features

    def test_outputs_intersect_relevant_sets(self):
        ds = generate(SynthSpec("example2", 5000, seed=42))
        common, results = robust_intersection(
            ds, PfaConfig(nu=100), runs=3, fraction=0.9
        )
        assert all(r.relevant_features is not None for r in results)
        assert common <= frozenset().union(*(r.relevant_features for r in results))

    def test_applies_theta_per_run(self):
        ds = generate(SynthSpec("example4", 5000, seed=0))
        cfg = PfaConfig(nu=100, theta=0.1)
        common, results = robust_intersection(ds, cfg, 5, 0.95)
        assert common == {2}
        assert analyze(ds, cfg).selected_features() == {2}
        assert all(r.mi_scores is not None for r in results)
        assert common == frozenset.intersection(*(r.theta_selected for r in results))

    def test_rejects_bad_runs(self):
        ds = generate(SynthSpec("example1", 500, seed=0))
        with pytest.raises(ValueError, match="runs"):
            robust_intersection(ds, PfaConfig(nu=50), runs=0, fraction=0.9)

    def test_rejects_a_non_integer_runs(self):
        ds = generate(SynthSpec("example1", 500, seed=0))
        with pytest.raises(ValueError, match=r"runs must be an integer >= 1, got 2\.5"):
            robust_intersection(ds, PfaConfig(nu=50), runs=2.5, fraction=0.9)
        with pytest.raises(ValueError, match="runs must be an integer >= 1, got True"):
            robust_intersection(ds, PfaConfig(nu=50), runs=True, fraction=0.9)

    def test_rejects_a_fraction_above_one(self):
        ds = generate(SynthSpec("example1", 500, seed=0))
        with pytest.raises(ValueError, match="fraction must be in"):
            robust_intersection(ds, PfaConfig(nu=50), runs=1, fraction=1.5)

    def test_rejects_a_bool_fraction(self):
        # True == 1 would otherwise run on every point
        ds = generate(SynthSpec("example1", 500, seed=0))
        with pytest.raises(ValueError, match=r"fraction must be in \(0, 1\], got True"):
            robust_intersection(ds, PfaConfig(nu=50), runs=1, fraction=True)

    def test_nu_checked_on_the_subsample_before_any_run(self, monkeypatch):
        # 900 of 1,000 points per subsample: nu=451 passes on the full
        # dataset but leaves every subsampled variable a single bin
        ds = generate(SynthSpec("example1", 1000, seed=0))

        def no_rank(*args):
            raise AssertionError("ranked before validating nu")

        def no_run(*args):
            raise AssertionError("ran before validating nu")

        monkeypatch.setattr("pfa.analysis.rank_rows", no_rank)
        monkeypatch.setattr("pfa.analysis._run_binned", no_run)
        with pytest.raises(ValueError, match=r"nu=451 .*n_points=900"):
            robust_intersection(ds, PfaConfig(nu=451), 2, 0.9)

    def test_nu_of_half_the_subsample_runs(self):
        ds = generate(SynthSpec("example1", 1000, seed=0))
        _, results = robust_intersection(ds, PfaConfig(nu=450), 2, 0.9)
        for result in results:
            assert {d.n_bins for d in result.discretized.values()} == {2}

    def test_an_error_in_a_run_propagates_as_raised(self, monkeypatch):
        ds = generate(SynthSpec("example1", 1000, seed=0))
        calls = []
        cause = ArithmeticError("boom")
        run_binned = pfa.analysis._run_binned

        def fail_second(disc_rows, n_outputs, cfg):
            calls.append(cfg.seed)
            if len(calls) == 2:
                raise cause
            return run_binned(disc_rows, n_outputs, cfg)

        monkeypatch.setattr("pfa.analysis._run_binned", fail_second)
        with pytest.raises(ArithmeticError) as info:
            robust_intersection(ds, PfaConfig(nu=50), 3, 0.9)
        assert info.value is cause
        assert calls == [0, 1]

    def test_draws_each_runs_sample_once(self, monkeypatch):
        # the argument checks size the sample without drawing one
        ds = generate(SynthSpec("example1", 1000, seed=0))
        seeds = []

        def counted(n_points, fraction, seed):
            seeds.append(seed)
            return subsample_columns(n_points, fraction, seed)

        monkeypatch.setattr("pfa.analysis.subsample_columns", counted)
        robust_intersection(ds, PfaConfig(nu=50, seed=4), 3, 0.9)
        assert seeds == [4, 5, 6]

    def test_theta_without_outputs_rejected_before_any_run(self, monkeypatch):
        # a config error is a ValueError raised before subsampling, not an
        # error of the first run
        ds = generate(SynthSpec("example1", 1000, seed=0))

        def no_subsample(*args):
            raise AssertionError("subsampled before validating theta")

        monkeypatch.setattr("pfa.analysis.subsample_columns", no_subsample)
        with pytest.raises(ValueError, match="theta needs at least one output row"):
            robust_intersection(ds, PfaConfig(nu=50, theta=0.1), 2, 0.9)
