"""Pipeline properties over generated product-DAG inputs.

Each property relates two runs of the whole pipeline (metamorphic testing)
or a run and its own bookkeeping, so it holds for any input the strategy
draws, not only for the pinned examples of the other modules.
"""

import math
from dataclasses import replace
from itertools import combinations
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pfa.analysis import PfaConfig, analyze, explain_feature, robust_intersection, run_pfa
from pfa.dataset import Dataset
from pfa.depgraph import IndependenceCache
from pfa.stats import is_independent
from pfa.synth import SynthSpec, generate, random_dag

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)
ALPHAS = [1e-2, 1e-3, 1e-6]


@st.composite
def pipeline_inputs(draw):
    """A ``random_dag`` dataset, its first row an output or not, and a config."""
    n_base = draw(st.integers(2, 6))
    dag = random_dag(
        n_base, draw(st.integers(0, 20)), draw(st.integers(0, 10_000)),
        max_parents=min(3, n_base),
    )
    n = draw(st.integers(400, 2_000))
    values = generate(SynthSpec("custom", n, draw(st.integers(0, 10_000)), dag)).values
    ds = Dataset(values, n_outputs=draw(st.integers(0, 1)))
    cfg = PfaConfig(
        nu=draw(st.integers(math.ceil(math.sqrt(5 * n)), n // 4)),
        alpha=draw(st.sampled_from(ALPHAS)),
        ns=draw(st.integers(2, 20)),
    )
    return ds, cfg


def verdict_bits(result) -> list:
    """Every cached verdict in insertion order, its floats as exact hex."""
    return [
        (pair, [f.hex() if isinstance(f, float) else f for f in vars(verdict).values()])
        for pair, verdict in result.cache.verdicts.items()
    ]


def outcome(result) -> dict:
    """What a run reports, in comparable form."""
    return {
        "principal_subgraphs": result.principal_subgraphs,
        "removed": result.removed,
        "constants": result.constants,
        "warnings": result.warnings,
        "relevant_features": result.relevant_features,
        "mi_scores": result.mi_scores,
        "selected": result.selected_features(),
        "verdicts": verdict_bits(result),
    }


class RecordingCache(IndependenceCache):
    """The cache, remembering every distinct pair asked of it."""

    def __init__(self, features, alpha):
        super().__init__(features, alpha)
        self.requested: set[frozenset[int]] = set()

    def verdict(self, i, j):
        self.requested.add(frozenset((i, j)))
        return super().verdict(i, j)

    def compute_pairs(self, pairs):
        self.requested.update(frozenset(pair) for pair in pairs)
        return super().compute_pairs(pairs)


class TestPipelineProperties:
    @given(inputs=pipeline_inputs(), data=st.data())
    @PROPERTY_SETTINGS
    def test_increasing_transform_of_a_row_changes_nothing(self, inputs, data):
        # bins depend only on the order and ties of a row's values
        ds, cfg = inputs
        row = data.draw(st.integers(ds.n_outputs, ds.n_rows - 1), label="row")
        values = ds.values.copy()
        values[row] = np.exp(values[row])
        assume(np.unique(values[row]).size == np.unique(ds.values[row]).size)
        assert outcome(analyze(Dataset(values, ds.n_outputs), cfg)) == outcome(
            analyze(ds, cfg)
        )

    @given(inputs=pipeline_inputs())
    @PROPERTY_SETTINGS
    def test_appended_constant_row_only_joins_constants(self, inputs):
        ds, cfg = inputs
        values = np.vstack([ds.values, np.full((1, ds.n_points), 2.5)])
        before = outcome(analyze(ds, cfg))
        after = outcome(analyze(Dataset(values, ds.n_outputs), cfg))
        assert after.pop("constants") == before.pop("constants") + [ds.n_rows + 1]
        assert after == before

    @given(inputs=pipeline_inputs())
    @PROPERTY_SETTINGS
    def test_one_robust_run_over_every_point_is_analyze(self, inputs):
        ds, cfg = inputs
        common, (run,) = robust_intersection(ds, cfg, 1, 1.0)
        expected = analyze(ds, cfg)
        assert outcome(run) == outcome(expected)
        assert common == expected.selected_features()

    @given(inputs=pipeline_inputs(), data=st.data())
    @PROPERTY_SETTINGS
    def test_cache_tests_each_requested_pair_once(self, inputs, data):
        ds, cfg = inputs
        with mock.patch("pfa.analysis.IndependenceCache", RecordingCache):
            result = analyze(ds, cfg)
        cache = result.cache
        assert cache.test_calls == len(cache.requested)
        # a follow-up query asks for pairs in either order, some cached
        target = data.draw(st.integers(ds.n_outputs + 1, ds.n_rows), label="target")
        explain_feature(result, target)
        assert cache.test_calls == len(cache.requested)

    @given(inputs=pipeline_inputs())
    @PROPERTY_SETTINGS
    def test_principal_subgraphs_are_complete_and_independent_of_each_other(self, inputs):
        ds, cfg = inputs
        result = analyze(ds, cfg)
        principal = [node for subgraph in result.principal_subgraphs for node in subgraph]
        removed = [node for removal in result.removed for node in removal.nodes]
        assert sorted(principal + removed + result.constants) == list(
            range(ds.n_outputs + 1, ds.n_rows + 1)
        )
        # the final pass tests every pair of its nodes, principals included
        subgraph_of = {
            node: k for k, subgraph in enumerate(result.principal_subgraphs) for node in subgraph
        }
        for i, j in combinations(sorted(subgraph_of), 2):
            verdict = result.cache.cached(i, j)
            assert verdict is not None, f"principal pair {i}-{j} untested"
            assert verdict.independent == (subgraph_of[i] != subgraph_of[j])

    @given(inputs=pipeline_inputs())
    @PROPERTY_SETTINGS
    def test_a_subgraph_is_relevant_when_a_member_depends_on_an_output(self, inputs):
        ds, cfg = inputs
        ds = Dataset(ds.values, n_outputs=1)
        result = analyze(ds, cfg)
        output = result.discretized[1]

        def depends(member: int) -> bool:
            return not is_independent(result.discretized[member], output, cfg.alpha).independent

        relevant = [s for s in result.principal_subgraphs if any(map(depends, s))]
        assert result.relevant_features == frozenset().union(*relevant)

    @given(inputs=pipeline_inputs(), data=st.data())
    @PROPERTY_SETTINGS
    def test_alpha_only_decides(self, inputs, data):
        # chi2, dof, p_value and guard_ok are facts of the pair; alpha only
        # turns p_value into the verdict, though the pairs tested may differ
        ds, cfg = inputs
        other = data.draw(st.sampled_from([a for a in ALPHAS if a != cfg.alpha]), label="alpha")
        runs = [run_pfa(ds, cfg), run_pfa(ds, replace(cfg, alpha=other))]
        first, second = (run.cache.verdicts for run in runs)
        for pair in first.keys() & second.keys():
            a, b = first[pair], second[pair]
            assert (a.chi2.hex(), a.dof, a.p_value.hex(), a.guard_ok) == (
                b.chi2.hex(), b.dof, b.p_value.hex(), b.guard_ok
            ), f"pair {pair}"
        for run, alpha in zip(runs, (cfg.alpha, other)):
            assert all(v.independent == (v.p_value >= alpha) for v in run.cache.verdicts.values())

    @given(inputs=pipeline_inputs(), data=st.data())
    @PROPERTY_SETTINGS
    def test_alpha_splits_the_verdicts_at_an_observed_p_value(self, inputs, data):
        # alpha drawn from (p, 2p) for a p-value of a first run puts that
        # pair in [alpha / 2, alpha): dependent, however near the boundary
        ds, cfg = inputs
        first = run_pfa(ds, cfg).cache.verdicts
        near = sorted((v.p_value, pair) for pair, v in first.items() if 1e-12 < v.p_value < 0.5)
        assume(near)
        p, (i, j) = data.draw(st.sampled_from(near), label="p-value")
        alpha = data.draw(
            st.floats(p, 2 * p, exclude_min=True, exclude_max=True), label="alpha"
        )
        result = run_pfa(ds, replace(cfg, alpha=alpha))
        assert result.cache.verdict(i, j).independent is False
        assert all(
            v.independent == (v.p_value >= alpha) for v in result.cache.verdicts.values()
        )
