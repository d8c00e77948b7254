import numpy as np
import pytest
from helpers import edges, feature_ids

from pfa.binning import discretize_all
from pfa.dataset import Dataset
from pfa.depgraph import (
    Graph,
    IndependenceCache,
    build_graph,
    connected_components,
    is_complete,
)
from pfa.stats import is_independent
from pfa.synth import SynthSpec, generate


def make_cache(ds, nu=100, alpha=0.01):
    disc = discretize_all(ds, nu)
    return IndependenceCache({i + 1: d for i, d in enumerate(disc)}, alpha)


class TestGraph:
    def test_no_self_loops(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges([1, 2], [(1, 1)])

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            Graph.from_edges([1, 2], [(1, 3)])

    def test_induced_subgraph(self):
        g = Graph.from_edges([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
        sub = g.induced({1, 2, 4})
        assert edges(sub) == [(1, 2)]

    def test_equality_includes_the_edges(self):
        g = Graph.from_edges([1, 2, 3], [(1, 2)])
        assert g != Graph.from_edges([1, 2, 3], [(2, 3)])
        assert g != Graph.from_edges([1, 2, 3], [])
        same = Graph.from_edges([3, 2, 1], [(2, 1)])
        assert g == same and hash(g) == hash(same)
        assert len({g, same, Graph.from_edges([1, 2, 3], [(2, 3)])}) == 2
        assert g == Graph.from_edges([1, 2, 3, 4], [(1, 2)]).induced({1, 2, 3})


class TestIsComplete:
    def test_singleton(self):
        assert is_complete(Graph.from_edges([7], []))

    def test_triangle_vs_path(self):
        triangle = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        path = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
        assert is_complete(triangle)
        assert not is_complete(path)

    def test_example2_filtered_pair_is_complete(self):
        ds = generate(SynthSpec("example2", 5000, seed=42))
        cache = make_cache(ds)
        # features not independent of the output y (row 1): x1 and x3
        related = [f for f in feature_ids(ds) if not cache.verdict(1, f).independent]
        assert related == [2, 4]
        assert is_complete(build_graph(cache, related))


class TestConnectedComponents:
    def test_no_edges_gives_singletons(self):
        g = Graph.from_edges([1, 2, 3], [])
        parts = connected_components(g)
        assert [p.nodes for p in parts] == [(1,), (2,), (3,)]

    def test_connected_graph_is_one_component(self):
        g = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
        assert len(connected_components(g)) == 1

    def test_two_disjoint_triangles(self):
        g = Graph.from_edges(
            range(1, 7), [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
        )
        parts = connected_components(g)
        assert [p.nodes for p in parts] == [(1, 2, 3), (4, 5, 6)]


class TestBuildGraph:
    def test_single_node_graph(self):
        ds = generate(SynthSpec("example1", 1000, seed=0))
        cache = make_cache(ds)
        g = build_graph(cache, [1])
        assert edges(g) == []

    def test_example1_reference_edges(self):
        ds = generate(SynthSpec("example1", 5000, seed=42))
        cache = make_cache(ds)
        g = build_graph(cache, range(1, 6))
        assert edges(g) == [(1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (4, 5)]

    def test_independent_uniforms_give_empty_graph(self):
        rng = np.random.default_rng(11)  # recorded reference seed
        ds = Dataset(rng.uniform(0, 5, (3, 5000)), n_outputs=0)
        cache = make_cache(ds)
        assert edges(build_graph(cache, [1, 2, 3])) == []

    def test_constant_node_rejected(self):
        ds = Dataset(np.vstack([np.ones(50), np.arange(50.0)]), n_outputs=0)
        cache = make_cache(ds, nu=10)
        with pytest.raises(ValueError, match="constant"):
            build_graph(cache, [1, 2])

    def test_cache_prevents_retesting(self):
        ds = generate(SynthSpec("example1", 2000, seed=1))
        cache = make_cache(ds)
        build_graph(cache, range(1, 6))
        calls = cache.test_calls
        build_graph(cache, range(1, 6))
        assert cache.test_calls == calls

    def test_insertion_order_irrelevant(self):
        ds = generate(SynthSpec("example1", 2000, seed=2))
        forward = build_graph(make_cache(ds), [1, 2, 3, 4, 5])
        backward = build_graph(make_cache(ds), [5, 4, 3, 2, 1])
        assert forward.nodes == backward.nodes
        assert edges(forward) == edges(backward)

    def test_edges_match_pairwise_verdicts(self):
        ds = generate(SynthSpec("example3", 2000, seed=3))
        disc = discretize_all(ds, 100)
        cache = IndependenceCache({i + 1: d for i, d in enumerate(disc)}, 0.01)
        g = build_graph(cache, feature_ids(ds))
        for i in feature_ids(ds):
            for j in feature_ids(ds):
                if i < j:
                    verdict = is_independent(disc[i - 1], disc[j - 1], 0.01)
                    assert g.has_edge(i, j) == (not verdict.independent)

    @pytest.mark.parametrize(
        "ask",
        [
            lambda cache: cache.verdict(2, 2),
            lambda cache: cache.cached(2, 2),
            lambda cache: cache.compute_pairs([(2, 2)]),
        ],
        ids=["verdict", "cached", "compute_pairs"],
    )
    def test_cache_refuses_a_self_pair(self, ask):
        cache = make_cache(generate(SynthSpec("example1", 500, seed=0)), nu=50)
        with pytest.raises(ValueError, match="no self-test for variable 2"):
            ask(cache)
        assert cache.verdicts == {}

    def test_compute_pairs_returns_the_cached_verdicts_in_order(self):
        # example1's reference graph: 1-4 and 4-5 are edges, 1-2 and 2-3 not
        cache = make_cache(generate(SynthSpec("example1", 5000, seed=42)))
        earlier = cache.compute_pairs([(4, 1), (2, 3)])
        assert list(cache.verdicts) == [(1, 4), (2, 3)]
        # fresh, cached and reversed pairs in one call
        pairs = [(5, 4), (1, 4), (3, 2), (2, 1), (4, 5), (2, 3)]
        verdicts = cache.compute_pairs(pairs)
        assert list(cache.verdicts) == [(1, 4), (2, 3), (4, 5), (1, 2)]
        for (i, j), verdict in zip(pairs, verdicts):
            assert verdict is cache.verdicts[(min(i, j), max(i, j))]
        assert verdicts[1] is earlier[0] and verdicts[2] is verdicts[5] is earlier[1]
        assert verdicts[0] is verdicts[4]
        assert [v.independent for v in verdicts] == [False, False, True, True, False, True]
        assert cache.compute_pairs([]) == []

    def test_fresh_caches_give_same_result(self):
        ds = generate(SynthSpec("example1", 3000, seed=4))
        first = build_graph(make_cache(ds), range(1, 6))
        second = build_graph(make_cache(ds), range(1, 6))
        assert edges(first) == edges(second)
