import hashlib
import importlib
import pkgutil

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_cut_minimality,
    assert_dissection_invariants,
    brute_force_min_node_cut,
    edges,
    random_graph,
)
from pfa.depgraph import Graph, is_complete, is_connected
from pfa.dissect import CompleteGraphError, dissect, min_node_cut


def path(*nodes):
    return Graph.from_edges(nodes, list(zip(nodes, nodes[1:])))


class TestMinNodeCut:
    def test_path_of_three(self):
        assert min_node_cut(path(1, 2, 3)) == {2}

    def test_complete_graph_has_no_cut(self):
        triangle = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        with pytest.raises(CompleteGraphError):
            min_node_cut(triangle)

    def test_too_small(self):
        with pytest.raises(ValueError):
            min_node_cut(Graph.from_edges([1], []))

    @pytest.mark.parametrize("tie_seed", [None, 0, 1, 2, 3])
    @pytest.mark.parametrize(
        "nodes, edges",
        [
            ([1, 2, 3, 4], [(1, 2)]),
            # the pivot is an end of the path, where a one-node cut comes first
            ([1, 2, 3, 4, 5, 6, 7], [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7)]),
            ([1, 2, 3, 4, 5, 6, 7, 8], [(1, 2), (2, 3), (4, 5), (6, 7), (7, 8), (6, 8)]),
        ],
        ids=["isolated-pivot", "pivot-in-larger-component", "three-components"],
    )
    def test_disconnected_gives_empty_cut(self, nodes, edges, tie_seed):
        g = Graph.from_edges(nodes, edges)
        assert not is_connected(g)
        assert min_node_cut(g, tie_seed) == frozenset()

    def test_example1_graph_removes_the_linker(self):
        g = Graph.from_edges(
            [1, 2, 3, 4, 5],
            [(1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (4, 5)],
        )
        assert min_node_cut(g) == {4}

    def test_four_cycle_needs_two(self):
        square = Graph.from_edges([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4)])
        cut = min_node_cut(square)
        assert len(cut) == 2
        assert not is_connected(square.induced(set(square.nodes) - cut))


class TestBruteForce:
    def test_path_of_three(self):
        assert brute_force_min_node_cut(path(1, 2, 3)) == {2}

    def test_four_cycle(self):
        square = Graph.from_edges([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4)])
        cut = brute_force_min_node_cut(square)
        assert cut == {1, 3}  # lexicographically first of the two opposite pairs

    def test_size_limit(self):
        g = random_graph(15, 0.3, seed=0)
        with pytest.raises(ValueError, match="limited"):
            brute_force_min_node_cut(g)


def connected_incomplete_graphs(max_nodes=10):
    """Deterministic corpus of small connected non-complete graphs."""
    graphs = []
    seed = 0
    while len(graphs) < 200:
        n = 4 + seed % (max_nodes - 3)
        p = 0.25 + 0.15 * (seed % 5)
        g = random_graph(n, p, seed=seed)
        seed += 1
        if is_connected(g) and not all(
            g.degree(v) == g.n_nodes - 1 for v in g.nodes
        ):
            graphs.append(g)
    return graphs


class TestOracleEquivalence:
    def test_flow_cut_matches_brute_force_cardinality(self):
        for g in connected_incomplete_graphs():
            flow_cut = min_node_cut(g)
            oracle_cut = brute_force_min_node_cut(g)
            assert len(flow_cut) == len(oracle_cut), f"graph {edges(g)}"
            remaining = g.induced(set(g.nodes) - flow_cut)
            assert not is_connected(remaining)

    @given(seed=st.integers(0, 10_000), tie_seed=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_tie_seeded_cuts_remain_minimal(self, seed, tie_seed):
        g = random_graph(8, 0.35, seed=seed)
        if not is_connected(g) or all(g.degree(v) == 7 for v in g.nodes):
            return
        cut = min_node_cut(g, tie_seed=tie_seed)
        assert len(cut) == len(brute_force_min_node_cut(g))
        assert not is_connected(g.induced(set(g.nodes) - cut))


def to_networkx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(g.nodes)
    nxg.add_edges_from(edges(g))
    return nxg


class TestNetworkxOracle:
    """Cut sizes beyond the brute-force limit, against networkx's own max flow."""

    def test_cut_size_matches_node_connectivity(self):
        checked = 0
        for seed in range(120):
            n = 15 + seed % 31
            p = 0.15 + 0.05 * (seed % 7)
            g = random_graph(n, p, seed=seed)
            if not is_connected(g) or is_complete(g):
                continue
            connectivity = nx.node_connectivity(to_networkx(g))
            for tie_seed in (None, seed % 5):
                cut = min_node_cut(g, tie_seed=tie_seed)
                assert len(cut) == connectivity, f"seed {seed}, tie seed {tie_seed}"
                assert not is_connected(g.induced(set(g.nodes) - cut))
                checked += 1
        assert checked >= 200

    def test_large_graphs_match_node_connectivity(self):
        for g in large_graphs():
            assert len(min_node_cut(g)) == nx.node_connectivity(to_networkx(g))


def large_graphs():
    """Connected graphs of 120-200 nodes with vertex connectivity 10, 23 and 10."""
    yield random_graph(120, 0.15, seed=2)
    yield random_graph(150, 0.25, seed=1)
    yield random_graph(200, 0.1, seed=3)


def pinned_corpus():
    """Random graphs of 15-60 nodes, sparse to dense, some disconnected."""
    for seed in range(40):
        n = 15 + (seed * 17) % 46
        p = 0.1 + 0.1 * (seed % 4)
        yield random_graph(n, p, seed=seed)


def removal_log_sha256(graphs, tie_seeds):
    digest = hashlib.sha256()
    for g in graphs:
        for tie_seed in tie_seeds:
            result = dissect(g, tie_seed)
            log = [
                (r.step, sorted(r.nodes), sorted(r.from_component))
                for r in result.removals
            ]
            digest.update(repr(log).encode())
    return digest.hexdigest()


class TestPinnedCuts:
    # sha256 of the removal logs below as computed by the dict-based
    # Edmonds-Karp engine this bitset search replaced
    REMOVAL_LOG_SHA256 = (
        "0e799e8d0fc423edb788376e92e3e87d5253f888f816ff2d9111f68f53d7342e"
    )
    # as computed by the bitset search with one breadth-first search per
    # augmenting path, before the flow moved to Dinic phases
    LARGE_REMOVAL_LOG_SHA256 = (
        "c1ff25a2ab18cda3802cc3078b313b80fe0c69724607eb7d0a2d915cab41edc4"
    )

    def test_removal_logs_match_the_reference_engine(self):
        digest = removal_log_sha256(pinned_corpus(), (None, 0, 1, 2, 3))
        assert digest == self.REMOVAL_LOG_SHA256

    def test_large_graph_removal_logs_match_the_path_search(self):
        digest = removal_log_sha256(large_graphs(), (None, 0))
        assert digest == self.LARGE_REMOVAL_LOG_SHA256


class TestDissect:
    def test_already_complete(self):
        triangle = Graph.from_edges([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        result = dissect(triangle)
        assert result.removals == ()
        assert result.complete_subgraphs == (frozenset({1, 2, 3}),)

    def test_empty_graph(self):
        result = dissect(Graph.from_edges([], []))
        assert result.complete_subgraphs == ()
        assert result.removals == ()

    def test_example1_graph(self):
        g = Graph.from_edges(
            [1, 2, 3, 4, 5],
            [(1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (4, 5)],
        )
        result = dissect(g)
        assert [sorted(r.nodes) for r in result.removals] == [[4], [5]]
        assert result.complete_subgraphs == (
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        )
        assert_dissection_invariants(g, result)
        assert_cut_minimality(g, result)

    def test_termination_strictly_shrinks(self):
        for seed in range(30):
            g = random_graph(9, 0.3, seed=seed)
            result = dissect(g)
            assert_dissection_invariants(g, result)
            total_removed = sum(len(r.nodes) for r in result.removals)
            total_surviving = sum(len(s) for s in result.complete_subgraphs)
            assert total_removed + total_surviving == g.n_nodes

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_invariants_on_random_graphs(self, seed):
        g = random_graph(8, 0.3, seed=seed)
        result = dissect(g)
        assert_dissection_invariants(g, result)
        assert_cut_minimality(g, result)

    def test_deterministic_for_fixed_tie_seed(self):
        g = random_graph(10, 0.35, seed=77)
        assert dissect(g, tie_seed=5) == dissect(g, tie_seed=5)
        assert dissect(g) == dissect(g)


class TestPackageNamespace:
    def test_submodules_are_not_shadowed(self):
        # no name exported by the package may shadow one of its submodules
        import pfa

        for info in pkgutil.iter_modules(pfa.__path__):
            module = importlib.import_module(f"pfa.{info.name}")
            assert getattr(pfa, info.name) is module, info.name
        import pfa.dissect as module

        assert module.min_node_cut is min_node_cut
