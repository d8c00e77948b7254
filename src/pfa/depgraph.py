"""Dependency graph over variables: edge <=> the pair failed the independence test.

Nodes are 1-based variable ids.  Verdicts are memoized per unordered pair in
a shared cache so no pair is ever tested twice across batches, relevance
filtering and follow-up queries.  Every verdict enters the cache through one
step; ``compute_pairs`` returns the verdicts of a list of pairs in its order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .binning import DiscretizedFeature
from .stats import IndependenceVerdict, is_independent


class IndependenceCache:
    """Memoized pairwise independence verdicts over a fixed discretization."""

    def __init__(self, features: dict[int, DiscretizedFeature], alpha: float):
        self.features = features
        self.alpha = alpha
        self.verdicts: dict[tuple[int, int], IndependenceVerdict] = {}

    @property
    def test_calls(self) -> int:
        """Pair tests run so far: every computed verdict is cached once."""
        return len(self.verdicts)

    @staticmethod
    def _key(i: int, j: int) -> tuple[int, int]:
        if i == j:
            raise ValueError(f"no self-test for variable {i}")
        return (i, j) if i < j else (j, i)

    def cached(self, i: int, j: int) -> IndependenceVerdict | None:
        return self.verdicts.get(self._key(i, j))

    def _resolve(self, i: int, j: int) -> IndependenceVerdict:
        """The pair's cached verdict, else the verdict of its test, now cached."""
        key = self._key(i, j)
        found = self.verdicts.get(key)
        if found is None:
            a, b = (self.features[n] for n in key)
            found = self.verdicts[key] = is_independent(a, b, self.alpha)
        return found

    def verdict(self, i: int, j: int) -> IndependenceVerdict:
        return self._resolve(i, j)

    def compute_pairs(self, pairs: list[tuple[int, int]]) -> list[IndependenceVerdict]:
        """The pairs' verdicts in the given order, cached or tested now.

        Missing pairs are tested in that order, once each, so the cache
        contents and their insertion order are deterministic.
        """
        return [self._resolve(i, j) for i, j in pairs]


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph with induced-subgraph semantics."""

    nodes: tuple[int, ...]
    adjacency: dict[int, frozenset[int]] = field(hash=False)

    @classmethod
    def from_edges(cls, nodes, edges) -> "Graph":
        nodes = tuple(sorted(nodes))
        node_set = set(nodes)
        neighbors: dict[int, set[int]] = {n: set() for n in nodes}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if u not in node_set or v not in node_set:
                raise ValueError(f"edge ({u}, {v}) references an unknown node")
            neighbors[u].add(v)
            neighbors[v].add(u)
        return cls(nodes, {n: frozenset(s) for n, s in neighbors.items()})

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def degree(self, node: int) -> int:
        return len(self.adjacency[node])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def induced(self, members) -> "Graph":
        members = frozenset(members)
        unknown = members - set(self.nodes)
        if unknown:
            raise ValueError(f"nodes {sorted(unknown)} not in graph")
        return Graph(
            tuple(sorted(members)),
            {n: self.adjacency[n] & members for n in members},
        )


def is_complete(g: Graph) -> bool:
    """True iff every pair of distinct nodes is adjacent; singletons qualify."""
    n = g.n_nodes
    return all(len(g.adjacency[v]) == n - 1 for v in g.nodes)


def connected_components(g: Graph) -> list[Graph]:
    """Maximal connected induced subgraphs, ordered by smallest member id."""
    unvisited = set(g.nodes)
    components = []
    for start in g.nodes:  # nodes are sorted, so components come out ordered
        if start not in unvisited:
            continue
        stack = [start]
        unvisited.discard(start)
        members = {start}
        while stack:
            u = stack.pop()
            for v in g.adjacency[u]:
                if v in unvisited:
                    unvisited.discard(v)
                    members.add(v)
                    stack.append(v)
        components.append(g.induced(members))
    return components


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


def build_graph(cache: IndependenceCache, nodes) -> Graph:
    """Dependency graph over the given nodes; edge <=> not independent."""
    nodes = tuple(sorted(nodes))
    for n in nodes:
        if not cache.features[n].testable:
            raise ValueError(f"node {n} refers to a constant (untestable) variable")
    pairs = [(u, v) for idx, u in enumerate(nodes) for v in nodes[idx + 1 :]]
    verdicts = cache.compute_pairs(pairs)
    edges = [pair for pair, v in zip(pairs, verdicts) if not v.independent]
    return Graph.from_edges(nodes, edges)
