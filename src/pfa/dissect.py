"""Exact minimum node cuts and iterative graph dissection.

The cut is computed by vertex splitting: each node v becomes an arc
v_in -> v_out of capacity one, and each undirected edge becomes two
infinite-capacity arcs.  A max flow between candidate terminal pairs then
yields the vertex connectivity exactly.  The candidate schedule (a fixed
minimum-degree node against its non-neighbors, plus its pairwise
non-adjacent neighbors) is the standard exactness argument: some minimum
cut either excludes that node or separates two of its neighbors.

The flow is found in Dinic phases over a bit-parallel residual network.
Each split node keeps its open out-arcs as one Python-int bitmask, so a
breadth-first layer expands with one OR per node.  A phase builds one
layering up to the sink, then takes depth-first augmenting paths along it
until none is left; with unit vertex capacities an augmentation only flips
arc bits.  The layering that misses the sink leaves the residual-reachable
source side, whose crossing internal arcs are the cut.  That side is the
same for every maximum flow (Picard & Queyranne 1980), so the chosen cut
does not depend on which augmenting paths were taken.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .depgraph import Graph, connected_components, is_complete


class CompleteGraphError(ValueError):
    """Raised when a node cut is requested for a complete graph (none exists)."""


@dataclass(frozen=True)
class Removal:
    """One dissection step: the cut removed and the component it came from."""

    step: int
    nodes: frozenset[int]
    from_component: frozenset[int]


@dataclass(frozen=True)
class DissectionResult:
    complete_subgraphs: tuple[frozenset[int], ...]
    removals: tuple[Removal, ...]


def _residual_masks(g: Graph, order: dict[int, int]) -> list[int]:
    """Positive-residual out-arcs of the zero flow, one bitmask per split node.

    Node v of rank r splits into in-node 2r and out-node 2r+1.  The internal
    arc 2r -> 2r+1 has capacity one; each edge u-v gives infinite arcs
    out_u -> in_v and out_v -> in_u.
    """
    res = [0] * (2 * g.n_nodes)
    for v in g.nodes:
        r = order[v]
        res[2 * r] = 1 << (2 * r + 1)
        for w in g.adjacency[v]:
            res[2 * r + 1] |= 1 << (2 * order[w])
    return res


def _level_layers(res: list[int], source: int, sink: int) -> tuple[list[int] | None, int]:
    """Breadth-first layers up to the sink, or None and the source's reach."""
    sink_bit = 1 << sink
    seen = frontier = 1 << source
    layers = []
    while frontier:
        layers.append(frontier)
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= res[low.bit_length() - 1]
            if step & sink_bit:
                return layers + [sink_bit], seen
            frontier ^= low
        frontier = step & ~seen
        seen |= frontier
    return None, seen


def _min_vertex_cut(base: list[int], source: int, sink: int, in_nodes: int) -> int:
    """Source-side minimum cut between two split nodes, as a mask of in-nodes.

    Every arc carries flow 0 or 1: an in-node other than the sink forwards
    at most its unit internal capacity, an out-node other than the source
    receives at most that unit, and the terminals are not adjacent.  So one
    bit per arc tracks the residual exactly, and a phase routes at most one
    path through each node: it takes depth-first paths along one layering
    until its narrowest layer is spent or the source is a dead end.  A dead
    end stays one for the phase, as augmenting opens only backward arcs.
    """
    res = base[:]
    used = 0  # in-nodes of the vertices that carry flow
    layers, reach = _level_layers(res, source, sink)
    while layers is not None:
        # only the sink's neighbours enter it, and an idle in-node leaves
        # only to its own out-node
        layers[-2] &= base[sink + 1] << 1
        layers[-3] &= layers[-2] >> 1 | used
        for _ in range(min(map(int.bit_count, layers[1:-1]))):
            path = [source]
            while path and path[-1] != sink:
                step = res[path[-1]] & layers[len(path)]
                if step:
                    path.append((step & -step).bit_length() - 1)
                else:
                    u = path.pop()
                    layers[len(path)] &= ~(1 << u)
            if not path:
                break
            for u, v in zip(path, path[1:]):
                if u >> 1 == v >> 1:
                    # one vertex's internal arc, either way: its unit moves across
                    res[u] ^= 1 << v
                    res[v] ^= 1 << u
                    used ^= 1 << (u & ~1)
                elif u & 1:
                    # out-node to in-node: the infinite arc opens its reverse
                    res[v] |= 1 << u
                else:
                    # in-node to out-node: back along an infinite arc, cancelling its unit
                    res[u] &= ~(1 << v)
        layers, reach = _level_layers(res, source, sink)
    # saturated internal arcs crossing the frontier are the cut vertices
    return reach & ~(reach >> 1) & in_nodes


def min_node_cut(g: Graph, tie_seed: int | None = None) -> frozenset[int]:
    """A cardinality-minimal vertex set whose removal disconnects g.

    Returns the empty set for an already-disconnected graph.  Nodes are
    ranked once, by id or, given a tie seed, by a seeded shuffle of the ids;
    the rank fixes the pivot (the first node of least degree), the order of
    the candidates and the split-node bits.  Ties between equal-size cuts go
    to the first candidate, so a tie seed surfaces alternative valid cuts.
    """
    if g.n_nodes < 2:
        raise ValueError("min_node_cut needs at least 2 nodes")
    if is_complete(g):
        raise CompleteGraphError("complete graphs have no vertex cut")

    rng = random.Random(tie_seed) if tie_seed is not None else None
    ranked = sorted(g.nodes)
    if rng is not None:
        rng.shuffle(ranked)
    order = {node: rank for rank, node in enumerate(ranked)}
    base = _residual_masks(g, order)
    in_nodes = int("01" * g.n_nodes, 2)  # the even bits

    pivot = min(ranked, key=g.degree)  # min keeps the first of equal degrees
    # no split node is bit 2n, so the zero flow's search covers the pivot's component
    _, reach = _level_layers(base, 2 * order[pivot] + 1, 2 * g.n_nodes)
    if reach & in_nodes != in_nodes:
        return frozenset()  # g is disconnected
    neighbors = [v for v in ranked if g.has_edge(pivot, v)]
    candidates = [(pivot, t) for t in ranked if t != pivot and not g.has_edge(pivot, t)]
    candidates.extend(
        (u, w) for u, w in combinations(neighbors, 2) if not g.has_edge(u, w)
    )
    if rng is not None:
        # the residual cut always hugs the source side; flipping terminals
        # per candidate exposes the equally valid sink-side cuts
        candidates = [
            (t, s) if rng.random() < 0.5 else (s, t) for s, t in candidates
        ]

    best: int | None = None
    for s, t in candidates:
        cut = _min_vertex_cut(base, 2 * order[s] + 1, 2 * order[t], in_nodes)
        if best is None or cut.bit_count() < best.bit_count():
            best = cut
            if best.bit_count() == 1:
                break
    assert best is not None  # g is connected and incomplete
    return frozenset(
        ranked[bit >> 1] for bit in range(best.bit_length()) if best >> bit & 1
    )


def dissect(g: Graph, tie_seed: int | None = None) -> DissectionResult:
    """Iteratively remove minimal cuts until only complete subgraphs remain.

    Incomplete components are processed in ascending order of their
    smallest member id.  Only connected components are cut, so every logged
    removal is non-empty; removals are numbered from 1 in the order made.
    """
    complete: list[frozenset[int]] = []
    removals: list[Removal] = []
    pending = connected_components(g)
    while pending:
        pending.sort(key=lambda comp: comp.nodes[0])
        component = pending.pop(0)
        if is_complete(component):
            complete.append(frozenset(component.nodes))
            continue
        cut = min_node_cut(component, tie_seed)
        removals.append(Removal(len(removals) + 1, cut, frozenset(component.nodes)))
        rest = component.induced(set(component.nodes) - cut)
        pending.extend(connected_components(rest))
    complete.sort(key=min)
    return DissectionResult(tuple(complete), tuple(removals))
