"""Test-only oracles, random graphs and verification helpers."""

import csv
import math
import random
import tracemalloc
from itertools import combinations

import numpy as np

from pfa.dataset import Dataset, DatasetError
from pfa.depgraph import Graph, connected_components, is_complete, is_connected
from pfa.dissect import CompleteGraphError, DissectionResult
from pfa.stats import IndependenceVerdict
from pfa.synth import _uniform_bases

BRUTE_FORCE_NODE_LIMIT = 14


def random_graph(n: int, p_edge: float, seed: int) -> Graph:
    """Erdos-Renyi-style graph on nodes 1..n, deterministic in the seed."""
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if not 0.0 <= p_edge <= 1.0:
        raise ValueError(f"p_edge must be in [0, 1], got {p_edge}")
    rng = random.Random(seed)
    nodes = range(1, n + 1)
    edges = [
        (u, v)
        for u in nodes
        for v in range(u + 1, n + 1)
        if rng.random() < p_edge
    ]
    return Graph.from_edges(nodes, edges)


def edges(g: Graph) -> list[tuple[int, int]]:
    """The graph's edges as ``(u, v)`` with ``u < v``, in ascending order."""
    return [(u, v) for u in g.nodes for v in sorted(g.adjacency[u]) if u < v]


def feature_ids(ds: Dataset) -> range:
    """The 1-based row ids of the dataset's features, after its outputs."""
    return range(ds.n_outputs + 1, ds.n_rows + 1)


def brute_force_min_node_cut(g: Graph) -> frozenset[int]:
    """Oracle: enumerate subsets by ascending cardinality, lexicographic order."""
    if g.n_nodes > BRUTE_FORCE_NODE_LIMIT:
        raise ValueError(
            f"brute force limited to {BRUTE_FORCE_NODE_LIMIT} nodes, got {g.n_nodes}"
        )
    if g.n_nodes < 2:
        raise ValueError("min_node_cut needs at least 2 nodes")
    if is_complete(g):
        raise CompleteGraphError("complete graphs have no vertex cut")
    if not is_connected(g):
        return frozenset()
    nodes = sorted(g.nodes)
    for size in range(1, g.n_nodes - 1):
        for subset in combinations(nodes, size):
            remaining = g.induced(set(nodes) - set(subset))
            if not is_connected(remaining):
                return frozenset(subset)
    raise AssertionError("connected incomplete graph must have a cut")


def assert_dissection_invariants(g: Graph, result: DissectionResult) -> None:
    """Check every structural guarantee a dissection must satisfy."""
    survivors = frozenset().union(*result.complete_subgraphs)
    removed = frozenset().union(*(r.nodes for r in result.removals))

    # partition: disjoint complete subgraphs plus removed nodes cover g
    assert survivors | removed == set(g.nodes)
    assert not survivors & removed
    total = sum(len(s) for s in result.complete_subgraphs)
    assert total == len(survivors), "complete subgraphs overlap"

    for subgraph in result.complete_subgraphs:
        assert is_complete(g.induced(subgraph))

    # no edge of g connects two distinct surviving subgraphs
    membership = {}
    for index, subgraph in enumerate(result.complete_subgraphs):
        for node in subgraph:
            membership[node] = index
    for u, v in edges(g):
        if u in membership and v in membership:
            assert membership[u] == membership[v], f"edge {u}-{v} crosses subgraphs"

    # each removed node separated at least two of the parts it disconnected
    for removal in result.removals:
        component = g.induced(removal.from_component)
        assert is_connected(component)
        rest = component.induced(set(component.nodes) - removal.nodes)
        parts = connected_components(rest)
        assert len(parts) >= 2, "cut removal must disconnect its component"
        part_of = {}
        for index, part in enumerate(parts):
            for node in part.nodes:
                part_of[node] = index
        for node in removal.nodes:
            touched = {part_of[n] for n in component.adjacency[node] if n in part_of}
            assert len(touched) >= 2, f"removed node {node} is not a linker"

    # reachability: every removed node has a path in g from a survivor
    if removed:
        assert survivors, "nodes removed but nothing survived"
        seen = set(survivors)
        stack = list(survivors)
        while stack:
            u = stack.pop()
            for v in g.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert removed <= seen, "removed node unreachable from the survivors"


def assert_cut_minimality(g: Graph, result: DissectionResult, max_size: int = 3) -> None:
    """No proper subset of a removed cut disconnects its component."""
    for removal in result.removals:
        if len(removal.nodes) > max_size:
            continue
        component = g.induced(removal.from_component)
        for smaller in range(len(removal.nodes)):
            for subset in combinations(sorted(removal.nodes), smaller):
                rest = component.induced(set(component.nodes) - set(subset))
                assert is_connected(rest), (
                    f"subset {subset} of cut {sorted(removal.nodes)} already disconnects"
                )


# --- oracles for the numpy fast paths of ingest, export and binning ------
# Each is the implementation that preceded the fast path, kept verbatim but
# for three later rules of the per-cell parser: it names a blank line at its own
# row, it refuses a ``_`` in the cell where it stands, so a row is checked
# left to right and a ragged row is named before its cells, and it skips a
# byte-order mark that starts the file.


def per_cell_load_csv(path, n_outputs: int = 1) -> Dataset:
    """Oracle for ``load_csv``: csv.reader and ``float()`` on every cell."""
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for row_no, record in enumerate(reader, start=1):
            if not record:
                raise DatasetError(f"blank line at row {row_no}")
            if rows and len(record) != len(rows[0]):
                raise DatasetError(
                    f"row {row_no} has {len(record)} columns, expected {len(rows[0])}"
                )
            parsed = []
            for col_no, cell in enumerate(record, start=1):
                try:
                    if "_" in cell:
                        raise ValueError(cell)
                    value = float(cell)
                except ValueError:
                    raise DatasetError(
                        f"non-numeric cell {cell!r} at row {row_no}, column {col_no}"
                    ) from None
                if not np.isfinite(value):
                    raise DatasetError(
                        f"non-finite cell {cell!r} at row {row_no}, column {col_no}"
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise DatasetError(f"empty dataset file: {path}")
    return Dataset(np.array(rows, dtype=np.float64), n_outputs)


# Inputs on which load_csv, `pfa run` and `pfa robust` must agree with the
# per-cell parser: the same values, or the same DatasetError message.
# Several are accepted by np.loadtxt but rejected per cell (blank lines,
# non-finite values), or the other way round (quoted cells, non-ASCII digits).
DIFFERENTIAL_INPUTS = {
    "blank_line_in_middle": "1,2\n\n3,4\n",
    "blank_line_at_end": "1,2\n\n",
    "only_newline": "\n",
    "empty_file": "",
    "nan": "1,nan\n",
    "infinity": "1,Infinity\n",
    "overflow": "1,1e400\n",
    "digit_separator": "1,1_0\n",
    "bad_cell_before_separator": "1,x\n1,1_0\n",
    "ragged_row": "1,2,3\n4,5\n",
    "trailing_comma": "1,2,\n3,4,\n",
    "space_only": " \n",
    "two_numbers_in_a_cell": "1 2,3\n",
    "quoted_cell": '"1",2\n',
    "arabic_indic_digit": "\u0661,2\n",
    "tab_padded_cell": "\t1.5\t,2\n",
    "plus_point_five": "+.5,2\n",
    "subnormal": "2e-320,1\n",
    "crlf_endings": "1,2\r\n3,4\r\n",
    "cr_endings": "1,2\r3,4\r",
    "single_row": "1,2,3\n",
    "single_column": "1\n2\n3\n",
    "blank_first_line": "\n1,2\n3,4\n",
    "bad_cell_before_separator_in_one_row": "x,1_0\n",
    "separator_in_ragged_row": "1,2\n3_0,4,5\n",
    "quoted_separator": '"1_0",2\n',
    # an odd line after plain ones: the per-cell parser takes over there
    "bad_cell_in_last_row": "1,2\n3,4\n5,x\n",
    "non_finite_cell_in_last_row": "1,2\n3,4\n5,-inf\n",
    "ragged_last_row": "1,2\n3,4\n5\n",
    "blank_line_after_plain_rows": "1,2\n3,4\n\n5,6\n",
    "quoted_cell_after_plain_rows": '1,2\n3,4\n"5",6\n',
    "arabic_indic_digit_after_plain_rows": "1,2\n3,4\n\u0665,6\n",
    # a UTF-8 byte-order mark is skipped where it starts the file, and is
    # part of its cell anywhere else
    "byte_order_mark": "\ufeff1,2\n3,4\n",
    "byte_order_mark_only": "\ufeff",
    "byte_order_mark_before_a_blank_line": "\ufeff\n1,2\n",
    "two_byte_order_marks": "\ufeff\ufeff1,2\n",
    "byte_order_mark_in_a_later_cell": "\ufeff1,\ufeff2\n",
    "byte_order_mark_after_plain_rows": "1,2\n\ufeff3,4\n",
}


def per_value_csv_text(values) -> str:
    """Oracle for the bytes ``save_csv`` writes: ``repr(float(v))`` per value."""
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in values)


def traced_peak(call):
    """``call()``'s result and the most memory tracemalloc saw it hold."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def one_bin_rows() -> np.ndarray:
    """x, a binary y with 80 ones in 2,000 points, and 2x + y.

    At nu=100 the trailing merge leaves y a single bin although it is not
    constant.
    """
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 5.0, 2000)
    y = np.zeros(2000)
    y[rng.choice(2000, 80, replace=False)] = 1.0
    return np.vstack([x, y, 2 * x + y])


def stable_sort_bins(values, nu: int) -> tuple[np.ndarray, int]:
    """Oracle for ``discretize``: the stable-sort boundary walk and slice fill.

    Returns ``(bin_of_point, n_bins)``; constant input is not handled.
    """
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    n = values.size

    boundaries = []  # exclusive end position of each closed bin
    i = 0
    while i < n:
        if n - i < nu:
            # trailing remainder: merge into the last full bin
            if boundaries:
                boundaries[-1] = n
            else:
                boundaries.append(n)
            break
        end = i + nu
        # extend across ties so equal values stay in one bin
        while end < n and ordered[end] == ordered[end - 1]:
            end += 1
        boundaries.append(end)
        i = end

    bin_in_order = np.empty(n, dtype=np.int64)
    start = 0
    for b, end in enumerate(boundaries):
        bin_in_order[start:end] = b
        start = end

    bin_of_point = np.empty(n, dtype=np.int64)
    bin_of_point[order] = bin_in_order
    return bin_of_point, len(boundaries)


# --- oracles for the pair statistics: the float-table chain they replaced --
# Kept verbatim apart from names, the argument checks of the p-value and the
# int64 widening of the now compact codes: a float contingency table with float
# marginals, a math.fsum chi-square, the series / continued-fraction Q(a, x)
# and the guard on the smallest expected cell.  ``fsum_is_independent``
# returns the same IndependenceVerdict, so a verdict can be compared with
# ``==``; ``float_table_mutual_information`` is the MI of the same table.

_EPS = 1e-15
_TINY = 1e-300
_MAX_ITER = 10_000_000


def fsum_contingency(a, b):
    """The float contingency table: ``(observed, row, col, n, expected)``."""
    if a.n_points != b.n_points:
        raise ValueError(
            f"mismatched point counts: {a.n_points} vs {b.n_points}"
        )
    n = a.n_points
    k, l = a.n_bins, b.n_bins
    flat = a.bin_of_point.astype(np.int64) * l + b.bin_of_point
    observed = np.bincount(flat, minlength=k * l).reshape(k, l).astype(np.float64)
    row = observed.sum(axis=1)
    col = observed.sum(axis=0)
    expected = np.outer(row, col) / n
    return observed, row, col, n, expected


def float_table_mutual_information(a, b) -> float:
    """Oracle for ``mutual_information``: the float table's joint and product."""
    observed, row, col, n, _ = fsum_contingency(a, b)
    p_joint = observed / n
    p_prod = np.outer(row, col) / (n**2)
    mask = p_joint > 0.0
    terms = p_joint[mask] * np.log(p_joint[mask] / p_prod[mask])
    return max(0.0, math.fsum(terms.tolist()))


def fsum_chi_square_statistic(observed, expected) -> float:
    """The chi-square statistic as ``math.fsum`` over the table's cells."""
    if np.any(expected <= 0.0):
        raise ValueError("contingency table has a zero expected cell")
    cells = (observed - expected) ** 2 / expected
    return math.fsum(cells.ravel().tolist())


def _lower_gamma_series(a: float, x: float) -> float:
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_gamma_cf(a: float, x: float) -> float:
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    log_prefactor = -x + a * math.log(x) - math.lgamma(a)
    if log_prefactor < -745.0:
        return 0.0
    return math.exp(log_prefactor) * h


def scalar_p_value(chi2: float, dof: int) -> float:
    """Oracle for ``chi_square_p_value``: Q(dof / 2, chi2 / 2) in scalar math."""
    a, x = dof / 2.0, chi2 / 2.0
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        q = 1.0 - _lower_gamma_series(a, x)
    else:
        q = _upper_gamma_cf(a, x)
    return min(1.0, max(0.0, q))


def fsum_is_independent(a, b, alpha):
    """Oracle for ``is_independent``: table, fsum, p-value, smallest-cell guard."""
    if not a.testable or not b.testable:
        return IndependenceVerdict(0.0, 0, 1.0, True, True)
    observed, _, _, _, expected = fsum_contingency(a, b)
    chi2 = fsum_chi_square_statistic(observed, expected)
    dof = (a.n_bins - 1) * (b.n_bins - 1)
    p = scalar_p_value(chi2, dof)
    return IndependenceVerdict(
        chi2=chi2,
        dof=dof,
        p_value=p,
        independent=p >= alpha,
        guard_ok=bool(expected.min() >= 5.0),
    )


# --- oracle for the streamed report: the dicts ``json.dump`` wrote whole ----
# The report builders that preceded the streamed ``graph.tests``, kept verbatim
# but for their names and ``vars(verdict)`` for ``cli._encode(verdict)``, the
# same dict: one dict per test, the whole report handed to json.


def _reference_result_json(result) -> dict:
    return {
        "principal_subgraphs": result.principal_subgraphs,
        "removed": result.removed,
        "constants": result.constants,
        "relevant_features": result.relevant_features,
        "mi_scores": result.mi_scores,
        "selected_features": result.selected_features(),
        "warnings": result.warnings,
    }


def _reference_graph_json(result) -> dict:
    nodes = sorted(
        i for i, d in result.discretized.items() if d.testable and i > result.n_outputs
    )
    node_set = set(nodes)
    tests = sorted(result.cache.verdicts.items())
    edges = [
        [i, j] for (i, j), verdict in tests
        if not verdict.independent and i in node_set and j in node_set
    ]
    return {
        "nodes": nodes,
        "edges": edges,
        "tests": [{"pair": [i, j], **vars(verdict)} for (i, j), verdict in tests],
    }


def reference_run_report(config: dict, result) -> dict:
    """Oracle for ``pfa run``'s report: the dict it was dumped from whole."""
    return {
        "config": config,
        **_reference_result_json(result),
        "graph": _reference_graph_json(result),
    }


def reference_robust_report(config: dict, common, results) -> dict:
    """Oracle for ``pfa robust``'s report, as ``reference_run_report``."""
    return {
        "config": config,
        "intersection": common,
        "runs": [_reference_result_json(result) for result in results],
    }


# --- oracle for the synthetic matrix written in place ----------------------
# The custom-DAG branch of ``generate`` that preceded it, kept verbatim but for
# its name and its return of the matrix alone.


def prod_vstack_values(spec) -> np.ndarray:
    """Oracle for ``generate(spec).values`` of a custom DAG: ``np.prod`` of a
    fancy-indexed copy of each derived row's parents, and one ``np.vstack``."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_points
    dag = spec.dag
    bases = _uniform_bases(rng, dag.n_base, n)
    derived = [np.prod(bases[list(parents)], axis=0) for parents in dag.derived]
    return np.vstack([bases] + [d[None, :] for d in derived])
