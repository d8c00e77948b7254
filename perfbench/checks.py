"""Output checks computed apart from the program.

Binning, contingency tables, chi-square and mutual information are redone
here in NumPy from the raw values; p-values come from scipy and cut sizes
from networkx.  Each function returns a list of problems, empty when the
output passes.
"""

from __future__ import annotations

import itertools

import networkx as nx
import numpy as np
from scipy.stats import chi2 as chi2_dist

P_VALUE_TOL = 1e-10
CHI2_RTOL = 1e-9
MI_ATOL = 1e-12


def bin_labels(values: np.ndarray, nu: int) -> np.ndarray:
    """Bin index per point: bins of >= nu points that never split equal values.

    Bins are found by their largest value, so a point's bin is the first
    bin whose upper value is not below it.
    """
    ordered = np.sort(values)
    n = len(ordered)
    uppers = []
    start = 0
    while n - start >= nu:
        end = int(np.searchsorted(ordered, ordered[start + nu - 1], side="right"))
        uppers.append(ordered[end - 1])
        start = end
    if start < n:  # remainder of fewer than nu points joins the last bin
        if uppers:
            uppers[-1] = ordered[-1]
        else:
            uppers.append(ordered[-1])
    return np.searchsorted(np.array(uppers), values, side="left")


def table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    k, l = int(a.max()) + 1, int(b.max()) + 1
    return np.bincount(a * l + b, minlength=k * l).reshape(k, l).astype(np.float64)


def chi2_of(observed: np.ndarray) -> tuple[float, int]:
    n = observed.sum()
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / n
    k, l = observed.shape
    return float(((observed - expected) ** 2 / expected).sum()), (k - 1) * (l - 1)


def mi_of(observed: np.ndarray) -> float:
    p = observed / observed.sum()
    prod = np.outer(p.sum(axis=1), p.sum(axis=0))
    mask = p > 0
    return float(max(0.0, (p[mask] * np.log(p[mask] / prod[mask])).sum()))


def check_tests(values, nu, alpha, tests, rng, sample, label) -> list[str]:
    """Recompute a seeded sample of reported pair tests.

    ``values`` holds the analysed rows (row id i is ``values[i - 1]``);
    ``tests`` maps (i, j) to an object with chi2, dof, p_value, independent.
    """
    problems = []
    keys = sorted(tests)
    picked = rng.choice(len(keys), size=min(sample, len(keys)), replace=False)
    labels = {}
    for index in sorted(picked):
        i, j = keys[index]
        for v in (i, j):
            if v not in labels:
                labels[v] = bin_labels(values[v - 1], nu)
        verdict = tests[(i, j)]
        chi2, dof = chi2_of(table(labels[i], labels[j]))
        if dof != verdict.dof:
            problems.append(f"{label} pair {i}-{j}: dof {verdict.dof}, expected {dof}")
            continue
        if abs(chi2 - verdict.chi2) > CHI2_RTOL * max(1.0, chi2):
            problems.append(f"{label} pair {i}-{j}: chi2 {verdict.chi2!r}, expected {chi2!r}")
        p = float(chi2_dist.sf(verdict.chi2, dof))
        if abs(p - verdict.p_value) > P_VALUE_TOL:
            problems.append(f"{label} pair {i}-{j}: p {verdict.p_value!r}, scipy {p!r}")
        if verdict.independent != (verdict.p_value >= alpha):
            problems.append(f"{label} pair {i}-{j}: verdict disagrees with its p-value")
    return problems


def check_mi(values, nu, scores, label) -> list[str]:
    """``scores`` maps (i, j) to the program's mutual information in nats."""
    problems = []
    for (i, j), score in scores.items():
        mi = mi_of(table(bin_labels(values[i - 1], nu), bin_labels(values[j - 1], nu)))
        if abs(mi - score) > MI_ATOL + 1e-9 * mi:
            problems.append(f"{label} MI {i}-{j}: {score!r}, expected {mi!r}")
    return problems


def check_principals(subgraphs, dependent, label) -> list[str]:
    """Principal subgraphs are complete and no edge joins two of them.

    ``dependent(i, j)`` is True for an edge, False for a tested independent
    pair and None for a pair the program never tested.
    """
    problems = []
    for s in subgraphs:
        for i, j in itertools.combinations(sorted(s), 2):
            if dependent(i, j) is not True:
                problems.append(f"{label}: principal subgraph {sorted(s)} lacks edge {i}-{j}")
    for s, t in itertools.combinations(subgraphs, 2):
        for i, j in itertools.product(s, t):
            if dependent(i, j) is not False:
                problems.append(f"{label}: principal subgraphs joined at {i}-{j}")
    return problems


def check_cuts(removals, edges, label) -> list[str]:
    """Each removed cut has the size of its component's vertex connectivity."""
    graph = nx.Graph(edges)
    problems = []
    for step, nodes, component in removals:
        expected = nx.node_connectivity(graph.subgraph(component))
        if len(nodes) != expected:
            problems.append(
                f"{label} removal {step}: cut of {len(nodes)} nodes, connectivity {expected}"
            )
    return problems


def check_recall(found, bases, floor, label) -> list[str]:
    recovered = len(set(found) & set(bases))
    if recovered < floor:
        return [f"{label}: recovered {recovered} of {len(bases)} bases, floor {floor}"]
    return []
