"""Batched principal feature analysis and the downstream filtering steps.

The driver discretizes every variable, drops constants, partitions the
feature nodes into sublists of at most ``ns`` nodes, dissects each
sublist's dependency graph, and repeats on the survivors until a pass
holds them all in a single sublist: that pass is the final dissection, and
it comes next after any pass of several sublists that removes nothing.
All pairwise verdicts live in one shared cache, so no pair is ever tested
twice.  ``analyze`` chains the driver with the relevance and MI filters,
and ``analyze_binned`` does so on binned rows.  ``robust_intersection`` ranks
each row once, and ``robust_ranked`` bins each subsample from those ranks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

from .binning import DiscretizedFeature, discretize_all, discretize_ranks, rank_rows
from .dataset import (
    Dataset,
    check_integer,
    check_n_outputs,
    check_range,
    subsample_columns,
    subsample_size,
)
from .depgraph import IndependenceCache, build_graph
from .dissect import Removal, dissect
from .stats import MIN_EXPECTED, guard_failures, mutual_information

BATCHING_MODES = ("ordered", "random")


def _check_theta_value(theta) -> None:
    check_range("theta", theta, lambda t: t >= 0.0, ">= 0")
    # an infinite threshold selects nothing, and JSON cannot write it
    check_range("theta", theta, math.isfinite, "finite")


@dataclass(frozen=True)
class PfaConfig:
    """Run parameters.  ``nu`` has no default: it is dataset-dependent."""

    nu: int
    alpha: float = 0.01
    ns: int = 50
    batching: str = "ordered"
    seed: int = 0
    tie_seed: int | None = None
    theta: float | None = None

    def __post_init__(self):
        for name, least in (("nu", 1), ("ns", 2), ("seed", 0)):
            check_integer(name, getattr(self, name), least)
        if self.tie_seed is not None:  # any integer, negative too, seeds random.Random
            check_integer("tie_seed", self.tie_seed, None)
        check_range("alpha", self.alpha, lambda a: 0.0 < a < 1.0, "in (0, 1)")
        if self.batching not in BATCHING_MODES:
            raise ValueError(
                f"batching must be one of {BATCHING_MODES}, got {self.batching!r}"
            )
        if self.theta is not None:
            _check_theta_value(self.theta)


@dataclass(frozen=True)
class PfaResult:
    """Principal subgraphs plus the removal log and optional filtered sets.

    Results are immutable: each filter returns a new result that shares the
    cache and the discretization of its input.
    """

    principal_subgraphs: list[frozenset[int]]
    removed: list[Removal]
    constants: list[int]
    warnings: list[str]
    cache: IndependenceCache = field(repr=False)
    discretized: dict[int, DiscretizedFeature] = field(repr=False)
    n_outputs: int
    relevant_features: frozenset[int] | None = None
    mi_scores: dict[int, dict[int, float]] | None = None
    theta_selected: frozenset[int] | None = None

    @property
    def principal_features(self) -> frozenset[int]:
        return frozenset().union(*self.principal_subgraphs)

    def selected_features(self) -> frozenset[int]:
        """The most reduced feature set this result carries."""
        if self.theta_selected is not None:
            return self.theta_selected
        if self.relevant_features is not None:
            return self.relevant_features
        return self.principal_features


def _partition(nodes: list[int], ns: int, batching: str, rng: random.Random):
    ordered = sorted(nodes)
    if batching == "random":
        rng.shuffle(ordered)
    return [ordered[i : i + ns] for i in range(0, len(ordered), ns)]


def _run_warnings(discretized: dict[int, DiscretizedFeature], nu: int) -> list[str]:
    """A line per single-bin variable, then one if any testable pair fails the guard."""
    warnings = [
        f"variable {i} is not constant but has a single bin at nu={nu}, "
        f"so it is not tested; consider decreasing nu"
        for i, d in discretized.items()
        if not d.testable and not d.is_constant
    ]
    smallest = {i: int(d.bin_counts.min()) for i, d in discretized.items() if d.testable}
    n, pairs = discretized[1].n_points, len(smallest) * (len(smallest) - 1) // 2
    if failing := guard_failures(list(smallest.values()), n):
        least = min(smallest.values())
        holders = [i for i, s in smallest.items() if s == least]
        warnings.append(
            f"expected frequency below {MIN_EXPECTED} in {failing} of {pairs} variable "
            f"pairs at n={n}, nu={nu}: the smallest bin holds {least} points in "
            f"{len(holders)} variables, first {holders[:5]}; consider increasing nu to "
            f"{math.ceil(math.sqrt(MIN_EXPECTED * n))}, which clears every pair"
        )
    return warnings


def _check_nu(nu: int, n_points: int) -> None:
    # a variable gets a second bin only from 2 * nu points on
    if n_points < 2 * nu:
        raise ValueError(
            f"nu={nu} leaves every variable a single bin: "
            f"n_points={n_points} is below 2 * nu"
        )


def run_pfa(ds: Dataset, cfg: PfaConfig) -> PfaResult:
    """Execute the batched analysis over the dataset's feature rows.

    Passes repeat until one holds all remaining nodes in a single sublist.
    After a pass of several sublists that removes nothing, the next one does.
    A ``nu`` above half the point count is refused, since no variable could
    then be tested.  A variable that is not constant but gets a single bin
    is left untested like a constant, with a warning.
    """
    _check_nu(cfg.nu, ds.n_points)
    return _run_binned(discretize_all(ds, cfg.nu), ds.n_outputs, cfg)


def _run_binned(
    disc_rows: list[DiscretizedFeature], n_outputs: int, cfg: PfaConfig
) -> PfaResult:
    """``run_pfa`` on rows already binned, outputs first."""
    discretized = {i + 1: d for i, d in enumerate(disc_rows)}
    feature_ids = range(n_outputs + 1, len(disc_rows) + 1)
    constants = [i for i in feature_ids if not discretized[i].testable]
    nodes = [i for i in feature_ids if discretized[i].testable]
    cache = IndependenceCache(discretized, cfg.alpha)

    removals: list[Removal] = []
    rng = random.Random(cfg.seed)
    current, ns = nodes, cfg.ns
    while True:
        sublists = _partition(current, ns, cfg.batching, rng)
        removed_before = len(removals)
        subgraphs: list[frozenset[int]] = []
        for sublist in sublists:
            result = dissect(build_graph(cache, sublist), cfg.tie_seed)
            removals.extend(result.removals)
            subgraphs.extend(result.complete_subgraphs)
        # a pass over a single sublist dissected the whole remaining graph
        if len(sublists) <= 1:
            break
        if len(removals) == removed_before:
            ns = len(current)
        current = [node for subgraph in subgraphs for node in subgraph]

    return PfaResult(
        principal_subgraphs=subgraphs,
        removed=[replace(r, step=step) for step, r in enumerate(removals, 1)],
        constants=constants,
        warnings=_run_warnings(discretized, cfg.nu),
        cache=cache,
        discretized=discretized,
        n_outputs=n_outputs,
    )


def filter_relevant(result: PfaResult) -> PfaResult:
    """Keep whole principal subgraphs with any member related to any output.

    A subgraph enters the relevant set as a unit: when one member is not
    independent of one output, every member is included.  Pairs are tested
    through the result's cache, under the settings of its run.
    """
    if result.n_outputs < 1:
        raise ValueError("relevance filtering needs at least one output row")
    relevant: set[int] = set()
    for subgraph in result.principal_subgraphs:
        related = any(
            not result.cache.verdict(member, output).independent
            for member in sorted(subgraph)
            for output in range(1, result.n_outputs + 1)
        )
        if related:
            relevant.update(subgraph)
    return replace(result, relevant_features=frozenset(relevant))


def filter_by_mi(result: PfaResult, theta: float) -> PfaResult:
    """Relevant features whose MI with an output exceeds theta, as a new result.

    Scores on the result's bins are recorded per feature and output; a
    feature passes on its maximum score across outputs.  Unlike relevance
    filtering this selects individual features, not whole subgraphs.  The
    kept set is the new result's ``theta_selected``.
    """
    if result.relevant_features is None:
        raise ValueError("run filter_relevant before filter_by_mi")
    _check_theta_value(theta)
    scores: dict[int, dict[int, float]] = {}
    selected = set()
    for feature in sorted(result.relevant_features):
        scores[feature] = {
            output: mutual_information(
                result.discretized[feature], result.discretized[output]
            )
            for output in range(1, result.n_outputs + 1)
        }
        if max(scores[feature].values()) > theta:
            selected.add(feature)
    return replace(result, mi_scores=scores, theta_selected=frozenset(selected))


def _check_theta(n_outputs: int, cfg: PfaConfig) -> None:
    if cfg.theta is not None and n_outputs < 1:
        raise ValueError("theta needs at least one output row")


def _filter(result: PfaResult, cfg: PfaConfig) -> PfaResult:
    if result.n_outputs >= 1:
        result = filter_relevant(result)
        if cfg.theta is not None:
            result = filter_by_mi(result, cfg.theta)
    return result


def analyze(ds: Dataset, cfg: PfaConfig) -> PfaResult:
    """The whole pipeline: dissection, relevance to the outputs, MI threshold.

    Relevance filtering runs when the dataset has an output row, and the MI
    threshold when ``cfg.theta`` is set; ``selected_features()`` of the
    result is the final selection.
    """
    _check_theta(ds.n_outputs, cfg)
    return _filter(run_pfa(ds, cfg), cfg)


def analyze_binned(disc_rows: list[DiscretizedFeature], n_outputs: int, cfg: PfaConfig):
    """``analyze`` on rows already binned by ``discretize``, outputs first."""
    check_n_outputs(n_outputs, len(disc_rows))
    _check_theta(n_outputs, cfg)
    _check_nu(cfg.nu, disc_rows[0].n_points)
    return _filter(_run_binned(disc_rows, n_outputs, cfg), cfg)


def explain_feature(result: PfaResult, target: int) -> frozenset[int]:
    """Principal features not independent of the target variable.

    Missing pairwise verdicts are computed on demand through the shared
    cache.  For a target that is itself principal, this returns the other
    members of its own subgraph (and any further related principals).
    """
    if target not in result.discretized:
        raise ValueError(f"unknown variable id {target}")
    if not result.discretized[target].testable:
        return frozenset()
    others = [feature for feature in sorted(result.principal_features) if feature != target]
    verdicts = result.cache.compute_pairs([(target, feature) for feature in others])
    return frozenset(f for f, verdict in zip(others, verdicts) if not verdict.independent)


def robust_intersection(
    ds: Dataset, cfg: PfaConfig, runs: int, fraction: float
) -> tuple[frozenset[int], list[PfaResult]]:
    """Intersect feature sets over repeated runs on random subsamples.

    Per-run seeds are cfg.seed + run index.  Each run equals one ``analyze``
    of ``subsample(ds, fraction, seed)``, and the runs' ``selected_features()``
    are intersected.  Every row is ranked once, and each run bins its
    columns from those ranks: the call holds a ``uint32`` rank per input
    cell, and copies no subsample.  Arguments that no subsample can make
    valid raise ``ValueError`` before anything is ranked; an error inside
    a run propagates as raised.
    """
    _check_robust(ds.n_rows, ds.n_outputs, ds.n_points, cfg, runs, fraction)
    return robust_ranked(rank_rows(ds.values), ds.n_outputs, cfg, runs, fraction)


def robust_ranked(ranks, n_outputs: int, cfg: PfaConfig, runs: int, fraction: float):
    """``robust_intersection`` on rows already ranked by ``rank_rows``, outputs first."""
    n_points = len(ranks[0])
    _check_robust(len(ranks), n_outputs, n_points, cfg, runs, fraction)
    results = []
    for seed in range(cfg.seed, cfg.seed + runs):
        keep = subsample_columns(n_points, fraction, seed)
        disc_rows = [discretize_ranks(row[keep], cfg.nu) for row in ranks]
        results.append(analyze_binned(disc_rows, n_outputs, replace(cfg, seed=seed)))
    common = frozenset.intersection(*(r.selected_features() for r in results))
    return common, results


def _check_robust(n_rows, n_outputs, n_points, cfg, runs, fraction) -> None:
    """Refuse the arguments that no subsample can make valid."""
    check_integer("runs", runs, 1)
    check_n_outputs(n_outputs, n_rows)
    _check_theta(n_outputs, cfg)
    # every run's sample has this one size, so it settles fraction and nu
    _check_nu(cfg.nu, subsample_size(n_points, fraction))
