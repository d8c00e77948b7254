"""The three workloads: how each makes its input, runs, and is checked.

Every input is a product DAG from ``pfa.synth`` (derived rows are products
of 2-3 base rows).  The DAG shapes are fixed; ``--seed`` draws the data
points, so each seed is a new sample of the same problem.  Functions are
looked up on the ``pfa`` modules at call time so the tracer's wrappers are
the ones called.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import pfa
import pfa.cli

import checks

DAG_SEED = 7
P_SAMPLE = 200  # reported pair tests recomputed per analysis
MI_SAMPLE = 20


@dataclass
class Workload:
    name: str
    setup: Callable[[int, str], dict]
    op: Callable[[dict], object]
    check: Callable[[dict, object, np.random.Generator], list[str]]
    fingerprint: Callable[[dict, object], str]
    extra_metrics: Callable[[dict, dict], dict]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _with_output(values: np.ndarray, a: int, b: int) -> pfa.Dataset:
    """Prepend y = [x_a + x_b / sqrt(10) >= 4] (the example4 rule) as row 1."""
    y = (values[a] + values[b] * 10.0**-0.5 >= 4.0).astype(np.float64)
    return pfa.Dataset(np.vstack([y, values]), n_outputs=1)


def _dag_data(n_base, n_derived, n_points, seed) -> np.ndarray:
    dag = pfa.random_dag(n_base, n_derived, seed=DAG_SEED)
    return pfa.generate(pfa.SynthSpec("custom", n_points, seed=seed, dag=dag)).values


def _no_extra(inputs, metrics) -> dict:
    return {"dataset.load_mb_per_s": 0.0, "cli.report_mb": 0.0}


def _principal_problems(result, label) -> list[str]:
    def dependent(i, j):
        verdict = result.cache.cached(i, j)
        return None if verdict is None else not verdict.independent

    return checks.check_principals(result.principal_subgraphs, dependent, label)


def _lost_parents(parents, principal_sets, selected) -> list[int]:
    """Output parents principal in every analysis but missing from the selection.

    Dissection may remove a parent base and keep a product of it in its
    place; such a parent is not expected back.
    """
    return sorted(
        p for p in parents if all(p in s for s in principal_sets) and p not in selected
    )


def _mi_problems(result, values, nu, rng, label) -> list[str]:
    keys = sorted(result.cache.verdicts)
    picked = rng.choice(len(keys), size=min(MI_SAMPLE, len(keys)), replace=False)
    scores = {}
    for index in picked:
        i, j = keys[index]
        scores[(i, j)] = pfa.mutual_information(result.discretized[i], result.discretized[j])
    return checks.check_mi(values, nu, scores, label)


# --- wide-cli: `pfa run` from CSV to report files -------------------------

WIDE = dict(n_base=50, n_derived=450, n_points=5000, nu=250, ns=50, alpha=1e-3, theta=0.005)
WIDE_RECALL_FLOOR = 45
WIDE_PARENTS = (2, 3)  # rows of bases 0 and 1, which define the output


def wide_setup(seed: int, work: str) -> dict:
    values = _dag_data(WIDE["n_base"], WIDE["n_derived"], WIDE["n_points"], seed)
    ds = _with_output(values, 0, 1)
    path = os.path.join(work, "wide-cli.csv")
    pfa.save_csv(ds, path)
    return {"values": ds.values, "csv": path, "out": os.path.join(work, "wide-cli")}


def wide_op(inputs: dict) -> None:
    argv = ["run", "--input", inputs["csv"], "--n-outputs", "1",
            "--nu", str(WIDE["nu"]), "--ns", str(WIDE["ns"]),
            "--alpha", str(WIDE["alpha"]), "--theta", str(WIDE["theta"]),
            "--out", inputs["out"]]
    code = pfa.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"pfa run exited with {code}")


def _wide_files(inputs):
    with open(inputs["out"] + ".features.txt", "rb") as fh:
        features = fh.read()
    with open(inputs["out"] + ".report.json", "rb") as fh:
        report = fh.read()
    return features, report


def wide_fingerprint(inputs, output) -> str:
    return _digest(*_wide_files(inputs))


class _Verdict:
    def __init__(self, test):
        self.chi2 = test["chi2"]
        self.dof = test["dof"]
        self.p_value = test["p_value"]
        self.independent = test["independent"]


def wide_check(inputs, output, rng) -> list[str]:
    features, raw = _wide_files(inputs)
    report = json.loads(raw)
    values, nu = inputs["values"], WIDE["nu"]
    problems = []
    listed = [int(line) for line in features.decode().split()]
    if listed != report["selected_features"]:
        problems.append("features.txt differs from report.json selected_features")
    tests = {tuple(t["pair"]): _Verdict(t) for t in report["graph"]["tests"]}
    principals = [frozenset(s) for s in report["principal_subgraphs"]]
    missing = _lost_parents(WIDE_PARENTS, [frozenset().union(*principals)], listed)
    if missing:
        problems.append(f"principal output parents {missing} not selected")

    def dependent(i, j):
        verdict = tests.get((min(i, j), max(i, j)))
        return None if verdict is None else not verdict.independent

    problems += checks.check_principals(principals, dependent, "wide-cli")
    bases = range(2, WIDE["n_base"] + 2)
    problems += checks.check_recall(
        frozenset().union(*principals), bases, WIDE_RECALL_FLOOR, "wide-cli"
    )
    problems += checks.check_tests(values, nu, WIDE["alpha"], tests, rng, P_SAMPLE, "wide-cli")
    scores = {
        (int(f), int(o)): s
        for f, by_output in report["mi_scores"].items()
        for o, s in by_output.items()
    }
    problems += checks.check_mi(values, nu, scores, "wide-cli")
    return problems


def wide_extra(inputs, metrics) -> dict:
    size = os.path.getsize(inputs["csv"]) / 1e6
    load = metrics["dataset.load_csv_s"]
    return {
        "dataset.load_mb_per_s": size / load if load else 0.0,
        "cli.report_mb": os.path.getsize(inputs["out"] + ".report.json") / 1e6,
    }


# --- deep-cut: one unbatched dissection of a 150-node graph -----------------

# alpha is small enough that no independent pair is rejected by chance, so
# every seed gives the same graph and the same dissection work
DEEP = dict(n_base=20, n_derived=130, n_points=5000, nu=250, alpha=1e-6)
DEEP_RECALL_FLOOR = 20


def deep_config() -> pfa.PfaConfig:
    n = DEEP["n_base"] + DEEP["n_derived"]
    return pfa.PfaConfig(nu=DEEP["nu"], ns=n, alpha=DEEP["alpha"])


def deep_setup(seed: int, work: str) -> dict:
    values = _dag_data(DEEP["n_base"], DEEP["n_derived"], DEEP["n_points"], seed)
    return {"ds": pfa.Dataset(values, n_outputs=0)}


def deep_op(inputs):
    return pfa.run_pfa(inputs["ds"], deep_config())


def _analysis_fingerprint(result) -> str:
    removals = [(r.step, sorted(r.nodes), sorted(r.from_component)) for r in result.removed]
    return _digest(sorted(map(sorted, result.principal_subgraphs)), removals)


def deep_fingerprint(inputs, result) -> str:
    return _analysis_fingerprint(result)


def deep_check(inputs, result, rng) -> list[str]:
    values, nu = inputs["ds"].values, DEEP["nu"]
    edges = [key for key, v in result.cache.verdicts.items() if not v.independent]
    removals = [(r.step, r.nodes, r.from_component) for r in result.removed]
    problems = checks.check_cuts(removals, edges, "deep-cut")
    problems += _principal_problems(result, "deep-cut")
    problems += checks.check_recall(
        result.principal_features, range(1, DEEP["n_base"] + 1), DEEP_RECALL_FLOOR, "deep-cut"
    )
    problems += checks.check_tests(
        values, nu, DEEP["alpha"], result.cache.verdicts, rng, P_SAMPLE, "deep-cut"
    )
    problems += _mi_problems(result, values, nu, rng, "deep-cut")
    return problems


# --- tall-robust: subsample intersection on 100,000 points ------------------

TALL = dict(n_base=20, n_derived=80, n_points=100_000, nu=2000, alpha=1e-3,
            runs=3, fraction=0.9)
TALL_RECALL_FLOOR = 18
TALL_PARENTS = (2, 3)


def tall_config() -> pfa.PfaConfig:
    return pfa.PfaConfig(nu=TALL["nu"], alpha=TALL["alpha"])


def tall_setup(seed: int, work: str) -> dict:
    values = _dag_data(TALL["n_base"], TALL["n_derived"], TALL["n_points"], seed)
    return {"ds": _with_output(values, 0, 1)}


def tall_op(inputs):
    return pfa.robust_intersection(
        inputs["ds"], tall_config(), runs=TALL["runs"], fraction=TALL["fraction"]
    )


def tall_fingerprint(inputs, output) -> str:
    common, results = output
    return _digest(sorted(common), [_analysis_fingerprint(r) for r in results])


def _subsample_problems(ds, sample, label) -> list[str]:
    """The sample is round(fraction * n) distinct columns in their original order."""
    first = ds.values[1]  # base row 2: distinct values identify the columns
    order = np.argsort(first)
    pos = order[np.searchsorted(first, sample.values[1], sorter=order)]
    size = int(round(TALL["fraction"] * ds.n_points))
    if (
        sample.n_points != size
        or not np.all(np.diff(pos) > 0)
        or not np.array_equal(ds.values[:, pos], sample.values)
    ):
        return [f"{label}: subsample is not {size} ordered columns of the input"]
    return []


def tall_check(inputs, output, rng) -> list[str]:
    ds, nu = inputs["ds"], TALL["nu"]
    common, results = output
    problems = []
    missing = _lost_parents(TALL_PARENTS, [r.principal_features for r in results], common)
    if missing:
        problems.append(f"tall-robust: principal output parents {missing} not in the intersection")
    if len(results) != TALL["runs"]:
        problems.append(f"tall-robust: {len(results)} runs, expected {TALL['runs']}")
    relevant = frozenset.intersection(*(r.relevant_features for r in results))
    if relevant != common:
        problems.append("tall-robust: intersection differs from the runs' relevant sets")
    bases = range(2, TALL["n_base"] + 2)
    for run, result in enumerate(results):
        label = f"tall-robust run {run}"
        sample = pfa.subsample(ds, TALL["fraction"], tall_config().seed + run)
        problems += _subsample_problems(ds, sample, label)
        problems += _principal_problems(result, label)
        problems += checks.check_recall(
            result.principal_features, bases, TALL_RECALL_FLOOR, label
        )
        problems += checks.check_tests(
            sample.values, nu, TALL["alpha"], result.cache.verdicts, rng,
            P_SAMPLE // TALL["runs"], label,
        )
        problems += _mi_problems(result, sample.values, nu, rng, label)
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wide-cli", wide_setup, wide_op, wide_check, wide_fingerprint, wide_extra),
        Workload("deep-cut", deep_setup, deep_op, deep_check, deep_fingerprint, _no_extra),
        Workload("tall-robust", tall_setup, tall_op, tall_check, tall_fingerprint, _no_extra),
    )
}
