"""Deterministic synthetic datasets for testing and benchmarking.

The built-in scenarios draw base variables i.i.d. uniform on [0, 5] and
derive the remaining rows exactly:

  example1: x1,x2,x3 independent; x4 = 2*x1*x2*x3, x5 = x1*x2 (no output)
  example2: x1,x2 independent; x3 = x1*x2; output y = [x1 >= median(x1)]
  example3: chain x6 = x1*x2, x7 = x2*x3, x8 = x3*x4, x9 = x4*x5 with x2
            and x4 unmeasured; emitted rows are x1,x3,x5,x6,x7,x8,x9
  example4: x1,x2 independent; output y = [x1 + x2*10**-0.5 >= 4]
  custom:   a product DAG described by a DagSpec

The example2 threshold is the median of x1, which balances the output
classes; the base range [0, 5] applies to every scenario.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, check_integer

SCENARIOS = ("example1", "example2", "example3", "example4", "custom")

BASE_RANGE = (0.0, 5.0)


@dataclass(frozen=True)
class DagSpec:
    """Product DAG: derived feature i is the product of its base parents."""

    n_base: int
    derived: tuple[tuple[int, ...], ...]  # 0-based base indices per derived row

    def __post_init__(self):
        check_integer("n_base", self.n_base, 1)
        for parents in self.derived:
            if not parents:
                raise ValueError("derived feature needs at least one parent")
            for p in parents:
                check_integer("parent index", p, 0)
            if any(p >= self.n_base for p in parents):
                raise ValueError(f"parent indices out of range: {parents}")


@dataclass(frozen=True)
class SynthSpec:
    scenario: str
    n_points: int
    seed: int
    dag: DagSpec | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}"
            )
        check_integer("n_points", self.n_points, 1)
        check_integer("seed", self.seed, 0)
        if self.scenario == "custom" and self.dag is None:
            raise ValueError("custom scenario needs a DagSpec")


def _uniform_bases(rng, count: int, n: int) -> np.ndarray:
    low, high = BASE_RANGE
    return rng.uniform(low, high, size=(count, n))


def generate(spec: SynthSpec) -> Dataset:
    """Build the scenario's dataset; identical for identical specs."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_points

    if spec.scenario == "example1":
        x1, x2, x3 = _uniform_bases(rng, 3, n)
        x4 = 2.0 * x1 * x2 * x3
        x5 = x1 * x2
        return Dataset(np.vstack([x1, x2, x3, x4, x5]), n_outputs=0)

    if spec.scenario == "example2":
        x1, x2 = _uniform_bases(rng, 2, n)
        x3 = x1 * x2
        y = (x1 >= np.median(x1)).astype(np.float64)
        return Dataset(np.vstack([y, x1, x2, x3]), n_outputs=1)

    if spec.scenario == "example3":
        x1, x2, x3, x4, x5 = _uniform_bases(rng, 5, n)
        x6 = x1 * x2
        x7 = x2 * x3
        x8 = x3 * x4
        x9 = x4 * x5
        return Dataset(np.vstack([x1, x3, x5, x6, x7, x8, x9]), n_outputs=0)

    if spec.scenario == "example4":
        x1, x2 = _uniform_bases(rng, 2, n)
        y = (x1 + x2 * 10.0**-0.5 >= 4.0).astype(np.float64)
        return Dataset(np.vstack([y, x1, x2]), n_outputs=1)

    # one matrix, each derived row multiplied in place: left to right, as
    # np.prod of its parents' rows would, so the bytes are np.prod's
    dag = spec.dag
    values = np.empty((dag.n_base + len(dag.derived), n))
    values[: dag.n_base] = _uniform_bases(rng, dag.n_base, n)
    for row, (first, *rest) in zip(values[dag.n_base :], dag.derived):
        row[:] = values[first]
        for parent in rest:
            np.multiply(row, values[parent], out=row)
    return Dataset(values, n_outputs=0)


def random_dag(n_base: int, n_derived: int, seed: int, max_parents: int = 3) -> DagSpec:
    """Random product DAG whose derived rows have 2..max_parents base parents."""
    check_integer("n_base", n_base, 1)
    check_integer("n_derived", n_derived, 0)
    check_integer("max_parents", max_parents, 2)
    if max_parents > n_base:
        raise ValueError(f"max_parents must be <= n_base={n_base}, got {max_parents}")
    rng = random.Random(seed)
    derived = tuple(
        tuple(sorted(rng.sample(range(n_base), rng.randint(2, max_parents))))
        for _ in range(n_derived)
    )
    return DagSpec(n_base, derived)
