"""A fixed reference kernel that never touches pfa: its time tracks host speed.

It mixes the kinds of work the pipeline does -- dict-of-dict graph
searches, small contingency tables through NumPy, float parsing and
printing, and one sort of a long array -- in roughly the proportions the
workloads spend on them, so a host period that slows the workloads slows
the kernel alike.  Its inputs are built once per process.
"""

from __future__ import annotations

import math
import random
import time
from collections import deque

import numpy as np


class ReferenceKernel:
    def __init__(self):
        rng = random.Random(0)
        n = 150
        self.graph = [dict() for _ in range(n)]
        for u in range(n):
            for v in rng.sample(range(n), 20):
                if v != u:
                    self.graph[u][v] = 1
                    self.graph[v][u] = 1
        gen = np.random.default_rng(0)
        self.codes = gen.integers(0, 20, size=(40, 5000))
        self.texts = [repr(x) for x in (gen.random(20_000) * 5.0).tolist()]
        self.long = gen.random(100_000)

    def _searches(self) -> None:
        graph = self.graph
        for source in range(0, 150, 3):
            parent = {source: None}
            queue = deque([source])
            while queue:
                u = queue.popleft()
                for v, c in graph[u].items():
                    if c > 0 and v not in parent:
                        parent[v] = u
                        queue.append(v)

    def _tables(self) -> None:
        codes = self.codes
        for i in range(len(codes)):
            for j in range(i + 1, i + 6):
                a, b = codes[i], codes[j % len(codes)]
                observed = np.bincount(a * 20 + b, minlength=400).reshape(20, 20).astype(float)
                expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / a.size
                math.fsum(((observed - expected) ** 2 / expected).ravel())

    def _text(self) -> None:
        values = [float(t) for t in self.texts]
        ",".join(repr(v) for v in values)

    def __call__(self) -> float:
        """Seconds for one pass."""
        started = time.perf_counter()
        self._searches()
        self._tables()
        self._text()
        np.argsort(self.long, kind="stable")
        return time.perf_counter() - started
