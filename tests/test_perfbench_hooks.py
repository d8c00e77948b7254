"""The benchmark's tracer patches pfa functions by name and its workloads read
the verdict cache; a rename of either fails here, not only in a benchmark run.
"""

import ast
import functools
import importlib.util
import sys
from pathlib import Path

import pfa
import pfa.cli  # noqa: F401  (the tracer patches every layer, cli included)
from pfa.analysis import PfaConfig, analyze
from pfa.depgraph import IndependenceCache
from pfa.synth import SynthSpec, generate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PERFBENCH = TRACING.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every attribute of every pfa module and of the verdict cache class."""
    owners = [m for n, m in sys.modules.items() if n == "pfa" or n.startswith("pfa.")]
    owners.append(IndependenceCache)
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_tracer_counts_the_cache_tests_and_restores_every_binding():
    tracing = load_tracing()
    ds = generate(SynthSpec("example4", 2000, seed=0))
    before = bindings()
    with tracing.Tracer() as tracer:
        patched = {(id(owner), attr) for owner, attr, _ in tracer._patched}
        assert patched, "the tracer patched nothing"
        # every name the tracer lists still resolves in its layer module
        for layer, names in tracing.LAYERS.items():
            home = sys.modules[f"pfa.{layer}"]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                assert (id(owner), attr) in patched, f"{layer}.{name} not patched"
        result = analyze(ds, PfaConfig(nu=50, theta=0.01))
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    cache = result.cache
    assert tracer.caches == [cache]
    metrics = tracing.layer_metrics(tracer)
    assert cache.test_calls > 0
    assert metrics["stats.pair_tests"] == cache.test_calls == len(cache.verdicts)
    assert metrics["analysis.passes"] >= 1
    assert metrics["analysis.filter_by_mi_s"] > 0.0
    i, j = next(iter(cache.verdicts))
    assert cache.cached(j, i) is cache.verdicts[(i, j)]


def pfa_chains(tree) -> set[str]:
    """Every ``pfa.<name>...`` attribute chain in a module, its prefixes too."""
    chains = set()
    for node in ast.walk(tree):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if names and isinstance(node, ast.Name) and node.id == "pfa":
            chains.add(".".join(["pfa", *reversed(names)]))
    return chains


def test_every_name_the_benchmark_reads_from_the_package_resolves():
    chains = set().union(*(pfa_chains(ast.parse(p.read_text())) for p in PERFBENCH.glob("*.py")))
    assert {"pfa.subsample", "pfa.analysis._partition", "pfa.depgraph.IndependenceCache"} <= chains
    for chain in sorted(chains):
        functools.reduce(getattr, chain.split(".")[1:], pfa)  # AttributeError names it
    # the workloads and run.py read the cache of a result
    for attr in ("cached", "test_calls", "verdict"):
        assert hasattr(IndependenceCache, attr), attr
    assert pfa.__all__ == sorted(set(pfa.__all__))
    for name in pfa.__all__:
        getattr(pfa, name)
