"""Benchmark of the pfa pipeline: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload wide-cli --seed 1 --seconds 25 --trace 0

Set-up makes the input from the seed (several times; the median is
``setup_s``).  The workload's operation then repeats for ``--seconds``, at
least three times, and its median wall and CPU time are reported.  Before
each operation a fixed reference kernel is timed, so a slow period of the
host shows in the printed ``ref_kernel_ms``.  The first operation's output
is checked against independent recomputations (see ``checks.py``; the check
does not count toward ``--seconds``) and every later output must be
identical to it.

With ``--trace 1`` untraced and traced operations alternate; the traced ones
give the per-layer numbers, and each is compared with the untraced ones on
either side for the tracing overhead.  Spans are written to
``perfbench/work/<workload>-<seed>.spans.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys

# one thread for BLAS and OpenMP, fixed before NumPy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import resource
import statistics
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK = os.path.join(HERE, "work")

MIN_OPS = 3
SETUP_REPS = 3  # at least; cheap set-ups repeat until SETUP_MIN_S has passed
SETUP_MIN_S = 1.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _unit(name: str) -> str:
    for suffix, unit in (("_mb_per_s", "MB/s"), ("_s", "s"), ("_us", "us"), ("_ms", "ms"),
                         ("_mb", "MB"), ("_pct", "%"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "pfa")):
        print(f"perfbench: no pfa sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import pfa.cli  # noqa: F401  (loads every pfa module before the check below)

    leaked = {"scipy", "networkx"} & set(sys.modules)
    if leaked:
        print(f"perfbench: pfa imports {sorted(leaked)}", file=sys.stderr)
        return 2
    import numpy as np

    import tracing
    from reference import ReferenceKernel
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    traced = bool(args.trace)
    tracer = tracing.Tracer()
    reference_kernel = ReferenceKernel()

    # set-up: the median of several builds of the same input
    setup_times, save_times = [], []
    while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S:
        gc.collect()
        tracer.reset()
        started = time.perf_counter()
        with tracer if traced else contextlib.nullcontext():
            inputs = workload.setup(args.seed, WORK)
        setup_times.append(time.perf_counter() - started)
        save_times.append(tracing.layer_metrics(tracer)["dataset.save_csv_s"])

    walls, cpus, refs = [], [], []
    layer_runs, spans_out = [], []
    sequence = []  # (traced, wall) of each operation that ran to its end
    attempted = failed = 0
    problems: list[str] = []
    first_print = None
    check_s = 0.0  # checking the first output does not count as measuring
    loop_start = time.perf_counter()
    # with --trace 1 the operations go untraced, traced, ..., untraced
    while (time.perf_counter() - loop_start - check_s < args.seconds or attempted < MIN_OPS
           or (traced and attempted % 2 == 0)):
        use_tracer = traced and attempted % 2 == 1
        refs.append(reference_kernel())
        gc.collect()
        tracer.reset()
        attempted += 1
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            with tracer if use_tracer else contextlib.nullcontext():
                output = workload.op(inputs)
        except Exception:  # a failed operation is counted and the run goes on
            failed += 1
            traceback.print_exc()
            continue
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        stamp = workload.fingerprint(inputs, output)
        if first_print is None:
            first_print = stamp
            check_start = time.perf_counter()
            problems += workload.check(inputs, output, np.random.default_rng(args.seed))
            check_s = time.perf_counter() - check_start
        elif stamp != first_print:
            problems.append(f"operation {attempted} output differs from the first")
        del output
        sequence.append((use_tracer, wall))
        if not use_tracer:
            walls.append(wall)
            cpus.append(cpu)
            continue
        layers = tracing.layer_metrics(tracer)
        tests = sum(cache.test_calls for cache in tracer.caches)
        if tracer.caches and tests != layers["stats.pair_tests"]:
            problems.append(f"caches counted {tests} tests, the trace {layers['stats.pair_tests']}")
        layers.update(workload.extra_metrics(inputs, layers))
        layer_runs.append(layers)
        spans_out += tracing.spans_json(tracer.spans, attempted)

    # tracing overhead: each traced operation against the untraced ones around it
    gaps = [
        100.0 * (wall / ((before + after) / 2.0) - 1.0)
        for (t0, before), (t1, wall), (t2, after) in zip(sequence, sequence[1:], sequence[2:])
        if t1 and not t0 and not t2
    ]
    if not walls or (traced and not gaps):
        print(f"perfbench: {failed} of {attempted} operations failed", file=sys.stderr)
        return 1

    ref_ms = 1e3 * statistics.median(refs)
    if traced:
        metrics = {
            name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]
        }
        metrics["dataset.save_csv_s"] = statistics.median(save_times)
        metrics["trace.overhead_pct"] = statistics.median(gaps)
        metrics["trace.span_cost_us"] = 1e6 * tracing.span_cost()
        metrics["host.ref_kernel_ms"] = ref_ms
        path = os.path.join(WORK, f"{args.workload}-{args.seed}.spans.json")
        with open(path, "w") as fh:
            json.dump({"columns": ["op", "index", "name", "start", "end", "parent"],
                       "spans": spans_out}, fh)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_times),
        }
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations, "
          f"{failed} failed, {len(problems)} check failures")
    print(f"ref_kernel_ms {ref_ms:.3f} ms (median of {len(refs)})")
    units = END_TO_END if not traced else {name: _unit(name) for name in metrics}
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": not problems and failed < attempted,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
