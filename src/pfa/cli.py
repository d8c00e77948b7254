"""Command-line front end: CSV rows -> binned or ranked rows -> analysis -> reports.

``run`` analyzes the whole input once; ``robust`` analyzes random
subsamples and intersects their selections.  Neither builds the float
matrix: ``run`` bins and ``robust`` ranks each row of ``dataset.read_rows``
as it arrives.  Both build their ``PfaConfig`` from flags whose names and
defaults are the config's fields.  Every command is batch and deterministic:
identical flags produce byte-identical output files.  Timings go to stderr
only, so they never perturb the written artifacts.

Outputs of ``run`` and ``robust``:
  <out>.features.txt   selected 1-based row indices, ascending, one per line
  <out>.report.json    full reproduction record (config echo included)
The report encodes a set as its ascending list, a record as its fields in order.
``run``'s ``graph.tests`` is streamed row by row in ascending pair order, in
the bytes ``json.dump(indent=2)`` would write, so no object per test is built.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import fields, is_dataclass
from operator import attrgetter
from typing import get_type_hints

from . import analysis, binning, dataset, synth
from .stats import IndependenceVerdict

#: rows of ``graph.tests`` formatted per write
_ROWS_PER_WRITE = 4096
#: what follows ``graph.tests`` in a ``run`` report: the tests are the graph's
#: last field, and the graph the report's
_AFTER_TESTS = "\n  }\n}"


def _json_float(value: float) -> str:
    """A float as ``json.dumps(value, allow_nan=False)`` writes it."""
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


#: how ``json`` writes a scalar of each verdict field type
_JSON_SCALAR = {float: _json_float, int: int.__repr__, bool: ("false", "true").__getitem__}


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _encode(value):
    """``json.dump``'s hook: a set as its ascending list, a record as its fields."""
    if isinstance(value, frozenset):
        return sorted(value)
    if is_dataclass(value):
        return vars(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _config_echo(cfg: analysis.PfaConfig, args, **extra) -> dict:
    return {"input": args.input, "n_outputs": args.n_outputs, **_encode(cfg), **extra}


def _result_json(result: analysis.PfaResult) -> dict:
    return {
        "principal_subgraphs": result.principal_subgraphs,
        "removed": result.removed,
        "constants": result.constants,
        "relevant_features": result.relevant_features,
        "mi_scores": result.mi_scores,
        "selected_features": result.selected_features(),
        "warnings": result.warnings,
    }


def _graph_json(result: analysis.PfaResult) -> dict:
    """The graph's nodes and edges; ``_write_outputs`` streams its tests."""
    nodes = sorted(
        i for i, d in result.discretized.items() if d.testable and i > result.n_outputs
    )
    node_set = set(nodes)
    edges = sorted(
        [i, j] for (i, j), verdict in result.cache.verdicts.items()
        if not verdict.independent and i in node_set and j in node_set
    )
    return {"nodes": nodes, "edges": edges}


def _test_row_format() -> tuple[str, list]:
    """A ``graph.tests`` row's ``%`` template, and each verdict field's getter and encoder.

    The row is the pair followed by ``IndependenceVerdict``'s fields in
    order, indented as ``json.dump(indent=2)`` nests it in the report.
    """
    names = [f.name for f in fields(IndependenceVerdict)]
    hints = get_type_hints(IndependenceVerdict)
    template = (
        '\n      {\n        "pair": [\n          %d,\n          %d\n        ]'
        + "".join(f",\n        {json.dumps(name)}: %s" for name in names)
        + "\n      }"
    )
    return template, [(attrgetter(name), _JSON_SCALAR[hints[name]]) for name in names]


def _dump_run_report(fh, report: dict, verdicts: dict) -> None:
    """``report`` with ``graph.tests`` as a list of ``verdicts`` in pair order.

    ``json.dumps`` encodes the rest with an empty test list, whose place the
    rows then take, formatted a chunk at a time from the sorted pairs.
    """
    head = json.dumps(
        {**report, "graph": {**report["graph"], "tests": []}},
        indent=2, default=_encode, allow_nan=False,
    )
    assert head.endswith("[]" + _AFTER_TESTS), "graph.tests must end the report"
    pairs = sorted(verdicts)
    if not pairs:
        fh.write(head + "\n")
        return
    template, columns = _test_row_format()
    fh.write(head[: -len("[]" + _AFTER_TESTS)])
    opening = "["
    for start in range(0, len(pairs), _ROWS_PER_WRITE):
        chunk = pairs[start : start + _ROWS_PER_WRITE]
        found = [verdicts[pair] for pair in chunk]
        # column by column, i and j, then each field encoded, zipped into rows
        rows = zip(*zip(*chunk), *(map(encode, map(get, found)) for get, encode in columns))
        fh.write(opening + ",".join([template % row for row in rows]))
        opening = ","
    fh.write("\n    ]" + _AFTER_TESTS + "\n")


def _write_outputs(out_prefix: str, features, report: dict, verdicts=None) -> None:
    """``features.txt``, and ``report`` as ``json.dump(indent=2)`` writes it.

    Given a verdict cache's ``verdicts``, the report gets them as its last
    field, ``graph.tests``.  Non-finite floats are refused, as JSON has none.
    """
    with open(f"{out_prefix}.features.txt", "w", newline="\n") as fh:
        for index in sorted(features):
            fh.write(f"{index}\n")
    with open(f"{out_prefix}.report.json", "w", newline="\n") as fh:
        if verdicts is None:
            json.dump(report, fh, indent=2, default=_encode, allow_nan=False)
            fh.write("\n")
        else:
            _dump_run_report(fh, report, verdicts)


def _check_out(path: str) -> None:
    """Refuse an ``--out`` whose directory does not exist; a bare name is in ``.``."""
    out_dir = os.path.dirname(path) or "."
    if not os.path.isdir(out_dir):
        raise ValueError(f"--out directory {out_dir!r} does not exist")


def _build_config(args) -> analysis.PfaConfig:
    # checked before ingest, so a bad flag does not wait for a large input
    _check_out(args.out)
    if args.n_outputs < 0:
        raise ValueError(f"--n-outputs must be >= 0, got {args.n_outputs}")
    if args.theta is not None and args.n_outputs < 1:
        raise ValueError("--theta needs at least one output row (--n-outputs >= 1)")
    return analysis.PfaConfig(
        **{f.name: getattr(args, f.name) for f in fields(analysis.PfaConfig)}
    )


def _log_warnings(results) -> None:
    """Each distinct warning of the given results once, in first-seen order."""
    for warning in dict.fromkeys(w for result in results for w in result.warnings):
        _log(f"pfa: warning: {warning}")


def cmd_run(args) -> int:
    cfg = _build_config(args)
    disc_rows = [binning.discretize(row, cfg.nu) for row in dataset.read_rows(args.input)]
    started = time.perf_counter()
    result = analysis.analyze_binned(disc_rows, args.n_outputs, cfg)
    _log(f"pfa: analysis in {time.perf_counter() - started:.2f}s")
    report = {
        "config": _config_echo(cfg, args),
        **_result_json(result),
        "graph": _graph_json(result),
    }
    _write_outputs(args.out, result.selected_features(), report, result.cache.verdicts)
    _log_warnings([result])
    return 0


def cmd_robust(args) -> int:
    if args.runs < 1:
        raise ValueError(f"--runs must be >= 1, got {args.runs}")
    if not 0.0 < args.fraction <= 1.0:
        raise ValueError(f"--fraction must be in (0, 1], got {args.fraction}")
    cfg = _build_config(args)
    ranks = [binning.rank_rows(row[None])[0] for row in dataset.read_rows(args.input)]
    started = time.perf_counter()
    common, results = analysis.robust_ranked(ranks, args.n_outputs, cfg, args.runs, args.fraction)
    _log(f"pfa: {args.runs} runs in {time.perf_counter() - started:.2f}s")
    report = {
        "config": _config_echo(cfg, args, runs=args.runs, fraction=args.fraction),
        "intersection": common,
        "runs": [_result_json(result) for result in results],
    }
    _write_outputs(args.out, common, report)
    _log_warnings(results)
    return 0


def cmd_synth(args) -> int:
    _check_out(args.out)  # before the dataset is generated
    dataset.check_integer("--n", args.n, 1)  # names the flag, not SynthSpec's field
    spec = synth.SynthSpec(scenario=args.scenario, n_points=args.n, seed=args.seed)
    ds = synth.generate(spec)
    dataset.save_csv(ds, args.out)
    _log(f"pfa: wrote {ds.n_rows}x{ds.n_points} dataset to {args.out}")
    return 0


def _add_common_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="input CSV (rows=variables)")
    parser.add_argument(
        "--n-outputs", type=int, default=1, dest="n_outputs",
        help="leading rows that are output variables (default 1)",
    )
    parser.add_argument(
        "--nu", type=int, required=True,
        help="minimum points per bin; dataset-dependent, no default",
    )
    defaults = {f.name: f.default for f in fields(analysis.PfaConfig)}

    def config_flag(name: str, **kwargs) -> None:
        # one flag per PfaConfig field, with the field's name and default
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name, default=defaults[name], **kwargs)

    config_flag("ns", type=int, help="max nodes per subgraph (default %(default)s)")
    config_flag("alpha", type=float, help="significance level (default %(default)s)")
    config_flag("theta", type=float, help="MI threshold in nats (default %(default)s: off)")
    config_flag(
        "batching", choices=analysis.BATCHING_MODES,
        help="split features into sublists in row order or shuffled (default %(default)s)",
    )
    config_flag(
        "seed", type=int,
        help="seeds random batching and robust's subsamples, >= 0 (default %(default)s)",
    )
    config_flag(
        "tie_seed", type=int,
        help="any integer; breaks ties between equal cuts (default %(default)s: canonical)",
    )
    parser.add_argument("--out", required=True, help="output path prefix")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfa", description="Principal feature analysis over tabular data"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="single analysis over one dataset")
    _add_common_run_flags(run)
    run.set_defaults(func=cmd_run)

    robust = sub.add_parser("robust", help="intersect runs over random subsamples")
    _add_common_run_flags(robust)
    robust.add_argument(
        "--runs", type=int, default=5, help="subsampled runs, at least 1 (default %(default)s)"
    )
    robust.add_argument(
        "--fraction", type=float, default=0.95,
        help="share of the points in each subsample, in (0, 1] (default %(default)s)",
    )
    robust.set_defaults(func=cmd_robust)

    gen = sub.add_parser("synth", help="write a synthetic scenario dataset")
    gen.add_argument(
        "--scenario", required=True,
        choices=[s for s in synth.SCENARIOS if s != "custom"],  # custom needs a DagSpec
    )
    gen.add_argument("--n", type=int, default=5000, help="number of data points")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, dataset.DatasetError) as exc:
        _log(f"pfa: error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
