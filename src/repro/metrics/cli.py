"""The ``cashmere-repro metrics`` subcommand family.

Usage::

    cashmere-repro metrics bench  [--quick] [--label NAME]
    cashmere-repro metrics run    APP [--protocol 2L] [--interval US]
    cashmere-repro metrics import BENCH_a.json [BENCH_b.json ...]
    cashmere-repro metrics list
    cashmere-repro metrics report [--kind bench] [--gate FACTOR]
    cashmere-repro metrics html   [--out dashboard.html] [--gate FACTOR]

All subcommands share ``--db PATH`` (default: ``$CASHMERE_METRICS_DB``
or ``./metrics.db``). ``bench`` runs the wall-clock benchmark suite and
ingests the report; ``run`` executes one application with time-series
sampling and stores its series; ``import`` ingests committed
``BENCH_*.json`` documents (every schema in
:data:`~repro.metrics.store.BENCH_SCHEMAS`, ``cashmere-bench-1`` to
``-3``) so historical runs join the trend. ``report`` prints the
terminal trend/regression table and **exits 1** when a gated wall-clock
counter regressed beyond ``--gate`` (default 2x) — this is the CI hook.
``html`` writes the self-contained dashboard.
"""

from __future__ import annotations

import argparse
import sys

from .dashboard import DEFAULT_GATE_FACTOR, TrendReport, render_html
from .store import RunStore, StoreError, default_db_path


def _add_db(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--db", default=None, metavar="PATH",
                        help="sqlite store path (default: "
                             "$CASHMERE_METRICS_DB or ./metrics.db)")


def _add_gate(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gate", type=float,
                        default=DEFAULT_GATE_FACTOR, metavar="FACTOR",
                        help="regression gate: latest *.wall_s worse than "
                             "FACTOR x previous fails (default "
                             f"{DEFAULT_GATE_FACTOR:g})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cashmere-repro metrics",
        description="Query and grow the sqlite-backed metrics run store.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench", help="run the wall-clock benchmark suite "
                                     "and ingest the report")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--label", default="bench")
    _add_db(p)

    p = sub.add_parser("run", help="run one application with time-series "
                                   "sampling and store its series")
    p.add_argument("app")
    p.add_argument("--protocol", default="2L")
    p.add_argument("--interval", type=float, default=None, metavar="US",
                   help="sampling interval in simulated microseconds "
                        "(default 1000)")
    p.add_argument("--label", default=None)
    _add_db(p)

    p = sub.add_parser("import", help="ingest BENCH_*.json report files")
    p.add_argument("files", nargs="+", metavar="FILE")
    _add_db(p)

    p = sub.add_parser("list", help="list recorded runs")
    _add_db(p)

    p = sub.add_parser("report", help="print the trend/regression table "
                                      "(exit 1 on gated regression)")
    p.add_argument("--kind", default="bench", choices=["bench", "run"])
    _add_gate(p)
    _add_db(p)

    p = sub.add_parser("html", help="write the HTML dashboard")
    p.add_argument("--out", default="dashboard.html", metavar="PATH")
    _add_gate(p)
    _add_db(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    db = args.db or default_db_path()
    try:
        with RunStore(db) as store:
            return _dispatch(args, store)
    except StoreError as exc:
        print(f"cashmere-repro metrics: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace, store: RunStore) -> int:
    if args.command == "bench":
        from ..experiments.bench import run_bench
        report = run_bench(quick=args.quick,
                           progress=lambda name: print(
                               f"  bench: {name}...", file=sys.stderr))
        run_id = store.ingest_bench(report.to_json(), label=args.label)
        print(f"ingested bench run #{run_id} into {store.path}")
        return 0

    if args.command == "run":
        from ..experiments.traceprof import run_metered
        result = run_metered(args.app, args.protocol,
                             interval_us=args.interval)
        run_id = store.ingest_result(result, label=args.label)
        assert result.metrics is not None
        print(f"ingested run #{run_id} into {store.path} "
              f"({result.metrics.num_samples} samples, "
              f"{len(result.metrics.series)} series)")
        return 0

    if args.command == "import":
        for path in args.files:
            run_id = store.import_bench_json(path)
            print(f"imported {path} as run #{run_id}")
        return 0

    if args.command == "list":
        runs = store.runs()
        if not runs:
            print(f"{store.path}: no runs recorded")
            return 0
        for run in runs:
            what = run["app"] or "-"
            if run["protocol"]:
                what += f"/{run['protocol']}"
            print(f"#{run['id']:<3d} {run['kind']:5s} "
                  f"{run['label']:30s} {what:14s} "
                  f"{run['ingested_at']}  [{run['schema_version']}]")
        return 0

    if args.command == "report":
        report = TrendReport(store, kind=args.kind, gate_factor=args.gate)
        print(report.format())
        return 0 if report.ok else 1

    if args.command == "html":
        document = render_html(store, gate_factor=args.gate)
        with open(args.out, "w") as fh:
            fh.write(document)
        print(f"wrote {args.out} ({len(document)} bytes)")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")
