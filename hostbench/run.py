#!/usr/bin/env python3
"""Host-time benchmark: cold paper regeneration and the scale ladder.

Run from the root of a checkout::

    python3 hostbench/run.py --workload paper-2l --seed 1 --seconds 30 --trace 0

``--trace 0`` runs whole passes of the workload's cells until about
``--seconds`` have been measured (at least one pass) and prints the
end-to-end metrics, each a median over passes. Times are reported in
seconds of a reference host: a fixed yardstick kernel timed between
cells measures how fast the shared host is running (see
``yardstick``). The raw times go to stderr. ``--trace 1`` runs one
untraced pass and one traced pass in the same cell order and prints the
per-layer metrics (see ``spans.py``), the tracing overhead, and a
per-cell table on stderr; the spans go to ``hostbench/out/``.

The seed permutes the cell order of each pass; the apps generate fixed
inputs. Every cell's simulated output is checked against
``reference.json`` and against the sequential run; the last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.

Other modes:

* ``--ab SRC_A SRC_B`` runs this benchmark against two ``src`` trees
  in ``PAIRS`` interleaved pairs, alternating which side runs first,
  and reports each side's median and quartiles per metric.
* ``--write-reference`` re-pins ``reference.json`` from the current
  tree (only when a change is meant to alter simulated results).
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))

from cells import (APPS, WORKLOADS, check_pass, pass_order,  # noqa: E402
                   reset_kernel_state, run_cell, workload_cells)

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "sim_us_per_s": "us/s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

#: Times ``import repro`` is measured in a fresh interpreter per run.
IMPORT_SAMPLES = 5

#: Yardstick seconds spent per second of cell time, between cells.
YARDSTICK_SHARE = 0.1

#: Median yardstick time on the host the benchmark was calibrated on (a
#: 2-vCPU Intel Xeon VM at 2.1 GHz, unloaded). Reported times are in
#: seconds of that host.
YARDSTICK_REF_S = 0.0135

#: Interleaved pairs in ``--ab`` mode.
PAIRS = 10


def yardstick() -> float:
    """Seconds for one run of a fixed kernel in the simulator's idiom: a
    heap of timed events, dict updates and small numpy stores.

    A shared host can run twice as slow from one minute to the next, and
    the slowdown follows the vCPU the benchmark runs on (a kernel timed
    on the other vCPU at the same moment does not track it). Timed on the
    same vCPU between cells, in proportion to cell time, this kernel
    slows down with the host, so scaling times by ``YARDSTICK_REF_S /
    median`` cancels most of the drift while still moving with any change
    to the program.
    """
    import heapq

    import numpy as np
    heap: list = []
    seen: dict = {}
    words = np.zeros(64)
    t0 = time.perf_counter()
    for i in range(20000):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        if len(heap) > 64:
            at, j = heapq.heappop(heap)
            seen[j & 255] = at
        if i & 15 == 0:
            words[i & 63] = words[(i + 1) & 63] + 1.0
    return time.perf_counter() - t0


def load_repro(src: Path) -> float:
    """Import ``repro`` from ``src``; the seconds the import took."""
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"hostbench: no repro package under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import repro  # noqa: F401
    return time.perf_counter() - t0


def import_seconds(src: Path) -> list[float]:
    """``import repro`` time in fresh interpreters (after this process has
    imported it once, so byte-code caches are warm), each in seconds of
    the reference host by the yardsticks timed right after it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import repro; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code, str(src)],
                              capture_output=True, text=True, timeout=60,
                              check=True)
        raw = float(done.stdout.strip().splitlines()[-1])
        yard = statistics.median(yardstick() for _ in range(3))
        samples.append(raw * YARDSTICK_REF_S / yard)
    return samples


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def run_pass(order, reference, tracer=None, yard=None):
    """Run cells in the given order; (outcomes, failure messages).

    The pass starts cold (``reset_kernel_state``). A full collection
    before each cell and right after it (outside its timing) frees the
    cell's reference cycles, so neither a cell's GC work, nor the
    yardsticks timed after it, nor the process's peak RSS depends on
    what ran before. Given a ``yard`` list, yardstick times are appended
    to it after each cell until they add up to ``YARDSTICK_SHARE`` of
    the cell time so far.
    """
    reset_kernel_state()
    outcomes = []
    debt = 1e-9  # at least one yardstick per pass
    for cell in order:
        gc.collect()
        if tracer is not None:
            tracer.begin_cell()
        outcomes.append(run_cell(cell))
        if tracer is not None:
            tracer.end_cell(cell.id)
        gc.collect()
        if yard is not None:
            debt += YARDSTICK_SHARE * outcomes[-1].wall_s
            while debt > 0:
                yard.append(yardstick())
                debt -= yard[-1]
    failures = check_pass(outcomes, reference)
    for o in outcomes:
        o.arrays = {}
    return outcomes, failures


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, src: Path) -> dict:
    """Whole passes until about ``seconds`` of cell time are measured.

    Times are in seconds of the reference host: each pass's cell times
    are scaled by ``YARDSTICK_REF_S`` over that pass's median yardstick
    time, import times by the yardsticks next to them. Each time is then
    the sum over cells of that cell's median over passes, which keeps a
    hiccup in one cell of one pass out of the total. Raw times go to
    stderr.
    """
    setup_import = load_repro(src)
    reference = load_reference()
    cells = workload_cells(workload)
    rng = random.Random(seed)
    per_cell = defaultdict(lambda: ([], [], []))
    sim_us = 0.0
    passes = attempted = failed = 0
    spent = 0.0
    while True:
        yard = []
        outcomes, failures = run_pass(pass_order(cells, rng), reference,
                                      yard=yard)
        scale = YARDSTICK_REF_S / statistics.median(yard)
        passes += 1
        for o in outcomes:
            wall, cpu, setup = per_cell[o.cell.id]
            wall.append(o.wall_s * scale)
            cpu.append(o.cpu_s * scale)
            setup.append(o.setup_s * scale)
        sim_us = sum(o.sim_us for o in outcomes)
        attempted += len(outcomes)
        failed += len(failures)
        for msg in failures:
            print(f"FAILED {msg}", file=sys.stderr)
        pass_wall = sum(o.wall_s for o in outcomes)
        spent += pass_wall
        print(f"pass {passes}: raw wall {pass_wall:.3f} s, yardstick "
              f"{statistics.median(yard) * 1e3:.2f} ms x {len(yard)}, "
              f"{len(failures)} failed", file=sys.stderr)
        # Another pass only if it is expected to end within half a pass
        # of the deadline.
        if spent + 0.5 * spent / passes > seconds:
            break
    imports = import_seconds(src)
    print(f"import repro: first {setup_import:.3f} s raw, fresh "
          + ", ".join(f"{s:.3f}" for s in imports), file=sys.stderr)

    def total(i):
        return sum(statistics.median(v[i]) for v in per_cell.values())

    wall_s = total(0)
    metrics = {
        "wall_s": wall_s,
        "cpu_s": total(1),
        "setup_s": statistics.median(imports) + total(2),
        "sim_us_per_s": sim_us / wall_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_ratio": (attempted - failed) / attempted,
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: metric(v, END_TO_END[k])
                        for k, v in metrics.items()}}


# --- traced run ------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, traced, untraced) -> dict:
    """Per-layer metrics from the traced pass's spans and counters."""
    spans = defaultdict(lambda: [0, 0.0, 0.0, 0])
    counts = defaultdict(int)
    for table, cell_counts in tracer.cells.values():
        for (_, name), rec in table.items():
            agg = spans[name]
            for i in range(4):
                agg[i] += rec[i]
        for name, cell in cell_counts.items():
            counts[name] += cell[0]

    def calls(*names):
        return sum(spans[n][0] for n in names)

    def self_s(*names):
        return sum(spans[n][2] for n in names)

    def prefixed(prefix):
        return [n for n in list(spans) if n.startswith(prefix)]

    def counter(name):
        return sum(o.counters.get(name, 0) for o in traced)

    m = {}

    def put(name, value, unit):
        m[name] = metric(value, unit)

    put("sim.events", sum(o.events for o in traced), "count")
    put("sim.self_s", self_s("sim.run"), "s")
    put("cluster.run_compute.calls", calls("cluster.run_compute"), "count")
    put("cluster.run_compute.self_s", self_s("cluster.run_compute"), "s")
    put("cluster.poll.calls", calls("cluster.poll"), "count")
    put("cluster.poll.useful_ratio",
        _ratio(counter("requests_served"), calls("cluster.poll")), "ratio")
    for part in ("pagetable", "diff"):
        put(f"vm.{part}.calls", calls(f"vm.{part}"), "count")
        put(f"vm.{part}.self_s", self_s(f"vm.{part}"), "s")
    accesses = counts["runtime.accesses"]
    put("runtime.accesses", accesses, "count")
    put("runtime.tlb_hit_ratio",
        1.0 - _ratio(calls("runtime.cold"), accesses) if accesses else 0.0,
        "ratio")
    put("runtime.cold.self_s",
        self_s("runtime.cold", "runtime.cold.through"), "s")
    put("runtime.setup_s", spans["runtime.setup"][1], "s")
    for op in ("read_fault", "write_fault", "store", "acquire", "release",
               "barrier_release"):
        put(f"protocol.{op}.calls", calls(f"protocol.{op}"), "count")
        put(f"protocol.{op}.self_s", self_s(f"protocol.{op}"), "s")
    post, collect = "protocol.notice.post", "protocol.notice.collect"
    put("protocol.notice.post.calls", calls(post), "count")
    put("protocol.notice.collect.calls", calls(collect), "count")
    put("protocol.notice.collect_hit_ratio",
        _ratio(spans[collect][3], calls(collect)), "ratio")
    put("protocol.notice.self_s", self_s(post, collect), "s")
    protocol_self = self_s(*prefixed("protocol."))
    put("protocol.self_s", protocol_self, "s")
    put("protocol.us_per_fault",
        _ratio(protocol_self * 1e6,
               counter("read_faults") + counter("write_faults")), "us")
    put("memchannel.transfer.calls", calls("memchannel.transfer"), "count")
    put("memchannel.write.calls", calls("memchannel.write"), "count")
    put("memchannel.self_s", self_s(*prefixed("memchannel.")), "s")
    put("memchannel.mbytes", sum(o.mc_bytes for o in traced) / 1e6, "MB")
    for prim in ("barrier", "lock", "flag"):
        put(f"sync.{prim}.calls", calls(f"sync.{prim}"), "count")
        put(f"sync.{prim}.self_s", self_s(f"sync.{prim}"), "s")
    put("apps.self_s", self_s(*prefixed("apps.")), "s")
    for app in APPS:
        put(f"apps.{app}.cpu_s",
            sum(o.cpu_s for o in untraced if o.cell.app == app), "s")
    entries = calls("lower.entry")
    put("lower.region_entries", entries, "count")
    put("lower.batched_ratio", _ratio(calls("lower.batched"), entries),
        "ratio")
    put("lower.steps_per_batch",
        _ratio(counts["lower.steps"], counts["lower.batches"]), "steps")
    put("lower.self_s", self_s("lower.entry", "lower.batched", "lower.run"),
        "s")
    put("stats.bump.calls", calls("stats.bump"), "count")
    put("stats.self_s", self_s("stats.bump", "stats.collect"), "s")
    put("trace.overhead_ratio",
        _ratio(sum(o.cpu_s for o in traced), sum(o.cpu_s for o in untraced)),
        "ratio")
    return m


def layer_split(tracer, traced) -> dict:
    """Traced wall seconds by layer (span self time grouped by the
    subpackage prefix), the host-time analogue of the paper's Figure 6.
    ``other`` is cell time no span covers: cell set-up outside
    ``ParallelRuntime`` and result collection."""
    split = defaultdict(float)
    for table, _ in tracer.cells.values():
        for (_, name), rec in table.items():
            split[name.split(".")[0]] += rec[2]
    split["other"] = sum(o.wall_s for o in traced) - sum(split.values())
    return dict(sorted(split.items(), key=lambda kv: -kv[1]))


def cell_table(untraced, traced) -> list[dict]:
    by_id = {o.cell.id: o for o in traced}
    return [{"cell": o.cell.id, "app": o.cell.app,
             "protocol": o.cell.protocol,
             "placement": f"{o.cell.nodes}x{o.cell.ppn}",
             "wall_s": o.wall_s, "cpu_s": o.cpu_s, "setup_s": o.setup_s,
             "traced_wall_s": by_id[o.cell.id].wall_s}
            for o in sorted(untraced, key=lambda o: -o.wall_s)]


def traced_run(workload: str, seed: int, src: Path) -> dict:
    load_repro(src)
    from spans import SpanTracer

    reference = load_reference()
    order = pass_order(workload_cells(workload), random.Random(seed))
    untraced, failures = run_pass(order, reference)
    tracer = SpanTracer()
    tracer.install()
    try:
        traced, traced_failures = run_pass(order, reference, tracer)
    finally:
        tracer.uninstall()
    failures += traced_failures
    plain = {o.cell.id: o.fingerprint for o in untraced}
    for o in traced:
        if not o.error and o.fingerprint != plain[o.cell.id]:
            failures.append(f"{o.cell.id}: traced fingerprint differs from "
                            f"the untraced run (tracing is not passive)")
    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)
    metrics = layer_metrics(tracer, traced, untraced)
    table = cell_table(untraced, traced)
    print(f"{'cell':<24}{'wall_s':>9}{'cpu_s':>9}{'setup_s':>9}"
          f"{'traced_s':>10}", file=sys.stderr)
    for row in table:
        print(f"{row['cell']:<24}{row['wall_s']:>9.3f}{row['cpu_s']:>9.3f}"
              f"{row['setup_s']:>9.3f}{row['traced_wall_s']:>10.3f}",
              file=sys.stderr)
    split = layer_split(tracer, traced)
    whole = sum(split.values())
    print("layer      self_s  share", file=sys.stderr)
    for layer, secs in split.items():
        print(f"{layer:<10}{secs:>7.3f}{secs / whole:>7.1%}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    spans_out = {cid: {"spans": [{"cause": cause, "name": name,
                                  "calls": rec[0], "total_s": rec[1],
                                  "self_s": rec[2], "hits": rec[3]}
                                 for (cause, name), rec in table_.items()],
                       "counts": {k: v[0] for k, v in counts.items()}}
                 for cid, (table_, counts) in tracer.cells.items()}
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "cells": table, "layers": split,
                                "spans": spans_out,
                                "metrics": metrics}, indent=1))
    print(f"spans written to {path}", file=sys.stderr)
    attempted = len(untraced) + len(traced)
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


# --- reference and A/B modes -----------------------------------------------


def write_reference(src: Path) -> int:
    load_repro(src)
    cells = {c.id: c for w in WORKLOADS for c in workload_cells(w)}
    outcomes = [run_cell(c) for c in cells.values()]
    pinned = {o.cell.id: o.fingerprint for o in outcomes}
    problems = check_pass(outcomes, pinned)
    for msg in problems:
        print(f"FAILED {msg}", file=sys.stderr)
    if problems:
        return 1
    REFERENCE.write_text(json.dumps(dict(sorted(pinned.items())), indent=1)
                         + "\n")
    print(f"pinned {len(pinned)} cells in {REFERENCE.relative_to(ROOT)}")
    return 0


def ab(src_a: Path, src_b: Path, args) -> int:
    """Interleaved A/B: pair i uses seed ``args.seed + i`` on both sides;
    even pairs run A first, odd pairs B first."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    runs = {"A": [], "B": []}
    sides = {"A": src_a, "B": src_b}
    for i in range(PAIRS):
        for side in ("AB" if i % 2 == 0 else "BA"):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--src", str(sides[side]), "--workload", args.workload,
                   "--seed", str(args.seed + i),
                   "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"pair {i} side {side}: incorrect output",
                      file=sys.stderr)
            runs[side].append(result)
    summary = {}
    for name, direction in better.items():
        a = [r["metrics"][name]["value"] for r in runs["A"]]
        b = [r["metrics"][name]["value"] for r in runs["B"]]
        sign = 1 if direction == "higher" else -1
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        row = {"better": direction, "b_wins": wins, "pairs": len(a)}
        for side, vals in (("a", a), ("b", b)):
            qs = statistics.quantiles(vals, n=4) if len(vals) > 1 \
                else [vals[0]] * 3
            row[side] = {"q1": qs[0], "median": statistics.median(vals),
                         "q3": qs[2]}
        summary[name] = row
        print(f"{name:<14} A {row['a']['median']:.4g} "
              f"[{row['a']['q1']:.4g}, {row['a']['q3']:.4g}]  "
              f"B {row['b']['median']:.4g} "
              f"[{row['b']['q1']:.4g}, {row['b']['q3']:.4g}]  "
              f"B better in {wins}/{len(a)}")
    print(json.dumps({"workload": args.workload, "metrics": summary}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree to import repro from")
    parser.add_argument("--ab", nargs=2, type=Path,
                        metavar=("SRC_A", "SRC_B"))
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if args.write_reference:
        return write_reference(src)
    if args.workload is None:
        parser.error("--workload is required")
    if args.ab:
        return ab(args.ab[0].resolve(), args.ab[1].resolve(), args)
    if args.trace:
        result = traced_run(args.workload, args.seed, src)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds, src)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
