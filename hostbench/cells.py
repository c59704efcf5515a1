"""Workloads, one-cell execution and the per-cell correctness check.

A cell is one simulation, built the way the sweep engine's
``execute_cell`` builds it: ``ParallelRuntime`` then ``run`` for an
application under a protocol, ``run_sequential`` for a baseline. Cells
run cold and serially in one process: no sweep cache, no worker pool.

The simulator is deterministic, so each cell's simulated output is
pinned bit for bit by a fingerprint stored in ``reference.json``. Host
time is the only quantity that varies between runs.
"""

from __future__ import annotations

import hashlib
import random
import time
import traceback
from dataclasses import dataclass, field

#: Applications in Table 2 order (the paper workloads run all eight).
APPS = ("SOR", "LU", "Water", "TSP", "Gauss", "Ilink", "Em3d", "Barnes")

#: Strong-scaling sizes the ``scale`` ladder uses past the paper machine.
SCALE_RUNGS = (("Water", 32, 8), ("LU", 64, 8), ("SOR", 64, 8))

#: Parallel results must match the sequential run to this tolerance (the
#: ``run_and_verify`` defaults).
RTOL = ATOL = 1e-8


@dataclass(frozen=True)
class Cell:
    """One simulation: an app under a protocol (or ``"seq"``) on a machine."""

    app: str
    protocol: str
    nodes: int
    ppn: int
    barrier: str = "flat"
    #: Overrides on the app's ``default_params()``, as sorted pairs.
    params: tuple = ()

    @property
    def id(self) -> str:
        shape = f"{self.nodes}x{self.ppn}"
        if self.barrier != "flat":
            shape += f"-{self.barrier}"
        return f"{self.app}/{self.protocol}/{shape}"

    @property
    def parallel(self) -> bool:
        return self.protocol != "seq"

    def config(self):
        from repro.config import MachineConfig
        from repro.experiments.configs import EXPERIMENT_PAGE_BYTES
        return MachineConfig(nodes=self.nodes, procs_per_node=self.ppn,
                             page_bytes=EXPERIMENT_PAGE_BYTES,
                             barrier=self.barrier)


def workload_cells(name: str) -> list[Cell]:
    """The cells of a named workload, in canonical order."""
    if name in ("paper-2l", "paper-1l"):
        protocols = ("2L", "2LS") if name == "paper-2l" else ("1LD", "1L")
        cells = []
        for app in APPS:
            cells.append(Cell(app, "seq", 8, 4))
            cells.extend(Cell(app, p, 8, 4) for p in protocols)
        return cells
    if name == "scale-2l":
        from repro.experiments.scale import SCALE_PARAMS
        cells = []
        for app, nodes, ppn in SCALE_RUNGS:
            params = tuple(sorted(SCALE_PARAMS[app].items()))
            cells.append(Cell(app, "seq", nodes, ppn, "tree", params))
            cells.append(Cell(app, "2L", nodes, ppn, "tree", params))
        return cells
    raise KeyError(name)


WORKLOADS = ("paper-2l", "paper-1l", "scale-2l")


def pass_order(cells: list[Cell], rng: random.Random) -> list[Cell]:
    """The seed's cell order for one pass. Order matters to host time:
    lowering's adaptive ``_adapt_ratio`` is class-level state that
    carries from cell to cell within a process."""
    order = list(cells)
    rng.shuffle(order)
    return order


#: Class attributes the program sets on each ``RegionKernel`` subclass as
#: cells run: lowering's adaptive policy and the cached kernel check. Their
#: defaults live on ``RegionKernel`` itself.
KERNEL_STATE = ("_adapt_execs", "_adapt_ratio", "_lower_report")


def reset_kernel_state() -> None:
    """Make the next pass start as cold as a fresh process: drop what
    earlier cells left on the ``RegionKernel`` subclasses, so they fall
    back to the base-class defaults and re-run the kernel check."""
    from repro.lower.regions import RegionKernel
    stack = list(RegionKernel.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        for attr in KERNEL_STATE:
            if attr in cls.__dict__:
                delattr(cls, attr)


@dataclass
class Outcome:
    """What one cell produced, and what it cost on the host."""

    cell: Cell
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: ``ParallelRuntime`` construction (0 for sequential cells).
    setup_s: float = 0.0
    sim_us: float = 0.0
    #: Events the simulator dispatched.
    events: int = 0
    counters: dict = field(default_factory=dict)
    mc_bytes: int = 0
    arrays: dict = field(default_factory=dict)
    fingerprint: str = ""
    error: str = ""


def _digest(parts: list) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def run_cell(cell: Cell) -> Outcome:
    """Run one cell cold; never raises (a failure lands in ``error``)."""
    from repro.apps import make_app
    from repro.runtime.program import ParallelRuntime
    from repro.runtime.sequential import run_sequential

    out = Outcome(cell)
    try:
        app = make_app(cell.app)
        params = app.default_params()
        params.update(dict(cell.params))
        config = cell.config()
        names = list(app.result_arrays(params))
        c0 = time.process_time()
        t0 = time.perf_counter()
        if cell.parallel:
            rt = ParallelRuntime(app, params, config, cell.protocol)
            out.setup_s = time.perf_counter() - t0
            run = rt.run()
            out.wall_s = time.perf_counter() - t0
            out.cpu_s = time.process_time() - c0
            stats = run.stats
            sim = rt.cluster.sim
            out.events = sim._seq - sim.pending_events
            out.sim_us = stats.exec_time_us
            out.counters = dict(stats.aggregate.counters)
            out.mc_bytes = sum(stats.mc_traffic_bytes.values())
            out.arrays = {n: run.array(n) for n in names}
            head = [stats.exec_time_us.hex(),
                    sorted(out.counters.items()),
                    sorted((b, v.hex())
                           for b, v in stats.aggregate.buckets.items()),
                    sorted(stats.mc_traffic_bytes.items())]
        else:
            env, seq_us = run_sequential(app, params, config)
            out.wall_s = time.perf_counter() - t0
            out.cpu_s = time.process_time() - c0
            out.sim_us = seq_us
            out.arrays = {}
            for n in names:
                arr = env.arr(n)
                out.arrays[n] = env.mem[arr.base:arr.base + arr.length].copy()
            head = [float(seq_us).hex()]
        out.fingerprint = _digest(
            head + [(n, out.arrays[n].tobytes()) for n in names])
    except Exception:  # noqa: BLE001 - a failed cell is a result, not a crash
        out.error = traceback.format_exc()
    return out


def check_pass(outcomes: list[Outcome], reference: dict) -> list[str]:
    """Failure messages for one pass, one per failed cell.

    A cell fails when it raised, when its fingerprint differs from the
    reference, or when its result arrays do not match the sequential
    run of the same app (``app.results_equal``).
    """
    from repro.apps import make_app

    seq = {(o.cell.app, o.cell.params): o for o in outcomes
           if not o.cell.parallel and not o.error}
    failures = []
    for o in outcomes:
        cid = o.cell.id
        if o.error:
            failures.append(f"{cid}: raised\n{o.error}")
            continue
        want = reference.get(cid)
        if want != o.fingerprint:
            failures.append(f"{cid}: fingerprint {o.fingerprint[:12]} != "
                            f"reference {str(want)[:12]}")
            continue
        if not o.cell.parallel:
            continue
        base = seq.get((o.cell.app, o.cell.params))
        if base is None:
            failures.append(f"{cid}: no sequential baseline in the pass")
            continue
        app = make_app(o.cell.app)
        for name, actual in o.arrays.items():
            if not app.results_equal(name, base.arrays[name], actual,
                                     RTOL, ATOL):
                failures.append(f"{cid}: array {name!r} differs from "
                                f"the sequential run")
                break
    return failures
