"""Span tracing for the traced run, installed from outside the program.

Every wrapper here is put on a class attribute or a module global of
``repro`` before any runtime is built, and taken off again afterwards.
``WorkerEnv`` binds ``_get_cold`` and its siblings when it is
constructed, and ``LoweredRun`` binds its continuation in ``__init__``,
so wrappers installed first are the ones those bindings capture.

A span has a name, a start, an end, the span that caused it and the
cell it belongs to. Spans are aggregated in memory as they close, keyed
by ``(cause, name)`` per cell, and written once at the end: the hot
entry points are called millions of times per pass, so a list of raw
spans would cost more memory than the simulation. A span's self time is
its duration minus the time of its child spans.

Generator functions (app workers, barrier waits, lock acquires) are
timed per resume through a forwarding proxy: each ``send`` or ``throw``
is one span. The warm access path is a set of closures the runtime
compiles per environment; those are counted, not timed, and their time
stays in the caller's span (the app body that inlines them).

The repo's own ``tracing``, ``metrics`` and ``checking`` observers are
never turned on: each one switches off the fast path and lowering, so
the traced run would measure a different program.
"""

from __future__ import annotations

import inspect
import sys
import time

clock = time.perf_counter


class _TimedGen:
    """Forwards ``send``/``throw``/``close`` to a generator, timing each
    resume as one span. ``yield from`` and ``SimProcess`` see only the
    iterator protocol, so the proxy is invisible to the simulation."""

    __slots__ = ("_gen", "_name", "_tracer")

    def __init__(self, gen, name: str, tracer: "SpanTracer") -> None:
        self._gen = gen
        self._name = name
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *args):
        return self._resume(self._gen.throw, *args)

    def _resume(self, method, *args):
        tracer = self._tracer
        frame = [0.0, self._name]
        tracer.stack.append(frame)
        t0 = clock()
        try:
            return method(*args)
        finally:
            tracer.close(frame, clock() - t0, 0)

    def close(self) -> None:
        self._gen.close()


class SpanTracer:
    """Span aggregation plus the patch set that feeds it."""

    def __init__(self) -> None:
        #: Open spans, innermost last: ``[child_seconds, name]``. The
        #: bottom frame is the cell itself.
        self.stack: list[list] = [[0.0, "cell"]]
        #: (cause, name) -> [calls, total_s, self_s, hits] for the open cell.
        self.table: dict[tuple[str, str], list] = {}
        #: Plain counters for the open cell: name -> [n].
        self.counts: dict[str, list] = {}
        #: Warm-path access count for the open cell (hottest counter,
        #: kept out of the dict).
        self.accesses = [0]
        #: Closed cells: cell id -> (table, counts).
        self.cells: dict[str, tuple[dict, dict]] = {}
        self._undo: list[tuple[object, str, object]] = []

    # --- aggregation --------------------------------------------------------

    def close(self, frame: list, dt: float, calls: int, hit: int = 0) -> None:
        stack = self.stack
        stack.pop()
        parent = stack[-1]
        parent[0] += dt
        key = (parent[1], frame[1])
        rec = self.table.get(key)
        if rec is None:
            rec = self.table[key] = [0, 0.0, 0.0, 0]
        rec[0] += calls
        rec[1] += dt
        rec[2] += dt - frame[0]
        rec[3] += hit

    def count(self, name: str, n: int = 1) -> None:
        cell = self.counts.get(name)
        if cell is None:
            self.counts[name] = [n]
        else:
            cell[0] += n

    def begin_cell(self) -> None:
        self.stack = [[0.0, "cell"]]
        self.table = {}
        self.counts = {}
        self.accesses = [0]

    def end_cell(self, cell_id: str) -> None:
        self.counts["runtime.accesses"] = self.accesses
        self.cells[cell_id] = (self.table, self.counts)
        self.begin_cell()

    # --- wrappers -----------------------------------------------------------

    def timed(self, fn, name: str, hit=None):
        """Plain call: one span per call. ``hit(result)`` marks useful
        outcomes (e.g. a notice collect that found notices)."""
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0, name]
            tracer.stack.append(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(frame, clock() - t0, 1,
                             1 if hit is not None and hit(result) else 0)

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_gen(self, fn, name: str):
        """Generator function: the call is counted where it is made, each
        resume is a span."""
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0, name]
            tracer.stack.append(frame)
            t0 = clock()
            try:
                gen = fn(*args, **kwargs)
            finally:
                tracer.close(frame, clock() - t0, 1)
            return _TimedGen(gen, name, tracer)

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            return self.timed_gen(fn, name)
        return self.timed(fn, name)

    # --- patching -----------------------------------------------------------

    def patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_method(self, cls, attr: str, name: str, hit=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self.patch(cls, attr, classmethod(self.wrap(raw.__func__, name)))
        elif hit is not None:
            self.patch(cls, attr, self.timed(raw, name, hit))
        else:
            self.patch(cls, attr, self.wrap(raw, name))

    def patch_function(self, fn, name: str) -> None:
        """Replace a module-level function in every ``repro`` module that
        imported it by name."""
        wrapped = self.wrap(fn, name)
        for modname, module in list(sys.modules.items()):
            if modname != "repro" and not modname.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def install(self) -> None:
        """Wrap each subpackage's public entry points."""
        from repro.apps import ALL_APPS
        from repro.cluster.machine import Processor
        from repro.lower.exec import LoweredRun
        from repro.lower.regions import RegionKernel
        from repro.memchannel.network import MemoryChannel
        from repro.protocol.base import BaseProtocol
        from repro.protocol.cashmere2l import Cashmere2L
        from repro.protocol.messages import RequestEngine
        from repro.protocol.onelevel import Cashmere1L, OneLevelProtocol
        from repro.protocol.writenotice import NoticeBoard
        from repro.runtime.env import WorkerEnv
        from repro.runtime.program import ParallelRuntime
        from repro.sim.engine import Simulator
        from repro.stats.counters import ProcStats, RunStats
        from repro.sync.barrier import Barrier
        from repro.sync.flag import FlagSet
        from repro.sync.mclock import MCLock
        from repro.vm import diffs
        from repro.vm.pagetable import PageTable

        pm = self.patch_method
        pm(Simulator, "run", "sim.run")
        pm(Processor, "run_compute", "cluster.run_compute")
        pm(Processor, "service_requests", "cluster.poll")
        for attr in ("perm", "set_perm", "loosest", "procs_with", "writers",
                     "mapped", "downgrade_writers", "invalidate_all"):
            pm(PageTable, attr, "vm.pagetable")
        for fn in (diffs.make_twin, diffs.outgoing_diff, diffs.apply_diff,
                   diffs.flush_update, diffs.incoming_diff):
            self.patch_function(fn, "vm.diff")
        pm(ParallelRuntime, "__init__", "runtime.setup")
        for attr in ("_get_cold", "_set_cold", "get_block", "set_block"):
            pm(WorkerEnv, attr, "runtime.cold")
        for attr in ("_read_through", "_write_through"):
            pm(WorkerEnv, attr, "runtime.cold.through")
        self.patch(WorkerEnv, "_build_fastpaths",
                   self._counting_fastpaths(WorkerEnv._build_fastpaths))
        pm(WorkerEnv, "run_region", "lower.entry")
        pm(WorkerEnv, "_region_instruction", "lower.batched")
        pm(LoweredRun, "drive", "lower.run")
        pm(LoweredRun, "_continue", "lower.run")
        self.patch(RegionKernel, "note_execution",
                   self._noting_execution(RegionKernel.note_execution))
        for cls in (BaseProtocol, Cashmere2L, OneLevelProtocol, Cashmere1L):
            for attr, name in (("read_fault", "protocol.read_fault"),
                               ("write_fault", "protocol.write_fault"),
                               ("load", "protocol.load"),
                               ("load_range", "protocol.load"),
                               ("store", "protocol.store"),
                               ("store_range", "protocol.store"),
                               ("acquire_sync", "protocol.acquire"),
                               ("release_sync", "protocol.release"),
                               ("barrier_release",
                                "protocol.barrier_release")):
                if attr in cls.__dict__:
                    pm(cls, attr, name)
        pm(RequestEngine, "explicit_request", "protocol.request")
        pm(NoticeBoard, "post", "protocol.notice.post")
        pm(NoticeBoard, "collect", "protocol.notice.collect", hit=bool)
        pm(MemoryChannel, "transfer", "memchannel.transfer")
        pm(MemoryChannel, "write_word", "memchannel.write")
        pm(MemoryChannel, "broadcast_write", "memchannel.write")
        pm(Barrier, "wait", "sync.barrier")
        pm(MCLock, "acquire", "sync.lock")
        pm(MCLock, "release", "sync.lock")
        for attr in ("set", "wait", "peek"):
            pm(FlagSet, attr, "sync.flag")
        for app_name, cls in ALL_APPS.items():
            pm(cls, "worker", f"apps.{app_name}")
        pm(ProcStats, "bump", "stats.bump")
        pm(RunStats, "collect", "stats.collect")

    def _counting_fastpaths(self, build):
        """Count every call of the warm access closures a WorkerEnv
        compiles (the accesses the inline cache absorbs or forwards)."""
        tracer = self

        def counted(fn):
            def access(*args, **kwargs):
                tracer.accesses[0] += 1
                return fn(*args, **kwargs)
            return access

        def wrapper(env) -> None:
            build(env)
            for attr in ("get", "set", "get_block", "set_block"):
                setattr(env, attr, counted(getattr(env, attr)))

        return wrapper

    def _noting_execution(self, note):
        tracer = self

        def wrapper(kernel, steps: int, batches: int) -> None:
            tracer.count("lower.steps", steps)
            tracer.count("lower.batches", batches)
            note(kernel, steps, batches)

        return wrapper
