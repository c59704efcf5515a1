"""Wiring: one object that protocols and sync primitives call into.

A :class:`CheckContext` bundles a :class:`~repro.check.RaceDetector`
and a :class:`~repro.check.CoherenceOracle` and implements the tracer
interface the instrumented code expects (``on_load``/``on_store``/
``on_acquire``/``on_release``/``on_barrier_arrive``/…). Attach one with
:func:`attach_checker`; every subsequent shared-memory access and sync
event of the execution is traced.

The runtime (:class:`~repro.runtime.ParallelRuntime`) attaches a
context automatically when ``MachineConfig.checking`` is set, and
calls :meth:`finalize` after the run.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataRaceError
from .detector import RaceDetector
from .oracle import CoherenceOracle


class CheckContext:
    """The tracer: routes instrumentation hooks to detector and oracle."""

    def __init__(self, cluster, protocol, *,
                 fail_fast: bool = False) -> None:
        self.cluster = cluster
        self.protocol = protocol
        self.detector = RaceDetector(cluster, fail_fast=fail_fast)
        self.oracle = CoherenceOracle(protocol, self.detector)
        self.finalized = False

    # --- convenience -------------------------------------------------------

    @property
    def races(self):
        return self.detector.races

    @property
    def race_count(self) -> int:
        return self.detector.race_count

    # --- memory hooks (called from the protocol fast path) -----------------

    def on_load(self, proc, page: int, offset: int, value: float) -> None:
        ev = self.detector.on_read(proc, page, offset)
        self.oracle.check_read(ev, value)

    def on_store(self, proc, page: int, offset: int, value: float) -> None:
        ev = self.detector.on_write(proc, page, offset)
        self.oracle.record_write(ev, value)

    def on_load_range(self, proc, page: int, lo: int,
                      values: np.ndarray) -> None:
        det, oracle = self.detector, self.oracle
        for i, value in enumerate(values):
            ev = det.on_read(proc, page, lo + i)
            oracle.check_read(ev, value)

    def on_store_range(self, proc, page: int, lo: int,
                       values: np.ndarray) -> None:
        det = self.detector
        for i in range(len(values)):
            det.on_write(proc, page, lo + i)
        self.oracle.record_write_range(page, lo, values)

    # --- synchronization hooks (called from repro.sync) --------------------

    def on_acquire(self, proc, key: tuple) -> None:
        self.detector.on_acquire(proc, key)

    def on_release(self, proc, key: tuple) -> None:
        self.detector.on_release(proc, key)

    def on_barrier_arrive(self, proc, episode: int) -> None:
        if self.detector.on_barrier_arrive(proc, episode):
            # Last arrival: all arrival-side flushes have run, the
            # protocol is quiescent — cross-check against the golden image.
            self.oracle.check_global(f"barrier {episode}")

    def on_barrier_depart(self, proc, episode: int) -> None:
        self.detector.on_barrier_depart(proc, episode)

    # --- end of run --------------------------------------------------------

    def finalize(self, *, raise_on_race: bool = True) -> None:
        """End-of-run oracle check; raise if the execution raced."""
        if self.finalized:
            return
        self.finalized = True
        self.oracle.check_global("end of run")
        if raise_on_race and self.detector.race_count:
            first = self.detector.races[0]
            raise DataRaceError(
                f"{self.detector.race_count} data race(s) detected; "
                f"first: {first.describe()}")


def attach_checker(cluster, protocol, *,
                   fail_fast: bool = False) -> CheckContext:
    """Create a :class:`CheckContext` and install it as the protocol's
    tracer. Must run before any shared access or sync event; accesses
    already performed are invisible to the checker."""
    ctx = CheckContext(cluster, protocol, fail_fast=fail_fast)
    protocol.tracer = ctx
    return ctx
