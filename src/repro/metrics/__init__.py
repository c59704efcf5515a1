"""Time-series metrics: sampled gauges and counter deltas over
simulated time, plus a sqlite-backed run store and trend dashboard.

Three layers (DESIGN.md §13):

* :mod:`repro.metrics.collector` — a :class:`MetricsCollector` attached
  to a configured execution (``MachineConfig(metrics=True)``). Driven
  by the
  simulator's ``on_advance`` hook, it samples gauges (directory
  occupancy, page-state histogram, Memory Channel utilization,
  request-queue depths, software-TLB hit rate) at fixed simulated-time
  intervals and records deltas of the protocol counters between
  samples. Strictly observational, like tracing and checking: a metered
  run is byte-identical to an unmetered one.
* :mod:`repro.metrics.store` — :class:`~repro.metrics.store.RunStore`,
  a sqlite database of runs: provenance-stamped manifests, final
  counters, and metric series; imports the committed ``BENCH_*.json``
  history.
* :mod:`repro.metrics.dashboard` — terminal trend/regression report and
  a self-contained HTML dashboard over the store.

``cashmere-repro metrics`` (:mod:`repro.metrics.cli`) drives all three.

Only the collector is imported here: the store and dashboard pull in
the experiment harness, which itself imports the runtime — importing
them lazily keeps ``repro.runtime.program -> repro.metrics`` cycle-free.
"""

from .collector import (DEFAULT_INTERVAL_US, MetricsCollector,
                        attach_metrics)

__all__ = ["MetricsCollector", "attach_metrics", "DEFAULT_INTERVAL_US"]
