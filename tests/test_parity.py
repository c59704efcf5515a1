"""Byte-identity parity: one suite for every switch that must not change
what the simulation computes.

Each *pair* names a baseline :class:`MachineConfig` and a variant that
differs in one behaviour-preserving respect:

* ``fastpath`` / ``fastpath_observed`` — the inline page-access cache
  against full protocol dispatch, without and with the checker and
  tracer attached;
* ``lowering_observed`` — observers force per-step interpretation, so an
  observed run must match an observed run with lowering configured off;
* ``tracing`` / ``metrics`` — the event tracer and the metrics collector
  are passive observers (DESIGN.md §7, §13);
* ``zero_rate_faults`` — a zero-rate :class:`FaultConfig` draws no
  randomness and perturbs nothing (DESIGN.md §12);
* ``reference_directory`` — the sparse directory entries against the
  paper's one-word-per-owner layout (:mod:`tests.refdir`), on the small
  grid and on SOR under 2L with tree barriers at 8x4 and 16x4.

Every case compares :func:`fingerprint` of the variant run with that of
the baseline run; each baseline is simulated once and shared by every
pair that uses it. Observer-specific checks (a non-empty trace, metrics
samples) stay with their observers in ``test_trace.py`` and
``test_metrics.py``.
"""

from dataclasses import dataclass, replace
from functools import lru_cache

import pytest

from repro import MachineConfig, run_app
from repro.apps import make_app
from repro.config import FaultConfig
from repro.experiments.scale import QUICK_PARAMS, scale_config
from repro.runtime.program import ParallelRuntime

from .refdir import RefDirEntry, reference_directory

SMALL = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512)
OBSERVED = replace(SMALL, checking=True, tracing=True)
PROTOCOLS = ("2L", "2LS", "1LD", "1L")
APPS = ("SOR", "Water")


def fingerprint(result, app, params):
    """Everything a run produces, for byte-identical comparison: exec
    time, aggregate and per-processor counters and buckets, Memory
    Channel traffic, the bytes of every result array, and the final
    directory occupancy (per-owner sharers and page-state histogram)."""
    stats = result.stats
    return (
        stats.exec_time_us,
        dict(stats.aggregate.counters),
        dict(stats.aggregate.buckets),
        stats.mc_traffic_bytes,
        [(dict(ps.counters), dict(ps.buckets)) for ps in stats.per_proc],
        {name: result.array(name).tobytes()
         for name in app.result_arrays(params)},
        result.runtime.protocol.directory.occupancy(),
    )


@dataclass(frozen=True)
class Pair:
    """A baseline config and its behaviour-preserving variant."""

    base: MachineConfig
    variant: MachineConfig
    #: Run the variant with reference directory entries.
    reference: bool = False
    #: Application parameters; ``None`` means the app's small set.
    params: tuple | None = None


_SCALE_SOR = tuple(sorted(QUICK_PARAMS["SOR"].items()))

PAIRS = {
    "fastpath": Pair(SMALL, replace(SMALL, fastpath=False)),
    "fastpath_observed": Pair(OBSERVED, replace(OBSERVED, fastpath=False)),
    "lowering_observed": Pair(OBSERVED, replace(OBSERVED, lowering=False)),
    "tracing": Pair(SMALL, replace(SMALL, tracing=True)),
    "metrics": Pair(SMALL, replace(SMALL, metrics=True)),
    "zero_rate_faults": Pair(SMALL, replace(SMALL, faults=FaultConfig())),
    "reference_directory": Pair(SMALL, SMALL, reference=True),
    "reference_directory_8x4": Pair(scale_config(8, 4), scale_config(8, 4),
                                    reference=True, params=_SCALE_SOR),
    "reference_directory_16x4": Pair(scale_config(16, 4),
                                     scale_config(16, 4), reference=True,
                                     params=_SCALE_SOR),
}

CASES = [(pair, app_name, protocol)
         for pair in ("fastpath", "fastpath_observed", "lowering_observed",
                      "tracing", "metrics", "zero_rate_faults",
                      "reference_directory")
         for app_name in APPS for protocol in PROTOCOLS]
CASES += [("reference_directory_8x4", "SOR", "2L"),
          ("reference_directory_16x4", "SOR", "2L")]


def _run(config, app_name, protocol, params):
    app = make_app(app_name)
    params = dict(params) if params is not None else app.small_params()
    return fingerprint(run_app(app, params, config, protocol), app, params)


@lru_cache(maxsize=None)
def _baseline(config, app_name, protocol, params):
    return _run(config, app_name, protocol, params)


@pytest.mark.parametrize("pair,app_name,protocol", CASES)
def test_variant_matches_baseline(pair, app_name, protocol):
    p = PAIRS[pair]
    expected = _baseline(p.base, app_name, protocol, p.params)
    if p.reference:
        with reference_directory():
            got = _run(p.variant, app_name, protocol, p.params)
    else:
        got = _run(p.variant, app_name, protocol, p.params)
    assert got == expected


def test_reference_directory_is_swapped_in():
    """The reference pairs really run on reference entries."""
    app = make_app("SOR")
    with reference_directory():
        rt = ParallelRuntime(app, app.small_params(), SMALL, "2L")
    assert all(isinstance(e, RefDirEntry)
               for e in rt.protocol.directory.entries)
    rt = ParallelRuntime(app, app.small_params(), SMALL, "2L")
    assert not any(isinstance(e, RefDirEntry)
                   for e in rt.protocol.directory.entries)
