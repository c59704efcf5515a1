"""The happens-before race detector and the coherence oracle.

Hand-written racy programs (write-write, write-read across a missing
release) must be flagged with full provenance; known data-race-free
programs (barrier rounds, lock-protected counters, flag-synchronized
producer/consumer chains) must come out clean; and protocol-level data
corruption — injected behind the protocol's back — must raise a
structured :class:`CoherenceViolation` naming the divergent word.
"""

from dataclasses import replace

import pytest

from repro.check import CheckContext, attach_checker
from repro.cluster.machine import Cluster
from repro.config import MachineConfig
from repro.errors import CoherenceViolation, DataRaceError
from repro.protocol import make_protocol
from repro.sim.process import Compute, ProcessGroup
from repro.sync import Barrier, FlagSet, MCLock

PROTOCOLS = ["2L", "2LS", "1LD", "1L"]


def build(protocol="2L", nodes=2, ppn=2, *, fail_fast=False,
          flags=None, locks=0):
    """A small checked cluster plus the sync objects a test needs."""
    cfg = MachineConfig(nodes=nodes, procs_per_node=ppn, page_bytes=512,
                        shared_bytes=512 * 4, superpage_pages=2)
    cluster = Cluster(cfg)
    proto = make_protocol(protocol, cluster)
    checker = attach_checker(cluster, proto, fail_fast=fail_fast)
    barrier = Barrier(cluster, proto)
    lock_objs = [MCLock(cluster, proto, i) for i in range(locks)]
    flag_objs = {name: FlagSet(cluster, proto, name, count)
                 for name, count in (flags or {}).items()}
    return cluster, proto, checker, barrier, lock_objs, flag_objs


def run(cluster, make_worker):
    group = ProcessGroup(cluster.sim)
    for proc in cluster.processors:
        group.spawn(proc, make_worker(proc), f"p{proc.global_id}")
    group.run()


# --------------------------------------------------------------------------
# Racy programs must be flagged.
# --------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_write_write_race_flagged(protocol):
    cluster, proto, checker, barrier, _, _ = build(protocol)

    def make_worker(proc):
        def gen():
            proto.store(proc, 0, 5, float(proc.global_id))
            yield Compute(1.0)
            yield from barrier.wait(proc)
        return gen()

    run(cluster, make_worker)
    assert checker.races, f"{protocol}: unsynchronized writes not flagged"
    assert all(r.kind == "write-write" for r in checker.races)
    assert {r.word for r in checker.races} == {5}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_write_read_race_across_missing_release_flagged(protocol):
    """p0 publishes data with a plain store; p1 reads it with nothing but
    compute delay in between — no release/acquire pair, so it races."""
    cluster, proto, checker, barrier, _, _ = build(protocol)

    def make_worker(proc):
        def gen():
            rank = proc.global_id
            if rank == 0:
                proto.store(proc, 1, 7, 42.0)
            yield Compute(5.0)
            if rank == 1:
                proto.load(proc, 1, 7)
            yield Compute(1.0)
            yield from barrier.wait(proc)
        return gen()

    run(cluster, make_worker)
    kinds = {r.kind for r in checker.races}
    assert kinds, f"{protocol}: missing-release read not flagged"
    assert kinds <= {"write-read", "read-write"}
    (report,) = checker.races
    assert {report.first.proc, report.second.proc} == {0, 1}


def test_flag_peek_creates_no_ordering():
    """Spinning on flag_peek (no acquire) and then reading the data is
    the classic missing-release bug; the detector must flag it."""
    cluster, proto, checker, barrier, _, flags = build(
        flags={"ready": 1})
    ready = flags["ready"]

    def make_worker(proc):
        def gen():
            rank = proc.global_id
            if rank == 0:
                proto.store(proc, 0, 9, 7.0)
                yield Compute(1.0)
                ready.set(proc, 0)
            elif rank == 1:
                while not ready.peek(proc, 0):
                    yield Compute(1.0)
                proto.load(proc, 0, 9)  # peek performed no acquire
            yield from barrier.wait(proc)
        return gen()

    run(cluster, make_worker)
    assert [r.kind for r in checker.races] == ["write-read"]


def test_race_report_provenance():
    cluster, proto, checker, barrier, _, _ = build(nodes=2, ppn=1)

    def make_worker(proc):
        def gen():
            proto.store(proc, 2, 11, 1.0)
            yield Compute(1.0)
            yield from barrier.wait(proc)
        return gen()

    run(cluster, make_worker)
    (report,) = checker.races
    assert report.page == 2
    assert report.offset == 11
    assert report.word == 2 * 64 + 11
    first, second = report.first, report.second
    assert {first.proc, second.proc} == {0, 1}
    assert {first.node, second.node} == {0, 1}
    assert first.kind == second.kind == "write"
    assert first.sim_time >= 0.0 and second.sim_time >= 0.0
    assert "page 2 word 11" in report.describe()


def test_fail_fast_raises_at_the_racing_access():
    cluster, proto, checker, barrier, _, _ = build(fail_fast=True)

    def make_worker(proc):
        def gen():
            proto.store(proc, 0, 0, float(proc.global_id))
            yield Compute(1.0)
            yield from barrier.wait(proc)
        return gen()

    with pytest.raises(DataRaceError, match="page 0 word 0"):
        run(cluster, make_worker)


def test_finalize_raises_on_collected_races():
    cluster, proto, checker, barrier, _, _ = build()

    def make_worker(proc):
        def gen():
            proto.store(proc, 0, 0, float(proc.global_id))
            yield Compute(1.0)
            yield from barrier.wait(proc)
        return gen()

    run(cluster, make_worker)
    with pytest.raises(DataRaceError, match="data race"):
        checker.finalize()


# --------------------------------------------------------------------------
# Data-race-free programs must come out clean.
# --------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_barrier_rounds_are_clean(protocol):
    """Disjoint writes per round, arbitrary reads after the barrier."""
    cluster, proto, checker, barrier, _, _ = build(protocol)
    nprocs = cluster.num_procs

    def make_worker(proc):
        def gen():
            rank = proc.global_id
            for rnd in range(3):
                for off in range(rank * 8, rank * 8 + 8):
                    proto.store(proc, rnd % 4, off, float(rnd * 100 + off))
                    yield Compute(1.0)
                yield from barrier.wait(proc)
                for off in range(0, nprocs * 8, 3):
                    proto.load(proc, rnd % 4, off)
                    yield Compute(0.5)
                yield from barrier.wait(proc)
        return gen()

    run(cluster, make_worker)
    checker.finalize()
    assert checker.races == []
    # Barrier episodes plus end-of-run all cross-checked the golden image.
    assert checker.oracle.global_checks == 7


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_lock_protected_counters_are_clean(protocol):
    cluster, proto, checker, barrier, locks, _ = build(protocol, locks=2)

    def make_worker(proc):
        def gen():
            rank = proc.global_id
            for i in range(3):
                lock = locks[(rank + i) % 2]
                word = 3 + (rank + i) % 2
                yield from lock.acquire(proc)
                value = proto.load(proc, 0, word)
                yield Compute(2.0)
                proto.store(proc, 0, word, value + 1.0)
                lock.release(proc)
                yield Compute(1.0)
            yield from barrier.wait(proc)
        return gen()

    run(cluster, make_worker)
    checker.finalize()
    assert checker.races == []
    assert proto.master(0)[3] + proto.master(0)[4] == 12.0


def test_flag_producer_consumer_chain_is_clean():
    """Transitive happens-before through a chain of flags: p0 -> p1 -> p2
    -> p3, each reading its predecessor's data and appending its own."""
    cluster, proto, checker, barrier, _, flags = build(
        flags={"stage": 4})
    stage = flags["stage"]

    def make_worker(proc):
        def gen():
            rank = proc.global_id
            if rank > 0:
                yield from stage.wait(proc, rank - 1)
                for r in range(rank):
                    value = proto.load(proc, 0, r)
                    assert value == float(r + 1), (rank, r, value)
            proto.store(proc, 0, rank, float(rank + 1))
            yield Compute(1.0)
            stage.set(proc, rank)
            yield from barrier.wait(proc)
        return gen()

    run(cluster, make_worker)
    checker.finalize()
    assert checker.races == []


# --------------------------------------------------------------------------
# The coherence oracle must catch protocol-level corruption.
# --------------------------------------------------------------------------

def test_oracle_catches_corruption_at_read():
    """Corrupt the master copy behind the protocol's back: the next
    checked read of that word must raise with full provenance."""
    cluster, proto, checker, barrier, _, _ = build()

    def make_worker(proc):
        def gen():
            rank = proc.global_id
            if rank == 0:
                proto.store(proc, 1, 3, 42.0)
            yield Compute(1.0)
            yield from barrier.wait(proc)
            if rank == 2:
                proto.master(1)[3] = 99.0  # simulated protocol bug
                proto.load(proc, 1, 3)
            yield from barrier.wait(proc)
        return gen()

    with pytest.raises(CoherenceViolation) as info:
        run(cluster, make_worker)
    exc = info.value
    assert exc.check == "read-value"
    assert (exc.page, exc.offset, exc.word) == (1, 3, 67)
    assert exc.expected == 42.0
    assert exc.actual == 99.0
    assert exc.event is not None and exc.event.proc == 2


def test_oracle_global_check_catches_divergence():
    """A lost write (master corrupted after the run) is caught by the
    end-of-run golden-image sweep even though nobody reads the word."""
    cluster, proto, checker, barrier, _, _ = build()

    def make_worker(proc):
        def gen():
            if proc.global_id == 3:
                proto.store(proc, 3, 60, 5.0)
            yield Compute(1.0)
            yield from barrier.wait(proc)
        return gen()

    run(cluster, make_worker)
    proto.master(3)[60] = 0.0  # drop the write behind the protocol's back
    with pytest.raises(CoherenceViolation) as info:
        checker.finalize()
    exc = info.value
    assert exc.check == "page-content"
    assert (exc.page, exc.offset) == (3, 60)
    assert exc.expected == 5.0 and exc.actual == 0.0


def test_oracle_skips_value_checks_on_racy_words():
    """Racy words have no well-defined golden value: the detector must
    flag the race, and the oracle must not pile a spurious
    CoherenceViolation on top."""
    cluster, proto, checker, barrier, _, _ = build()

    def make_worker(proc):
        def gen():
            rank = proc.global_id
            proto.store(proc, 0, 0, float(rank))
            yield Compute(float(rank))
            proto.load(proc, 0, 0)
            yield Compute(1.0)
            yield from barrier.wait(proc)
        return gen()

    run(cluster, make_worker)  # must not raise CoherenceViolation
    assert checker.race_count > 0
    with pytest.raises(DataRaceError):
        checker.finalize()


# --------------------------------------------------------------------------
# End-to-end wiring: config flag, stats surfacing.
# --------------------------------------------------------------------------

def _sor_app():
    from repro.apps import SOR
    app = SOR()
    return app, app.small_params()


def test_run_app_under_config_flag():
    from repro.runtime import run_app
    app, params = _sor_app()
    config = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512,
                           checking=True)
    result = run_app(app, params, config, protocol="2L")
    checker = result.runtime.checker
    assert isinstance(checker, CheckContext)
    assert checker.races == []
    assert checker.oracle.global_checks > 0
    # Detector statistics surface through the run's aggregated counters.
    assert result.stats.counter("check_events") > 0
    assert result.stats.counter("check_vc_merges") > 0
    assert result.stats.counter("check_races") == 0
    # With the flag off, no checker is attached and nothing is counted.
    result = run_app(app, params, replace(config, checking=False),
                     protocol="2L")
    assert result.runtime.checker is None
    assert result.stats.counter("check_events") == 0
