"""Property-based tests for Memory Channel visibility semantics and the
superpage / mapping-table machinery — including under fault injection
(DESIGN.md §12): the ordering guarantees the protocols rely on must
survive injected reordering, delays, and drops."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FaultConfig, MachineConfig
from repro.errors import MemoryChannelError
from repro.memchannel.faults import FaultInjector
from repro.memchannel.regions import VersionedWord
from repro.protocol.writenotice import NoticeBoard
from repro.runtime.program import ParallelRuntime
from repro.apps import make_app

pytestmark = pytest.mark.heavy  # long hypothesis suite


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 1000), st.integers(0, 99)),
                min_size=1, max_size=30),
       st.integers(0, 2000))
def test_versioned_word_reader_sees_latest_visible(writes, read_at):
    """A reader observes exactly the last write whose (possibly
    ordering-adjusted) visibility time is <= its clock.

    Times are integers (well away from the sub-microsecond hub-ordering
    and read-tolerance epsilons) so the reference model is exact.
    """
    w = VersionedWord(-1)
    applied = []  # (effective_visible_at, value) in hub order
    last = 0.0
    for visible_at, value in writes:
        effective = visible_at if visible_at >= last else last + 1e-6
        w.write(float(visible_at), value)
        applied.append((effective, value))
        last = effective

    expected = -1
    for visible_at, value in applied:
        if visible_at <= read_at + 1e-6:
            expected = value
    # Only the most recent retained history can be checked after pruning
    # (the initial value occupies one of the 8 retained slots).
    if len(applied) < 8 or read_at >= applied[-7][0]:
        assert w.read(float(read_at)) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0, 100), min_size=2, max_size=20))
def test_versioned_word_monotone_reads(times):
    """Reading at later clocks never observes an older write."""
    w = VersionedWord(0)
    for i, t in enumerate(times):
        w.write(t, i + 1)
    seen = [w.read(at) for at in sorted([0.0, 25.0, 50.0, 75.0, 1000.0])]
    assert seen == sorted(seen)


_BOARD_OPS = st.one_of(
    st.tuples(st.just("post"), st.integers(0, 11), st.integers(0, 9),
              st.integers(0, 50)),
    st.tuples(st.just("collect"), st.integers(0, 60)))


@settings(max_examples=200, deadline=None)
@given(st.lists(_BOARD_OPS, max_size=60))
def test_busy_bin_collect_matches_full_scan(ops):
    """The busy-bin index is invisible: over any interleaving of posts
    and collects, ``collect`` returns exactly what a scan of every bin
    would (each bin's visible notices, bins in index order), and the
    index names exactly the non-empty bins. Twelve bins: a set of small
    ints iterates out of index order once one of them is 8 or more."""
    board = NoticeBoard(owner=0, num_owners=12)
    model: list[list[tuple[int, int, float]]] = [[] for _ in range(12)]
    for op in ops:
        if op[0] == "post":
            _, from_owner, page, visible_at = op
            board.post(from_owner, page, float(visible_at))
            model[from_owner].append((page, from_owner, float(visible_at)))
        else:
            upto = float(op[1])
            expect = []
            for index, bin_ in enumerate(model):
                expect += [wn for wn in bin_ if wn[2] <= upto]
                model[index] = [wn for wn in bin_ if wn[2] > upto]
            got = board.collect(upto)
            assert [(wn.page, wn.from_owner, wn.visible_at)
                    for wn in got] == expect
        assert board.busy == {i for i, bin_ in enumerate(model) if bin_}
        assert board.pending() == sum(len(bin_) for bin_ in model)


class TestSuperpages:
    def test_mapping_table_budget_enforced(self):
        # With tiny superpages and many locks, the 64K-connection budget is
        # load-bearing: page regions consume nodes x superpages entries.
        cfg = MachineConfig(nodes=2, procs_per_node=1, page_bytes=512,
                            shared_bytes=512 * 8, superpage_pages=1)
        from repro.cluster.machine import Cluster
        cluster = Cluster(cfg)
        with pytest.raises(MemoryChannelError):
            for i in range(100000):
                cluster.mc.new_region(f"r{i}", 1)

    def test_superpage_homes_move_together(self):
        app = make_app("SOR")
        cfg = MachineConfig(nodes=4, procs_per_node=1, page_bytes=512,
                            superpage_pages=4)
        rt = ParallelRuntime(app, app.small_params(), cfg, "2L")
        rt.run()
        directory = rt.protocol.directory
        per = rt.config.superpage_pages
        for sp_start in range(0, rt.config.num_pages, per):
            homes = {directory.home(p)
                     for p in range(sp_start,
                                    min(sp_start + per,
                                        rt.config.num_pages))}
            assert len(homes) == 1, (
                f"superpage at {sp_start} has split homes {homes}")

    def test_relocation_happens_at_most_once_per_superpage(self):
        app = make_app("Em3d")
        cfg = MachineConfig(nodes=4, procs_per_node=2, page_bytes=512,
                            superpage_pages=2)
        rt = ParallelRuntime(app, app.small_params(), cfg, "2L")
        res = rt.run()
        sp_count = (rt.config.num_pages + 1) // 2
        assert res.stats.counter("home_relocations") <= sp_count


# --- fault injection: ordering guarantees survive injected chaos --------------


def _injector(**kw) -> FaultInjector:
    cfg = MachineConfig(nodes=2, procs_per_node=1, page_bytes=512,
                        faults=FaultConfig(**kw))
    return FaultInjector(cfg)


class TestInjectionOrdering:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 40))
    def test_versioned_word_absorbs_injected_jitter(self, seed, writes):
        """Per-region write order survives reordering: VersionedWord
        clamps a jittered (earlier-looking) visibility into hub order,
        so a late reader always sees the last-issued write."""
        inj = _injector(seed=seed, reorder_rate=0.5, reorder_window_us=50.0)
        w = VersionedWord(-1)
        t = 0.0
        for i in range(writes):
            t += 10.0
            w.write(t + inj.word_jitter(), i)
        assert w.read(t + 100.0) == writes - 1

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 60))
    def test_notice_bins_deliver_by_visibility_with_gaps_counted(
            self, seed, posts):
        """Visibility-ordered delivery holds under delay/drop injection:
        a collect returns exactly the notices visible by its cutoff
        (a delayed notice arrives late without blocking ones behind it,
        since bins interleave unordered per-processor streams), never an
        invisible one, and every injected loss arrives as a counted gap
        (lost=True), never silently."""
        inj = _injector(seed=seed, notice_delay_rate=0.4,
                        notice_delay_us=100.0, notice_drop_rate=0.3)
        board = NoticeBoard(owner=0, num_owners=2)
        board.injector = inj
        for i in range(posts):
            board.post(1, page=i, visible_at=float(i))
        cutoff = float(posts) / 2
        early = board.collect(cutoff)
        assert all(n.visible_at <= cutoff for n in early)
        assert board.pending() == posts - len(early)
        for n in early:                     # nothing visible is left behind
            assert n.visible_at <= cutoff
        assert all(wn.visible_at > cutoff
                   for bin_ in board.bins for wn in bin_)
        late = board.collect(float(posts) + 200.0)
        pages = sorted(n.page for n in early + late)
        assert pages == list(range(posts))     # each post delivered once
        lost = sum(1 for n in early + late if n.lost)
        assert lost == board.lost == inj.notices_dropped  # losses are
        # delivered as explicit gaps, exactly as often as injected.

    def test_zero_rate_injector_draws_no_randomness(self):
        """The parity guarantee at its root: with every rate at zero,
        no decision point consumes the RNG stream, so the injector is
        observationally inert."""
        inj = _injector(seed=123)
        before = inj._rng.getstate()
        for _ in range(50):
            assert inj.notice_fate() == (False, 0.0)
            assert inj.word_jitter() == 0.0
            assert inj.nak_request() is False
            assert inj.choose_tie(4) == 0
        assert inj._rng.getstate() == before
        assert all(v == 0 for v in inj.summary().values())

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31))
    def test_same_seed_same_decisions(self, seed):
        """Two injectors with the same seed make identical decisions —
        the replay contract at the decision-point level."""
        kw = dict(seed=seed, reorder_rate=0.3, notice_delay_rate=0.3,
                  notice_drop_rate=0.2, nak_rate=0.2)
        a, b = _injector(**kw), _injector(**kw)
        for _ in range(100):
            assert a.notice_fate() == b.notice_fate()
            assert a.word_jitter() == b.word_jitter()
            assert a.nak_request() == b.nak_request()
            assert a.choose_tie(3) == b.choose_tie(3)
        assert a.summary() == b.summary()
