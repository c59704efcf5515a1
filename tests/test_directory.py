"""Unit tests for the global directory and write-notice structures.

The directory stores sparse :class:`DirEntry` objects (DESIGN.md §15,
O(sharers)). The hypothesis differential test drives one alongside the
test-only reference entry (:mod:`tests.refdir`, the paper's literal
one-word-per-owner layout) through randomized update sequences and
asserts they agree on every observable.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FaultConfig, MachineConfig
from repro.errors import ProtocolError
from repro.memchannel.faults import FaultInjector
from repro.protocol.directory import (NO_HOLDER, DirectoryLockModel,
                                      DirEntry, GlobalDirectory, PageMeta)
from repro.protocol.writenotice import (NLEList, NoticeBoard, PerProcNotices,
                                       post_notices)
from repro.trace import Tracer
from repro.vm.page import Perm

from .refdir import RefDirEntry, use_reference_entries


def small_config(**kw):
    kw.setdefault("nodes", 4)
    kw.setdefault("procs_per_node", 1)
    kw.setdefault("page_bytes", 512)
    kw.setdefault("shared_bytes", 512 * 16)
    return MachineConfig(**kw)


def entry_pair(num_owners=4):
    """A fresh (sparse, reference) entry pair over the same owner space."""
    return (DirEntry(home_owner=0),
            RefDirEntry(home_owner=0, num_owners=num_owners))


class TestDirEntry:
    def test_sharers(self):
        entry = DirEntry(home_owner=0)
        entry.set_perm(2, Perm.WRITE)
        entry.set_perm(0, Perm.READ)
        assert entry.sharers() == [0, 2]

    def test_set_perm_invalid_unshares(self):
        entry = DirEntry(home_owner=0)
        entry.set_perm(1, Perm.READ)
        entry.set_perm(1, Perm.INVALID)
        assert entry.sharers() == []
        assert entry.perm_of(1) is Perm.INVALID

    def test_single_exclusive_holder(self):
        entry = DirEntry(home_owner=0)
        entry.set_perm(1, Perm.WRITE)
        entry.set_excl(1, 5)
        assert entry.exclusive_holder() == (1, 5)
        assert entry.excl_of(1) == 5
        assert entry.excl_of(0) == NO_HOLDER

    def test_no_holder(self):
        entry = DirEntry(home_owner=0)
        assert entry.exclusive_holder() is None

    def test_two_holders_is_corruption(self):
        entry = DirEntry(home_owner=0)
        entry.set_excl(1, 1)
        with pytest.raises(ProtocolError, match="corrupt"):
            entry.set_excl(2, 2)

    def test_clear_excl_wrong_owner_is_noop(self):
        for entry in entry_pair():
            entry.set_excl(1, 7)
            entry.clear_excl(0)
            assert entry.exclusive_holder() == (1, 7)
            entry.clear_excl(1)
            assert entry.exclusive_holder() is None


class TestGlobalDirectory:
    def test_round_robin_home_per_superpage(self):
        cfg = small_config(superpage_pages=2)
        d = GlobalDirectory(cfg, num_owners=4)
        homes = [d.home(p) for p in range(cfg.num_pages)]
        # pages 0,1 -> owner 0; 2,3 -> owner 1; ...
        assert homes[:8] == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_lock_free_update_cost_constant(self):
        cfg = small_config()
        d = GlobalDirectory(cfg, 4)

        class P:
            clock = 0.0

        assert d.update_cost(P()) == cfg.costs.dir_update

    def test_global_lock_model_serializes(self):
        cfg = small_config()
        model = DirectoryLockModel(cfg)
        c1 = model.update_cost(0.0)
        c2 = model.update_cost(0.0)  # queued behind the first
        assert c1 == pytest.approx(16.0)
        assert c2 == pytest.approx(32.0)

    def test_broadcast_bytes(self):
        cfg = small_config()
        assert GlobalDirectory(cfg, 8).broadcast_bytes() == 32

    @pytest.mark.parametrize("reference", [False, True])
    def test_occupancy(self, reference):
        cfg = small_config()
        d = GlobalDirectory(cfg, 4)
        if reference:
            use_reference_entries(d)
        d.entry(0).set_perm(1, Perm.READ)
        d.entry(0).set_perm(2, Perm.READ)
        d.entry(1).set_perm(3, Perm.WRITE)
        d.entry(2).set_perm(0, Perm.WRITE)
        d.entry(2).set_excl(0, 0)
        per_owner, histogram = d.occupancy()
        assert per_owner == [1, 1, 1, 1]
        assert histogram == [cfg.num_pages - 3, 1, 1, 1]


# ---------------------------------------------------------------------------
# Differential property: sparse vs reference across random update sequences.
# ---------------------------------------------------------------------------

N_OWNERS = 6

_ops = st.one_of(
    st.tuples(st.just("set_perm"), st.integers(0, N_OWNERS - 1),
              st.sampled_from([Perm.INVALID, Perm.READ, Perm.WRITE])),
    st.tuples(st.just("set_excl"), st.integers(0, N_OWNERS - 1),
              st.integers(0, 23)),
    st.tuples(st.just("clear_excl"), st.integers(0, N_OWNERS - 1),
              st.just(0)),
)


def _observe(entry):
    return {
        "perms": [int(entry.perm_of(o)) for o in range(N_OWNERS)],
        "sharers": entry.sharers(),
        "other": [entry.has_other_sharer(o) for o in range(N_OWNERS)],
        "holder": entry.exclusive_holder(),
        "excl_of": [entry.excl_of(o) for o in range(N_OWNERS)],
        "state": entry.state_tuple(),
    }


@settings(max_examples=200, deadline=None)
@given(st.lists(_ops, max_size=40))
def test_sparse_and_dense_entries_agree(ops):
    """Any update sequence leaves the sparse entry and the reference
    entry indistinguishable: same permissions, sharer sets, holders,
    occupancy, and state digests — including raising corruption errors
    at exactly the same step."""
    sparse = DirEntry(home_owner=0)
    ref = RefDirEntry(home_owner=0, num_owners=N_OWNERS)
    for op, owner, arg in ops:
        results = []
        for entry in (sparse, ref):
            try:
                getattr(entry, op)(*((owner, arg) if op != "clear_excl"
                                     else (owner,)))
                results.append(None)
            except ProtocolError:
                results.append("corrupt")
        assert results[0] == results[1]
        assert _observe(sparse) == _observe(ref)
    per_s, hist_s = [0] * N_OWNERS, [0, 0, 0, 0]
    per_d, hist_d = [0] * N_OWNERS, [0, 0, 0, 0]
    hist_s[sparse.occupancy_into(per_s)] += 1
    hist_d[ref.occupancy_into(per_d)] += 1
    assert (per_s, hist_s) == (per_d, hist_d)


class TestNoticeBoard:
    def test_post_and_collect_respects_visibility(self):
        board = NoticeBoard(0, 4)
        board.post(1, page=7, visible_at=10.0)
        board.post(1, page=8, visible_at=20.0)
        got = board.collect(upto=15.0)
        assert [n.page for n in got] == [7]
        assert board.pending() == 1
        got = board.collect(upto=25.0)
        assert [n.page for n in got] == [8]

    def test_bins_consumed_in_order(self):
        board = NoticeBoard(0, 3)
        board.post(1, 1, 5.0)
        board.post(2, 2, 3.0)
        got = board.collect(10.0)
        assert [(n.from_owner, n.page) for n in got] == [(1, 1), (2, 2)]

    def test_visible_notice_behind_late_head_still_delivered(self):
        # Distinct processors of one node post to the same bin at
        # unordered simulated clocks; MC write ordering is per source
        # processor, not per node, so a visible notice parked behind a
        # not-yet-visible head must still come out (missing it lets the
        # poster's lock successor read a stale page).
        board = NoticeBoard(0, 2)
        board.post(1, 1, 20.0)
        board.post(1, 2, 10.0)
        got = board.collect(15.0)
        assert [(n.page, n.visible_at) for n in got] == [(2, 10.0)]
        assert board.pending() == 1
        got = board.collect(25.0)
        assert [(n.page, n.visible_at) for n in got] == [(1, 20.0)]
        assert board.pending() == 0


def _board_state(board):
    return ([list(bin_) for bin_ in board.bins], sorted(board.busy),
            board.posted, board.lost)


#: (from_owner, page, visible_at, receivers) releases, unordered in time
#: within each bin, fanned out to overlapping receiver sets.
_RELEASES = [(0, 3, 10.0, [1, 2, 3]), (2, 5, 4.0, [0, 1, 3]),
             (0, 4, 2.0, [1, 3]), (1, 3, 7.0, [0, 2, 3]),
             (3, 9, 1.0, [0, 1, 2]), (0, 1, 6.0, [2])]


def _fan_out(make_boards, batched):
    """Drive ``_RELEASES`` through ``post_notices`` or per-board posts."""
    boards = make_boards()
    for from_owner, page, visible_at, receivers in _RELEASES:
        if batched:
            post_notices(boards, receivers, from_owner, page, visible_at)
        else:
            for owner in receivers:
                boards[owner].post(from_owner, page, visible_at)
    return boards


def _assert_same_delivery(make_boards):
    """``post_notices`` leaves every board as per-board posts would, and
    the boards then collect the same notices in the same order."""
    ref = _fan_out(make_boards, batched=False)
    got = _fan_out(make_boards, batched=True)
    assert [_board_state(b) for b in got] == [_board_state(b) for b in ref]
    for upto in (3.0, 6.5, 100.0):
        assert ([b.collect(upto) for b in got]
                == [b.collect(upto) for b in ref])
        assert [_board_state(b) for b in got] == \
            [_board_state(b) for b in ref]
    return ref, got


class TestPostNotices:
    def test_equals_per_board_post(self):
        ref, got = _assert_same_delivery(
            lambda: [NoticeBoard(o, 4) for o in range(4)])
        assert sum(b.posted for b in got) == 15
        assert all(b.pending() == 0 and not b.busy for b in got)

    def test_receivers_share_one_notice(self):
        boards = [NoticeBoard(o, 3) for o in range(3)]
        post_notices(boards, [1, 2], 0, page=6, visible_at=1.0)
        assert boards[1].bins[0][0] is boards[2].bins[0][0]

    def test_same_fates_with_injector_on_some_boards(self):
        """Injected boards fall back to ``post`` in owner order, so the
        injector draws the same fates for the same notices."""
        injectors = []

        def make_boards():
            cfg = MachineConfig(nodes=4, procs_per_node=1, page_bytes=512,
                                faults=FaultConfig(seed=11,
                                                   notice_drop_rate=0.3,
                                                   notice_delay_rate=0.3,
                                                   notice_delay_us=5.0))
            inj = FaultInjector(cfg)
            injectors.append(inj)
            boards = [NoticeBoard(o, 4) for o in range(4)]
            boards[1].injector = inj
            boards[3].injector = inj
            return boards

        ref, got = _assert_same_delivery(make_boards)
        ref_inj, got_inj = injectors
        assert got_inj._rng.getstate() == ref_inj._rng.getstate()
        assert got_inj.summary() == ref_inj.summary()
        assert [b.lost for b in got] == [b.lost for b in ref]
        assert sum(b.lost for b in got) == ref_inj.notices_dropped > 0

    def test_same_trace_with_tracer_attached(self):
        tracers = []

        def make_boards():
            tracer = Tracer()
            tracers.append(tracer)
            boards = [NoticeBoard(o, 4) for o in range(4)]
            boards[0].trace = tracer
            boards[2].trace = tracer
            return boards

        _assert_same_delivery(make_boards)
        ref_tr, got_tr = tracers
        assert got_tr.events == ref_tr.events
        assert len(got_tr.by_kind("write_notice")) == 7


class TestPerProcNotices:
    def test_bitmap_dedup(self):
        n = PerProcNotices()
        assert n.add(5) is True
        assert n.add(5) is False
        assert n.redundant_drops == 1
        assert len(n) == 1

    def test_drain_clears(self):
        n = PerProcNotices()
        n.add(1)
        n.add(2)
        assert n.drain() == [1, 2]
        assert len(n) == 0
        assert n.add(1) is True  # bitmap cleared too


class TestNLEList:
    def test_take_all_sorted_and_clears(self):
        nle = NLEList()
        nle.add(5)
        nle.add(2)
        nle.add(5)
        assert nle.take_all() == [2, 5]
        assert len(nle) == 0


class TestPageMeta:
    def test_defaults(self):
        meta = PageMeta()
        assert meta.flush_ts == -1
        assert meta.update_ts == -1
        assert meta.wn_ts == -1
        assert meta.twin is None
