"""Write-notice lists (Section 2.3, Figure 4).

Each owner has a globally accessible write-notice board with one *bin*
(circular queue) per remote owner, so every bin has a single writer and
no global lock is needed. On an acquire, a processor traverses all bins
and distributes the notices to per-processor second-level lists; each of
those is a bitmap + queue protected by a local ll/sc lock, so redundant
notices for the same page collapse.

Notices carry the Memory Channel visibility time of the write that posted
them: an acquiring processor only consumes the prefix of each bin that
has become visible by its local clock, exactly like the hardware's
in-order delivery.

A release posts one page's notice to every sharing owner at once
(:func:`post_notices`), and each board keeps the set of its non-empty
bins, so a collect visits only the bins that hold something.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


#: Shared empty results for drains/collects with nothing queued (the
#: common case). Callers only iterate the result, never mutate it.
_EMPTY: list[int] = []
_EMPTY_NOTICES: list["WriteNotice"] = []


@dataclass(frozen=True)
class WriteNotice:
    """Notification that ``page`` was modified by ``from_owner``.

    ``lost`` marks an injected payload loss (DESIGN.md §12): the bin's
    tail pointer still advanced — that word write is part of the ordered
    stream, which is how the consumer can even observe the gap — but the
    page number never arrived. Protocol code must not use ``page`` of a
    lost notice for anything but bookkeeping; consumers react with a
    conservative resynchronization instead.
    """

    page: int
    from_owner: int
    visible_at: float
    lost: bool = False


class NoticeBoard:
    """One owner's global write-notice list: a bin per remote owner."""

    #: Optional event tracer (:class:`repro.trace.Tracer`); set on every
    #: board by :func:`repro.trace.attach_tracer`.
    trace = None
    #: Optional fault injector (:class:`repro.memchannel.faults.
    #: FaultInjector`); set on every board by the protocol when the
    #: cluster runs with fault injection. Notices posted through an
    #: injector may be delivered late or arrive as a sequence gap
    #: (``lost=True``).
    injector = None

    def __init__(self, owner: int, num_owners: int) -> None:
        self.owner = owner
        self.bins: list[deque[WriteNotice]] = [deque()
                                               for _ in range(num_owners)]
        #: Indices of the non-empty bins (the busy-bin index).
        self.busy: set[int] = set()
        self.posted = 0
        #: Notices that arrived as gaps (injected losses), for tests.
        self.lost = 0

    def post(self, from_owner: int, page: int, visible_at: float) -> None:
        """Append a notice to ``from_owner``'s bin (a remote MC write)."""
        lost = False
        if self.injector is not None:
            dropped, extra = self.injector.notice_fate()
            if dropped:
                lost = True
                self.lost += 1
            elif extra > 0.0:
                visible_at += extra
        self.bins[from_owner].append(
            WriteNotice(page, from_owner, visible_at, lost))
        self.busy.add(from_owner)
        self.posted += 1
        if self.trace is not None:
            if lost:
                self.trace.instant("write_notice", None, visible_at,
                                   obj=page, from_owner=from_owner,
                                   to_owner=self.owner, lost=True)
            else:
                self.trace.instant("write_notice", None, visible_at,
                                   obj=page, from_owner=from_owner,
                                   to_owner=self.owner)

    def collect(self, upto: float) -> list[WriteNotice]:
        """Consume every notice visible by time ``upto`` (bin order).

        A bin holds one remote *node*'s notices in post (event) order,
        but distinct processors of that node release at unordered
        simulated clocks, so ``visible_at`` is not monotone within a
        bin — Memory Channel ordering is per-source-processor, not
        per-node. A visible notice parked behind a not-yet-visible one
        must still be delivered: skipping it lets an acquirer that just
        took the poster's lock miss the invalidation and read a stale
        page (a lost update the race checker later flags).
        """
        busy = self.busy
        if not busy:
            return _EMPTY_NOTICES
        bins = self.bins
        found: list[WriteNotice] = []
        # Ascending bin index: the same delivery order as a scan of
        # every bin, without visiting the empty ones.
        for index in sorted(busy):
            bin_ = bins[index]
            # Fast path: the (common) monotone prefix.
            while bin_ and bin_[0].visible_at <= upto:
                found.append(bin_.popleft())
            if len(bin_) > 1:
                ripe = [wn for wn in bin_ if wn.visible_at <= upto]
                if ripe:
                    unripe = [wn for wn in bin_ if wn.visible_at > upto]
                    bin_.clear()
                    bin_.extend(unripe)
                    found.extend(ripe)
            if not bin_:
                busy.discard(index)
        return found

    def pending(self) -> int:
        bins = self.bins
        return sum(len(bins[index]) for index in self.busy)


def post_notices(boards: list[NoticeBoard], owners, from_owner: int,
                 page: int, visible_at: float) -> None:
    """Post ``page``'s notice from ``from_owner`` to each of ``owners``.

    Equal to ``boards[o].post(from_owner, page, visible_at)`` for each
    ``o`` in ``owners``, in that order: the one fan-out a release makes
    per flushed page. Boards without an injector or tracer take the
    fast path and share one immutable notice. A board with either goes
    through :meth:`NoticeBoard.post`, so the injector draws its fates
    in the same owner order and the tracer records the same instants.
    """
    shared = None
    for owner in owners:
        board = boards[owner]
        if board.injector is not None or board.trace is not None:
            board.post(from_owner, page, visible_at)
            continue
        if shared is None:
            shared = WriteNotice(page, from_owner, visible_at)
        board.bins[from_owner].append(shared)
        board.busy.add(from_owner)
        board.posted += 1


class PerProcNotices:
    """A processor's second-level write-notice list: bitmap + queue.

    ``add`` returns True when the notice was new (bit previously clear);
    redundant notices are dropped without touching the queue, which is the
    multi-bin structure's point. ``drain`` flushes the queue and clears
    the bitmap, as the protocol does while holding the local lock.
    """

    def __init__(self) -> None:
        self._bitmap: set[int] = set()
        self._queue: deque[int] = deque()
        self.redundant_drops = 0

    def add(self, page: int) -> bool:
        if page in self._bitmap:
            self.redundant_drops += 1
            return False
        self._bitmap.add(page)
        self._queue.append(page)
        return True

    def drain(self) -> list[int]:
        if not self._queue:
            return _EMPTY
        pages = list(self._queue)
        self._queue.clear()
        self._bitmap.clear()
        return pages

    def __len__(self) -> int:
        return len(self._queue)


@dataclass
class NLEList:
    """A processor's no-longer-exclusive list (written by local peers).

    When a page leaves exclusive mode while other local processors hold
    write mappings, the responder places the page here; the owner flushes
    it at its next release as if it were dirty.
    """

    pages: set[int] = field(default_factory=set)

    def add(self, page: int) -> None:
        self.pages.add(page)

    def take_all(self) -> list[int]:
        if not self.pages:
            return _EMPTY
        pages = sorted(self.pages)
        self.pages.clear()
        return pages

    def __len__(self) -> int:
        return len(self.pages)
