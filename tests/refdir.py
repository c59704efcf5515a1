"""Reference directory: the paper's literal one-word-per-owner layout.

Section 2.3 describes a page's directory entry as one 32-bit word per
owner, each recording that owner's loosest permission and exclusive
holder. The simulator stores entries sparsely instead
(:class:`repro.protocol.directory.DirEntry`, O(sharers)); this module
keeps the literal layout as a test-only model so the differential tests
(``tests/test_directory.py``) and the parity suite
(``tests/test_parity.py``) can check that sparseness changes nothing
observable. Sharers and the exclusive holder are found by scanning all
``num_owners`` words, so the model shares no bookkeeping with the sparse
form it checks.
"""

from __future__ import annotations

import contextlib

from repro.errors import ProtocolError
from repro.protocol.directory import NO_HOLDER, GlobalDirectory
from repro.vm.page import Perm


class RefWord:
    """One owner's directory word."""

    __slots__ = ("perm", "excl_holder")

    def __init__(self) -> None:
        self.perm = Perm.INVALID
        self.excl_holder = NO_HOLDER  # global processor id, or NO_HOLDER


class RefDirEntry:
    """A directory entry as ``num_owners`` words, with the same accessor
    protocol as :class:`~repro.protocol.directory.DirEntry`."""

    def __init__(self, home_owner: int, num_owners: int,
                 home_is_default: bool = True) -> None:
        self.home_owner = home_owner
        self.home_is_default = home_is_default
        self.words = [RefWord() for _ in range(num_owners)]
        self.pending_until = 0.0

    def is_pending(self, at: float) -> bool:
        return at < self.pending_until

    def set_pending(self, until: float) -> None:
        if until > self.pending_until:
            self.pending_until = until

    def perm_of(self, owner: int) -> Perm:
        return self.words[owner].perm

    def set_perm(self, owner: int, perm: Perm) -> None:
        self.words[owner].perm = perm

    def sharers(self) -> list[int]:
        return [o for o, w in enumerate(self.words) if w.perm >= Perm.READ]

    def has_other_sharer(self, owner: int) -> bool:
        return any(o != owner for o in self.sharers())

    def _holders(self) -> list[tuple[int, int]]:
        return [(o, w.excl_holder) for o, w in enumerate(self.words)
                if w.excl_holder != NO_HOLDER]

    def exclusive_holder(self) -> tuple[int, int] | None:
        holders = self._holders()
        return holders[0] if holders else None

    def excl_of(self, owner: int) -> int:
        return self.words[owner].excl_holder

    def set_excl(self, owner: int, proc: int) -> None:
        others = [o for o, _ in self._holders() if o != owner]
        if others:
            raise ProtocolError(
                f"directory corrupt: exclusive holders on owners "
                f"{others + [owner]}")
        self.words[owner].excl_holder = proc

    def clear_excl(self, owner: int) -> None:
        self.words[owner].excl_holder = NO_HOLDER

    def state_tuple(self) -> tuple:
        return (tuple((o, int(w.perm)) for o, w in enumerate(self.words)
                      if w.perm > Perm.INVALID),
                self.exclusive_holder())

    def occupancy_into(self, per_owner: list[int]) -> int:
        loosest = Perm.INVALID
        for owner, word in enumerate(self.words):
            if word.perm >= Perm.READ:
                per_owner[owner] += 1
            loosest = max(loosest, word.perm)
        if self._holders():
            return 3
        if loosest >= Perm.WRITE:
            return 2
        if loosest >= Perm.READ:
            return 1
        return 0


def use_reference_entries(directory: GlobalDirectory) -> None:
    """Swap every entry of ``directory`` for a fresh reference entry with
    the same home."""
    directory.entries = [
        RefDirEntry(e.home_owner, directory.num_owners, e.home_is_default)
        for e in directory.entries]


@contextlib.contextmanager
def reference_directory():
    """Build every :class:`GlobalDirectory` inside the ``with`` block
    with reference entries."""
    init = GlobalDirectory.__init__

    def reference_init(self, *args, **kwargs) -> None:
        init(self, *args, **kwargs)
        use_reference_entries(self)

    GlobalDirectory.__init__ = reference_init
    try:
        yield
    finally:
        GlobalDirectory.__init__ = init
