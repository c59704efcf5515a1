"""The worker environment: what application code sees.

An application worker is a generator taking a single ``env`` argument.
The same worker code runs in three settings:

* **parallel** — :class:`WorkerEnv`, backed by a coherence protocol on
  the simulated cluster (this module);
* **sequential** — :class:`~repro.runtime.sequential.SequentialEnv`,
  plain numpy arrays and a cost accumulator (the paper's uninstrumented
  sequential runs of Table 2).

Data access methods (``get``/``set``/``get_block``/``set_block``) are
plain calls; anything that can block — barriers, lock acquires, flag
waits — is a sub-generator the worker must delegate to with
``yield from``; compute blocks are yielded instructions:

    value = env.get(arr, i)
    env.set(arr, i, value + 1.0)
    yield env.compute(cpu_us=5.0, mem_bytes=256)
    yield from env.barrier()
    yield from env.acquire(0)
    ...critical section...
    env.release(0)
"""

from __future__ import annotations

import numpy as np

from ..cluster.machine import Processor
from ..lower.exec import LoweredRun
from ..sim.process import Compute
from .api import SharedArray


class WorkerEnv:
    """Per-processor handle used by application code (parallel runs)."""

    def __init__(self, runtime, proc: Processor) -> None:
        self._rt = runtime
        self.proc = proc
        self.rank = proc.global_id
        self.nprocs = runtime.cluster.num_procs
        self._protocol = runtime.protocol
        self._shift = runtime.config.page_shift - 3  # words per page shift
        self._mask = runtime.config.words_per_page - 1
        #: Uniform scale on all compute charges (the "_compute_scale"
        #: parameter): used for computation-to-communication sensitivity
        #: studies and by the calibration tooling.
        self._cscale = float(runtime.params.get("_compute_scale", 1.0))

        # --- inline page-access cache (software TLB) ---------------------
        # Cached (page -> frame) entries for recently read and recently
        # written pages, validated against the owner's generation
        # counters: every permission *tightening* and frame map/unmap
        # bumps them (loosening cannot invalidate a mapping and stays
        # silent), and a stale cache is flushed wholesale before the
        # access retries through full protocol dispatch. Warm accesses in
        # the dispatch path charge nothing and mutate no protocol state,
        # so skipping it is byte-identical — the paper's in-line check,
        # minus the check.
        proto = runtime.protocol
        st = proto.proc_state(proc)
        #: Protocol-side per-processor state (page table row + frames);
        #: the lowered-region executor validates page permissions and
        #: replays faults against it (:mod:`repro.lower`).
        self._pstate = st
        self._frames = st.frames
        #: Read mappings validate against the owner's read generation,
        #: write mappings against the write generation (which also bumps
        #: on WRITE -> READ downgrades, e.g. at barrier-arrival flushes).
        self._gen = st.gen
        self._wgencnt = st.wgen
        fast = runtime.fastpath and proto.tracer is None
        #: Read cache: off when the correctness checker is attached (it
        #: must observe every per-word access).
        self._fast_read = fast
        #: Write cache: additionally off under write-through (1L), whose
        #: ``store`` must keep doubling every write to the master copy.
        self._fast_write = fast and not proto.write_through
        #: Kernel lowering (:mod:`repro.lower`): the runtime switch
        #: already folds in the observers and fault injection; the
        #: fast-path requirements fold in the tracer and write-through
        #: protocols (1L must keep doubling every store to the master,
        #: so its writes cannot be batched into direct frame stores).
        self._lowering = (runtime.lowering and self._fast_read
                          and self._fast_write)
        #: Hoisted adaptive-policy state (per env, per kernel class):
        #: region entries remaining before the next interpreted schedule
        #: re-probes the batched executor. Populated only for kernel
        #: classes currently in the interpreting (degenerate-schedule)
        #: regime — the lowered steady state never touches it.
        self._region_probe: dict[type, int] = {}
        #: Cached region instructions, one per (env, kernel) pair: the
        #: single-element tuple ``run_region`` hands back as an
        #: iterator. Workers construct each kernel once and enter its
        #: region every iteration, so caching the LoweredRun (and its
        #: continuation bound method) turns per-entry dispatch into a
        #: dict hit plus a ``reset()``.
        self._region_runs: dict = {}
        #: Generation snapshots, held in one-element lists so the
        #: closure-compiled warm paths below and the cold-path refill
        #: helpers share one mutable cell.
        self._rsnap = [-1]
        self._rcache: dict[int, np.ndarray] = {}
        self._wsnap = [-1]
        #: The write cache holds *memoryviews* of the frames: a
        #: memoryview slice/scalar store is several times cheaper than
        #: the equivalent ndarray ``__setitem__`` (no ufunc dispatch),
        #: and writes never need ndarray semantics on the destination.
        self._wcache: dict[int, memoryview] = {}
        #: TLB hit/miss tally shared with the metrics collector — a
        #: two-element ``[hits, misses]`` list bumped by the counting
        #: closure variants below. None (and no counting code exists)
        #: unless a collector is attached.
        mcoll = runtime.metrics
        self._tlb = None if mcoll is None else mcoll.tlb
        self._build_fastpaths()

    def _build_fastpaths(self) -> None:
        """Compile the warm access paths as closures.

        The warm paths run for almost every access of a well-behaved
        application; binding every invariant (page geometry, caches,
        generation counters) into closure cells replaces a chain of
        ``self`` attribute loads per call with fast local loads. Each
        closure handles exactly the warm case and falls back to the
        general method on the instance class for everything else, so
        behaviour is identical to the uncached path.
        """
        shift = self._shift
        mask = self._mask
        rcache = self._rcache
        wcache = self._wcache
        rgen = self._gen
        wgen = self._wgencnt
        rsnap = self._rsnap
        wsnap = self._wsnap
        cold_get = self._get_cold
        cold_set = self._set_cold
        slow_get_block = self.get_block
        slow_set_block = self.set_block

        def get(arr: SharedArray, i: int) -> float:
            w = arr.base + i
            page = w >> shift
            if rsnap[0] == rgen.value:
                frame = rcache.get(page)
                if frame is not None:
                    return frame[w & mask]
            return cold_get(page, w & mask)

        def set_(arr: SharedArray, i: int, value: float) -> None:
            w = arr.base + i
            page = w >> shift
            if wsnap[0] == wgen.value:
                mv = wcache.get(page)
                if mv is not None:
                    mv[w & mask] = value
                    return
            cold_set(page, w & mask, value)

        def get_block(arr: SharedArray, lo: int, hi: int) -> np.ndarray:
            base = arr.base
            w0 = base + lo
            w1 = base + hi
            if w0 < w1 and rsnap[0] == rgen.value:
                page = w0 >> shift
                if (w1 - 1) >> shift == page:
                    frame = rcache.get(page)
                    if frame is not None:
                        off = w0 & mask
                        return frame[off:off + (w1 - w0)].copy()
            return slow_get_block(arr, lo, hi)

        def set_block(arr: SharedArray, lo: int,
                      values: np.ndarray) -> None:
            w = arr.base + lo
            end = w + len(values)
            if w < end and wsnap[0] == wgen.value:
                page = w >> shift
                if (end - 1) >> shift == page:
                    mv = wcache.get(page)
                    if mv is not None:
                        off = w & mask
                        try:
                            mv[off:off + (end - w)] = values
                        except (ValueError, TypeError):
                            # Non-float64 source: cast like ndarray
                            # assignment would, then retry.
                            mv[off:off + (end - w)] = np.ascontiguousarray(
                                values, dtype=np.float64)
                        return
            slow_set_block(arr, lo, values)

        if self._tlb is not None:
            # Metrics attached: recompile the warm paths with inline
            # hit/miss tallying into the collector's shared cell. A
            # separate compilation (rather than a branch in the common
            # closures) keeps the metrics-off path free of any counting
            # code — same discipline as the observers themselves.
            tlb = self._tlb

            def get(arr: SharedArray, i: int) -> float:  # noqa: F811
                w = arr.base + i
                page = w >> shift
                if rsnap[0] == rgen.value:
                    frame = rcache.get(page)
                    if frame is not None:
                        tlb[0] += 1
                        return frame[w & mask]
                tlb[1] += 1
                return cold_get(page, w & mask)

            def set_(arr: SharedArray, i: int,  # noqa: F811
                     value: float) -> None:
                w = arr.base + i
                page = w >> shift
                if wsnap[0] == wgen.value:
                    mv = wcache.get(page)
                    if mv is not None:
                        tlb[0] += 1
                        mv[w & mask] = value
                        return
                tlb[1] += 1
                cold_set(page, w & mask, value)

            def get_block(arr: SharedArray, lo: int,  # noqa: F811
                          hi: int) -> np.ndarray:
                base = arr.base
                w0 = base + lo
                w1 = base + hi
                if w0 < w1 and rsnap[0] == rgen.value:
                    page = w0 >> shift
                    if (w1 - 1) >> shift == page:
                        frame = rcache.get(page)
                        if frame is not None:
                            tlb[0] += 1
                            off = w0 & mask
                            return frame[off:off + (w1 - w0)].copy()
                tlb[1] += 1
                return slow_get_block(arr, lo, hi)

            def set_block(arr: SharedArray, lo: int,  # noqa: F811
                          values: np.ndarray) -> None:
                w = arr.base + lo
                end = w + len(values)
                if w < end and wsnap[0] == wgen.value:
                    page = w >> shift
                    if (end - 1) >> shift == page:
                        mv = wcache.get(page)
                        if mv is not None:
                            tlb[0] += 1
                            off = w & mask
                            try:
                                mv[off:off + (end - w)] = values
                            except (ValueError, TypeError):
                                mv[off:off + (end - w)] = \
                                    np.ascontiguousarray(values,
                                                         dtype=np.float64)
                            return
                tlb[1] += 1
                slow_set_block(arr, lo, values)

        # Shadow the class methods on the instance; the class methods stay
        # as the (identical) general fallbacks.
        self.get = get
        self.set = set_
        self.get_block = get_block
        self.set_block = set_block

    # --- identity ------------------------------------------------------------

    @property
    def node_rank(self) -> int:
        return self.proc.node.id

    @property
    def words_per_page(self) -> int:
        return self._mask + 1

    @property
    def local_rank(self) -> int:
        return self.proc.local_id

    def arr(self, name: str) -> SharedArray:
        return self._rt.segment.array(name)

    # --- scalar access ---------------------------------------------------------

    def get(self, arr: SharedArray, i: int) -> float:
        w = arr.base + i
        page = w >> self._shift
        if self._rsnap[0] == self._gen.value:
            frame = self._rcache.get(page)
            if frame is not None:
                return frame[w & self._mask]
        return self._get_cold(page, w & self._mask)

    def _get_cold(self, page: int, off: int) -> float:
        value = self._protocol.load(self.proc, page, off)
        if self._fast_read:
            gen = self._gen.value
            if self._rsnap[0] != gen:
                self._rcache.clear()
                self._rsnap[0] = gen
            frame = self._frames.get(page)
            if frame is not None:
                self._rcache[page] = frame
        return value

    def set(self, arr: SharedArray, i: int, value: float) -> None:
        w = arr.base + i
        page = w >> self._shift
        if self._wsnap[0] == self._wgencnt.value:
            mv = self._wcache.get(page)
            if mv is not None:
                mv[w & self._mask] = value
                return
        self._set_cold(page, w & self._mask, value)

    def _set_cold(self, page: int, off: int, value: float) -> None:
        self._protocol.store(self.proc, page, off, value)
        if self._fast_write:
            gen = self._wgencnt.value
            if self._wsnap[0] != gen:
                self._wcache.clear()
                self._wsnap[0] = gen
            frame = self._frames.get(page)
            if frame is not None:
                self._wcache[page] = memoryview(frame)

    # --- block access ------------------------------------------------------------

    def get_block(self, arr: SharedArray, lo: int, hi: int) -> np.ndarray:
        """Copy of words [lo, hi) of the array (page faults as needed).

        Always returns a private copy: the protocol's ``load_range``
        yields a live view of the owner's frame, and this method is the
        copying boundary that keeps application code from aliasing it.
        """
        base = arr.base
        w0, w1 = base + lo, base + hi
        shift, mask = self._shift, self._mask
        warm = self._rsnap[0] == self._gen.value
        cache = self._rcache
        if w0 < w1 and warm:
            page = w0 >> shift
            if (w1 - 1) >> shift == page:
                frame = cache.get(page)
                if frame is not None:
                    off = w0 & mask
                    return frame[off:off + (w1 - w0)].copy()
        wpp = mask + 1
        out = np.empty(hi - lo, dtype=np.float64)
        pos = 0
        w = w0
        while w < w1:
            page = w >> shift
            off = w & mask
            take = min(wpp - off, w1 - w)
            frame = cache.get(page) if warm else None
            if frame is not None:
                out[pos:pos + take] = frame[off:off + take]
            else:
                out[pos:pos + take] = self._read_through(page, off,
                                                         off + take)
                warm = self._rsnap[0] == self._gen.value
            pos += take
            w += take
        return out

    def _read_through(self, page: int, lo: int, hi: int) -> np.ndarray:
        """Cold block read: full dispatch, then refill the read cache."""
        values = self._protocol.load_range(self.proc, page, lo, hi)
        if self._fast_read:
            gen = self._gen.value
            if self._rsnap[0] != gen:
                self._rcache.clear()
                self._rsnap[0] = gen
            frame = self._frames.get(page)
            if frame is not None:
                self._rcache[page] = frame
        return values

    def set_block(self, arr: SharedArray, lo: int,
                  values: np.ndarray) -> None:
        """Write ``values`` at word offset ``lo`` (page faults as needed)."""
        base = arr.base
        w = base + lo
        end = w + len(values)
        shift, mask = self._shift, self._mask
        warm = self._wsnap[0] == self._wgencnt.value
        cache = self._wcache
        if w < end and warm:
            page = w >> shift
            if (end - 1) >> shift == page:
                mv = cache.get(page)
                if mv is not None:
                    off = w & mask
                    self._mv_store(mv, off, end - w, values)
                    return
        wpp = mask + 1
        pos = 0
        while w < end:
            page = w >> shift
            off = w & mask
            take = min(wpp - off, end - w)
            mv = cache.get(page) if warm else None
            if mv is not None:
                self._mv_store(mv, off, take, values[pos:pos + take])
            else:
                self._write_through(page, off, values[pos:pos + take])
                warm = self._wsnap[0] == self._wgencnt.value
            pos += take
            w += take

    @staticmethod
    def _mv_store(mv: memoryview, off: int, n: int,
                  values: np.ndarray) -> None:
        """Store into a cached frame memoryview, casting when needed."""
        try:
            mv[off:off + n] = values
        except (ValueError, TypeError):
            mv[off:off + n] = np.ascontiguousarray(values, dtype=np.float64)

    def _write_through(self, page: int, lo: int,
                       values: np.ndarray) -> None:
        """Cold block write: full dispatch, then refill the write cache."""
        self._protocol.store_range(self.proc, page, lo, values)
        if self._fast_write:
            gen = self._wgencnt.value
            if self._wsnap[0] != gen:
                self._wcache.clear()
                self._wsnap[0] = gen
            frame = self._frames.get(page)
            if frame is not None:
                self._wcache[page] = memoryview(frame)

    # --- time ---------------------------------------------------------------------

    def compute(self, cpu_us: float, mem_bytes: float = 0.0) -> Compute:
        """A block of application computation; yield the returned object."""
        return Compute(cpu_us * self._cscale, mem_bytes * self._cscale)

    # --- lowered kernel regions -----------------------------------------------------

    def run_region(self, kernel):
        """Generator: execute one lowerable kernel region (:mod:`repro.lower`).

        Delegate with ``yield from env.run_region(kernel)``. When
        lowering is off (or the region is empty) this returns the
        kernel's per-step interpreter generator — the original loop,
        inlined byte-identically through generator delegation. When
        lowering is on it yields a single batched region instruction
        that the simulation layer drives (validating page permissions
        per step, replaying faults at the exact instants the
        interpreter would have faulted, and charging per-step compute
        costs with the same arithmetic).

        A region with no steps (``kernel.n == 0``) is skipped entirely,
        in both modes — the region-level equivalent of the ``if my_work:``
        guard workers used to wrap around their loops.

        The adaptive decision (:meth:`RegionKernel.want_lowered` is the
        reference form) is hoisted out of the hot path: in the lowered
        steady state the entry check is a single class-attribute
        comparison — every batched execution refreshes the measured
        steps-per-batch ratio anyway, so no per-entry counter or probe
        bookkeeping is needed. Only the interpreting (degenerate
        lockstep-schedule) regime keeps a per-(env, kernel-class)
        countdown, re-probing the batched executor once every
        ``_adapt_probe`` region entries so a changed schedule can
        re-earn batching.
        """
        if kernel.n <= 0:
            return iter(())
        if self._lowering:
            cls = type(kernel)
            if cls._adapt_ratio >= cls._adapt_threshold:
                return self._region_instruction(kernel)
            left = self._region_probe.get(cls, 0)
            if left <= 0:
                # Periodic probe: run batched once to re-measure.
                self._region_probe[cls] = cls._adapt_probe - 1
                return self._region_instruction(kernel)
            self._region_probe[cls] = left - 1
        return kernel.interp(self)

    def _region_instruction(self, kernel):
        """One batched region instruction, as an iterator — the cached
        equivalent of ``repro.lower.exec.region_instruction``. The
        LoweredRun per (env, kernel) persists across executions; a
        tuple iterator over it is cheaper than a generator frame, and
        ``reset()`` rearms the cursor state the previous execution
        left behind. Safe because a worker is sequential: the prior
        execution of this kernel's region finished (its commit pushed
        the worker's resume) before the worker could re-enter here.
        """
        ri = self._region_runs.get(kernel)
        if ri is None:
            ri = self._region_runs[kernel] = (LoweredRun(kernel, self),)
        else:
            ri[0].reset()
        return iter(ri)

    # --- synchronization --------------------------------------------------------------

    def barrier(self):
        """Generator: global barrier (with arrival flush / departure acquire)."""
        return self._rt.barrier.wait(self.proc)

    def acquire(self, lock_id: int):
        """Generator: acquire application lock ``lock_id``."""
        return self._rt.lock(lock_id).acquire(self.proc)

    def release(self, lock_id: int) -> None:
        self._rt.lock(lock_id).release(self.proc)

    def flag_set(self, name: str, index: int, value: int = 1) -> None:
        self._rt.flags(name).set(self.proc, index, value)

    def flag_wait(self, name: str, index: int, value: int = 1):
        """Generator: wait for a flag, then acquire."""
        return self._rt.flags(name).wait(self.proc, index, value)

    def flag_peek(self, name: str, index: int) -> int:
        """Read a flag without blocking or acquiring (polling checks)."""
        return self._rt.flags(name).peek(self.proc, index)

    # --- phases --------------------------------------------------------------------------

    def end_init(self) -> None:
        """Mark the end of the initialization phase: arms first-touch home
        relocation (call on every rank; idempotent)."""
        self._protocol.end_initialization()

    @property
    def parallel(self) -> bool:
        return True
