"""Kernel lowering: compile sync-free worker loop regions into batched
super-steps (DESIGN.md §14).

The PR 3 software TLB removed per-access protocol dispatch; what remains
of the interpreter's wall-clock cost is per-*step* machinery — one
generator resume, one event push/pop, and one Python loop body per app
loop iteration. This package removes that too, in three stages:

* **Stage 1 — prove** (:mod:`.analyze`): a region body — the
  ``interp()`` method of a :class:`RegionKernel` — is statically checked
  over its statement CFG (reusing the :mod:`repro.lint` machinery) to be
  single-entry and sync-free: no ``yield from`` delegation, no
  barrier/lock/flag calls, only plain data accesses and ``yield
  <compute>`` steps. Sync points stay in the worker, so regions are by
  construction the maximal code between them.
* **Stage 2 — compile** (:class:`RegionKernel` subclasses): each region
  carries a descriptor: per-step ordered first-touch page lists (the
  exact pages the interpreted body would fault on, in access order), a
  fixed per-step ``Compute`` cost, and a vectorized numpy thunk
  (``materialize``) equivalent to the loop body bit for bit.
* **Stage 3 — execute** (:mod:`.exec`): when
  ``MachineConfig.lowering`` is on and no observer is attached, the
  runtime executes the region as a batched instruction: per step it
  validates the touch list against the live page table (replaying real
  protocol faults at the exact simulated instant the interpreter would
  have faulted), charges the step's compute cost with the identical
  arithmetic, and keeps going inline while no other simulation event is
  due — then commits the accumulated steps with one numpy call.

Byte identity with the interpreter is the design invariant, not a
best-effort goal: ``tests/test_lowering.py`` asserts identical
``RunStats`` (every counter, bucket, and the exec time bit pattern) and
identical result arrays for SOR, Water, and LU under all four protocols.
The one switch is ``MachineConfig(lowering=False)``; the checker,
tracer, metrics collector, and fault injection all force per-step
interpretation automatically because they observe the per-access paths
a batch skips.
"""

from .analyze import RegionReport, analyze_region, check_kernel_class
from .exec import LoweredRun, region_instruction
from .regions import READ, WRITE, RegionDescriptor, RegionKernel

__all__ = [
    "READ", "WRITE",
    "RegionDescriptor", "RegionKernel", "RegionReport",
    "LoweredRun", "analyze_region", "check_kernel_class",
    "region_instruction",
]
