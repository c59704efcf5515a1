"""The staged kernel-lowering pipeline: parity, gating, and edge cases.

Lowering is a pure wall-clock optimization, exactly like the PR 3 fast
path one layer up: a batched region execution must produce
**byte-identical** statistics and final data to the same run forced
through the per-step interpreter. The parity tests enforce that end to
end for every kernelized app (SOR, Water, LU) under every protocol, on
both a batching-friendly solo placement and a lockstep-contended
multi-node one. The observed fallback (observers force per-step
interpretation) is the ``lowering_observed`` pair of the parity suite
(``tests/test_parity.py``), which shares this file's fingerprint.

The remaining tests cover the pipeline's three stages directly: the
stage-1 lowerability proof (sync calls and ``yield from`` are hard
errors, legal bodies produce a report), the stage-2 descriptors, and the
stage-3 gating/adaptive machinery (observer and fault-injection
suppression, write-through protocols, the sequential environment, empty
regions, and the steps-per-batch fallback policy).
"""

import ast
import textwrap
from dataclasses import replace

import pytest

from repro import MachineConfig, run_app
from repro.apps import make_app
from repro.apps.sor import _SorSweep
from repro.config import FaultConfig
from repro.errors import LoweringError
from repro.lower import (READ, WRITE, RegionKernel, analyze_region,
                         check_kernel_class)
from repro.runtime.env import WorkerEnv
from repro.runtime.program import ParallelRuntime
from repro.runtime.sequential import run_sequential

from .test_parity import fingerprint

SOLO = MachineConfig(nodes=1, procs_per_node=1, page_bytes=512)
SMALL = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512)


def _run(app_name, cfg, protocol):
    app = make_app(app_name)
    params = app.small_params()
    return fingerprint(run_app(app, params, cfg, protocol), app, params)


# ---------------------------------------------------------------------------
# Determinism: lowered vs forced per-step interpretation.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", ["2L", "2LS", "1LD", "1L"])
@pytest.mark.parametrize("app_name", ["SOR", "Water", "LU", "Gauss",
                                      "Em3d", "Ilink"])
@pytest.mark.parametrize("placement", ["solo", "clustered"])
def test_lowered_matches_interpreted(app_name, protocol, placement):
    """The core parity bar (the PR 3 fast-vs-forced-slow pattern, one
    layer up): same stats, same clocks, same result bytes. ``solo``
    exercises long batches; ``clustered`` exercises the lockstep
    horizon (batch length 1) and the adaptive fallback."""
    cfg = SOLO if placement == "solo" else SMALL
    lowered = _run(app_name, cfg, protocol)
    interpreted = _run(app_name, replace(cfg, lowering=False), protocol)
    assert lowered == interpreted


# ---------------------------------------------------------------------------
# Stage-3 gating: who lowers, who interprets.
# ---------------------------------------------------------------------------

def _runtime(cfg, protocol="2L"):
    app = make_app("SOR")
    return ParallelRuntime(app, app.small_params(), cfg, protocol)


def test_observers_and_faults_suppress_lowering():
    assert _runtime(SMALL).lowering is True
    assert _runtime(replace(SMALL, checking=True)).lowering is False
    assert _runtime(replace(SMALL, tracing=True)).lowering is False
    assert _runtime(replace(SMALL, metrics=True)).lowering is False
    assert _runtime(replace(SMALL, fastpath=False)).lowering is False
    faulty = replace(SMALL, faults=FaultConfig(seed=7))
    assert _runtime(faulty).lowering is False


def test_write_through_disables_lowering_per_env():
    """1L keeps the write cache off, so its envs never lower — parity
    for it is trivially the interpreter against itself."""
    rt = _runtime(SMALL, "1L")
    assert rt.lowering is True                     # runtime-level gate
    env = WorkerEnv(rt, rt.cluster.processors[0])
    assert env._lowering is False                  # env-level gate

    rt2 = _runtime(SMALL, "2L")
    env2 = WorkerEnv(rt2, rt2.cluster.processors[0])
    assert env2._lowering is True


def test_sequential_env_always_interprets():
    """SequentialEnv.run_region is the interp body verbatim: the
    sequential SOR result matches the lowered 1-proc parallel run's
    array bytes (the sequential baseline the verifier diffs against)."""
    app = make_app("SOR")
    env, _ = run_sequential(app, app.small_params(), SOLO)
    par = run_app(make_app("SOR"), app.small_params(), SOLO, "2L")
    for name in app.result_arrays(app.small_params()):
        arr = env.arr(name)
        seq_bytes = env.mem[arr.base:arr.base + arr.length].tobytes()
        assert seq_bytes == par.array(name).tobytes()


def test_empty_region_is_a_noop():
    """A zero-step region yields nothing — matching the pre-lowering
    workers' ``if hi > lo`` guards (no Compute is ever charged)."""
    rt = _runtime(SOLO)
    env = WorkerEnv(rt, rt.cluster.processors[0])
    kernel = _SorSweep(env, rt.segment.array("black"),
                       rt.segment.array("red"), range(0), 8, red=True)
    assert kernel.n == 0
    assert list(env.run_region(kernel)) == []


# ---------------------------------------------------------------------------
# Stage 2: descriptors and the adaptive policy.
# ---------------------------------------------------------------------------

def test_descriptor_reports_pages_and_cost():
    rt = _runtime(SOLO)
    env = WorkerEnv(rt, rt.cluster.processors[0])
    red, black = rt.segment.array("red"), rt.segment.array("black")
    kernel = _SorSweep(env, black, red, range(1, 17), 8, red=True)
    desc = kernel.describe()
    assert desc.n == 16
    assert desc.cpu_us == kernel.cost.cpu_us > 0
    assert desc.mem_bytes == kernel.cost.mem_bytes > 0
    assert desc.pages_read and desc.pages_written
    assert list(desc.pages_read) == sorted(desc.pages_read)
    # Red sweep: reads the black array's pages, writes the red array's.
    wpp = rt.config.words_per_page
    assert all(black.base // wpp <= p for p in desc.pages_read)
    assert all(red.base // wpp <= p < black.base // wpp
               for p in desc.pages_written)


def test_touch_lists_mirror_the_window_slide():
    """Step 0 reads three source rows; later steps first-touch only
    their ``down`` row. With 8-word rows on 64-word pages, that is
    visible as strictly fewer read pages after step 0."""
    rt = _runtime(SOLO)
    env = WorkerEnv(rt, rt.cluster.processors[0])
    kernel = _SorSweep(env, rt.segment.array("black"),
                       rt.segment.array("red"), range(1, 17), 8, red=True)
    reads0 = [p for need, p in kernel.touches[0] if need is READ]
    writes0 = [p for need, p in kernel.touches[0] if need is WRITE]
    assert reads0 and writes0
    for step in kernel.touches[1:]:
        assert len([p for need, p in step if need is READ]) <= len(reads0)


class _Adaptive(RegionKernel):  # cashmere: ignore[K004]
    """Fresh class-level adaptive state for policy tests (no interp
    body, so the touch verifier is told to look away)."""

    def __init__(self):  # no env: policy state only
        self.lowerable = False


def test_adaptive_policy_probes_and_falls_back():
    _Adaptive._adapt_execs = 0
    _Adaptive._adapt_ratio = float("inf")
    k = _Adaptive()
    # First execution always probes.
    assert k.want_lowered() is True
    # A degenerate batch ratio (1 step per batch) flips to interpreting…
    k.note_execution(steps=10, batches=10)
    for _ in range(_Adaptive._adapt_probe - 1):
        assert k.want_lowered() is False
    # …until the periodic probe re-measures.
    assert k.want_lowered() is True
    # A healthy ratio re-enables lowering for the steady state.
    k.note_execution(steps=16, batches=2)
    assert k.want_lowered() is True
    assert k.want_lowered() is True


def test_adaptive_state_is_per_class():
    class _Other(RegionKernel):
        def __init__(self):
            self.lowerable = False

    a, b = _Adaptive(), _Other()
    a.note_execution(steps=4, batches=4)    # degenerate for _Adaptive
    b.note_execution(steps=8, batches=1)    # healthy for _Other
    assert _Adaptive._adapt_ratio == 1.0
    assert _Other._adapt_ratio == 8.0
    assert RegionKernel._adapt_ratio == float("inf")


# ---------------------------------------------------------------------------
# Stage 1: the lowerability proof.
# ---------------------------------------------------------------------------

def _region_ast(source):
    tree = ast.parse(textwrap.dedent(source))
    return tree.body[0]


def test_analyze_accepts_a_legal_body():
    report = analyze_region(_region_ast('''
def interp(self, env):
    get_block, set_block = env.get_block, env.set_block
    for r in self._rows:
        row = get_block(self._src, r, r + 8)
        set_block(self._dst, r, row * 0.25)
        yield self.cost
'''))
    assert report.yields >= 1
    assert report.reads == ("self._src",)
    assert report.writes == ("self._dst",)


def test_analyze_rejects_yield_from():
    with pytest.raises(LoweringError, match="yield from"):
        analyze_region(_region_ast('''
def interp(self, env):
    for r in self._rows:
        yield self.cost
        yield from env.barrier()
'''))


@pytest.mark.parametrize("call", ["env.barrier()", "env.acquire(0)",
                                  "env.flag_set('go', 0)",
                                  "env.end_init()"])
def test_analyze_rejects_sync_calls(call):
    with pytest.raises(LoweringError, match="synchronization"):
        analyze_region(_region_ast(f'''
def interp(self, env):
    for r in self._rows:
        {call}
        yield self.cost
'''))


def test_analyze_rejects_aliased_sync_calls():
    """The alias prepass sees through ``wait = env.barrier``."""
    with pytest.raises(LoweringError, match="synchronization"):
        analyze_region(_region_ast('''
def interp(self, env):
    wait = env.barrier
    for r in self._rows:
        wait()
        yield self.cost
'''))


def test_app_kernels_prove_lowerable():
    """Every shipped kernel class passes stage 1 (and the proof is
    cached on the class by RegionKernel.__init__)."""
    from repro.apps.em3d import _Em3dPhase
    from repro.apps.gauss import _GaussElim
    from repro.apps.ilink import _IlinkSlave
    from repro.apps.lu import _LUInterior
    from repro.apps.water import _WaterIntegrate
    for cls in (_SorSweep, _WaterIntegrate, _LUInterior, _GaussElim,
                _Em3dPhase, _IlinkSlave):
        report = check_kernel_class(cls)
        assert report.yields >= 1
        assert report.reads and report.writes
    assert _SorSweep._lower_report.name == "_SorSweep.interp"


def test_gauss_touch_lists_mirror_row_spans():
    """Each _GaussElim step first reads its row span, then writes the
    same span back — and rows being page-padded, no page is shared
    between steps."""
    from repro.apps.gauss import _GaussElim
    app = make_app("Gauss")
    params = app.small_params()
    rt = ParallelRuntime(app, params, SOLO, "2L")
    env = WorkerEnv(rt, rt.cluster.processors[0])
    n = params["n"]
    stride = app._row_stride(n, rt.config.words_per_page)
    A = rt.segment.array("A")
    k = 2
    kernel = _GaussElim(env, A, stride, k, n, list(range(n)), None)
    assert kernel.n == n - k - 1
    for step in kernel.touches:
        reads = [p for need, p in step if need is READ]
        writes = [p for need, p in step if need is WRITE]
        assert reads and reads == writes  # same span, read then written
    seen = [p for step in kernel.touches for _, p in step]
    assert len(set(seen)) * 2 == len(seen)  # disjoint across steps
