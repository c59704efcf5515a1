"""Fast tests for the benchmark itself: ``python -m pytest hostbench -q``.

They run the benchmark's own code paths on two tiny cells (SOR on a
2x2 machine with its unit-test parameters) instead of a workload, so
they take seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import cells  # noqa: E402
import run  # noqa: E402
from spans import SpanTracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_cells() -> list:
    from repro.apps import SOR
    params = tuple(sorted(SOR().small_params().items()))
    return [cells.Cell("SOR", "seq", 2, 2, params=params),
            cells.Cell("SOR", "2L", 2, 2, params=params)]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Point the benchmark at the tiny cells, pinned to their own output."""
    tiny_cells = _tiny_cells()
    reference = {o.cell.id: o.fingerprint
                 for o in map(cells.run_cell, tiny_cells)}
    monkeypatch.setattr(run, "workload_cells", lambda name: tiny_cells)
    monkeypatch.setattr(run, "load_reference", lambda: dict(reference))
    monkeypatch.setattr(run, "IMPORT_SAMPLES", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return reference


def _names_units(metrics: list) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


def test_end_to_end_prints_every_metric_with_its_unit(tiny):
    result = run.end_to_end("paper-2l", 0, 0.0, ROOT / "src")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _names_units(BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_layer_metric_and_is_passive(tiny):
    result = run.traced_run("paper-2l", 0, ROOT / "src")
    assert result["correct"], "traced fingerprints must equal untraced"
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _names_units(BENCH["per_layer"])
    assert result["metrics"]["sim.events"]["value"] > 0
    assert result["metrics"]["protocol.read_fault.calls"]["value"] > 0


def test_perturbed_reference_is_a_failed_cell(tiny, monkeypatch):
    bad = dict(tiny)
    cid = next(c for c in bad if "/2L/" in c)
    bad[cid] = "0" * 64
    monkeypatch.setattr(run, "load_reference", lambda: dict(bad))
    result = run.end_to_end("paper-2l", 0, 0.0, ROOT / "src")
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["metrics"]["pass_ratio"]["value"] == 0.5


def test_sequential_mismatch_is_a_failed_cell():
    outcomes = [cells.run_cell(c) for c in _tiny_cells()]
    reference = {o.cell.id: o.fingerprint for o in outcomes}
    par = next(o for o in outcomes if o.cell.parallel)
    name = next(iter(par.arrays))
    par.arrays[name] = par.arrays[name] + 1.0
    failures = cells.check_pass(outcomes, reference)
    assert len(failures) == 1 and "sequential" in failures[0]


def test_reference_pins_every_workload_cell():
    reference = json.loads((HERE / "reference.json").read_text())
    for workload in cells.WORKLOADS:
        for cell in cells.workload_cells(workload):
            assert cell.id in reference, cell.id


def test_uninstall_restores_every_entry_point():
    from repro.runtime.env import WorkerEnv
    from repro.sim.engine import Simulator
    from repro.vm import diffs
    from repro.protocol import cashmere2l
    before = (Simulator.run, WorkerEnv._get_cold, cashmere2l.make_twin)
    tracer = SpanTracer()
    tracer.install()
    assert Simulator.run is not before[0]
    tracer.uninstall()
    assert (Simulator.run, WorkerEnv._get_cold,
            cashmere2l.make_twin) == before
    assert diffs.make_twin is before[2]


def test_benchmark_file_matches_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(cells.WORKLOADS)


def test_each_pass_starts_with_cold_kernel_state():
    from repro.lower.regions import RegionKernel
    tiny_cells = _tiny_cells()
    reference = {o.cell.id: o.fingerprint
                 for o in map(cells.run_cell, tiny_cells)}
    kernels = [k for k in RegionKernel.__subclasses__()
               if "_lower_report" in k.__dict__]
    assert kernels, "a 2L cell checks its region kernels"
    cells.reset_kernel_state()
    for k in kernels:
        assert not set(cells.KERNEL_STATE) & set(k.__dict__), k
        assert k._adapt_ratio == float("inf")
    outcomes, failures = run.run_pass(tiny_cells, reference)
    assert not failures
