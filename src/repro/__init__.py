"""Cashmere-2L reproduction: software coherent shared memory on a
simulated clustered remote-write network.

Reimplementation of the system described in

    Stets, Dwarkadas, Hardavellas, Hunt, Kontothanassis, Parthasarathy,
    Scott. "Cashmere-2L: Software Coherent Shared Memory on a Clustered
    Remote-Write Network." SOSP 1997.

as a deterministic discrete-event simulation: the coherence protocols
(Cashmere-2L/2LS/1LD/1L) run for real over a simulated Memory Channel
and cluster of SMP nodes, moving real application data, with execution
time charged from the paper's measured primitive costs.

Quick start::

    from repro import MachineConfig, run_and_verify
    from repro.apps import SOR

    app = SOR()
    cmp = run_and_verify(app, app.default_params(),
                         MachineConfig(nodes=4, procs_per_node=2),
                         protocol="2L")
    print(f"speedup {cmp.speedup:.2f}, verified={cmp.verified}")
"""

from .config import (CostModel, MachineConfig, PLACEMENTS, Protocol,
                     placement_config)
from .errors import (CashmereError, CoherenceViolation, ConfigError,
                     DataRaceError, DeadlockError, MemoryChannelError,
                     ProtocolError, SimulationError, UnknownCounterError)
from .runtime import (ComparisonResult, RunResult, run_and_verify, run_app,
                      run_sequential)
from .stats import RunStats

__version__ = "1.0.0"

__all__ = [
    "MachineConfig", "CostModel", "Protocol", "PLACEMENTS",
    "placement_config",
    "run_app", "run_and_verify", "run_sequential",
    "RunResult", "ComparisonResult", "RunStats",
    "CashmereError", "ConfigError", "ProtocolError", "SimulationError",
    "DeadlockError", "MemoryChannelError", "DataRaceError",
    "CoherenceViolation", "UnknownCounterError",
    "__version__",
]
