"""Discrete-event simulation substrate.

Croesus' evaluation is driven by latency: edge/cloud network transfers,
model inference times and transaction processing times.  Instead of
sleeping on a wall clock, every component in this reproduction runs on
the discrete-event :class:`Engine`'s simulated time.  This keeps
experiments deterministic and lets the full benchmark suite run in
seconds.
"""

from repro.sim.engine import At, Engine, Process, Server, SimulationError
from repro.sim.rng import RngRegistry

__all__ = [
    "At",
    "Engine",
    "Process",
    "RngRegistry",
    "Server",
    "SimulationError",
]
