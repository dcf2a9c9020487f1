"""Discrete-event simulation substrate.

Croesus' evaluation is driven by latency: edge/cloud network transfers,
model inference times and transaction processing times.  Instead of
sleeping on a wall clock, every component in this reproduction charges
time to a :class:`SimClock`.  This keeps experiments deterministic and
lets the full benchmark suite run in seconds.
"""

from repro.sim.clock import SimClock
from repro.sim.engine import At, Engine, Process, Server, SimulationError
from repro.sim.rng import RngRegistry

__all__ = [
    "At",
    "Engine",
    "Process",
    "RngRegistry",
    "Server",
    "SimClock",
    "SimulationError",
]
