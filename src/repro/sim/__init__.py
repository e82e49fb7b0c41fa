"""Discrete-event simulation kernel.

Everything in the simulated cloud runs on a single virtual clock owned
by a :class:`~repro.sim.engine.SimulationEngine`.  Components schedule
callbacks at absolute virtual times; the engine pops them in time order
and advances the clock.  Determinism is guaranteed by (a) a stable
tie-break on equal timestamps and (b) named, seeded random streams from
:class:`~repro.sim.rng.RandomStreams`.
"""

from repro.sim.clock import (
    DAY,
    HOUR,
    MINUTE,
    SECOND,
    format_duration,
    hours,
    minutes,
)
from repro.sim.engine import SimulationEngine
from repro.sim.events import Event, EventQueue
from repro.sim.rng import RandomStreams
from repro.sim.trace import EngineTracer

__all__ = [
    "DAY",
    "HOUR",
    "MINUTE",
    "SECOND",
    "EngineTracer",
    "Event",
    "EventQueue",
    "RandomStreams",
    "SimulationEngine",
    "format_duration",
    "hours",
    "minutes",
]
