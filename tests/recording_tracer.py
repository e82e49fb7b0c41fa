"""An engine tracer that also keeps every fired event, for tests.

:class:`~repro.sim.trace.EngineTracer` keeps per-label-group totals
only.  Tests that assert on the exact fire sequence install this
subclass through ``SimulationEngine(tracer=...)`` (or by assigning
``engine.tracer``) and read :attr:`RecordingTracer.events`.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.sim.trace import EngineTracer


class RecordingTracer(EngineTracer):
    """:class:`EngineTracer` that also appends each fired event.

    Attributes:
        events: ``(time, label, wall, scheduled)`` per fired callback,
            in fire order.
    """

    def __init__(self) -> None:
        super().__init__()
        self.events: List[Tuple[float, str, float, int]] = []

    def record(self, time: float, label: str, wall: float, scheduled: int = 0) -> None:
        super().record(time, label, wall, scheduled)
        self.events.append((time, label, wall, scheduled))

    def clear(self) -> None:
        super().clear()
        self.events.clear()

    def timeline(self) -> List[Tuple[float, str]]:
        """The ``(time, label)`` view of the fired events."""
        return [(time, label) for time, label, _, _ in self.events]
