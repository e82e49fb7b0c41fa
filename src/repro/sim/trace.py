"""Aggregate-only engine instrumentation.

When tracing is on, the engine hands every fired callback to an
:class:`EngineTracer`, which folds it into per-label-group totals:
callback count, wall-clock seconds, and events the callback scheduled.
The tracer also keeps the fired total, the wall window from the first
callback to the last, and the number of ``run_until*`` calls.  Memory
is O(label groups), never O(events), so tracing a million-event run
costs the same few dicts as tracing a hundred.
:class:`~repro.obs.profiler.HotPathProfile` turns the totals into the
attributed report.

Wall timings never feed back into the simulation, so determinism of
virtual time is untouched.

This module lives in ``sim`` (which imports nothing from the rest of
the library) and is re-exported from ``repro.obs.spans`` next to the
workload span tooling.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional


def default_group(label: str) -> str:
    """Collapse per-entity labels into families.

    ``"ec2:fulfill:sir-000007"`` profiles as ``"ec2:fulfill"``;
    ``"exec:wl-003:seg2"`` as ``"exec"`` (the middle component is a
    workload id); single-component labels pass through.
    """
    if not label:
        return "<unlabeled>"
    head, sep, rest = label.partition(":")
    if not sep or head == "exec":
        return head
    return head + ":" + rest.partition(":")[0]


class EngineTracer:
    """Per-label-group totals for :class:`~repro.sim.engine.SimulationEngine`.

    Attributes:
        groups: ``{group: [count, wall seconds, scheduled events]}``,
            keyed by :func:`default_group`.
        fired: Callbacks recorded.
        runs: ``run_until`` / ``run_until_idle`` calls noted.
    """

    def __init__(self) -> None:
        self.groups: Dict[str, List] = {}
        self.fired = 0
        self.runs = 0
        self._wall_first: Optional[float] = None
        self._wall_last: Optional[float] = None

    def record(self, time: float, label: str, wall: float, scheduled: int = 0) -> None:
        """Fold one fired callback into its group's totals."""
        now = perf_counter()
        if self._wall_first is None:
            self._wall_first = now - wall
        self._wall_last = now
        self.fired += 1
        group = default_group(label)
        totals = self.groups.get(group)
        if totals is None:
            self.groups[group] = [1, wall, scheduled]
        else:
            totals[0] += 1
            totals[1] += wall
            totals[2] += scheduled

    def note_run(self, wall: float, fired: int) -> None:
        """Count one engine run window (a ``run_until*`` invocation)."""
        self.runs += 1

    @property
    def wall_elapsed(self) -> float:
        """Wall seconds from the first recorded callback to the last."""
        if self._wall_first is None or self._wall_last is None:
            return 0.0
        return self._wall_last - self._wall_first

    def clear(self) -> None:
        """Drop all totals and reset the wall window."""
        self.groups.clear()
        self.fired = 0
        self.runs = 0
        self._wall_first = None
        self._wall_last = None
