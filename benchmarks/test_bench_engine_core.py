"""Benchmark: pure event-engine scheduling throughput.

Isolates the scheduler from the control plane so `check_regression.py`
can watch the hot path itself, not just fig3's end-to-end number.  Two
measurements:

* **Raw queue drive** — a deterministic push/pop/cancel mix (dense
  same-timestamp ties, zero-delay re-entrant-style pushes) runs against
  the binary-heap ``EventQueue``; repeats must fire in the same order,
  and ``heap_ops_per_second`` goes into the baseline for reference.
* **Engine storm** — a :class:`SimulationEngine` run mixing periodic
  tasks, same-timestamp bursts, cascading callbacks, and cancellations;
  ``run_once`` traces it, so the baseline carries the engine-level
  ``sim_events_per_second`` for the scheduler without any cloud
  services in the loop.

Schedules come from a little inline LCG, not :mod:`random`, so the op
mix is identical on every interpreter and platform.
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.sim.engine import SimulationEngine
from repro.sim.events import EventQueue

#: Operations per raw-queue drive.  Large enough that queue mechanics
#: dominate the wall time; small enough to stay sub-second.
QUEUE_OPS = 120_000

#: Drives of the queue; the fastest repeat is scored, which filters the
#: allocator/cache warm-up noise on sub-second runs.
QUEUE_REPEATS = 3


def _lcg(state: int) -> int:
    return (state * 1103515245 + 12345) % (1 << 31)


def _drive_queue(queue) -> list:
    """Deterministic engine-style op mix; returns the fire order.

    Mirrors how :class:`SimulationEngine` actually uses a queue: the
    clock only advances to popped event times, and every push lands at
    ``now + delay`` with delays quantised to 2.5s steps (dense ties,
    including zero-delay re-entrant pushes into the tick being
    drained).  A slight push surplus keeps a standing backlog so heap
    pushes pay their ``O(log n)``.
    """
    fired = []
    pending = []
    now = 0.0
    state = 20260808
    for op in range(QUEUE_OPS):
        state = _lcg(state)
        roll = state % 100
        if roll < 52 or not queue:
            state = _lcg(state)
            delay = float(state % 80) * 2.5  # 0..197.5s ahead of now
            pending.append(queue.push(now + delay, _lcg, label=str(op)))
        elif roll < 62 and pending:
            state = _lcg(state)
            pending[state % len(pending)].cancel()
            if len(pending) > 4096:
                del pending[:2048]
        else:
            event = queue.pop()
            if event is not None:
                now = event.time
                fired.append((event.time, event.seq))
    while queue:
        event = queue.pop()
        if event is not None:
            fired.append((event.time, event.seq))
    return fired


#: Depth of each same-timestamp cascade burst: a burst fires
#: ``2^(CASCADE_DEPTH+1) - 1`` events, all on one tick.
CASCADE_DEPTH = 7


def _storm(engine: SimulationEngine, horizon: float) -> None:
    """Periodic + cascading + cancel-heavy load on one engine."""

    def cascade(depth: int):
        def fire() -> None:
            now = engine.now
            if depth > 0:
                # Same-timestamp burst: three children on this tick,
                # one of which is cancelled before it can run.
                engine.call_at(now, cascade(depth - 1), label="cascade")
                doomed = engine.call_at(now, cascade(0), label="doomed")
                engine.call_at(now, cascade(depth - 1), label="cascade")
                doomed.cancel()
            if depth == CASCADE_DEPTH and now + 13.0 <= horizon:
                # Only the burst root re-arms, so the storm is a steady
                # train of bursts, not exponential growth.
                engine.call_in(13.0, cascade(CASCADE_DEPTH), label="reseed")

        return fire

    for interval in (3.0, 5.0, 7.0, 11.0, 17.0, 23.0):
        engine.every(interval, lambda: None, label=f"periodic:{interval:g}")
    engine.call_at(1.0, cascade(CASCADE_DEPTH), label="seed")
    engine.run_until(horizon)


def _best_drive():
    """Fastest of :data:`QUEUE_REPEATS` drives and its fire order."""
    best_wall, fire_order = float("inf"), None
    for _ in range(QUEUE_REPEATS):
        queue = EventQueue()
        start = time.perf_counter()
        fired = _drive_queue(queue)
        wall = time.perf_counter() - start
        if fire_order is None:
            fire_order = fired
        else:
            assert fired == fire_order  # repeats are deterministic
        best_wall = min(best_wall, wall)
    return best_wall, fire_order


def test_engine_core(benchmark):
    heap_wall, heap_fired = _best_drive()
    # The determinism contract: pops follow (time, seq) exactly.
    assert heap_fired == sorted(heap_fired)

    extra = {"heap_ops_per_second": round(QUEUE_OPS / heap_wall, 1)}

    def engine_storm():
        engine = SimulationEngine(seed=3)
        _storm(engine, horizon=600.0)
        return engine

    engine = run_once(benchmark, engine_storm, extra=extra)
    assert engine.fired_events > 10_000  # the storm actually stormed
