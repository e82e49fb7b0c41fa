"""Shared benchmark helpers.

Every benchmark runs its experiment exactly once (rounds=1) — these
are *reproduction* benchmarks whose value is the rendered report and
the shape assertions, not statistical timing.

Each :func:`run_once` call also writes a machine-readable baseline,
``BENCH_<test name>.json``, holding the wall time, the simulation
throughput (fired engine events per wall second, via
:class:`~repro.sim.trace.EngineTracer`), and the process's peak RSS —
plus a ``PROFILE_<test name>.json`` hot-path artifact aggregating
every engine's trace into the attributed profile
``spotverse obs profile --from-profile`` renders.  CI uploads these as
artifacts so perf regressions show up as diffable numbers, not vibes.
The output directory defaults to ``benchmarks/_baselines`` and can be
pointed elsewhere with ``SPOTVERSE_BENCH_DIR``.
"""

from __future__ import annotations

import json
import os
import resource
import time
from pathlib import Path
from typing import List

from repro.obs.profiler import HotPathProfile
from repro.sim.engine import SimulationEngine
from repro.sim.trace import EngineTracer


def _baseline_dir() -> Path:
    return Path(
        os.environ.get("SPOTVERSE_BENCH_DIR", str(Path(__file__).parent / "_baselines"))
    )


def _peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    ``ru_maxrss`` is kilobytes on Linux, bytes on macOS.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if os.uname().sysname == "Darwin":  # pragma: no cover - linux CI
        return peak
    return peak * 1024


def run_once(benchmark, func, *args, extra=None, **kwargs):
    """Run *func* once under pytest-benchmark and return its result.

    Every :class:`SimulationEngine` the experiment constructs is forced
    to trace so the baseline can report total fired events and
    events/sec; tracing never feeds back into virtual time, so results
    are identical to an untraced run.

    *extra* is an optional mapping merged into the baseline payload —
    benchmarks use it for derived numbers (e.g. measured speedups).
    Because it is read *after* the run, the benchmarked function may
    fill a dict passed here as it executes.
    """
    tracers: List[EngineTracer] = []
    original_init = SimulationEngine.__init__

    def traced_init(self, seed=0, trace=False, tracer=None):
        original_init(self, seed=seed, trace=True, tracer=tracer)
        tracers.append(self.tracer)

    SimulationEngine.__init__ = traced_init
    start = time.perf_counter()
    try:
        result = benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
    finally:
        SimulationEngine.__init__ = original_init
    wall = time.perf_counter() - start
    _write_baseline(benchmark.name, wall, tracers, extra=extra)
    return result


def _write_baseline(
    name: str, wall: float, tracers: List[EngineTracer], extra=None
) -> Path:
    events = sum(tracer.fired for tracer in tracers if tracer is not None)
    payload = {
        "benchmark": name,
        "wall_seconds": round(wall, 4),
        "engines": len(tracers),
        "sim_events": events,
        "sim_events_per_second": round(events / wall, 1) if wall > 0 else 0.0,
        "peak_rss_bytes": _peak_rss_bytes(),
    }
    if extra:
        payload.update(extra)
    directory = _baseline_dir()
    directory.mkdir(parents=True, exist_ok=True)
    profile = HotPathProfile.from_tracers(tracers)
    if profile.fired_events:
        (directory / f"PROFILE_{name}.json").write_text(
            json.dumps(profile.to_payload(), indent=2, sort_keys=True) + "\n"
        )
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
