"""CI perf guardrail: compare fresh benchmark baselines to committed ones.

Each benchmark run writes a ``BENCH_<name>.json`` (see ``conftest.py``)
with wall time, simulation throughput, and peak RSS.  This script
compares a directory of freshly produced baselines against the
committed ones under ``benchmarks/_baselines/`` and fails (exit 1)
when a shared benchmark regressed beyond the tolerance band:

* ``wall_seconds`` may grow by at most ``--wall-tol`` (default 1.6x) —
  CI runners are noisy, so the band is generous; it catches order-of-
  magnitude regressions, not percent-level jitter.
* ``sim_events_per_second`` may shrink to no less than ``1/tput-tol``
  of the committed value (benchmarks with zero recorded events are
  skipped — nothing to compare).
* ``peak_rss_bytes`` may grow by at most ``--rss-tol`` (default 2.0x).

Derived metrics are enforced when both sides carry them:

* ``speedup_vs_serial`` (the parallel-sweep benchmark) is hardware-
  aware.  When baseline *and* fresh runs had at least ``jobs`` CPUs,
  the fresh speedup may shrink to no less than ``1/tput-tol`` of the
  committed one.  When either side ran on fewer cores the harness
  degrades to serial execution, so the check only demands the fresh
  "speedup" stay above :data:`SPEEDUP_FLOOR` — a 1-core runner
  reporting ~0.35x means pool overhead is being paid for time-sliced
  arms, which is exactly the mis-fire this band catches.
* ``profiler_overhead_x`` (instrumented vs. uninstrumented wall time)
  and ``streaming_overhead_x`` (live-export vs. plain wall time) may
  each grow by at most ``--wall-tol``.
* ``fanout_speedup_x`` (the DAG fan-out benchmark's serial-vs-DAG
  simulated-makespan ratio) may shrink to no less than ``1/tput-tol``
  of the committed value, and must always stay at or above
  :data:`FANOUT_FLOOR` — the DAG-aware placement acceptance criterion
  (independent steps fan out >= 3x faster than the serial runner) is
  deterministic simulated time, so no noise band applies.

A baseline may also carry an absolute ``floor_events_per_second``: the
fresh ``sim_events_per_second`` must then stay at or above
``floor / tput-tol`` regardless of how the relative band moves.  The
fig3 baseline uses this to lock in the ISSUE-8 hot-path rework (>= 3x
the pre-rework 10807 events/sec) so the gain cannot quietly erode
across future baseline regenerations.

Likewise ``floor_lifecycles_per_round`` (the fleet-scale benchmark):
admitted lifecycles per Algorithm-1 scoring round is deterministic
simulated-time accounting, so the fresh ``lifecycles_per_round`` must
meet the floor exactly — no noise band.  If batched placement regresses
to one region-scoring pass per workload the ratio collapses to ~1 and
the gate fails regardless of how fast the runner is.

Benchmarks present on only one side are reported but never fail the
check (new benchmarks land without a committed counterpart first).
Tolerances can also be set via ``SPOTVERSE_BENCH_WALL_TOL``,
``SPOTVERSE_BENCH_TPUT_TOL`` and ``SPOTVERSE_BENCH_RSS_TOL``.

Usage::

    python benchmarks/check_regression.py --fresh bench-baselines
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

DEFAULT_WALL_TOL = 1.6
DEFAULT_TPUT_TOL = 1.6
DEFAULT_RSS_TOL = 2.0

#: Minimum ``speedup_vs_serial`` on hosts where the parallel harness
#: degrades to the serial path (fewer cores than requested workers):
#: near 1.0x with slack for timer noise, never pool-thrash territory.
SPEEDUP_FLOOR = 0.65

#: Absolute floor on ``fanout_speedup_x``: simulated makespans are
#: deterministic, so the DAG fan-out must beat the serial JobRunner by
#: at least the acceptance criterion on any hardware.
FANOUT_FLOOR = 3.0


@dataclass(frozen=True)
class Violation:
    """One tolerance-band breach for one benchmark."""

    benchmark: str
    metric: str
    baseline: float
    fresh: float
    limit: str

    def render(self) -> str:
        """Human-readable one-liner for the CI log."""
        return (
            f"{self.benchmark}: {self.metric} {self.baseline:g} -> "
            f"{self.fresh:g} (allowed {self.limit})"
        )


def compare_payloads(
    baseline: Dict,
    fresh: Dict,
    wall_tol: float = DEFAULT_WALL_TOL,
    tput_tol: float = DEFAULT_TPUT_TOL,
    rss_tol: float = DEFAULT_RSS_TOL,
) -> List[Violation]:
    """Return every tolerance breach between one baseline/fresh pair."""
    name = fresh.get("benchmark") or baseline.get("benchmark", "?")
    violations: List[Violation] = []

    base_wall = float(baseline.get("wall_seconds", 0.0))
    fresh_wall = float(fresh.get("wall_seconds", 0.0))
    if base_wall > 0 and fresh_wall > base_wall * wall_tol:
        violations.append(
            Violation(name, "wall_seconds", base_wall, fresh_wall, f"<= {wall_tol:g}x")
        )

    base_tput = float(baseline.get("sim_events_per_second", 0.0))
    fresh_tput = float(fresh.get("sim_events_per_second", 0.0))
    if base_tput > 0 and fresh_tput < base_tput / tput_tol:
        violations.append(
            Violation(
                name,
                "sim_events_per_second",
                base_tput,
                fresh_tput,
                f">= 1/{tput_tol:g}x",
            )
        )

    floor_tput = float(baseline.get("floor_events_per_second", 0.0))
    if floor_tput > 0 and fresh_tput < floor_tput / tput_tol:
        violations.append(
            Violation(
                name,
                "sim_events_per_second",
                floor_tput,
                fresh_tput,
                f">= floor/{tput_tol:g}x",
            )
        )

    floor_batch = float(baseline.get("floor_lifecycles_per_round", 0.0))
    fresh_batch = float(fresh.get("lifecycles_per_round", 0.0))
    if floor_batch > 0 and fresh_batch < floor_batch:
        violations.append(
            Violation(
                name,
                "lifecycles_per_round",
                floor_batch,
                fresh_batch,
                f">= {floor_batch:g} (absolute floor)",
            )
        )

    base_rss = float(baseline.get("peak_rss_bytes", 0.0))
    fresh_rss = float(fresh.get("peak_rss_bytes", 0.0))
    if base_rss > 0 and fresh_rss > base_rss * rss_tol:
        violations.append(
            Violation(name, "peak_rss_bytes", base_rss, fresh_rss, f"<= {rss_tol:g}x")
        )

    base_speedup = float(baseline.get("speedup_vs_serial", 0.0))
    fresh_speedup = float(fresh.get("speedup_vs_serial", 0.0))
    if base_speedup > 0 and fresh_speedup > 0:
        jobs = int(fresh.get("jobs", 0))
        base_parallel = jobs > 0 and int(baseline.get("cpu_count", 0)) >= jobs
        fresh_parallel = jobs > 0 and int(fresh.get("cpu_count", 0)) >= jobs
        if base_parallel and fresh_parallel:
            if fresh_speedup < base_speedup / tput_tol:
                violations.append(
                    Violation(
                        name,
                        "speedup_vs_serial",
                        base_speedup,
                        fresh_speedup,
                        f">= 1/{tput_tol:g}x",
                    )
                )
        elif fresh_speedup < SPEEDUP_FLOOR:
            violations.append(
                Violation(
                    name,
                    "speedup_vs_serial",
                    base_speedup,
                    fresh_speedup,
                    f">= {SPEEDUP_FLOOR:g} (serial fallback on low-core host)",
                )
            )

    base_fanout = float(baseline.get("fanout_speedup_x", 0.0))
    fresh_fanout = float(fresh.get("fanout_speedup_x", 0.0))
    if base_fanout > 0 and fresh_fanout > 0:
        if fresh_fanout < base_fanout / tput_tol:
            violations.append(
                Violation(
                    name,
                    "fanout_speedup_x",
                    base_fanout,
                    fresh_fanout,
                    f">= 1/{tput_tol:g}x",
                )
            )
        if fresh_fanout < FANOUT_FLOOR:
            violations.append(
                Violation(
                    name,
                    "fanout_speedup_x",
                    base_fanout,
                    fresh_fanout,
                    f">= {FANOUT_FLOOR:g} (absolute floor)",
                )
            )

    for overhead_metric in ("profiler_overhead_x", "streaming_overhead_x"):
        base_overhead = float(baseline.get(overhead_metric, 0.0))
        fresh_overhead = float(fresh.get(overhead_metric, 0.0))
        if base_overhead > 0 and fresh_overhead > base_overhead * wall_tol:
            violations.append(
                Violation(
                    name,
                    overhead_metric,
                    base_overhead,
                    fresh_overhead,
                    f"<= {wall_tol:g}x",
                )
            )
    return violations


def _load_dir(directory: Path) -> Dict[str, Dict]:
    payloads: Dict[str, Dict] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        payloads[path.name] = json.loads(path.read_text())
    return payloads


def check_directories(
    baseline_dir: Path,
    fresh_dir: Path,
    wall_tol: float = DEFAULT_WALL_TOL,
    tput_tol: float = DEFAULT_TPUT_TOL,
    rss_tol: float = DEFAULT_RSS_TOL,
) -> List[Violation]:
    """Compare every baseline shared by the two directories."""
    baselines = _load_dir(baseline_dir)
    fresh = _load_dir(fresh_dir)
    shared = sorted(set(baselines) & set(fresh))
    for name in sorted(set(baselines) - set(fresh)):
        print(f"note: {name} has no fresh counterpart (benchmark not run)")
    for name in sorted(set(fresh) - set(baselines)):
        print(f"note: {name} has no committed baseline (new benchmark)")
    violations: List[Violation] = []
    for name in shared:
        violations.extend(
            compare_payloads(
                baselines[name],
                fresh[name],
                wall_tol=wall_tol,
                tput_tol=tput_tol,
                rss_tol=rss_tol,
            )
        )
    return violations


def _env_tol(name: str, default: float) -> float:
    raw = os.environ.get(name)
    return float(raw) if raw else default


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh", required=True, type=Path,
        help="directory of freshly produced BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline", type=Path, default=Path(__file__).parent / "_baselines",
        help="directory of committed baselines (default: benchmarks/_baselines)",
    )
    parser.add_argument(
        "--wall-tol", type=float,
        default=_env_tol("SPOTVERSE_BENCH_WALL_TOL", DEFAULT_WALL_TOL),
    )
    parser.add_argument(
        "--tput-tol", type=float,
        default=_env_tol("SPOTVERSE_BENCH_TPUT_TOL", DEFAULT_TPUT_TOL),
    )
    parser.add_argument(
        "--rss-tol", type=float,
        default=_env_tol("SPOTVERSE_BENCH_RSS_TOL", DEFAULT_RSS_TOL),
    )
    args = parser.parse_args(argv)
    if not args.fresh.is_dir():
        print(f"error: fresh directory {args.fresh} does not exist")
        return 2
    if not args.baseline.is_dir():
        print(f"error: baseline directory {args.baseline} does not exist")
        return 2
    violations = check_directories(
        args.baseline, args.fresh,
        wall_tol=args.wall_tol, tput_tol=args.tput_tol, rss_tol=args.rss_tol,
    )
    if violations:
        print(f"{len(violations)} perf regression(s) beyond tolerance:")
        for violation in violations:
            print(f"  {violation.render()}")
        return 1
    print("benchmark baselines within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
