"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tenant-fleet --seed 1 --seconds 25 --trace 0

One process, one thread.  ``--seed`` selects :data:`INPUT_SEEDS` input
sets; the run cycles through them, one fresh cloud and controller per
iteration, until ``--seconds`` have been measured, then reports
medians.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it runs rounds of untraced and traced iterations and
prints the per-layer metrics.  The last line of standard output is the
JSON result; span aggregates of traced runs also go to
``perfbench/_out/``.  See ``README.md`` for the workloads, metrics and
checks.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: Input sets per run.  ``sim_*`` metrics summarise all of them, which
#: keeps tail statistics such as the makespan steady from seed to seed
#: (one ``spot-churn`` fleet's makespan ranges over 28-56 h).
INPUT_SEEDS = 12
#: Input sets per round of a traced run (the first of the run's sets).
TRACED_INPUT_SEEDS = 2
#: Upper bound on iterations per run (reached only at tiny sizes).
MAX_ITERATIONS = 200


def input_seeds(seed: int) -> List[int]:
    """The input seeds a run with ``--seed seed`` uses (disjoint per seed)."""
    return [seed * INPUT_SEEDS + index for index in range(INPUT_SEEDS)]


@dataclass
class Iteration:
    """What one iteration measured and checked."""

    input_seed: int
    lifecycles: int
    completed: int
    setup_s: float
    timed_s: float
    fired_events: int
    digest: str
    failures: List[str]
    sim: Dict
    queue_wait_h: List[float]
    traced: bool = False
    spans: Dict = field(default_factory=dict)
    retained: Dict[str, float] = field(default_factory=dict)


def run_iteration(
    name: str, input_seed: int, size: Optional[int] = None, traced: bool = False
) -> Iteration:
    """Set up, run and check one workload iteration."""
    from perfbench import checks
    from perfbench.tracer import SpanTracer
    from perfbench.workloads import WORKLOADS
    from repro.cloud.billing import CostCategory
    from repro.sim.clock import HOUR
    from repro.sim.engine import SimulationEngine

    cls = WORKLOADS[name]
    tracer = SpanTracer() if traced else None
    gc.collect()
    start = perf_counter()
    engine = SimulationEngine(seed=cls.sim_seed)
    if tracer is not None:
        tracer.install()
        tracer.attach_engine(engine)
    try:
        workload = cls(engine, input_seed, size)
        fired_before = engine.fired_events
        setup_s = perf_counter() - start
        if tracer is not None:
            tracer.reset()
        timed_start = perf_counter()
        if tracer is not None:
            result = tracer.wrap("bench", "timed-phase", workload.run)()
        else:
            result = workload.run()
        timed_s = perf_counter() - timed_start
    finally:
        if tracer is not None:
            tracer.uninstall()
    fired = engine.fired_events - fired_before
    completed = sum(1 for record in result.records if record.completed_at is not None)
    iteration = Iteration(
        input_seed=input_seed,
        lifecycles=workload.lifecycles,
        completed=completed,
        setup_s=setup_s,
        timed_s=timed_s,
        fired_events=fired,
        digest=checks.digest(result, fired),
        failures=checks.check(workload, result),
        sim=checks.sim_outcome(workload, result),
        queue_wait_h=[(t - workload.t_submit) / HOUR for t in workload.audit.admit_times],
        traced=traced,
    )
    provider = workload.provider
    if tracer is not None:
        # Retained state, read through public accessors.  Only traced
        # iterations read it: materialising the ledger's entries would
        # raise the peak RSS the untraced runs report.
        per_lc = max(completed, 1)
        iteration.spans = tracer.to_payload()
        iteration.retained = {
            "ledger_entries_per_lc": len(provider.ledger.entries) / per_lc,
            "dynamodb_items_per_lc": sum(
                provider.dynamodb.item_count(table) for table in provider.dynamodb.tables()
            ) / per_lc,
            "s3_objects_per_lc": sum(
                len(provider.s3.list_objects(bucket)) for bucket in provider.s3.buckets()
            ) / per_lc,
            "ec2_instances_per_lc": len(provider.ec2.describe_instances()) / per_lc,
            "ec2_interruptions": provider.ec2.interruption_count(),
            "transfer_usd": provider.ledger.total(CostCategory.S3_TRANSFER),
            "bus_events": len(provider.telemetry.bus),
        }
    del workload, result
    provider.shutdown()
    return iteration


def measure(name: str, seed: int, seconds: float, trace: bool, size: Optional[int] = None) -> Dict:
    """Run iterations for *seconds* and return the result object.

    Untraced runs cycle through the input seeds, each at least once.
    Traced runs go in whole rounds over the first
    :data:`TRACED_INPUT_SEEDS` input seeds (each untraced, then traced),
    so their per-iteration counts do not depend on run length and the
    overhead ratio compares neighbours under the same load.
    """
    from perfbench import metrics

    seeds = input_seeds(seed)
    iterations: List[Iteration] = []
    deadline = perf_counter() + seconds
    if trace:
        seeds = seeds[:TRACED_INPUT_SEEDS]
        while True:
            for input_seed in seeds:
                iterations.append(run_iteration(name, input_seed, size))
                iterations.append(run_iteration(name, input_seed, size, traced=True))
            if perf_counter() >= deadline or len(iterations) >= MAX_ITERATIONS:
                break
    else:
        while len(iterations) < MAX_ITERATIONS and (
            len(iterations) < len(seeds) or perf_counter() < deadline
        ):
            iterations.append(run_iteration(name, seeds[len(iterations) % len(seeds)], size))

    first: Dict[int, Iteration] = {}
    attempted = sum(it.lifecycles for it in iterations)
    failed = 0
    problems: List[str] = []
    for index, it in enumerate(iterations):
        reference = first.setdefault(it.input_seed, it)
        issues = list(it.failures)
        if it.digest != reference.digest:
            issues.append(
                f"digest {it.digest} differs from {reference.digest} "
                f"of input seed {it.input_seed}'s first iteration"
            )
        if issues:
            failed += it.lifecycles
            problems.extend(f"iteration {index}: {issue}" for issue in issues)
        else:
            failed += it.lifecycles - it.completed
    sim = metrics.sim_summary([first[input_seed].sim for input_seed in seeds])
    untraced = [it for it in iterations if not it.traced]
    if trace:
        traced = [it for it in iterations if it.traced]
        values = metrics.per_layer(traced, untraced, sim, attempted, failed)
        names = [metric for metric, _ in metrics.PER_LAYER]
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = metrics.end_to_end(untraced, sim, peak_mb, attempted, failed)
        names = [metric for metric, _ in metrics.END_TO_END]
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics.as_payload(values, names),
        "digests": {input_seed: first[input_seed].digest for input_seed in seeds},
        "samples": sim["samples"],
        "problems": problems,
        "iterations": iterations,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    iterations = outcome.pop("iterations")
    digests = ",".join(f"{s}:{d}" for s, d in outcome.pop("digests").items())
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} iterations={len(iterations)} "
        f"completion_samples={outcome.pop('samples')} digests={digests}"
    )
    for problem in outcome.pop("problems"):
        print(f"CHECK FAILED {problem}")
    for it in iterations:
        print(
            f"  {'traced  ' if it.traced else 'untraced'} input_seed={it.input_seed} "
            f"setup={it.setup_s:.4f}s timed={it.timed_s:.4f}s "
            f"lifecycles={it.completed}/{it.lifecycles} events={it.fired_events} "
            f"digest={it.digest}"
        )
    traced = [it for it in iterations if it.traced]
    if traced:
        out = ROOT / "perfbench" / "_out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(
            json.dumps([it.spans for it in traced], indent=1, sort_keys=True) + "\n"
        )
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
