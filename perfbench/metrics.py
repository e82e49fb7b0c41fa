"""Metric names and units, and their derivation from measured iterations.

``BENCHMARK.json`` lists the same names; ``tests/test_perfbench.py``
keeps the two in step.  Per-layer ``*_us_per_lc`` figures are a
layer's self time (span time minus contained spans) per completed
lifecycle; counts are per iteration (every iteration of one seed does
identical work, so they repeat exactly).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from perfbench.checks import percentile
from perfbench.tracer import STATE_READS, STATE_WRITES

#: (name, unit) reported by untraced runs.
END_TO_END = (
    ("lifecycles_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cost_usd", "usd"),
    ("sim_makespan_h", "h"),
    ("sim_completion_p50_h", "h"),
    ("sim_completion_p99_h", "h"),
    ("completed_frac", "ratio"),
)

#: Layers whose self time per lifecycle is reported.
SELF_TIME_LAYERS = (
    "sim", "controller", "tenancy", "state", "lifecycle", "capacity", "interruption",
    "checkpoint", "dag", "placement", "dynamodb", "retry", "ec2", "billing", "market",
    "monitor", "bus",
)

#: (name, unit) reported by traced runs.
PER_LAYER = (
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.tick_hooks_us_per_lc", "us"),
    ("sim.completion_samples", "count"),
    ("tenancy.rounds", "count"),
    ("tenancy.admitted_per_round", "count"),
    ("tenancy.queue_wait_p50_h", "h"),
    ("tenancy.queue_wait_p99_h", "h"),
    ("state.reads", "count"),
    ("state.writes", "count"),
    ("state.flushes", "count"),
    ("state.dynamo_gets_per_read", "ratio"),
    ("state.probe_hit_ratio", "ratio"),
    ("lifecycle.register_us_per_lc", "us"),
    ("lifecycle.restore_ms", "ms"),
    ("capacity.spot_fulfil_ratio", "ratio"),
    ("interruption.notices", "count"),
    ("checkpoint.saves", "count"),
    ("dag.release_rounds", "count"),
    ("dag.stages_per_round", "count"),
    ("placement.initial_calls", "count"),
    ("placement.workloads_per_call", "count"),
    ("placement.migrations", "count"),
    ("placement.on_demand_share", "ratio"),
    ("dynamodb.ops", "count"),
    ("dynamodb.items_retained_per_lc", "count"),
    ("retry.calls", "count"),
    ("retry.retries", "count"),
    ("retry.dead_letters", "count"),
    ("ec2.spot_requests", "count"),
    ("ec2.interruptions", "count"),
    ("ec2.instances_retained_per_lc", "count"),
    ("billing.charges_per_lc", "count"),
    ("billing.entries_retained_per_lc", "count"),
    ("billing.transfer_usd", "usd"),
    ("s3.puts", "count"),
    ("s3.objects_retained_per_lc", "count"),
    ("bus.emits", "count"),
    ("bus.events_retained", "count"),
    ("trace.overhead_x", "x"),
    ("trace.other_frac", "ratio"),
    ("failed_frac", "ratio"),
) + tuple((f"{layer}.self_us_per_lc", "us") for layer in SELF_TIME_LAYERS)

UNITS: Dict[str, str] = dict(END_TO_END + PER_LAYER)

#: DynamoDBService methods that are item or table operations.
DYNAMODB_OPS = (
    "put_item", "get_item", "update_item", "delete_item", "batch_write_item",
    "batch_get_item", "query", "scan",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sim_summary(outcomes: Sequence[Dict]) -> Dict[str, float]:
    """The ``sim_*`` metrics over a run's input sets (one outcome each).

    Cost and makespan are per fleet, so the run reports the median
    fleet; completion percentiles pool every lifecycle of every fleet.
    """
    hours = [h for outcome in outcomes for h in outcome["completion_h"]] or [0.0]
    return {
        "sim_cost_usd": statistics.median(outcome["cost_usd"] for outcome in outcomes),
        "sim_makespan_h": statistics.median(outcome["makespan_h"] for outcome in outcomes),
        "sim_completion_p50_h": percentile(hours, 0.50),
        "sim_completion_p99_h": percentile(hours, 0.99),
        "samples": len(hours),
    }


def end_to_end(
    iterations: Sequence, sim: Dict, peak_rss_mb: float, attempted: int, failed: int
) -> Dict:
    """Untraced metrics: medians over the run's iterations."""
    values = {
        "lifecycles_per_s": statistics.median(it.completed / it.timed_s for it in iterations),
        "setup_s": statistics.median(it.setup_s for it in iterations),
        "peak_rss_mb": peak_rss_mb,
        "completed_frac": 1.0 - _ratio(failed, attempted),
    }
    for name in ("sim_cost_usd", "sim_makespan_h", "sim_completion_p50_h", "sim_completion_p99_h"):
        values[name] = sim[name]
    return values


def per_layer(traced: Sequence, untraced: Sequence, sim: Dict, attempted: int, failed: int) -> Dict:
    """Traced metrics: span aggregates over the traced iterations.

    Traced runs hold whole rounds of input seeds, so per-iteration
    means of counts are the same for every run of one seed.
    """
    runs = len(traced)
    lifecycles = sum(it.completed for it in traced)
    self_time: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    inclusive: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    retained: Dict[str, float] = {}
    for it in traced:
        for total, part in (
            (self_time, it.spans["self_seconds"]),
            (calls, it.spans["calls"]),
            (inclusive, it.spans["inclusive_seconds"]),
            (counters, it.spans["counters"]),
            (retained, it.retained),
        ):
            for key, value in part.items():
                total[key] = total.get(key, 0) + value
    traced_wall = sum(it.timed_s for it in traced)

    def per_run(value: float) -> float:
        return value / runs

    def us_per_lc(seconds: float) -> float:
        return _ratio(seconds * 1e6, lifecycles)

    def count(*keys: str) -> int:
        return sum(calls.get(key, 0) for key in keys)

    state_reads = count(*(f"{cls}.{name}" for cls in ("FleetStateStore", "_MetaMapping")
                          for name in STATE_READS))
    state_writes = count(*(f"{cls}.{name}" for cls in ("FleetStateStore", "_MetaMapping")
                           for name in STATE_WRITES))
    rounds = counters.get("tenancy.rounds", 0)
    dag_rounds = counters.get("dag.rounds", 0)
    initial_calls = count("SpotVerseOptimizer.initial_placements")
    spot_requests = count("EC2Service.request_spot_instances")
    queue_wait = [h for it in traced for h in it.queue_wait_h] or [0.0]

    values = {
        "sim.events": per_run(sum(it.fired_events for it in traced)),
        "sim.events_per_s": statistics.median(it.fired_events / it.timed_s for it in untraced),
        "sim.tick_hooks_us_per_lc": us_per_lc(
            sum(v for k, v in inclusive.items() if k.startswith("tick:"))
        ),
        "sim.completion_samples": sim["samples"],
        "tenancy.rounds": per_run(rounds),
        "tenancy.admitted_per_round": _ratio(counters.get("tenancy.admitted", 0), rounds),
        "tenancy.queue_wait_p50_h": percentile(queue_wait, 0.50),
        "tenancy.queue_wait_p99_h": percentile(queue_wait, 0.99),
        "state.reads": per_run(state_reads),
        "state.writes": per_run(state_writes),
        "state.flushes": per_run(counters.get("state.batch_writes", 0)),
        "state.dynamo_gets_per_read": _ratio(counters.get("state.gets", 0), state_reads),
        "state.probe_hit_ratio": _ratio(
            counters.get("state.get_hits", 0), counters.get("state.gets", 0)
        ),
        "lifecycle.register_us_per_lc": us_per_lc(inclusive.get("LifecycleService.register", 0.0)),
        "lifecycle.restore_ms": per_run(inclusive.get("LifecycleService.restore", 0.0) * 1e3),
        "capacity.spot_fulfil_ratio": _ratio(
            count("CapacityService.on_spot_fulfilled"), spot_requests
        ),
        "interruption.notices": per_run(count("InterruptionService.handle_event")),
        "checkpoint.saves": per_run(count(
            "CheckpointBackend.save_progress", "DynamoCheckpointBackend.save_progress",
            "EFSCheckpointBackend.save_progress",
        )),
        "dag.release_rounds": per_run(dag_rounds),
        "dag.stages_per_round": _ratio(counters.get("dag.stages", 0), dag_rounds),
        "placement.initial_calls": per_run(initial_calls),
        "placement.workloads_per_call": _ratio(
            counters.get("placement.workloads", 0), initial_calls
        ),
        "placement.migrations": per_run(count("SpotVerseOptimizer.migration_placement")),
        "placement.on_demand_share": _ratio(
            counters.get("placement.on_demand", 0), counters.get("placement.placed", 0)
        ),
        "dynamodb.ops": per_run(count(*(f"DynamoDBService.{op}" for op in DYNAMODB_OPS))),
        "dynamodb.items_retained_per_lc": per_run(retained["dynamodb_items_per_lc"]),
        "retry.calls": per_run(count("call_with_retries")),
        "retry.retries": per_run(count("note_retry")),
        "retry.dead_letters": per_run(count("note_dead_letter")),
        "ec2.spot_requests": per_run(spot_requests),
        "ec2.interruptions": per_run(retained["ec2_interruptions"]),
        "ec2.instances_retained_per_lc": per_run(retained["ec2_instances_per_lc"]),
        "billing.charges_per_lc": _ratio(count("CostLedger.charge"), lifecycles),
        "billing.entries_retained_per_lc": per_run(retained["ledger_entries_per_lc"]),
        "billing.transfer_usd": per_run(retained["transfer_usd"]),
        "s3.puts": per_run(count("S3Service.put_object")),
        "s3.objects_retained_per_lc": per_run(retained["s3_objects_per_lc"]),
        "bus.emits": per_run(count("EventBus.emit")),
        "bus.events_retained": per_run(retained["bus_events"]),
        "trace.overhead_x": _ratio(
            statistics.median(it.timed_s for it in traced),
            statistics.median(it.timed_s for it in untraced),
        ),
        "trace.other_frac": _ratio(self_time.get("other", 0.0), traced_wall),
        "failed_frac": _ratio(failed, attempted),
    }
    for layer in SELF_TIME_LAYERS:
        values[f"{layer}.self_us_per_lc"] = us_per_lc(self_time.get(layer, 0.0))
    return values


def as_payload(values: Dict[str, float], names: List[str]) -> Dict:
    """``{"name": {"value": v, "unit": u}}`` for every name, in order."""
    return {name: {"value": values[name], "unit": UNITS[name]} for name in names}
