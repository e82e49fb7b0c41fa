"""Correctness checks and the outcome digest of one benchmark iteration.

:func:`check` returns a list of human-readable failures (empty when
the iteration is correct).  A failure marks every lifecycle of that
iteration as failed in ``attempted``/``failed`` and ``completed_frac``.

:func:`digest` hashes the simulated outcome: per-lifecycle records,
the ledger total and the engine's fired-event count.  It must repeat
across iterations of one seed and match between traced and untraced
iterations, because tracing only observes.

:func:`sim_outcome` gives what the deterministic ``sim_*`` metrics
are computed from.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Sequence

from repro.sim.clock import HOUR


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def sim_outcome(workload, result) -> Dict:
    """One fleet's deterministic simulated outcome.

    ``completion_h`` holds each lifecycle's submit-to-completion time in
    simulated hours; the run pools these over its input seeds.
    """
    return {
        "cost_usd": result.total_cost,
        "makespan_h": result.makespan_hours,
        "completion_h": [
            (record.completed_at - workload.t_submit) / HOUR
            for record in result.records
            if record.completed_at is not None
        ],
    }


def digest(result, fired_events: int) -> str:
    """Stable hash of one iteration's simulated outcome."""
    sha = hashlib.sha256()
    for record in result.records:
        sha.update(
            repr((
                record.workload_id,
                record.submitted_at,
                record.completed_at,
                tuple(record.interruptions),
                tuple(record.regions),
                tuple(record.attempt_starts),
                record.attempts,
                record.on_demand_attempts,
                record.cost,
            )).encode()
        )
    sha.update(repr((result.total_cost, fired_events)).encode())
    return sha.hexdigest()[:16]


def check(workload, result) -> List[str]:
    """Every check that applies to *workload*'s outcome."""
    failures = _common(workload, result)
    name = workload.name
    if name == "tenant-fleet":
        failures += _tenant_fleet(workload, result)
    elif name == "spot-churn":
        failures += _spot_churn(workload, result)
    elif name == "dag-fanout":
        failures += _dag_fanout(workload, result)
    return failures


def _common(workload, result) -> List[str]:
    failures = []
    expected = workload.lifecycles
    ids = [record.workload_id for record in result.records]
    if len(ids) != expected or len(set(ids)) != expected:
        failures.append(f"{len(set(ids))} distinct records of {len(ids)}, expected {expected}")
    unfinished = sum(1 for record in result.records if record.completed_at is None)
    if unfinished:
        failures.append(f"{unfinished} lifecycles never completed")
    done = workload.audit.done
    repeated = sorted(wid for wid, count in done.items() if count != 1)
    if repeated:
        failures.append(f"{len(repeated)} lifecycles completed more than once: {repeated[:3]}")
    if set(done) != set(ids):
        failures.append(
            f"completion events cover {len(done)} lifecycles, records {len(set(ids))}"
        )
    ledger_total = workload.provider.ledger.total()
    if not math.isclose(ledger_total, result.total_cost, rel_tol=1e-12, abs_tol=1e-9):
        failures.append(f"ledger total {ledger_total!r} != sim_cost_usd {result.total_cost!r}")
    attributed = math.fsum(record.cost for record in result.records)
    if attributed > ledger_total * (1 + 1e-9) + 1e-9:
        failures.append(f"records carry ${attributed:.4f}, more than the ledger's ${ledger_total:.4f}")
    return failures


def _tenant_fleet(workload, result) -> List[str]:
    failures = []
    audit = workload.audit
    if audit.over_quota:
        failures.append(f"{audit.over_quota} admissions put a tenant over its quota")
    rounds = len(set(audit.admit_times))
    if not audit.initial_decisions == len(audit.initial_times) == rounds:
        failures.append(
            f"{audit.initial_decisions} initial decisions at {len(audit.initial_times)} "
            f"distinct times for {rounds} admission rounds"
        )
    if audit.initial_batched != workload.lifecycles:
        failures.append(
            f"initial decisions placed {audit.initial_batched} of {workload.lifecycles}"
        )
    # The ring cap evicts exactly the decisions past it, so the expected
    # drop count follows from how many decisions were made, at any scale.
    log = workload.provider.telemetry.decisions
    expected_dropped = max(0, audit.decisions - log.max_records)
    if log.decisions_dropped != expected_dropped:
        failures.append(
            f"decision log dropped {log.decisions_dropped}, expected {expected_dropped} "
            f"({audit.decisions} decisions, cap {log.max_records})"
        )
    for tenant_id, row in workload.controller.usage().items():
        if row["in_flight"] or row["queued"] or row["admitted"] != row["done"]:
            failures.append(f"{tenant_id} ended with {row}")
            break
    return failures


def _spot_churn(workload, result) -> List[str]:
    failures = []
    interruptions = sum(record.n_interruptions for record in result.records)
    if interruptions == 0:
        failures.append("no interruptions: the interruption path was not exercised")
    logged = workload.provider.ec2.interruption_count()
    if interruptions > logged:
        failures.append(f"records carry {interruptions} interruptions, EC2 logged {logged}")
    return failures


def _dag_fanout(workload, result) -> List[str]:
    failures = []
    completed = {record.workload_id: record.completed_at for record in result.records}
    starts = {record.workload_id: record.attempt_starts for record in result.records}
    early = 0
    for dag in workload.dags:
        for stage in dag.stages:
            first = min(starts.get(stage.stage_id) or [math.inf])
            for dep in stage.deps:
                done_at = completed.get(dep)
                if done_at is None or first < done_at:
                    early += 1
    if early:
        failures.append(f"{early} stage starts precede a producer's completion")
    return failures
