"""The deep-observability layer: profiler, causal tracing, and SLOs.

Integration surface for PR 6's tentpole: a chaos-campaign fleet run
with tracing and the hot-path profiler enabled must (a) leave the
fleet's numerical results bit-identical to an uninstrumented run of
the same seed, (b) yield a complete submit→placed→(interrupt→
reacquire)*→done causal tree per workload — including the retry and
dead-letter hops injected faults provoke — and (c) feed the latency
series the SLO engine scores.
"""

from __future__ import annotations

import pytest

from tests.golden_scenarios import result_to_dict
from tests.recording_tracer import RecordingTracer

from repro.chaos import ChaosController, default_campaign
from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.errors import ReproError
from repro.obs import RunReport, Telemetry
from repro.obs.events import EventType, TelemetryEvent
from repro.obs.profiler import SUBSYSTEMS, HotPathProfile, subsystem_for
from repro.obs.slo import (
    SLOSpec,
    SLOTarget,
    default_slo_spec,
    evaluate_slo,
    evaluate_slo_from_events,
    latency_series,
)
from repro.obs.tracing import render_trace
from repro.sim.trace import default_group
from repro.strategies.single_region import SingleRegionPolicy
from repro.workloads.genome_reconstruction import genome_reconstruction_workload

#: Statuses that mark a hop as a retry/failure leg of its chain.
_FAULT_STATUSES = {"retry", "throttled", "dropped", "dead_letter", "error"}


def _run_chaos_fleet(instrumented: bool):
    """One seeded chaos-campaign fleet, with or without instrumentation."""
    provider = CloudProvider(seed=11, tracing=instrumented)
    if instrumented:
        provider.engine.tracer = RecordingTracer()
    ChaosController(provider, default_campaign().without_kills()).install()
    provider.warmup_markets(24)
    controller = FleetController(
        provider,
        SingleRegionPolicy(instance_type="m5.xlarge"),
        SpotVerseConfig(instance_type="m5.xlarge"),
    )
    fleet = [genome_reconstruction_workload(f"wl-{i:03d}") for i in range(6)]
    result = controller.run(fleet, max_hours=72.0)
    return provider, result


@pytest.fixture(scope="module")
def traced_chaos_fleet():
    return _run_chaos_fleet(instrumented=True)


class TestInstrumentationIsReadOnly:
    def test_traced_run_is_bit_identical_to_plain_run(self, traced_chaos_fleet):
        _, traced_result = traced_chaos_fleet
        _, plain_result = _run_chaos_fleet(instrumented=False)
        assert result_to_dict(traced_result) == result_to_dict(plain_result)


class TestCausalTracing:
    def test_every_workload_has_one_closed_root(self, traced_chaos_fleet):
        provider, result = traced_chaos_fleet
        tracer = provider.telemetry.tracer
        for record in result.records:
            hops = tracer.hops_for(record.workload_id)
            roots = [h for h in hops if h.parent_id is None]
            assert [h.name for h in roots] == ["workload:submit"]
            if record.completed:
                # WORKLOAD_DONE closes the root, so the whole chain has
                # a span: submit time to completion time.
                assert roots[0].end is not None
                assert roots[0].latency == pytest.approx(
                    record.completed_at - record.submitted_at
                )

    def test_interrupted_workload_tree_is_complete(self, traced_chaos_fleet):
        provider, result = traced_chaos_fleet
        tracer = provider.telemetry.tracer
        interrupted = [r for r in result.records if r.n_interruptions > 0]
        assert interrupted, "chaos campaign must interrupt at least one workload"
        record = interrupted[0]
        names = {hop.name for hop in tracer.hops_for(record.workload_id)}
        assert "workload:submit" in names
        assert "capacity:acquire" in names
        assert names & {"capacity:attach", "ec2:run-on-demand"}
        assert "ec2:interruption-warning" in names
        assert names & {
            "interruption:handle",
            "interruption:reconcile",
            "interruption:restrand",
        }

    def test_chaos_faults_surface_as_retry_hops(self, traced_chaos_fleet):
        provider, _ = traced_chaos_fleet
        tracer = provider.telemetry.tracer
        statuses = {
            hop.status
            for trace_id in tracer.trace_ids()
            for hop in tracer.hops_for(trace_id)
        }
        assert statuses & _FAULT_STATUSES, (
            "a default-campaign run should record at least one retry/"
            f"dead-letter hop, saw only {sorted(statuses)}"
        )

    def test_render_trace_shows_tree_and_critical_path(self, traced_chaos_fleet):
        provider, result = traced_chaos_fleet
        tracer = provider.telemetry.tracer
        record = next(r for r in result.records if r.n_interruptions > 0)
        text = render_trace(tracer.hops_for(record.workload_id), record.workload_id)
        assert record.workload_id in text
        assert "workload:submit" in text
        assert "critical path" in text


class TestHotPathProfiler:
    def test_profile_names_top_hot_labels(self, traced_chaos_fleet):
        provider, _ = traced_chaos_fleet
        profile = HotPathProfile.from_tracer(provider.engine.tracer)
        top = profile.top(5)
        assert len(top) == 5
        assert all(entry.count > 0 for entry in top)
        assert all(entry.subsystem in SUBSYSTEMS for entry in top)
        assert profile.fired_events == sum(e.count for e in profile.entries())
        report = profile.report(top=5)
        for entry in top:
            assert entry.group in report

    def test_profile_equals_fold_of_recorded_events(self, traced_chaos_fleet):
        provider, _ = traced_chaos_fleet
        tracer = provider.engine.tracer
        folded = {}
        for _, label, wall, scheduled in tracer.events:
            group = default_group(label)
            assert subsystem_for(group) == subsystem_for(label), label
            count, wall_total, scheduled_total = folded.get(group, (0, 0.0, 0))
            folded[group] = (count + 1, wall_total + wall, scheduled_total + scheduled)
        profile = HotPathProfile.from_tracer(tracer)
        assert {
            entry.group: (entry.count, entry.wall_total, entry.scheduled_total)
            for entry in profile.entries()
        } == folded
        assert profile.fired_events == len(tracer.events) == provider.engine.fired_events

    def test_profile_round_trips_through_payload(self, traced_chaos_fleet):
        provider, _ = traced_chaos_fleet
        profile = HotPathProfile.from_tracer(provider.engine.tracer)
        clone = HotPathProfile.from_payload(profile.to_payload())
        assert clone.fired_events == profile.fired_events
        assert [e.group for e in clone.top(5)] == [e.group for e in profile.top(5)]

    def test_subsystem_attribution(self):
        assert subsystem_for("markets:step") == "market"
        assert subsystem_for("ec2:fulfill:sir-000007") == "capacity"
        assert subsystem_for("ec2:reclaim") == "interruption"
        assert subsystem_for("cloudwatch:spotverse-collect-metrics") == "monitor"
        assert subsystem_for("chaos:window-open") == "chaos"
        assert subsystem_for("") == "other"


class TestSLOEngine:
    def _events(self):
        return [
            TelemetryEvent(
                seq=0, time=0.0, type=EventType.WORKLOAD_SUBMITTED, workload_id="w"
            ),
            TelemetryEvent(
                seq=1, time=120.0, type=EventType.INSTANCE_ATTACHED, workload_id="w"
            ),
            # A re-attach after migration must not count as placement.
            TelemetryEvent(
                seq=2, time=500.0, type=EventType.INSTANCE_ATTACHED, workload_id="w"
            ),
            TelemetryEvent(
                seq=3,
                time=900.0,
                type=EventType.MIGRATION_COMPLETED,
                workload_id="w",
                attrs={"latency": 400.0},
            ),
            TelemetryEvent(
                seq=4,
                time=950.0,
                type=EventType.CHECKPOINT_PERSISTED,
                workload_id="w",
                attrs={"latency": 30.0},
            ),
        ]

    def test_latency_series_derivation(self):
        series = latency_series(self._events())
        assert series["submit_to_placed_seconds"] == [120.0]
        assert series["interruption_to_reacquire_seconds"] == [400.0]
        assert series["checkpoint_write_seconds"] == [30.0]

    def test_breached_spec_fails_and_renders(self):
        spec = SLOSpec(
            name="breach",
            targets=(
                SLOTarget(
                    metric="submit_to_placed_seconds", threshold=1.0, objective=0.99
                ),
            ),
        )
        scorecard = evaluate_slo_from_events(spec, self._events())
        assert not scorecard.all_passed
        text = scorecard.render()
        assert "FAIL" in text and "SLO BREACH" in text

    def test_vacuous_pass_with_no_samples(self):
        scorecard = evaluate_slo(default_slo_spec(), {})
        assert scorecard.all_passed
        assert all(result.samples == 0 for result in scorecard.results)

    def test_spec_round_trip_and_validation(self):
        spec = default_slo_spec()
        assert SLOSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ReproError):
            SLOTarget(metric="x", threshold=1.0, objective=0.0)
        with pytest.raises(ReproError):
            SLOTarget(metric="x", threshold=-1.0)
        with pytest.raises(ReproError):
            SLOSpec.from_dict({"name": "empty", "targets": []})

    def test_fleet_run_produces_scoreable_series(self, traced_chaos_fleet):
        provider, result = traced_chaos_fleet
        series = latency_series(list(provider.telemetry.bus))
        assert len(series["submit_to_placed_seconds"]) == len(result.records)
        assert len(series["interruption_to_reacquire_seconds"]) == (
            result.total_interruptions
        )
        scorecard = evaluate_slo_from_events(None, list(provider.telemetry.bus))
        assert len(scorecard.results) == 3


class TestRunReportSections:
    def test_latency_and_resilience_sections_render(self):
        telemetry = Telemetry(clock=lambda: 0.0)
        telemetry.bus.emit(EventType.WORKLOAD_SUBMITTED, workload_id="w")
        event = telemetry.bus.emit
        event(EventType.INSTANCE_ATTACHED, workload_id="w")
        event(EventType.MIGRATION_COMPLETED, workload_id="w", latency=300.0)
        telemetry.metrics.counter("resilience_retries_total").inc(
            3, scope="fleet-state:save-execution"
        )
        telemetry.metrics.counter("resilience_dead_letters_total").inc(
            scope="fleet-state:save-execution"
        )
        text = RunReport.from_telemetry(telemetry).render()
        assert "service latency (sim time)" in text
        assert "resilience by scope" in text
        assert "fleet-state:save-execution" in text

    def test_sections_absent_on_quiet_runs(self):
        telemetry = Telemetry(clock=lambda: 0.0)
        telemetry.bus.emit(EventType.WORKLOAD_SUBMITTED, workload_id="w")
        text = RunReport.from_telemetry(telemetry).render()
        assert "resilience by scope" not in text
