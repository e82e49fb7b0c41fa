"""Multi-tenant control plane: admission, quotas, durability, goldens.

Covers the tenancy layer end to end: weighted fair-share admission
order and the zero-weight starvation guard at the unit level; quota
exhaustion/release, backpressure telemetry, deterministic replay, and
teardown/resume with a non-empty admission queue against the real
control plane; and the bit-identity gate — every golden scenario
replayed through :class:`MultiTenantController` with one default
tenant at ``n_shards=1`` must match the committed monolith fixture
float for float.
"""

import json

import pytest

from repro.chaos.invariants import DagDependenciesCheck, TenantFairnessCheck, TenantQuotaCheck
from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.core.dag import StepGraph, StepTask, compile_graph
from repro.core.fleet import DagCoordinator
from repro.core.monitor import Monitor
from repro.core.optimizer import SpotVerseOptimizer
from repro.core.tenancy import (
    DEFAULT_TENANT,
    AdmissionController,
    MultiTenantController,
    TenantRegistry,
    TenantSpec,
    ZERO_WEIGHT_FLOOR,
)
from repro.errors import ExperimentError
from repro.obs.events import EventType
from repro.sim.clock import HOUR
from repro.workloads.base import synthetic_workload
from tests.golden_scenarios import (
    FIXTURE_PATH,
    SCENARIOS,
    result_to_dict,
    run_scenario_tenancy,
)

SEED = 11


def _store_registry():
    provider = CloudProvider(seed=SEED)
    from repro.core.fleet.state import FleetStateStore

    return provider, TenantRegistry(FleetStateStore(provider.dynamodb))


def _plane(provider):
    """Shared config/monitor/policy for one provider (reusable on rebuild)."""
    config = SpotVerseConfig(instance_type="m5.xlarge")
    monitor = Monitor(
        provider, [config.instance_type], collect_interval=config.collect_interval
    )
    policy = SpotVerseOptimizer(monitor, config)
    return config, monitor, policy


def _controller(provider, n_shards=1, state_store=None, admit_interval=0.0):
    config, monitor, policy = _plane(provider)
    return MultiTenantController(
        provider,
        policy,
        config,
        monitor=monitor,
        n_shards=n_shards,
        state_store=state_store,
        admit_interval=admit_interval,
    )


# ----------------------------------------------------------------------
# TenantSpec / TenantRegistry
# ----------------------------------------------------------------------
def test_tenant_spec_validation_and_roundtrip():
    with pytest.raises(ExperimentError):
        TenantSpec(tenant_id="")
    with pytest.raises(ExperimentError):
        TenantSpec(tenant_id="t", max_in_flight=-1)
    spec = TenantSpec(
        tenant_id="lab-a", weight=0.0, max_in_flight=3, max_pending=7, policy="spotverse"
    )
    assert spec.effective_weight == ZERO_WEIGHT_FLOOR
    assert TenantSpec.from_dict(spec.to_dict()) == spec


def test_registry_persists_and_reloads():
    provider, registry = _store_registry()
    registry.register(TenantSpec(tenant_id="b", weight=2.0))
    registry.register(TenantSpec(tenant_id="a", max_in_flight=4))
    rebuilt = TenantRegistry(registry._store)
    rebuilt.reload()
    assert [spec.tenant_id for spec in rebuilt.tenants()] == ["b", "a"]
    assert rebuilt.get("a").max_in_flight == 4
    with pytest.raises(ExperimentError):
        rebuilt.get("nobody")
    provider.shutdown()


# ----------------------------------------------------------------------
# AdmissionController (pure scheduling)
# ----------------------------------------------------------------------
def _admission(specs):
    provider, registry = _store_registry()
    for spec in specs:
        registry.register(spec)
    return provider, AdmissionController(registry)


def test_wfq_shares_track_weights():
    provider, admission = _admission(
        [TenantSpec(tenant_id="a", weight=2.0), TenantSpec(tenant_id="b", weight=1.0)]
    )
    for i in range(30):
        admission.enqueue("a", synthetic_workload(f"a-{i}", 1.0, n_segments=1))
        admission.enqueue("b", synthetic_workload(f"b-{i}", 1.0, n_segments=1))
    order = [adm.tenant_id for adm in admission.drain()]
    assert len(order) == 60
    # Weight 2 tenant lands ~2/3 of any contended prefix.
    first = order[:15]
    assert 9 <= first.count("a") <= 11
    provider.shutdown()


def test_quota_holds_admission_until_release():
    provider, admission = _admission([TenantSpec(tenant_id="a", max_in_flight=1)])
    for i in range(3):
        admission.enqueue("a", synthetic_workload(f"a-{i}", 1.0, n_segments=1))
    assert [a.workload.workload_id for a in admission.drain()] == ["a-0"]
    assert admission.drain() == []  # quota exhausted, nothing moves
    assert admission.queued_count("a") == 2
    admission.release("a")
    assert [a.workload.workload_id for a in admission.drain()] == ["a-1"]
    assert admission.in_flight("a") == 1
    provider.shutdown()


def test_zero_weight_tenant_is_never_starved():
    provider, admission = _admission(
        [TenantSpec(tenant_id="a", weight=1.0), TenantSpec(tenant_id="z", weight=0.0)]
    )
    for i in range(50):
        admission.enqueue("a", synthetic_workload(f"a-{i}", 1.0, n_segments=1))
    for i in range(5):
        admission.enqueue("z", synthetic_workload(f"z-{i}", 1.0, n_segments=1))
    order = [adm.tenant_id for adm in admission.drain()]
    positions = [i for i, tenant in enumerate(order) if tenant == "z"]
    assert len(positions) == 5  # everything admitted — no outright starvation
    # The floor guarantees one z admission per ~1/ZERO_WEIGHT_FLOOR
    # weight-1 admissions while both stay backlogged.
    gaps = [b - a for a, b in zip(positions, positions[1:])]
    assert positions[0] <= 2
    assert max(gaps) <= int(1.0 / ZERO_WEIGHT_FLOOR) + 2
    provider.shutdown()


def test_bounded_queue_throttles():
    provider, admission = _admission(
        [TenantSpec(tenant_id="a", max_pending=1, max_in_flight=1)]
    )
    assert admission.enqueue("a", synthetic_workload("a-0", 1.0, n_segments=1))
    assert not admission.enqueue("a", synthetic_workload("a-1", 1.0, n_segments=1))
    assert admission.throttled_counts["a"] == 1
    provider.shutdown()


# ----------------------------------------------------------------------
# MultiTenantController against the real control plane
# ----------------------------------------------------------------------
def test_quota_exhaustion_then_release_end_to_end():
    provider = CloudProvider(seed=SEED)
    provider.warmup_markets(24)
    controller = _controller(provider)
    controller.register_tenant(TenantSpec(tenant_id="lab", max_in_flight=2))
    for i in range(5):
        assert controller.submit(
            "lab", synthetic_workload(f"wl-{i}", duration_hours=1.0, n_segments=1)
        )
    result = controller.wait(max_hours=72.0)
    assert sum(1 for r in result.records if r.completed_at is not None) == 5
    usage = controller.usage()["lab"]
    assert usage["admitted"] == 5 and usage["done"] == 5 and usage["in_flight"] == 0
    # The stream-reconstructed invariant agrees: never over quota.
    quota_check = TenantQuotaCheck()
    fairness_check = TenantFairnessCheck()
    for event in provider.telemetry.bus:
        assert quota_check.observe(event) == []
        assert fairness_check.observe(event) == []
    assert max(quota_check.in_flight.values(), default=0) <= 2
    provider.shutdown()


def test_throttled_submission_emits_backpressure_event():
    provider = CloudProvider(seed=SEED)
    provider.warmup_markets(24)
    controller = _controller(provider)
    controller.register_tenant(
        TenantSpec(tenant_id="lab", max_in_flight=1, max_pending=1)
    )
    assert controller.submit("lab", synthetic_workload("w-0", 1.0, n_segments=1))
    assert not controller.submit("lab", synthetic_workload("w-1", 1.0, n_segments=1))
    throttled = provider.telemetry.bus.events(EventType.TENANT_THROTTLED)
    assert len(throttled) == 1
    assert throttled[0].attrs["tenant_id"] == "lab"
    assert throttled[0].workload_id == "w-1"
    provider.shutdown()


def test_unknown_tenant_is_rejected():
    provider = CloudProvider(seed=SEED)
    provider.warmup_markets(24)
    controller = _controller(provider)
    with pytest.raises(ExperimentError):
        controller.submit("ghost", synthetic_workload("w", 1.0, n_segments=1))
    provider.shutdown()


def _interleaved_run():
    """One 3-tenant run with interleaved submissions; returns payloads."""
    provider = CloudProvider(seed=SEED)
    provider.warmup_markets(24)
    controller = _controller(provider, n_shards=4)
    for index, weight in enumerate((3.0, 1.0, 2.0)):
        controller.register_tenant(
            TenantSpec(tenant_id=f"t-{index}", weight=weight, max_in_flight=2)
        )
    for i in range(9):
        controller.submit(
            f"t-{i % 3}",
            synthetic_workload(f"t{i % 3}-wl-{i}", duration_hours=2.0, n_segments=2),
        )
    result = controller.wait(max_hours=72.0)
    payload = (result_to_dict(result), controller.usage())
    provider.shutdown()
    return payload


def test_interleaved_multi_tenant_replay_is_deterministic():
    first_result, first_usage = _interleaved_run()
    second_result, second_usage = _interleaved_run()
    assert first_result == second_result
    assert first_usage == second_usage
    assert all(row["done"] == 3 for row in first_usage.values())


def test_teardown_resume_with_non_empty_admission_queue():
    provider = CloudProvider(seed=SEED)
    provider.warmup_markets(24)
    config, monitor, policy = _plane(provider)
    controller = MultiTenantController(provider, policy, config, monitor=monitor)
    controller.register_tenant(TenantSpec(tenant_id="lab", max_in_flight=1))
    fleet = [
        synthetic_workload(f"wl-{i}", duration_hours=4.0, n_segments=4)
        for i in range(3)
    ]
    for workload in fleet:
        controller.submit("lab", workload)
    # Drive past the first admission round: one in flight, two queued.
    provider.engine.run_until(provider.engine.now + 1.0 * HOUR)
    assert controller.admission.queued_count("lab") == 2
    store = controller.state_store
    controller.teardown()
    del controller

    rebuilt = MultiTenantController(
        provider, policy, config, monitor=monitor, state_store=store
    )
    result = rebuilt.resume(fleet, max_hours=120.0)
    assert sum(1 for r in result.records if r.completed_at is not None) == 3
    usage = rebuilt.usage()["lab"]
    assert usage["done"] == 3 and usage["queued"] == 0 and usage["in_flight"] == 0
    assert rebuilt.tenant_of("wl-2") == "lab"
    # The durable queue fully drained.
    assert list(store.mapping(DagCoordinator.QUEUE_SECTION)) == []
    provider.shutdown()


def _lab_quota_run(teardown_at=None, check_before_teardown=None):
    """Three 0.5 h workloads under a quota-1 tenant, admit_interval 300 s.

    With *teardown_at*, the controller dies at that offset and a new one
    resumes from the store.  Returns ``(result_to_dict, admissions)``.
    """
    provider = CloudProvider(seed=SEED)
    provider.warmup_markets(24)
    config, monitor, policy = _plane(provider)
    controller = MultiTenantController(
        provider, policy, config, monitor=monitor, admit_interval=300.0
    )
    controller.register_tenant(TenantSpec(tenant_id="lab", max_in_flight=1))
    fleet = [synthetic_workload(f"wl-{i}", 0.5, n_segments=1) for i in range(3)]
    start = provider.engine.now
    for workload in fleet:
        assert controller.submit("lab", workload)
    if teardown_at is None:
        result = controller.wait(max_hours=24.0)
    else:
        # Place the submitted batch as ``wait`` does, then die.
        controller.services["dag"].place_submitted()
        provider.engine.run_until(start + teardown_at)
        if check_before_teardown is not None:
            check_before_teardown(provider)
        store = controller.state_store
        controller.teardown()
        controller = MultiTenantController(
            provider, policy, config, monitor=monitor, state_store=store,
            admit_interval=300.0,
        )
        result = controller.resume(fleet, max_hours=24.0)
    admitted = [
        (event.workload_id, event.time - start)
        for event in provider.telemetry.bus.events(EventType.TENANT_ADMITTED)
    ]
    provider.shutdown()
    return result_to_dict(result), admitted


def test_torn_down_round_never_fires_and_resume_is_exact():
    """A round queued just before a teardown is re-armed, not replayed."""

    def check(provider):
        # After wl-0 completed and queued a round, before that round is due.
        done = provider.telemetry.bus.events(EventType.WORKLOAD_DONE)
        assert [event.workload_id for event in done] == ["wl-0"]
        assert done[0].time + 300.0 > provider.engine.now

    uninterrupted, admitted = _lab_quota_run()
    resumed, admitted_resumed = _lab_quota_run(
        teardown_at=2100.0, check_before_teardown=check
    )
    assert resumed == uninterrupted
    assert admitted_resumed == admitted


def test_resume_off_the_poll_grid_ends_on_the_same_poll():
    # 5000 s is not a multiple of the 300 s poll interval; ``wait``
    # polls on absolute multiples, so the resumed run still ends on the
    # 6900 s poll rather than on a grid anchored at the resume time.
    uninterrupted, admitted = _lab_quota_run()
    resumed, admitted_resumed = _lab_quota_run(teardown_at=5000.0)
    assert uninterrupted["ended_at"] == 6900.0
    assert resumed == uninterrupted
    assert admitted_resumed == admitted


def test_inherited_run_entry_points_name_the_tenant_front_door():
    provider = CloudProvider(seed=SEED)
    provider.warmup_markets(24)
    controller = _controller(provider)
    workload = synthetic_workload("w", 1.0, n_segments=1)
    with pytest.raises(ExperimentError, match=r"submit\(tenant_id, \*workloads\)"):
        controller.run([workload])
    with pytest.raises(ExperimentError, match=r"submit\(tenant_id, \*workloads\)"):
        controller.run_dags([_sample_dag()])
    provider.shutdown()


def _sample_dag():
    steps = [StepTask("prep", 0.5 * HOUR, output_bytes=1 << 30)]
    steps += [StepTask(f"s{i}", 2.0 * HOUR, deps=("prep",)) for i in range(4)]
    steps.append(StepTask("merge", 0.5 * HOUR, deps=tuple(f"s{i}" for i in range(4))))
    return compile_graph(StepGraph("samples", steps), "run1")


def _quota_dag_run(teardown_after_hours=None):
    provider = CloudProvider(seed=SEED)
    provider.warmup_markets(24)
    config, monitor, policy = _plane(provider)
    controller = MultiTenantController(provider, policy, config, monitor=monitor)
    controller.register_tenant(TenantSpec(tenant_id="lab", max_in_flight=2))
    dag = _sample_dag()
    assert controller.submit("lab", *dag.workloads)
    if teardown_after_hours is None:
        result = controller.wait(max_hours=48.0)
    else:
        controller.services["dag"].place_submitted()
        provider.engine.run_until(provider.engine.now + teardown_after_hours * HOUR)
        usage = controller.usage()["lab"]
        assert (usage["done"], usage["in_flight"], usage["queued"]) == (1, 2, 2)
        store = controller.state_store
        controller.teardown()
        controller = MultiTenantController(
            provider, policy, config, monitor=monitor, state_store=store
        )
        result = controller.resume(dag.workloads, max_hours=48.0)
    return provider, controller, dag, result


def test_quota_dag_runs_every_stage_within_quota():
    provider, controller, dag, result = _quota_dag_run()
    assert sorted(record.workload_id for record in result.records) == sorted(
        stage.workload_id for stage in dag.workloads
    )
    assert all(record.completed_at is not None for record in result.records)
    quota, deps = TenantQuotaCheck(), DagDependenciesCheck()
    for event in provider.telemetry.bus:
        assert quota.observe(event) == []
        assert deps.observe(event) == []
    admitted = provider.telemetry.bus.events(EventType.TENANT_ADMITTED)
    assert len(admitted) == len(dag.workloads)
    assert max(event.attrs["in_flight"] for event in admitted) == 2
    usage = controller.usage()["lab"]
    assert usage["admitted"] == usage["done"] == 6 and usage["in_flight"] == 0
    provider.shutdown()


def test_tenancy_resume_keeps_unreleased_stages():
    provider, _, _, baseline = _quota_dag_run()
    provider.shutdown()
    # At 1.5 h prep is done and two samples run under the quota of 2;
    # two samples are queued and merge was never released.
    provider, controller, dag, result = _quota_dag_run(teardown_after_hours=1.5)
    usage = controller.usage()["lab"]
    provider.shutdown()
    assert len(result.records) == len(dag.workloads)
    by_id = {record["workload_id"]: record for record in result_to_dict(result)["records"]}
    for record in result_to_dict(baseline)["records"]:
        assert by_id[record["workload_id"]] == record
    assert result.total_cost == baseline.total_cost
    assert usage["admitted"] == usage["done"] == 6


def test_duplicate_submission_rejected_before_anything_changes():
    provider = CloudProvider(seed=SEED)
    provider.warmup_markets(24)
    controller = _controller(provider)
    controller.register_tenant(TenantSpec(tenant_id="a"))
    assert controller.submit("a", synthetic_workload("wl-x", 1.0, n_segments=1))
    store = controller.state_store
    rows = list(store.mapping(DagCoordinator.QUEUE_SECTION).items())
    usage, bus_len = controller.usage(), len(provider.telemetry.bus)
    for duplicate in (
        lambda: controller.submit("a", synthetic_workload("wl-x", 1.0, n_segments=1)),
        lambda: controller.submit(
            "a",
            synthetic_workload("wl-y", 1.0, n_segments=1),
            synthetic_workload("wl-y", 1.0, n_segments=1),
        ),
    ):
        with pytest.raises(ExperimentError, match="already used|duplicate"):
            duplicate()
        assert controller.usage() == usage
        assert list(store.mapping(DagCoordinator.QUEUE_SECTION).items()) == rows
        assert len(provider.telemetry.bus) == bus_len
    result = controller.wait(max_hours=24.0)
    assert [record.workload_id for record in result.records] == ["wl-x"]
    assert controller.usage()["a"]["admitted"] == 1
    provider.shutdown()


def test_throttled_batch_is_all_or_nothing():
    provider = CloudProvider(seed=SEED)
    provider.warmup_markets(24)
    controller = _controller(provider)
    controller.register_tenant(TenantSpec(tenant_id="lab", max_pending=2))
    batch = [synthetic_workload(f"w-{i}", 1.0, n_segments=1) for i in range(3)]
    assert not controller.submit("lab", *batch)
    assert controller.usage()["lab"]["queued"] == 0
    throttled = provider.telemetry.bus.events(EventType.TENANT_THROTTLED)
    assert [event.workload_id for event in throttled] == ["w-0", "w-1", "w-2"]
    # Nothing was taken, so the same ids can be submitted again.
    assert controller.submit("lab", *batch[:2])
    assert controller.usage()["lab"]["queued"] == 2
    provider.shutdown()


def test_plain_controller_allocates_no_admission_state():
    provider = CloudProvider(seed=SEED)
    provider.warmup_markets(24)
    config, monitor, policy = _plane(provider)
    controller = FleetController(provider, policy, config, monitor=monitor, n_shards=4)
    fleet = [synthetic_workload(f"wl-{i}", 1.0, n_segments=1) for i in range(3)]
    assert controller.run(fleet, max_hours=24.0).all_complete
    coordinator = controller.services["dag"]
    assert coordinator.queued() == 0
    assert not hasattr(coordinator, "admitted")
    store = controller.state_store
    for section in (DagCoordinator.QUEUE_SECTION, DagCoordinator.ROUND_SECTION):
        assert list(store.mapping(section)) == []
    assert all(store.tenant_of(workload.workload_id) == DEFAULT_TENANT for workload in fleet)
    provider.shutdown()


# ----------------------------------------------------------------------
# Golden equivalence: tenancy façade == plain controller, bit for bit
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fixture():
    assert FIXTURE_PATH.exists(), (
        "golden fixture missing; regenerate ONLY from a pre-refactor "
        "monolith build: PYTHONPATH=src python -m tests.golden_scenarios"
    )
    return json.loads(FIXTURE_PATH.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_tenancy_facade_is_bit_identical(name, fixture):
    assert result_to_dict(run_scenario_tenancy(name)) == fixture[name]
