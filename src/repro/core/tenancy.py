"""Multi-tenant control plane: a fleet of fleets over one simulation.

The paper's controller places one batch of workloads for one user; the
ROADMAP's north star is a service placing work for *many* users at
once.  This module is the tenancy layer that turns the single-user
control plane into that service without touching Algorithm 1 itself:

* :class:`TenantSpec` / :class:`TenantRegistry` — who the tenants are:
  a fair-share weight, an in-flight quota, a pending-queue bound, and
  an advisory default policy, persisted in the state store's tenants
  table so a rebuilt controller reloads the roster durably;
* :class:`AdmissionController` — weighted fair-share queuing over
  per-tenant submission queues.  Admission is start-time weighted fair
  queuing: each tenant carries a virtual time that advances by
  ``1 / effective_weight`` per admission, and the next admitted tenant
  is always the smallest ``(virtual time, tenant id)`` among tenants
  with queued work and free quota — deterministic tie-breaking, so a
  seeded run replays bit-for-bit.  Quota holds admissions back
  (released on workload completion); a full pending queue rejects the
  submission outright with ``tenant.throttled`` telemetry
  (backpressure, not silent loss);
* :class:`MultiTenantController` — the tenant front door of
  :class:`~repro.core.controller.FleetController`.  Admission gates
  the DAG coordinator's one coalesced release round, which places the
  whole admitted batch through **one** ``initial_placements`` call —
  one :class:`~repro.obs.provenance.DecisionRecord` carrying
  ``batch_size`` / ``tenant_id`` per round, however many tenants'
  workloads rode it.

Determinism contract: with one default tenant and ``n_shards=1`` a
run through this façade is bit-identical to driving
:class:`FleetController` directly — same RNG draws, same placements,
same costs — which is what the golden-equivalence suite pins.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.core.fleet.state import DEFAULT_TENANT, FleetStateStore
from repro.core.policy import PlacementPolicy
from repro.core.result import FleetResult
from repro.errors import ExperimentError
from repro.obs.events import EventType
from repro.sim.clock import MINUTE
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.cloud.provider import CloudProvider
    from repro.core.monitor import Monitor

#: Fair-share weight floor: a zero- (or negative-) weight tenant is
#: clamped here instead of being starved outright — it still advances
#: one admission per ~1/floor admissions of a weight-1 competitor, so
#: every backlogged tenant makes progress (the starvation guard the
#: admission-fairness invariant checks).
ZERO_WEIGHT_FLOOR = 0.1


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's contract with the control plane.

    Attributes:
        tenant_id: Stable tenant identifier.
        weight: Fair-share weight; higher gets proportionally more
            admissions under contention.  Non-positive weights are
            clamped to :data:`ZERO_WEIGHT_FLOOR` at scheduling time.
        max_in_flight: Quota on concurrently admitted (not yet done)
            workloads — one workload occupies one instance, so this is
            also the tenant's concurrent-instance cap.  0 = unlimited.
        max_pending: Bound on the tenant's submission queue; a
            submission past it is rejected with ``tenant.throttled``
            telemetry.  0 = unlimited.
        policy: Advisory default-policy label recorded in the roster
            and rollups (the controller itself runs one policy; the
            label is what a per-tenant-policy deployment would key on).
    """

    tenant_id: str
    weight: float = 1.0
    max_in_flight: int = 0
    max_pending: int = 0
    policy: str = ""

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ExperimentError("tenant_id must be non-empty")
        if self.max_in_flight < 0 or self.max_pending < 0:
            raise ExperimentError(
                f"{self.tenant_id}: max_in_flight/max_pending must be >= 0"
            )

    @property
    def effective_weight(self) -> float:
        """Scheduling weight with the zero-weight starvation guard."""
        return max(float(self.weight), ZERO_WEIGHT_FLOOR)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (the tenants-table item)."""
        return {
            "tenant_id": self.tenant_id,
            "weight": self.weight,
            "max_in_flight": self.max_in_flight,
            "max_pending": self.max_pending,
            "policy": self.policy,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "TenantSpec":
        """Rebuild a spec from its :meth:`to_dict` form."""
        return cls(
            tenant_id=str(record["tenant_id"]),
            weight=float(record.get("weight", 1.0)),
            max_in_flight=int(record.get("max_in_flight", 0)),
            max_pending=int(record.get("max_pending", 0)),
            policy=str(record.get("policy", "")),
        )


class TenantRegistry:
    """The durable tenant roster, backed by the store's tenants table.

    Built over a store that already holds a roster (a controller
    rebuilt after a teardown), it starts with that roster loaded.
    """

    def __init__(self, store: FleetStateStore) -> None:
        self._store = store
        self._specs: Dict[str, TenantSpec] = {}
        self._order: List[str] = []
        self._watchers: List[Callable[[str], None]] = []
        self.reload()

    def watch(self, watcher: Callable[[str], None]) -> None:
        """Call *watcher* with a tenant id whenever its spec changes."""
        self._watchers.append(watcher)

    def register(self, spec: TenantSpec, bus=None) -> TenantSpec:
        """Add (or update) *spec*; persists it and announces on *bus*."""
        if spec.tenant_id not in self._specs:
            self._order.append(spec.tenant_id)
        self._specs[spec.tenant_id] = spec
        self._store.save_tenant(spec.to_dict())
        for watcher in self._watchers:
            watcher(spec.tenant_id)
        if bus is not None:
            bus.emit(
                EventType.TENANT_REGISTERED,
                tenant_id=spec.tenant_id,
                weight=spec.weight,
                max_in_flight=spec.max_in_flight,
                max_pending=spec.max_pending,
                policy=spec.policy,
            )
        return spec

    def reload(self) -> None:
        """Rebuild the roster from the tenants table."""
        self._specs = {}
        self._order = []
        for item in self._store.tenant_items():
            spec = TenantSpec.from_dict(item)
            self._specs[spec.tenant_id] = spec
            self._order.append(spec.tenant_id)
        for tenant_id in self._order:
            for watcher in self._watchers:
                watcher(tenant_id)

    def has(self, tenant_id: str) -> bool:
        """Whether *tenant_id* is registered."""
        return tenant_id in self._specs

    def get(self, tenant_id: str) -> TenantSpec:
        """The spec for *tenant_id*.

        Raises:
            ExperimentError: For an unregistered tenant.
        """
        spec = self._specs.get(tenant_id)
        if spec is None:
            raise ExperimentError(
                f"unknown tenant {tenant_id!r}; register a TenantSpec first"
            )
        return spec

    def tenants(self) -> List[TenantSpec]:
        """Every spec, in registration order."""
        return [self._specs[tenant_id] for tenant_id in self._order]


@dataclass(frozen=True)
class Admission:
    """One workload clearing admission in a fair-share round.

    Attributes:
        tenant_id: Tenant the workload was admitted for.
        workload: The admitted workload definition.
        passed_over: Tenants that were eligible (queued work, free
            quota) at selection time but not chosen — what the
            admission-fairness invariant bounds.
    """

    tenant_id: str
    workload: Workload
    passed_over: Tuple[str, ...]


class AdmissionController:
    """Weighted fair-share admission over per-tenant queues.

    Pure deterministic bookkeeping: no RNG, no wall-clock.  The DAG
    coordinator it gates owns durability (queue rows live in the
    store's meta table) and telemetry; this class decides *who goes
    next*.

    The eligible set (tenants with queued work and free quota) is kept
    as an index rather than rescanned per admission: one list sorted by
    tenant id (the ``passed_over`` order) and one sorted by
    ``(virtual time, tenant id)`` (the choice order, minimum first).
    Every event that can change a tenant's eligibility — enqueue, an
    admission, :meth:`release`, :meth:`note_in_flight`, a spec
    re-registration — re-files that one tenant, so an admission costs
    O(log T) comparisons instead of a sort over all T tenants.
    """

    def __init__(self, registry: TenantRegistry) -> None:
        self.registry = registry
        self._queues: Dict[str, Deque[Workload]] = {}
        self._in_flight: Dict[str, int] = {}
        self._virtual: Dict[str, float] = {}
        self._global_virtual = 0.0
        self._queued_total = 0
        # Each tenant's current spec and virtual-time step, kept up to
        # date by the registry watch.
        self._spec: Dict[str, TenantSpec] = {}
        self._step: Dict[str, float] = {}
        # The eligible-tenant index: tenant -> its choice key, plus the
        # two sorted views of the same set.
        self._listed: Dict[str, Tuple[float, str]] = {}
        self._by_id: List[str] = []
        self._by_key: List[Tuple[float, str]] = []
        self.admitted_counts: Dict[str, int] = {}
        self.done_counts: Dict[str, int] = {}
        self.throttled_counts: Dict[str, int] = {}
        registry.watch(self._spec_changed)
        for spec in registry.tenants():
            self._spec_changed(spec.tenant_id)

    # -- submission ----------------------------------------------------
    def enqueue(self, tenant_id: str, *workloads: Workload, bounded: bool = True) -> bool:
        """Queue *workloads* for *tenant_id*, all or none.

        ``False`` means throttled: the batch would overflow the
        tenant's bounded pending queue.  ``bounded=False`` skips the
        bound, for work accepted earlier — a DAG stage whose producers
        completed, or a queued submission being restored.
        """
        spec = self._spec.get(tenant_id) or self.registry.get(tenant_id)
        queue = self._queues.setdefault(tenant_id, deque())
        if bounded and spec.max_pending and len(queue) + len(workloads) > spec.max_pending:
            self.throttled_counts[tenant_id] = (
                self.throttled_counts.get(tenant_id, 0) + len(workloads)
            )
            return False
        idle = not queue
        if idle:
            # A tenant going from idle to backlogged re-joins at the
            # current global virtual time — it competes fairly from
            # *now* instead of burning a credit backlog accrued while
            # it had nothing to run.
            self._virtual[tenant_id] = max(
                self._virtual.get(tenant_id, 0.0), self._global_virtual
            )
        queue.extend(workloads)
        self._queued_total += len(workloads)
        if idle:
            self._refile(tenant_id)
        return True

    def release(self, tenant_id: str) -> None:
        """A workload of *tenant_id* completed; frees one quota slot."""
        self._in_flight[tenant_id] = max(0, self._in_flight.get(tenant_id, 0) - 1)
        self.done_counts[tenant_id] = self.done_counts.get(tenant_id, 0) + 1
        self._refile(tenant_id)

    def note_in_flight(self, tenant_id: str, count: int = 1) -> None:
        """Seed quota usage from stored state (controller resume)."""
        self._in_flight[tenant_id] = self._in_flight.get(tenant_id, 0) + count
        self._refile(tenant_id)

    # -- scheduling ----------------------------------------------------
    def _spec_changed(self, tenant_id: str) -> None:
        spec = self._spec[tenant_id] = self.registry.get(tenant_id)
        self._step[tenant_id] = 1.0 / spec.effective_weight
        self._refile(tenant_id)

    def _is_eligible(self, tenant_id: str) -> bool:
        if not self._queues.get(tenant_id):
            return False
        quota = self._spec[tenant_id].max_in_flight
        return not quota or self._in_flight.get(tenant_id, 0) < quota

    def _refile(self, tenant_id: str) -> None:
        """Bring *tenant_id*'s place in the eligible index up to date."""
        eligible = self._is_eligible(tenant_id)
        key = self._listed.get(tenant_id)
        if eligible and key is None:
            key = (self._virtual[tenant_id], tenant_id)
            self._listed[tenant_id] = key
            insort(self._by_id, tenant_id)
            insort(self._by_key, key)
        elif not eligible and key is not None:
            self._unlist(tenant_id)

    def _unlist(self, tenant_id: str) -> None:
        key = self._listed.pop(tenant_id)
        del self._by_id[bisect_left(self._by_id, tenant_id)]
        del self._by_key[bisect_left(self._by_key, key)]

    def drain(self) -> List[Admission]:
        """Admit everything quota allows, in weighted fair-share order."""
        admitted: List[Admission] = []
        while self._by_key:
            chosen = self._by_key[0][1]
            self._unlist(chosen)
            passed_over = tuple(self._by_id)
            workload = self._queues[chosen].popleft()
            self._queued_total -= 1
            self._in_flight[chosen] = self._in_flight.get(chosen, 0) + 1
            self._virtual[chosen] += self._step[chosen]
            self._global_virtual = self._virtual[chosen]
            self.admitted_counts[chosen] = self.admitted_counts.get(chosen, 0) + 1
            self._refile(chosen)
            admitted.append(
                Admission(tenant_id=chosen, workload=workload, passed_over=passed_over)
            )
        return admitted

    # -- introspection -------------------------------------------------
    def queued_count(self, tenant_id: Optional[str] = None) -> int:
        """Pending submissions (one tenant or all)."""
        if tenant_id is not None:
            return len(self._queues.get(tenant_id, ()))
        return self._queued_total

    def in_flight(self, tenant_id: str) -> int:
        """Currently admitted, not-yet-done workloads of *tenant_id*."""
        return self._in_flight.get(tenant_id, 0)


class MultiTenantController(FleetController):
    """A :class:`FleetController` with tenant admission gating its release round.

    Work comes in per tenant through :meth:`submit`; waiting,
    teardown, restore and resume are the fleet controller's.

    Args:
        provider: The simulated cloud.
        policy: Placement policy every admitted batch runs through.
        config: Control-plane configuration.
        monitor: Optional Monitor handed to the policy context.
        image_id: Optional Galaxy AMI shaping boot times.
        state_store: Durable fleet state to compose over; defaults to a
            fresh store with *n_shards* shards.  Pass a torn-down
            controller's store (plus :meth:`resume`) to recover.
        n_shards: Shard count for the default store.
        admit_interval: Delay (sim seconds) of the release round once
            work is queued for admission.  0.0 — the default — runs it
            within the same tick; fleet-scale deployments raise it so
            quota freed by many completions rides one batched
            Algorithm-1 round.  The round :meth:`wait` runs at entry is
            unaffected.
    """

    def __init__(
        self,
        provider: "CloudProvider",
        policy: PlacementPolicy,
        config: SpotVerseConfig,
        monitor: Optional["Monitor"] = None,
        image_id: Optional[str] = None,
        state_store: Optional[FleetStateStore] = None,
        n_shards: int = 1,
        admit_interval: float = 0.0,
    ) -> None:
        super().__init__(
            provider, policy, config, monitor=monitor, image_id=image_id,
            state_store=state_store, n_shards=n_shards,
        )
        self.registry = TenantRegistry(self.state_store)
        self.admission = AdmissionController(self.registry)
        self._dag.gate(self.admission, admit_interval)

    def register_tenant(self, spec: TenantSpec) -> TenantSpec:
        """Add *spec* to the durable roster (announced on the bus)."""
        return self.registry.register(spec, bus=self._provider.telemetry.bus)

    def submit(self, tenant_id: str, *workloads: Workload) -> bool:
        """Submit *workloads* (one workload, or a DAG's stages) for *tenant_id*.

        Returns ``False`` when the tenant's bounded pending queue
        rejected the batch (``tenant.throttled`` events are the
        telemetry side of that backpressure); see
        :meth:`~repro.core.fleet.coordinator.DagCoordinator.submit`.

        Raises:
            ExperimentError: When *tenant_id* is not a string — e.g.
                the inherited ``run(workloads)``/``run_dags(dags)``,
                which submit without a tenant.
        """
        if not isinstance(tenant_id, str):
            raise ExperimentError(
                f"tenant_id must be a str, got {type(tenant_id).__name__}: "
                "a MultiTenantController takes work per tenant — call "
                "submit(tenant_id, *workloads), then wait()"
            )
        if tenant_id == DEFAULT_TENANT and not self.registry.has(tenant_id):
            # Single-tenant runs never register anything: the default
            # tenant materialises unlimited on first use.
            self.register_tenant(TenantSpec(tenant_id=DEFAULT_TENANT))
        return self._dag.submit(workloads, tenant_id)

    def wait(
        self,
        workloads: Optional[Sequence[Workload]] = None,
        max_hours: float = 120.0,
        poll_interval: float = 5 * MINUTE,
    ) -> FleetResult:
        """:meth:`FleetController.wait`, placing fresh submissions first.

        Work submitted since the last round is admitted synchronously
        before the engine is driven — the same call ordering as
        ``FleetController.run`` — which is what keeps single-tenant
        runs bit-identical to the plain controller.  Without
        *workloads*, waits for everything submitted, with records in
        admission order.
        """
        self._dag.place_submitted()
        if workloads is None:
            workloads = self._dag.admitted
        return super().wait(workloads, max_hours=max_hours, poll_interval=poll_interval)

    # ------------------------------------------------------------------
    # Introspection (CLI roster / per-tenant scorecard, tests)
    # ------------------------------------------------------------------
    def tenant_of(self, workload_id: str) -> str:
        """Tenant a workload was submitted for (the store's map)."""
        return self.state_store.tenant_of(workload_id)

    def usage(self) -> Dict[str, Dict[str, Any]]:
        """Per-tenant scorecard rows, in registration order."""
        rows: Dict[str, Dict[str, Any]] = {}
        for spec in self.registry.tenants():
            tenant_id = spec.tenant_id
            rows[tenant_id] = {
                "weight": spec.weight,
                "quota": spec.max_in_flight,
                "policy": spec.policy,
                "in_flight": self.admission.in_flight(tenant_id),
                "queued": self.admission.queued_count(tenant_id),
                "admitted": self.admission.admitted_counts.get(tenant_id, 0),
                "done": self.admission.done_counts.get(tenant_id, 0),
                "throttled": self.admission.throttled_counts.get(tenant_id, 0),
            }
        return rows


__all__ = [
    "Admission",
    "AdmissionController",
    "DEFAULT_TENANT",
    "MultiTenantController",
    "TenantRegistry",
    "TenantSpec",
    "ZERO_WEIGHT_FLOOR",
]
