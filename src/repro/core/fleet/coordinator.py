"""DagCoordinator: the one place workloads are submitted to the fleet.

Every submission — a plain fleet launch, a tenancy admission round, or
the stages of compiled DAGs — goes through :meth:`DagCoordinator.submit`,
which validates the whole batch before touching any state, registers
the workloads that are ready and places them with one batched
``policy.initial_placements`` call:

* A workload without dependencies (every plain workload, every DAG
  root) is released at once and leaves no entry in the dependency
  index.
* A :class:`~repro.core.dag.StageWorkload` with ``deps`` waits in the
  controller's one :class:`~repro.core.dag.StepPlanner` index.  A
  completion listener on the lifecycle service marks stages done and
  *coalesces* every stage that became ready at the same instant —
  across all DAGs — into one zero-delay release event, so the whole
  per-tick ready set is scored by a single Algorithm-1 round instead
  of per-step calls.
* Released stages get their ``input_edges`` resolved against the
  region each producer completed in (``record.regions[-1]``); the
  execution charges the cross-region transfer at every boot (so a
  migrated step re-pays the egress of moving its inputs).
* Interruptions need no coordinator involvement at all: the
  interruption service reschedules the interrupted *stage* through
  ``policy.migration_placement``, which is precisely "reschedule only
  the interrupted step" once the stage is the placement unit.

Progress needs no store of its own: a stage is done when its workload
row is done, so :meth:`restore` rebuilds the index from the rows the
lifecycle service already loads and re-queues every stage whose
dependencies completed while no controller was bound.

Tenancy is a gate on this path (:meth:`DagCoordinator.gate`): a ready
workload enters its tenant's admission queue instead, and the round —
``admit_interval`` later, labelled ``tenancy:admit`` — releases what
the fair-share drain admits.  Quota is charged at release, so a stage
waiting on its producers holds none.  The queue and the round's due
time are durable meta rows that :meth:`restore` reads back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.dag import StageWorkload, StepPlanner, dependencies
from repro.core.execution import ExecutionState, WorkloadExecution
from repro.errors import ExperimentError
from repro.obs import EventType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cloud.provider import CloudProvider
    from repro.core.fleet.capacity import CapacityService
    from repro.core.fleet.lifecycle import LifecycleService
    from repro.core.fleet.state import FleetStateStore
    from repro.core.policy import PlacementPolicy, PolicyContext
    from repro.core.tenancy import AdmissionController
    from repro.sim.events import Event
    from repro.workloads.base import Workload


class DagCoordinator:
    """Validates, registers and places every workload of one controller.

    Args:
        provider: The simulated cloud.
        policy: The fleet's placement policy (every release runs
            through its batched ``initial_placements`` entry point).
        store: Durable fleet state (consulted for reused ids).
        lifecycle: Registration/completion accounting service.
        capacity: Spot/on-demand acquisition service.
        ctx: Policy context shared with the controller.
    """

    #: Meta-table section of the durable admission queue: one row per
    #: queued workload, keyed by a zero-padded enqueue sequence so key
    #: order is queue order.
    QUEUE_SECTION = "tenancy-queue"
    #: Meta-table section holding the pending round's due time
    #: (``None`` when no round is pending), so a restore re-arms it.
    ROUND_SECTION = "tenancy-round"

    def __init__(
        self,
        provider: "CloudProvider",
        policy: "PlacementPolicy",
        store: "FleetStateStore",
        lifecycle: "LifecycleService",
        capacity: "CapacityService",
        ctx: "PolicyContext",
    ) -> None:
        self._engine = provider.engine
        self._telemetry = provider.telemetry
        self._policy = policy
        self._store = store
        self._lifecycle = lifecycle
        self._capacity = capacity
        self._ctx = ctx
        self._planner = StepPlanner()
        # In-flight DAGs only: dag id -> [stages left, stages].
        self._dags: Dict[str, List[int]] = {}
        self._pending_release: List["Workload"] = []
        self._round: Optional["Event"] = None
        # Set (with the queue state) only by :meth:`gate`.
        self._admission: Optional["AdmissionController"] = None
        lifecycle.add_completion_listener(self._on_complete)
        # Decision provenance: any Algorithm-1 round that places a
        # stage workload — initial batches here, migrations deep in
        # the interruption path — gets its step fields annotated.
        self._telemetry.decisions.set_step_resolver(self._step_label)
        self._telemetry.decisions.set_tenant_resolver(None)

    def gate(self, admission: "AdmissionController", admit_interval: float) -> None:
        """Put tenant *admission* in front of the release round.

        Rounds then run *admit_interval* sim seconds after work is
        first queued, and decisions carry the store's tenant of each
        workload.
        """
        self._admission = admission
        self._admit_interval = max(0.0, float(admit_interval))
        self._queue_rows = self._store.mapping(self.QUEUE_SECTION)
        self._queue_keys: Dict[str, str] = {}
        self._queue_seq = 0
        self._round_due = self._store.mapping(self.ROUND_SECTION)
        # Whether submissions queued since the last round ran.
        self._submitted = False
        #: Admitted workloads, in admission order (restored ones first).
        self.admitted: List["Workload"] = []
        self._telemetry.decisions.set_tenant_resolver(self._store.tenant_of)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _step_label(self, workload_id: str) -> Optional[str]:
        execution = self._lifecycle.find(workload_id)
        if execution is None:
            return None
        workload = execution.workload
        if not isinstance(workload, StageWorkload) or not workload.dag_id:
            return None
        return workload.step_labels[0] if workload.step_labels else workload_id

    @property
    def planner(self) -> StepPlanner:
        """The controller's dependency index."""
        return self._planner

    def queued(self) -> int:
        """Workloads waiting for tenant admission (0 without a gate)."""
        return 0 if self._admission is None else self._admission.queued_count()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, workloads: Sequence["Workload"], tenant_id: Optional[str] = None) -> bool:
        """Validate *workloads*, release the ready ones, index the rest.

        On a gated coordinator the batch is *tenant_id*'s and its ready
        workloads enter that tenant's admission queue, all or none.

        Returns:
            ``False`` when the tenant's bounded pending queue cannot
            take the batch (one ``tenant.throttled`` per workload).

        Raises:
            ExperimentError: On an empty batch, duplicate ids, ids
                already registered, waiting or queued on this control
                plane, a dependency that does not precede its
                dependent in the batch, a DAG id still in flight, or
                an unknown tenant.  Nothing changes when the batch is
                rejected or throttled.
        """
        dags = self._validate(workloads, tenant_id)
        ready = [workload for workload in workloads if not dependencies(workload)]
        admission = self._admission
        if admission is not None and not admission.enqueue(tenant_id, *ready):
            limit = admission.registry.get(tenant_id).max_pending
            for workload in ready:
                self._telemetry.bus.emit(
                    EventType.TENANT_THROTTLED,
                    workload_id=workload.workload_id,
                    tenant_id=tenant_id,
                    queued=admission.queued_count(tenant_id),
                    limit=limit,
                )
            return False
        for dag_id, (stages, steps) in dags.items():
            self._dags[dag_id] = [stages, stages]
            self._telemetry.bus.emit(
                EventType.DAG_SUBMITTED, dag_id=dag_id, stages=stages, steps=steps
            )
        for workload in workloads:
            self._planner.add(workload, dependencies(workload))
        if admission is None:
            self._release(ready)
            return True
        for workload in workloads:
            self._store.assign_tenant(workload.workload_id, tenant_id)
        for workload in ready:
            self._queue_row(tenant_id, workload)
        self._submitted = True
        self._queue_round()
        return True

    def _validate(
        self, workloads: Sequence["Workload"], tenant_id: Optional[str]
    ) -> Dict[str, Tuple[int, int]]:
        """Check the whole batch; returns its DAGs' ``(stages, steps)``."""
        if not workloads:
            raise ExperimentError("fleet must contain at least one workload")
        ids = [workload.workload_id for workload in workloads]
        if len(set(ids)) != len(ids):
            raise ExperimentError(f"duplicate workload ids in fleet: {ids!r}")
        queue_keys = self._queue_keys if self._admission is not None else {}
        already_known = [
            wid
            for wid in ids
            if self._lifecycle.find(wid) is not None
            or self._planner.waiting(wid)
            or wid in queue_keys
            or self._store.has_workload(wid, tenant_id)
        ]
        if already_known:
            raise ExperimentError(
                f"workload ids already used by an earlier fleet on this "
                f"controller: {already_known!r}"
            )
        dags: Dict[str, Tuple[int, int]] = {}
        seen: set = set()
        for workload in workloads:
            if isinstance(workload, StageWorkload):
                for dep in workload.deps:
                    if dep not in seen:
                        raise ExperimentError(
                            f"workload {workload.workload_id!r} depends on {dep!r}, "
                            "which does not precede it in this batch"
                        )
                if workload.dag_id:
                    stages, steps = dags.get(workload.dag_id, (0, 0))
                    dags[workload.dag_id] = (stages + 1, steps + len(workload.step_labels))
            seen.add(workload.workload_id)
        in_flight = [dag_id for dag_id in dags if dag_id in self._dags]
        if in_flight:
            raise ExperimentError(
                f"dag ids still in flight on this control plane: {in_flight!r}"
            )
        return dags

    # ------------------------------------------------------------------
    # Release path (the per-tick batched Algorithm-1 round)
    # ------------------------------------------------------------------
    def _release(self, workloads: List["Workload"]) -> None:
        """Register and place *workloads* in one batched decision."""
        if not workloads:
            return
        self._lifecycle.register(workloads)
        for workload in workloads:
            if not isinstance(workload, StageWorkload):
                continue
            if workload.input_edges:
                self._lifecycle.execution(
                    workload.workload_id
                ).input_sources = self._resolve_inputs(workload)
            if workload.dag_id:
                self._telemetry.bus.emit(
                    EventType.DAG_STEP_RELEASED,
                    workload_id=workload.workload_id,
                    dag_id=workload.dag_id,
                    steps=list(workload.step_labels),
                    deps=list(workload.deps),
                    ready_set=len(workloads),
                )
        # One scoring round for the whole ready set: the policy scores
        # regions once and spreads the batch (SpotVerse's round-robin
        # over the top-R candidates).
        placements = self._policy.initial_placements(workloads, self._ctx)
        if len(placements) != len(workloads):
            raise ExperimentError(
                f"policy {self._policy.name!r} returned {len(placements)} placements "
                f"for {len(workloads)} workloads"
            )
        for workload, placement in zip(workloads, placements):
            self._capacity.acquire(
                self._lifecycle.execution(workload.workload_id), placement
            )

    def _resolve_inputs(self, stage: StageWorkload) -> List[Tuple[str, int]]:
        """Resolve input edges to ``(producer region, bytes)`` pairs."""
        sources = []
        for producer_id, nbytes in stage.input_edges:
            regions = self._lifecycle.execution(producer_id).record.regions
            if regions and nbytes > 0:
                sources.append((regions[-1], nbytes))
        return sources

    def _queue_release(self, workloads: List["Workload"]) -> None:
        """Hand *workloads*, ready now, to the next release round.

        Completions landing at the same sim time each fire their own
        engine event; queuing into a single follow-up round means every
        step they made ready is scored by *one* Algorithm-1 round for
        the whole tick.  Behind a gate they join their tenants' queues
        past the pending bound (they were accepted at submission).
        """
        admission = self._admission
        if admission is None:
            if not workloads:
                return
            self._pending_release.extend(workloads)
        else:
            for workload in workloads:
                tenant_id = self._store.tenant_of(workload.workload_id)
                admission.enqueue(tenant_id, workload, bounded=False)
                self._queue_row(tenant_id, workload)
            if not admission.queued_count():
                return
        self._queue_round()

    def _queue_row(self, tenant_id: str, workload: "Workload") -> None:
        key = f"{self._queue_seq:012d}"
        self._queue_seq += 1
        self._queue_rows[key] = {"tenant_id": tenant_id, "workload_id": workload.workload_id}
        self._queue_keys[workload.workload_id] = key

    def _queue_round(self, due: Optional[float] = None) -> None:
        """Schedule the release round unless one is pending.

        A gated round is due at *due* (default ``admit_interval`` from
        now), recorded durably.
        """
        if self._round is not None:
            return
        if self._admission is None:
            self._round = self._engine.call_in(0.0, self._fire_round, label="dag:release")
            return
        if due is None:
            due = self._engine.now + self._admit_interval
        self._round_due["due"] = due
        self._round = self._engine.call_at(due, self._fire_round, label="tenancy:admit")

    def _fire_round(self) -> None:
        self._round = None
        if self._admission is not None:
            self._round_due["due"] = None
        self._run_round()

    def _run_round(self) -> None:
        """Release everything ready now in one batched decision."""
        if self._admission is None:
            batch = self._pending_release
            self._pending_release = []
        else:
            self._submitted = False
            batch = self._admit()
        self._release(batch)

    def place_submitted(self) -> None:
        """Run a round now if submissions queued since the last one.

        ``FleetController.run``'s ordering — submit, then place at
        once — for a gated coordinator.  The pending round event stays;
        a round queued by completions or re-armed by :meth:`restore`
        keeps its due time.
        """
        if self._admission is not None and self._submitted:
            self._run_round()

    def _admit(self) -> List["Workload"]:
        """Drain admission: the admitted workloads, their rows deleted."""
        registry = self._admission.registry
        batch: List["Workload"] = []
        for admission in self._admission.drain():
            workload = admission.workload
            spec = registry.get(admission.tenant_id)
            del self._queue_rows[self._queue_keys.pop(workload.workload_id)]
            self._telemetry.bus.emit(
                EventType.TENANT_ADMITTED,
                workload_id=workload.workload_id,
                tenant_id=admission.tenant_id,
                in_flight=self._admission.in_flight(admission.tenant_id),
                quota=spec.max_in_flight,
                policy=spec.policy,
                passed_over=list(admission.passed_over),
            )
            batch.append(workload)
        self.admitted.extend(batch)
        return batch

    # ------------------------------------------------------------------
    # Completion listener
    # ------------------------------------------------------------------
    def _on_complete(self, execution: WorkloadExecution) -> None:
        workload = execution.workload
        if isinstance(workload, StageWorkload) and workload.dag_id:
            progress = self._dags[workload.dag_id]
            progress[0] -= 1
            if not progress[0]:
                del self._dags[workload.dag_id]
                self._telemetry.bus.emit(
                    EventType.DAG_DONE, dag_id=workload.dag_id, stages=progress[1]
                )
        ready = self._planner.mark_done(workload.workload_id)
        if self._admission is not None:
            # Freed quota may unblock queued work: it rides the round.
            self._admission.release(self._store.tenant_of(workload.workload_id))
        self._queue_release(ready)

    # ------------------------------------------------------------------
    # Teardown / restore
    # ------------------------------------------------------------------
    def teardown(self) -> None:
        """Drop a queued round: it dies with the controller process."""
        if self._round is not None:
            self._round.cancel()
            self._round = None
        self._pending_release = []

    def restore(self, workloads: Sequence["Workload"]) -> None:
        """Rebuild executions, DAG progress and admission from the store.

        Args:
            workloads: Definitions of every submitted workload, plain
                or stage — state is durable, definitions are code the
                client re-supplies.  Stages that were never released
                have no row; they go back into the dependency index,
                or, once ready, into the next release round.  Behind a
                gate the tenant map, quota usage, the queue (in queue
                order) and the pending round are rebuilt too.

        Raises:
            ExperimentError: When a stored or queued workload has no
                definition, a workload without dependencies has no
                stored or queued row (it was never submitted), or the
                control plane is not freshly built.
        """
        admission = self._admission
        if admission is not None:
            self._store.reload_tenants()
        self._lifecycle.restore(workloads)
        # Queued workload id -> (row key, tenant, definition), in queue order.
        queued: Dict[str, Tuple[str, str, "Workload"]] = {}
        if admission is not None:
            definitions = {workload.workload_id: workload for workload in workloads}
            for key, row in self._queue_rows.items():
                workload = definitions.get(row["workload_id"])
                if workload is None:
                    raise ExperimentError(
                        f"no workload definition supplied for queued workload "
                        f"{row['workload_id']!r}"
                    )
                queued[workload.workload_id] = (key, row["tenant_id"], workload)
        find = self._lifecycle.find
        never_submitted = [
            workload.workload_id
            for workload in workloads
            if not dependencies(workload)
            and find(workload.workload_id) is None
            and workload.workload_id not in queued
        ]
        if never_submitted:
            raise ExperimentError(
                f"no stored state for workloads {never_submitted!r}"
            )

        def done(workload_id: str) -> bool:
            execution = find(workload_id)
            return execution is not None and execution.state is ExecutionState.DONE

        ready: List["Workload"] = []
        for workload in workloads:
            if isinstance(workload, StageWorkload) and workload.dag_id:
                progress = self._dags.setdefault(workload.dag_id, [0, 0])
                progress[1] += 1
                if not done(workload.workload_id):
                    progress[0] += 1
            if find(workload.workload_id) is not None or workload.workload_id in queued:
                continue
            # Wait only on producers that have not completed: a running
            # producer releases this stage when it completes, and one
            # that completed before the teardown already has.
            pending = [dep for dep in dependencies(workload) if not done(dep)]
            if self._planner.add(workload, pending):
                ready.append(workload)
        for dag_id in [dag_id for dag_id, (left, _) in self._dags.items() if not left]:
            del self._dags[dag_id]
        if admission is not None:
            self._restore_admission(queued)
            due = self._round_due.get("due")
            if due is not None:
                self._queue_round(max(due, self._engine.now))
        # Releases that were pending when the old controller died (its
        # round died with it) are re-queued here.
        self._queue_release(ready)

    def _restore_admission(self, queued: Dict[str, Tuple[str, str, "Workload"]]) -> None:
        """Recount quota usage from the restored rows and rebuild the queue."""
        admission = self._admission
        for execution in self._lifecycle.executions():
            workload = execution.workload
            tenant_id = self._store.tenant_of(workload.workload_id)
            admission.admitted_counts[tenant_id] = admission.admitted_counts.get(tenant_id, 0) + 1
            if execution.state is ExecutionState.DONE:
                admission.done_counts[tenant_id] = admission.done_counts.get(tenant_id, 0) + 1
            else:
                admission.note_in_flight(tenant_id)
            self.admitted.append(workload)
        for key, tenant_id, workload in queued.values():
            admission.enqueue(tenant_id, workload, bounded=False)
            self._queue_keys[workload.workload_id] = key
            self._queue_seq = int(key) + 1
