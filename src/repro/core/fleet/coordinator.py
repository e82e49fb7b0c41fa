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
        self._release_event: Optional["Event"] = None
        lifecycle.add_completion_listener(self._on_complete)
        # Decision provenance: any Algorithm-1 round that places a
        # stage workload — initial batches here, migrations deep in
        # the interruption path — gets its step fields annotated.
        self._telemetry.decisions.set_step_resolver(self._step_label)

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

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, workloads: Sequence["Workload"]) -> None:
        """Validate *workloads*, release the ready ones, index the rest.

        Raises:
            ExperimentError: On an empty batch, duplicate ids, ids
                already registered or waiting on this control plane, a
                dependency that does not precede its dependent in the
                batch, or a DAG id still in flight.  Nothing changes
                when the batch is rejected.
        """
        dags = self._validate(workloads)
        for dag_id, (stages, steps) in dags.items():
            self._dags[dag_id] = [stages, stages]
            self._telemetry.bus.emit(
                EventType.DAG_SUBMITTED, dag_id=dag_id, stages=stages, steps=steps
            )
        planner = self._planner
        ready = [
            workload
            for workload in workloads
            if planner.add(workload, dependencies(workload))
        ]
        self._release(ready)

    def _validate(self, workloads: Sequence["Workload"]) -> Dict[str, Tuple[int, int]]:
        """Check the whole batch; returns its DAGs' ``(stages, steps)``."""
        if not workloads:
            raise ExperimentError("fleet must contain at least one workload")
        ids = [workload.workload_id for workload in workloads]
        if len(set(ids)) != len(ids):
            raise ExperimentError(f"duplicate workload ids in fleet: {ids!r}")
        already_known = [
            wid
            for wid in ids
            if self._lifecycle.find(wid) is not None
            or self._planner.waiting(wid)
            or self._store.has_workload(wid)
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
        """Coalesce releases into one zero-delay batched decision.

        Completions landing at the same sim time each fire their own
        engine event; queuing into a single zero-delay follow-up means
        every step they made ready is scored by *one* Algorithm-1
        round for the whole tick, not one round per completion.
        """
        if not workloads:
            return
        self._pending_release.extend(workloads)
        if self._release_event is None:
            self._release_event = self._engine.call_in(
                0.0, self._flush_releases, label="dag:release"
            )

    def _flush_releases(self) -> None:
        self._release_event = None
        batch = self._pending_release
        self._pending_release = []
        self._release(batch)

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
        self._queue_release(self._planner.mark_done(workload.workload_id))

    # ------------------------------------------------------------------
    # Teardown / restore
    # ------------------------------------------------------------------
    def teardown(self) -> None:
        """Drop a queued release: it dies with the controller process."""
        if self._release_event is not None:
            self._release_event.cancel()
            self._release_event = None
        self._pending_release = []

    def restore(self, workloads: Sequence["Workload"]) -> None:
        """Rebuild executions and DAG progress from the workload rows.

        Args:
            workloads: Definitions of every submitted workload, plain
                or stage — state is durable, definitions are code the
                client re-supplies.  Stages that were never released
                have no row; they go back into the dependency index.

        Raises:
            ExperimentError: When a stored workload has no definition,
                a workload without dependencies has no stored row (it
                was never submitted), or the control plane is not
                freshly built.
        """
        self._lifecycle.restore(workloads)
        find = self._lifecycle.find
        never_submitted = [
            workload.workload_id
            for workload in workloads
            if not dependencies(workload) and find(workload.workload_id) is None
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
            if find(workload.workload_id) is not None:
                continue
            # Wait only on producers that have not completed: a running
            # producer releases this stage when it completes, and one
            # that completed before the teardown already has.
            pending = [dep for dep in dependencies(workload) if not done(dep)]
            if self._planner.add(workload, pending):
                ready.append(workload)
        for dag_id in [dag_id for dag_id, (left, _) in self._dags.items() if not left]:
            del self._dags[dag_id]
        # Releases that were pending when the old controller died (its
        # zero-delay event died with it) are re-queued here.
        self._queue_release(ready)
