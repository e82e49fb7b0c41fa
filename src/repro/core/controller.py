"""The Controller: a thin façade over the fleet control-plane services.

Wires the paper's Section 4 control plane onto the simulated cloud by
composing the :mod:`repro.core.fleet` services:

* a :class:`~repro.core.fleet.state.FleetStateStore` keeps workload /
  instance / request state durably in **DynamoDB** — the controller
  object itself holds no fleet state and can be torn down mid-run and
  rebuilt from the store (:meth:`FleetController.resume`),
* the :class:`~repro.core.fleet.interruption.InterruptionService`
  deploys the **EventBridge rule** → interruption-handler **Lambda** →
  **Step Functions** re-acquire chain,
* the :class:`~repro.core.fleet.capacity.CapacityService` owns spot
  requests, on-demand fallback, and the **CloudWatch 15-minute sweep**
  for requests that stayed ``open``,
* the :class:`~repro.core.fleet.lifecycle.LifecycleService` owns
  registration, completion accounting, and result assembly; run logs
  and checkpoints land in **S3** via the configured
  :class:`~repro.core.fleet.checkpoint.CheckpointBackend`.

Every strategy in the paper's evaluation — SpotVerse, single-region,
on-demand, SkyPilot-like — runs through this same controller; only the
:class:`~repro.core.policy.PlacementPolicy` differs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.dag import DagWorkload
from repro.core.execution import WorkloadExecution
from repro.core.fleet.capacity import CapacityService
from repro.core.fleet.checkpoint import (
    CheckpointBackend,
    DynamoCheckpointBackend,
    EFSCheckpointBackend,
)
from repro.core.fleet.coordinator import DagCoordinator
from repro.core.fleet.interruption import InterruptionService
from repro.core.fleet.lifecycle import LifecycleService
from repro.core.fleet.state import FleetStateStore
from repro.core.policy import PlacementPolicy, PolicyContext
from repro.core.result import FleetResult
from repro.sim.clock import HOUR, MINUTE
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cloud.services.ec2 import Instance
    from repro.core.monitor import Monitor


class FleetController:
    """Runs workload fleets under a placement policy.

    Args:
        provider: The simulated cloud.
        policy: Placement decisions (SpotVerse's Optimizer or a
            baseline).
        config: Control-plane configuration.
        monitor: Optional Monitor handed to the policy context.
        image_id: Optional Galaxy AMI shaping boot times.
        state_store: Durable fleet state to compose over.  Defaults to
            a fresh store; pass the store of a torn-down controller to
            rebuild its control plane (then call :meth:`resume`).
        n_shards: Shard count for the default store (ignored when
            *state_store* is supplied).  1 — the default — is
            byte-identical to the unsharded store; the multi-tenant
            control plane raises it to keep scans O(shard).
    """

    def __init__(
        self,
        provider: CloudProvider,
        policy: PlacementPolicy,
        config: SpotVerseConfig,
        monitor: Optional["Monitor"] = None,
        image_id: Optional[str] = None,
        state_store: Optional[FleetStateStore] = None,
        n_shards: int = 1,
    ) -> None:
        self._provider = provider
        self._policy = policy
        self._config = config
        self._engine = provider.engine
        self._ctx = PolicyContext(
            provider=provider,
            monitor=monitor,
            rng=provider.engine.streams.get(f"controller:{policy.name}"),
        )
        self.state_store = state_store if state_store is not None else FleetStateStore(
            provider.dynamodb, n_shards=n_shards
        )
        self._backend = self._make_backend(config, provider, self.state_store)
        provider.s3.create_bucket(config.results_bucket, config.results_region)

        self._lifecycle = LifecycleService(
            provider=provider,
            config=config,
            store=self.state_store,
            ctx=self._ctx,
            backend=self._backend,
            strategy=policy.name,
            image_id=image_id,
        )
        self._capacity = CapacityService(
            provider=provider,
            config=config,
            store=self.state_store,
            lifecycle=self._lifecycle,
        )
        self._interruption = InterruptionService(
            provider=provider,
            policy=policy,
            store=self.state_store,
            lifecycle=self._lifecycle,
            capacity=self._capacity,
            ctx=self._ctx,
        )
        self._dag = DagCoordinator(
            provider=provider,
            policy=policy,
            store=self.state_store,
            lifecycle=self._lifecycle,
            capacity=self._capacity,
            ctx=self._ctx,
        )
        self.state_store.router.bind(self._capacity, self._interruption, provider.ec2)

        # Control-plane wiring (Section 4) targets the store's router,
        # so it is deployed once per store: a controller rebuilt over an
        # existing store reuses the live Lambda / rule / state machine /
        # sweep, exactly as a redeployed serverless stack would.
        meta = self.state_store.mapping("control-plane")
        if not meta.get("deployed"):
            self._interruption.deploy()
            self._capacity.deploy()
            meta["deployed"] = True

    @staticmethod
    def _make_backend(
        config: SpotVerseConfig, provider: CloudProvider, store: FleetStateStore
    ) -> CheckpointBackend:
        if config.checkpoint_backend == "efs":
            return EFSCheckpointBackend(
                provider,
                config.results_region,
                fs_registry=store.mapping("efs-filesystems"),
            )
        return DynamoCheckpointBackend(provider, config.results_bucket)

    # ------------------------------------------------------------------
    # Fleet entry points
    # ------------------------------------------------------------------
    def run(
        self,
        workloads: Sequence[Workload],
        max_hours: float = 120.0,
        poll_interval: float = 5 * MINUTE,
    ) -> FleetResult:
        """Run *workloads* to completion (or the deadline).

        Raises:
            ExperimentError: On duplicate workload ids or an empty fleet.
        """
        self.submit(workloads)
        return self.wait(workloads, max_hours=max_hours, poll_interval=poll_interval)

    def run_dags(
        self,
        dags: Sequence[DagWorkload],
        max_hours: float = 120.0,
        poll_interval: float = 5 * MINUTE,
    ) -> FleetResult:
        """:meth:`run` over the stage workloads of compiled DAGs."""
        return self.run(
            [w for dag in dags for w in dag.workloads], max_hours, poll_interval
        )

    def submit(self, workloads: Sequence[Workload]) -> None:
        """Register *workloads* and acquire their initial capacity.

        Plain workloads and DAG roots are placed at once, in one
        batched decision; a :class:`~repro.core.dag.StageWorkload` with
        dependencies is registered and placed when its last dependency
        completes.  Independent steps fan out across instances, each
        ready set placed by the same batched Algorithm-1 round.

        Raises:
            ExperimentError: When the batch is rejected (nothing is
                registered then); see :meth:`DagCoordinator.submit`.
        """
        self._dag.submit(workloads)

    def wait(
        self,
        workloads: Sequence[Workload],
        max_hours: float = 120.0,
        poll_interval: float = 5 * MINUTE,
    ) -> FleetResult:
        """Drive the engine until *workloads* finish (or the deadline).

        The result carries one record per *registered* workload; on a
        deadline hit, stages whose dependencies never completed were
        never released and do not appear.
        """
        deadline = self._engine.now + max_hours * HOUR
        while not self._lifecycle.all_done(workloads) and self._engine.now < deadline:
            self._engine.run_until(min(self._engine.now + poll_interval, deadline))
        return self._lifecycle.build_result(workloads)

    # ------------------------------------------------------------------
    # Teardown / restore (crash recovery over the durable store)
    # ------------------------------------------------------------------
    def teardown(self) -> None:
        """Discard this controller's in-process state, mid-run.

        Pending boot/segment timers and any queued stage release are
        cancelled (they lived in the dead process) and the router
        endpoints detach.  The cloud-side wiring and every byte of
        fleet state stay put — build a new controller over
        ``state_store`` and :meth:`resume` to continue.
        """
        # Land staged writes first: the store is the only thing the next
        # controller can rebuild from, so nothing may die in the overlay.
        self.state_store.flush()
        self._dag.teardown()
        self._lifecycle.teardown()
        self.state_store.router.unbind()

    def restore(self, workloads: Sequence[Workload]) -> None:
        """Rebuild executions and DAG progress from the state store.

        Args:
            workloads: Definitions of every submitted workload — plain
                workloads and DAG stages alike (state is durable;
                definitions are code the client re-supplies).
        """
        self._dag.restore(workloads)
        self._interruption.recover_lost_instances()

    def resume(
        self,
        workloads: Sequence[Workload],
        max_hours: float = 120.0,
        poll_interval: float = 5 * MINUTE,
    ) -> FleetResult:
        """Rebuild executions from the state store and finish the run."""
        self.restore(workloads)
        return self.wait(workloads, max_hours=max_hours, poll_interval=poll_interval)

    # ------------------------------------------------------------------
    # Introspection (used by tests and tools)
    # ------------------------------------------------------------------
    @property
    def services(self) -> Dict[str, object]:
        """The composed control-plane services, by role."""
        return {
            "capacity": self._capacity,
            "interruption": self._interruption,
            "lifecycle": self._lifecycle,
            "dag": self._dag,
            "state": self.state_store,
        }

    @property
    def checkpoint_backend(self) -> CheckpointBackend:
        """The active checkpoint backend."""
        return self._backend

    def execution(self, workload_id: str) -> WorkloadExecution:
        """Return the execution for *workload_id*."""
        return self._lifecycle.execution(workload_id)

    def register_instance(self, instance: "Instance", execution: WorkloadExecution) -> None:
        """Track an externally attached instance (tests/tools)."""
        self.state_store.bind_instance(instance, execution.workload.workload_id)

    @property
    def _by_instance(self) -> Dict[str, WorkloadExecution]:
        """Live ``instance_id -> execution`` view over the state store."""
        bindings = self.state_store.instance_bindings()
        return {
            instance_id: execution
            for instance_id, workload_id in bindings.items()
            for execution in [self._lifecycle.find(workload_id)]
            if execution is not None
        }
