"""The benchmark's three workloads, driven through the public APIs.

Every workload is a closed batch: all lifecycles are submitted at one
simulated instant and the run ends when the last completes.  A
workload object does its set-up in ``__init__`` (market warm-up,
Monitor, policy, controller, tenants, inputs) and its timed phase in
:meth:`run`, which returns the :class:`~repro.core.result.FleetResult`.

Each workload fixes the simulator's own seed (``sim_seed``: market
paths, interruption draws, Algorithm 1's random picks), as a
deployment would.  The benchmark's seed only generates the inputs:
each lifecycle's duration is scaled by a seeded factor, so two input
seeds give two input sets and one input seed always gives the same.
See ``README.md`` for why each workload exists and which layers it
loads.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Optional

from repro.cloud.provider import CloudProvider
from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.core.dag import compile_workflow
from repro.core.monitor import Monitor
from repro.core.optimizer import SpotVerseOptimizer
from repro.core.tenancy import MultiTenantController, TenantSpec
from repro.galaxy.workflow import StepInput, Workflow, WorkflowStep
from repro.obs.events import EventType
from repro.sim.clock import HOUR
from repro.sim.engine import SimulationEngine
from repro.workloads.base import synthetic_workload
from repro.workloads.genome_reconstruction import genome_reconstruction_workload
from repro.workloads.ngs_preprocessing import ngs_preprocessing_workload

GiB = 1024**3
INSTANCE_TYPE = "m5.xlarge"
WARMUP_STEPS = 24
FANOUT_WIDTH = 8
#: Deadline for every timed phase; far beyond any workload's makespan,
#: so hitting it means lifecycles were lost.
MAX_HOURS = 4000.0


def _jitter(rng: random.Random) -> float:
    """Seeded duration factor in [0.9, 1.1], rounded to 1e-3."""
    return round(rng.uniform(0.9, 1.1), 3)


class Audit:
    """Bus observations the checks need, folded as events are emitted.

    Subscribes only to the event types it reads, so the untraced runs
    pay one call per completion, admission and decision.
    """

    TYPES = (EventType.WORKLOAD_DONE, EventType.TENANT_ADMITTED, EventType.DECISION_EVALUATED)

    def __init__(self, bus) -> None:
        self.done: Counter = Counter()
        self.admit_times: List[float] = []
        self.over_quota = 0
        self.decisions = 0
        self.initial_decisions = 0
        self.initial_batched = 0
        self.initial_times: set = set()
        bus.subscribe(self._observe, types=self.TYPES)

    def _observe(self, event) -> None:
        kind = event.type
        if kind is EventType.WORKLOAD_DONE:
            self.done[event.workload_id] += 1
        elif kind is EventType.TENANT_ADMITTED:
            self.admit_times.append(event.time)
            quota = event.attrs.get("quota", 0)
            if quota and event.attrs.get("in_flight", 0) > quota:
                self.over_quota += 1
        else:
            self.decisions += 1
            payload = event.attrs.get("decision", {})
            if payload.get("kind") == "initial":
                self.initial_decisions += 1
                self.initial_batched += payload.get(
                    "batch_size", len(payload.get("workload_ids", ()))
                )
                self.initial_times.add(event.time)


class BenchWorkload:
    """Shared set-up: a warmed-up cloud, Monitor and SpotVerse Algorithm 1."""

    name = ""
    #: Reference size (lifecycles) of one measured iteration.
    size = 0
    #: Seed of the simulation engine (fixed per workload).
    sim_seed = 0

    def __init__(
        self, engine: SimulationEngine, input_seed: int, size: Optional[int] = None
    ) -> None:
        self.input_seed = input_seed
        self.size = size if size is not None else type(self).size
        self.rng = random.Random(input_seed)
        self.config = SpotVerseConfig(instance_type=INSTANCE_TYPE)
        self.provider = CloudProvider(engine=engine)
        self.provider.warmup_markets(WARMUP_STEPS)
        self.monitor = Monitor(
            self.provider,
            [self.config.instance_type],
            collect_interval=self.config.collect_interval,
        )
        self.policy = SpotVerseOptimizer(self.monitor, self.config)
        self.audit = Audit(self.provider.telemetry.bus)
        #: Simulated time every lifecycle of the closed batch is submitted at.
        self.t_submit = engine.now

    def run(self):
        raise NotImplementedError

    @property
    def lifecycles(self) -> int:
        """Lifecycles submitted (stages, for ``dag-fanout``)."""
        return self.size


class TenantFleet(BenchWorkload):
    """Many short synthetic workloads across 100 weighted, quota'd tenants."""

    name = "tenant-fleet"
    size = 5000
    sim_seed = 11
    N_TENANTS = 100
    QUOTA = 4
    N_SHARDS = 16
    ADMIT_INTERVAL = 300.0
    DECISION_CAP = 512
    BUS_TRIM_THRESHOLD = 50_000

    def __init__(self, engine, input_seed, size=None) -> None:
        super().__init__(engine, input_seed, size)
        self.controller = MultiTenantController(
            self.provider,
            self.policy,
            self.config,
            monitor=self.monitor,
            n_shards=self.N_SHARDS,
            admit_interval=self.ADMIT_INTERVAL,
        )
        self.provider.telemetry.decisions.cap(self.DECISION_CAP)
        bus = self.provider.telemetry.bus
        threshold = self.BUS_TRIM_THRESHOLD

        def trim(event) -> None:
            # The archive is cleared as it grows (the flight-recorder
            # trim_bus pattern), so peak RSS measures the control plane.
            if len(bus) > threshold:
                bus.clear()

        bus.subscribe(trim)
        for index in range(self.N_TENANTS):
            self.controller.register_tenant(
                TenantSpec(
                    tenant_id=self.tenant_of(index),
                    weight=float(1 + index % 5),
                    max_in_flight=self.QUOTA,
                )
            )
        self.inputs = [
            synthetic_workload(
                f"wl-{index:06d}", duration_hours=0.25 * _jitter(self.rng), n_segments=1
            )
            for index in range(self.size)
        ]

    def tenant_of(self, index: int) -> str:
        return f"tenant-{index % self.N_TENANTS:03d}"

    def run(self):
        for index, workload in enumerate(self.inputs):
            if not self.controller.submit(self.tenant_of(index), workload):
                raise RuntimeError(f"{workload.workload_id} was throttled")
        return self.controller.wait(max_hours=MAX_HOURS)


class SpotChurn(BenchWorkload):
    """Long Galaxy workloads under interruptions, with a mid-run controller restart.

    The first controller is torn down a fixed simulated time after
    submission and a second one, built over the same ``state_store``,
    resumes the fleet; the outcome equals an uninterrupted run.
    """

    name = "spot-churn"
    size = 1200
    sim_seed = 7
    #: Simulated hours after submission at which the controller is torn
    #: down and rebuilt from its state store.
    TEARDOWN_AFTER_HOURS = 6.0

    def __init__(self, engine, input_seed, size=None) -> None:
        super().__init__(engine, input_seed, size)
        self.controller = FleetController(
            self.provider, self.policy, self.config, monitor=self.monitor
        )
        self.inputs = []
        for index in range(self.size):
            hours = 10.5 * _jitter(self.rng)
            if index % 2 == 0:
                self.inputs.append(
                    genome_reconstruction_workload(f"wl-{index:05d}", duration_hours=hours)
                )
            else:
                self.inputs.append(
                    ngs_preprocessing_workload(f"wl-{index:05d}", duration_hours=hours)
                )

    def run(self):
        # ``run``/``wait`` with a short deadline would end the fleet (the
        # result assembly terminates live instances), so the first
        # controller only submits and the engine is driven to the cut.
        self.controller.submit(self.inputs)
        engine = self.provider.engine
        engine.run_until(self.t_submit + self.TEARDOWN_AFTER_HOURS * HOUR)
        store = self.controller.state_store
        self.controller.teardown()
        resumed = FleetController(
            self.provider, self.policy, self.config, monitor=self.monitor, state_store=store
        )
        return resumed.resume(self.inputs, max_hours=MAX_HOURS)


def fanout_workflow(rng: random.Random) -> Workflow:
    """prep -> 8 parallel samples -> merge, seeded step durations."""
    steps = [WorkflowStep("prep", "cutadapt", duration=0.5 * HOUR * _jitter(rng))]
    steps += [
        WorkflowStep(
            f"sample{i}",
            "fastqc",
            inputs={"reads": StepInput("prep", "out")},
            duration=2.0 * HOUR * _jitter(rng),
        )
        for i in range(FANOUT_WIDTH)
    ]
    steps.append(
        WorkflowStep(
            "merge",
            "multiqc",
            inputs={f"report{i}": StepInput(f"sample{i}", "out") for i in range(FANOUT_WIDTH)},
            duration=0.5 * HOUR * _jitter(rng),
        )
    )
    return Workflow("fanout", steps)


class DagFanout(BenchWorkload):
    """Galaxy fan-out workflows compiled to stage DAGs and run via ``run_dags``."""

    name = "dag-fanout"
    #: Workflows per iteration; each compiles to 10 stages.
    size = 400
    sim_seed = 11
    EDGE_BYTES = 2 * GiB

    def __init__(self, engine, input_seed, size=None) -> None:
        super().__init__(engine, input_seed, size)
        self.controller = FleetController(
            self.provider, self.policy, self.config, monitor=self.monitor
        )
        self.dags = [
            compile_workflow(
                fanout_workflow(self.rng), f"dag-{index:04d}", output_bytes=self.EDGE_BYTES
            )
            for index in range(self.size)
        ]

    @property
    def lifecycles(self) -> int:
        return sum(dag.n_stages for dag in self.dags)

    def run(self):
        return self.controller.run_dags(self.dags, max_hours=MAX_HOURS)


WORKLOADS: Dict[str, type] = {
    workload.name: workload for workload in (TenantFleet, SpotChurn, DagFanout)
}
