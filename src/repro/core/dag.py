"""DAG-aware placement: step graphs compiled to stage workloads.

The paper's Galaxy workloads are DAGs of tool steps, but the fleet
controller historically placed one spot instance per monolithic
:class:`~repro.workloads.base.Workload` — independent steps serialized
on one instance and a migration always restarted the whole remaining
tail.  This module makes the *step* the first-class scheduling entity
(the SkyNomad / Spot-on argument from PAPERS.md: egress and rework
costs only make sense per schedulable unit):

* :class:`StepTask` / :class:`StepGraph` — a validated step DAG with
  Kahn-based cycle rejection and per-edge output bytes (the data a
  step ships to each downstream consumer).
* **Stage condensation** — maximal linear chains of steps collapse
  into one :class:`StageWorkload`, executed through the existing
  :class:`~repro.core.execution.WorkloadExecution` with one segment
  per step.  A stage carries its dependencies and input edges, so it
  is submitted through ``FleetController.submit`` like any workload.
  Segments are exactly the checkpoint granularity, so step-level
  checkpointing rides the existing
  :class:`~repro.core.fleet.checkpoint.CheckpointBackend` protocol
  unchanged, and an interruption reschedules only the interrupted
  stage (plus the egress of re-fetching its inputs cross-region).
* :func:`compile_workload` — a linear workload compiles into a DAG
  whose single stage *is* the original ``Workload`` object, so the
  whole-workload path is the degenerate single-chain case and stays
  bit-identical to the pre-DAG controller.
* :class:`StepPlanner` — the controller's one dependency index: it
  releases a waiting stage when its last dependency completes.
* :func:`compile_workflow` — a Galaxy
  :class:`~repro.galaxy.workflow.Workflow` compiles directly into a
  step graph; each :class:`~repro.galaxy.workflow.WorkflowStep` keeps
  its configured duration, and its input wiring becomes the dependency
  edges.

Cross-*stage* edges carry data: when a stage is released, the
:class:`~repro.core.fleet.coordinator.DagCoordinator` resolves each
input edge to the region its producer stage completed in, and the
consuming execution pays the cross-region transfer at boot (and again
after every migration — moving a step moves its inputs).  Edges inside
one chain are free: the data never leaves the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import DagValidationError
from repro.workloads.base import SegmentPayload, Workload, WorkloadKind

#: A step's payload: zero-argument callable run when the step's
#: segment completes (the miniature real computation).
StepPayload = Callable[[], None]


@dataclass(frozen=True)
class StepTask:
    """One schedulable node of a step graph.

    Attributes:
        label: Unique label within the graph.
        duration: Simulated execution seconds (one execution segment).
        deps: Labels of steps whose outputs this step consumes.
        payload: Optional real computation run on step completion.
        output_bytes: Bytes this step ships to *each* downstream
            consumer — the per-edge data-transfer cost model.  Zero
            (the default) models steps whose outputs stay on shared
            storage in the results region.
    """

    label: str
    duration: float
    deps: Tuple[str, ...] = ()
    payload: Optional[StepPayload] = None
    output_bytes: int = 0


class StepGraph:
    """A validated DAG of :class:`StepTask` nodes.

    Raises:
        DagValidationError: On an empty graph, duplicate labels,
            unknown or self dependencies, non-positive durations, or a
            dependency cycle (Kahn's algorithm leaves nodes behind).
    """

    def __init__(self, name: str, steps: Sequence[StepTask]) -> None:
        if not steps:
            raise DagValidationError(f"step graph {name!r} has no steps")
        self.name = name
        self.steps: Tuple[StepTask, ...] = tuple(steps)
        self._by_label: Dict[str, StepTask] = {}
        for step in self.steps:
            if step.label in self._by_label:
                raise DagValidationError(
                    f"step graph {name!r}: duplicate step label {step.label!r}"
                )
            if step.duration <= 0:
                raise DagValidationError(
                    f"step graph {name!r}: step {step.label!r} duration must be positive"
                )
            self._by_label[step.label] = step
        self._successors: Dict[str, List[str]] = {step.label: [] for step in self.steps}
        for step in self.steps:
            for dep in step.deps:
                if dep == step.label:
                    raise DagValidationError(
                        f"step graph {name!r}: step {step.label!r} depends on itself"
                    )
                if dep not in self._by_label:
                    raise DagValidationError(
                        f"step graph {name!r}: step {step.label!r} depends on "
                        f"unknown step {dep!r}"
                    )
                self._successors[dep].append(step.label)
        self._topo_order = self._kahn(name)

    def _kahn(self, name: str) -> Tuple[str, ...]:
        in_degree = {step.label: len(set(step.deps)) for step in self.steps}
        ready = [step.label for step in self.steps if in_degree[step.label] == 0]
        order: List[str] = []
        while ready:
            label = ready.pop(0)
            order.append(label)
            for succ in self._successors[label]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.steps):
            stuck = sorted(label for label, deg in in_degree.items() if deg > 0)
            raise DagValidationError(
                f"step graph {name!r} has a dependency cycle through: "
                f"{', '.join(stuck)}"
            )
        return tuple(order)

    def step(self, label: str) -> StepTask:
        """The step called *label*."""
        step = self._by_label.get(label)
        if step is None:
            raise DagValidationError(f"step graph {self.name!r} has no step {label!r}")
        return step

    def labels(self) -> List[str]:
        """Step labels in definition order."""
        return [step.label for step in self.steps]

    def topological_order(self) -> Tuple[str, ...]:
        """Labels in a deterministic topological order (Kahn, stable)."""
        return self._topo_order

    def successors(self, label: str) -> List[str]:
        """Labels that consume *label*'s outputs, in definition order."""
        self.step(label)
        return list(self._successors[label])

    def predecessors(self, label: str) -> List[str]:
        """Labels *label* consumes, in declaration order (deduplicated)."""
        seen: List[str] = []
        for dep in self.step(label).deps:
            if dep not in seen:
                seen.append(dep)
        return seen

    def serial_duration(self) -> float:
        """Total step seconds — the one-instance serial makespan."""
        return sum(step.duration for step in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class StageWorkload(Workload):
    """A condensed chain of steps, schedulable as one workload.

    The stage workload is the only submission unit that carries
    dependencies: the controller releases it once every workload in
    :attr:`deps` has completed.  ``dag_id`` and ``step_labels`` let
    downstream consumers (lifecycle telemetry, decision provenance,
    ``obs explain``) attribute the workload back to its DAG and steps
    without a registry lookup.

    Attributes:
        dag_id: The DAG this stage belongs to (``""``: none).
        step_labels: The condensed chain's step labels, in order.
        deps: Workload ids that must complete before this stage is
            released (distinct, in declaration order).
        input_edges: ``(producer workload id, bytes)`` pairs — the data
            this stage downloads at boot.  The coordinator resolves
            each producer to its completion region and the execution
            pays the cross-region transfer.
    """

    dag_id: str = ""
    step_labels: Tuple[str, ...] = ()
    deps: Tuple[str, ...] = ()
    input_edges: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.workload_id in self.deps or len(set(self.deps)) != len(self.deps):
            raise DagValidationError(
                f"stage {self.workload_id!r}: deps must be distinct and exclude "
                f"the stage itself, got {self.deps!r}"
            )

    # ``stage.stage_id`` / ``stage.workload`` keep compiled-DAG readers
    # (perfbench's checks among them) working now that the stage and
    # its workload are one object.
    @property
    def stage_id(self) -> str:
        """The stage's id: its workload id."""
        return self.workload_id

    @property
    def workload(self) -> "StageWorkload":
        """The schedulable workload: the stage itself."""
        return self


def dependencies(workload: Workload) -> Tuple[str, ...]:
    """The workload ids *workload* waits on (``()`` for a plain workload)."""
    return workload.deps if isinstance(workload, StageWorkload) else ()


class DagWorkload:
    """A compiled DAG: its stage workloads in topological order.

    Submitting a DAG means submitting :attr:`workloads`; the container
    only validates the compiled shape and answers questions about it.

    Raises:
        DagValidationError: On an empty DAG, duplicate stage ids, or a
            stage depending on a stage that does not precede it.
    """

    def __init__(self, dag_id: str, workloads: Sequence[Workload]) -> None:
        if not dag_id:
            raise DagValidationError("dag_id must be non-empty")
        if not workloads:
            raise DagValidationError(f"dag {dag_id!r} has no stages")
        self.dag_id = dag_id
        self.workloads: Tuple[Workload, ...] = tuple(workloads)
        self._by_id: Dict[str, Workload] = {}
        for workload in self.workloads:
            if workload.workload_id in self._by_id:
                raise DagValidationError(
                    f"dag {dag_id!r}: duplicate stage id {workload.workload_id!r}"
                )
            self._by_id[workload.workload_id] = workload
        seen: set = set()
        for workload in self.workloads:
            for dep in dependencies(workload):
                if dep not in seen:
                    problem = "a later" if dep in self._by_id else "unknown"
                    raise DagValidationError(
                        f"dag {dag_id!r}: stage {workload.workload_id!r} depends on "
                        f"{problem} stage {dep!r}"
                    )
            seen.add(workload.workload_id)

    @property
    def stages(self) -> Tuple[Workload, ...]:
        """The stage workloads (same as :attr:`workloads`)."""
        return self.workloads

    def stage(self, stage_id: str) -> Workload:
        """The stage workload with id *stage_id*."""
        workload = self._by_id.get(stage_id)
        if workload is None:
            raise DagValidationError(f"dag {self.dag_id!r} has no stage {stage_id!r}")
        return workload

    def stage_ids(self) -> List[str]:
        """Stage ids in topological order."""
        return [workload.workload_id for workload in self.workloads]

    @property
    def n_stages(self) -> int:
        return len(self.workloads)

    @property
    def n_steps(self) -> int:
        """Total steps across all stages (a plain workload is one step)."""
        return sum(
            len(workload.step_labels) if isinstance(workload, StageWorkload) else 1
            for workload in self.workloads
        )

    def serial_duration(self) -> float:
        """Total compute seconds — the one-instance serial makespan."""
        return sum(workload.total_duration for workload in self.workloads)

    def __len__(self) -> int:
        return len(self.workloads)


class StepPlanner:
    """The dependency index: which submitted stages wait on which.

    One index serves a whole controller.  It holds entries only for
    stages with dependencies (remaining-dependency counts) or
    dependents (dependent lists, in submission order), and drops each
    entry once it is spent, so plain workloads and finished DAGs leave
    nothing behind.  Pure bookkeeping — the
    :class:`~repro.core.fleet.coordinator.DagCoordinator` owns every
    cloud-side effect.
    """

    def __init__(self) -> None:
        self._remaining: Dict[str, int] = {}
        self._dependents: Dict[str, List[Workload]] = {}

    def add(self, workload: Workload, pending: Sequence[str]) -> bool:
        """Index *workload* as waiting on the distinct ids *pending*.

        Returns ``True`` (and indexes nothing) when *pending* is empty:
        the workload is ready now.
        """
        if not pending:
            return True
        self._remaining[workload.workload_id] = len(pending)
        for dep in pending:
            self._dependents.setdefault(dep, []).append(workload)
        return False

    def mark_done(self, workload_id: str) -> List[Workload]:
        """Record a completion; returns the stages it made ready.

        Ready stages come back in submission order and leave the
        index: the caller releases them.

        Raises:
            DagValidationError: For a completion of a stage that is
                still waiting on its dependencies.
        """
        if workload_id in self._remaining:
            raise DagValidationError(
                f"stage {workload_id!r} completed without being released"
            )
        dependents = self._dependents.pop(workload_id, None)
        if dependents is None:
            return []
        ready: List[Workload] = []
        remaining = self._remaining
        for dependent in dependents:
            dependent_id = dependent.workload_id
            left = remaining[dependent_id] - 1
            if left:
                remaining[dependent_id] = left
            else:
                del remaining[dependent_id]
                ready.append(dependent)
        return ready

    def waiting(self, workload_id: str) -> bool:
        """Whether *workload_id* is indexed and not yet released."""
        return workload_id in self._remaining

    def __len__(self) -> int:
        """Index entries held: waiting stages plus producers with dependents."""
        return len(self._remaining) + len(self._dependents)

# ----------------------------------------------------------------------
# Compilation: graphs / workflows / linear workloads -> DagWorkload
# ----------------------------------------------------------------------
def condense_chains(graph: StepGraph) -> List[List[StepTask]]:
    """Condense *graph* into maximal linear chains, in topological order.

    A chain extends from step ``u`` to ``v`` only when ``v`` is ``u``'s
    sole successor and ``u`` is ``v``'s sole predecessor — the pair can
    never run concurrently and shares data locally, so one instance
    runs both.  Every step lands in exactly one chain; a purely linear
    graph condenses to a single chain (the degenerate whole-workload
    case).
    """
    chains: List[List[StepTask]] = []
    assigned: set = set()
    for label in graph.topological_order():
        if label in assigned:
            continue
        chain = [label]
        current = label
        while True:
            successors = graph.successors(current)
            if len(successors) != 1:
                break
            nxt = successors[0]
            if len(graph.predecessors(nxt)) != 1:
                break
            chain.append(nxt)
            current = nxt
        assigned.update(chain)
        chains.append([graph.step(step_label) for step_label in chain])
    return chains


def _chain_payload(chain: Sequence[StepTask]) -> Optional[SegmentPayload]:
    """One segment payload dispatching to the chain's step payloads."""
    payloads = [task.payload for task in chain]
    if not any(payload is not None for payload in payloads):
        return None

    def run(index: int) -> None:
        payload = payloads[index]
        if payload is not None:
            payload()

    return run


def compile_graph(
    graph: StepGraph,
    dag_id: str,
    kind: WorkloadKind = WorkloadKind.CHECKPOINT,
    checkpoint_bytes: int = 4 * 1024 * 1024,
    input_bytes: int = 0,
) -> DagWorkload:
    """Compile a step graph into a schedulable :class:`DagWorkload`.

    Args:
        graph: The validated step DAG.
        dag_id: Fleet-unique DAG id; stage ids are
            ``<dag_id>:<first step label>``.
        kind: Interruption semantics of every stage.  Checkpoint (the
            default) gives step-level checkpointing: each step is one
            segment, persisted through the fleet's backend.
        checkpoint_bytes: Per-checkpoint payload bytes per stage.
        input_bytes: External input bytes downloaded by *root* stages
            at every boot (the SRA dataset fetch); internal stages
            get their inputs from producer stages instead.
    """
    chains = condense_chains(graph)
    stage_of_label: Dict[str, str] = {}
    stage_ids: List[str] = []
    for chain in chains:
        stage_id = f"{dag_id}:{chain[0].label}"
        stage_ids.append(stage_id)
        for task in chain:
            stage_of_label[task.label] = stage_id
    stages: List[Workload] = []
    for stage_id, chain in zip(stage_ids, chains):
        labels = tuple(task.label for task in chain)
        in_chain = set(labels)
        deps: List[str] = []
        # Per-producer-stage byte totals: two steps of this chain
        # consuming the same upstream output download it once per boot,
        # but distinct upstream steps each ship their own bytes.
        edge_sources: Dict[str, Dict[str, int]] = {}
        for task in chain:
            for dep in task.deps:
                if dep in in_chain:
                    continue
                producer_stage = stage_of_label[dep]
                if producer_stage not in deps:
                    deps.append(producer_stage)
                edge_sources.setdefault(producer_stage, {})[dep] = graph.step(
                    dep
                ).output_bytes
        input_edges = tuple(
            (producer, sum(by_label.values()))
            for producer in deps
            for by_label in [edge_sources[producer]]
        )
        stages.append(
            StageWorkload(
                workload_id=stage_id,
                kind=kind,
                segment_durations=tuple(task.duration for task in chain),
                payload=_chain_payload(chain),
                checkpoint_bytes=checkpoint_bytes,
                input_bytes=input_bytes if not deps else 0,
                description=(
                    f"dag {dag_id} stage [{' -> '.join(labels)}] of {graph.name}"
                ),
                dag_id=dag_id,
                step_labels=labels,
                deps=tuple(deps),
                input_edges=input_edges,
            )
        )
    return DagWorkload(dag_id, stages)


def compile_workload(workload: Workload) -> DagWorkload:
    """Compile a linear workload into its degenerate single-stage DAG.

    The stage **is** the original object — same id, same segments,
    same payload — so submitting the compiled DAG submits exactly the
    workload the monolithic path does, through the same code (the
    golden-equivalence guarantee the DAG refactor preserves).
    """
    return DagWorkload(workload.workload_id, [workload])


def compile_workflow(
    workflow: "object",
    dag_id: str,
    kind: WorkloadKind = WorkloadKind.CHECKPOINT,
    checkpoint_bytes: int = 4 * 1024 * 1024,
    input_bytes: int = 0,
    output_bytes: int = 0,
    payloads: Optional[Dict[str, StepPayload]] = None,
) -> DagWorkload:
    """Compile a Galaxy :class:`~repro.galaxy.workflow.Workflow`.

    Each :class:`~repro.galaxy.workflow.WorkflowStep` becomes one
    :class:`StepTask` keeping its configured duration; its input wiring
    becomes the dependency edges.

    Args:
        workflow: The validated Galaxy workflow.
        dag_id: Fleet-unique DAG id.
        kind: Interruption semantics of every stage.
        checkpoint_bytes: Per-checkpoint payload bytes per stage.
        input_bytes: External input bytes for root stages.
        output_bytes: Bytes every step ships per downstream edge
            (uniform; build a :class:`StepGraph` directly for per-step
            sizes).
        payloads: Optional ``{step label: callable}`` real computations.
    """
    payloads = payloads or {}
    tasks = [
        StepTask(
            label=step.label,
            duration=step.duration,
            deps=tuple(workflow.upstream_of(step.label)),
            payload=payloads.get(step.label),
            output_bytes=output_bytes,
        )
        for step in workflow.steps
    ]
    graph = StepGraph(workflow.name, tasks)
    return compile_graph(
        graph,
        dag_id,
        kind=kind,
        checkpoint_bytes=checkpoint_bytes,
        input_bytes=input_bytes,
    )


__all__ = [
    "DagWorkload",
    "StageWorkload",
    "StepGraph",
    "StepPlanner",
    "StepTask",
    "compile_graph",
    "compile_workflow",
    "compile_workload",
    "condense_chains",
    "dependencies",
    "StepPayload",
]
