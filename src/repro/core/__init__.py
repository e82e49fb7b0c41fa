"""SpotVerse core: the paper's primary contribution.

The three components of Section 3.2 — :class:`~repro.core.monitor.Monitor`,
the Optimizer (:class:`~repro.core.optimizer.SpotVerseOptimizer`,
implementing Algorithm 1), and the
:class:`~repro.core.controller.FleetController` — plus the
:class:`~repro.core.spotverse.SpotVerse` facade that wires them over a
:class:`~repro.cloud.provider.CloudProvider`.
"""

from repro.core.config import SpotVerseConfig
from repro.core.controller import FleetController
from repro.core.dag import (
    DagWorkload,
    StageWorkload,
    StepGraph,
    StepPlanner,
    StepTask,
    compile_graph,
    compile_workflow,
    compile_workload,
)
from repro.core.fleet import (
    CapacityService,
    CheckpointBackend,
    DynamoCheckpointBackend,
    EFSCheckpointBackend,
    FleetStateStore,
    InterruptionService,
    LifecycleService,
)
from repro.core.monitor import Monitor
from repro.core.optimizer import SpotVerseOptimizer
from repro.core.policy import Placement, PlacementPolicy, PolicyContext, PurchasingOption
from repro.core.result import FleetResult, WorkloadRecord
from repro.core.scoring import RegionMetrics, combined_score
from repro.core.spotverse import SpotVerse

__all__ = [
    "CapacityService",
    "CheckpointBackend",
    "DagWorkload",
    "DynamoCheckpointBackend",
    "EFSCheckpointBackend",
    "FleetController",
    "FleetResult",
    "FleetStateStore",
    "InterruptionService",
    "LifecycleService",
    "Monitor",
    "Placement",
    "PlacementPolicy",
    "PolicyContext",
    "PurchasingOption",
    "RegionMetrics",
    "SpotVerse",
    "SpotVerseConfig",
    "SpotVerseOptimizer",
    "StageWorkload",
    "StepGraph",
    "StepPlanner",
    "StepTask",
    "WorkloadRecord",
    "combined_score",
    "compile_graph",
    "compile_workflow",
    "compile_workload",
]
