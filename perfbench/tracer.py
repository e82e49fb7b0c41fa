"""Span tracing from outside the program: wrap each layer's public calls.

A traced run patches the public methods of every layer class (and the
retry helpers) with a timing wrapper, and wraps each callback handed
to the engine's scheduling calls.  Spans nest: a span's *self* time is
its duration minus the durations of the spans it contains, so the self
times of all layers add up to the traced wall time.

Only aggregates are kept (self seconds per layer, calls and inclusive
seconds per method, a few named counters), so tracing memory is
O(methods), not O(events).  ``uninstall`` restores every patched
attribute; nothing in ``src/`` knows it was traced.

Engine callbacks are attributed by label.  The base map is
:func:`repro.obs.profiler.subsystem_for`; this module extends it with
``tenancy:*`` and ``dag*`` (which the profiler files under ``other``)
and re-homes ``ec2:*`` to the ``ec2`` layer: those callbacks are
EC2Service internals (fulfilment, the hazard sweep, reclaim), and the
control-plane work they trigger is wrapped separately
(``CapacityService.on_spot_fulfilled``,
``InterruptionService.handle_event``), so it still lands on its own
layer.  Tick hooks are spans of the layer that registered them (the
state store's ``flush``).
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter
from types import FunctionType
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.policy import PurchasingOption
from repro.obs.profiler import subsystem_for
from repro.sim.trace import default_group

#: (layer, module, class) whose public methods become spans.
LAYER_CLASSES: Tuple[Tuple[str, str, str], ...] = (
    ("controller", "repro.core.controller", "FleetController"),
    ("tenancy", "repro.core.tenancy", "MultiTenantController"),
    ("tenancy", "repro.core.tenancy", "AdmissionController"),
    ("tenancy", "repro.core.tenancy", "TenantRegistry"),
    ("state", "repro.core.fleet.state", "FleetStateStore"),
    # The dict-like views ``FleetStateStore.mapping()`` hands out.
    ("state", "repro.core.fleet.state", "_MetaMapping"),
    ("state", "repro.core.fleet.state", "ControlPlaneRouter"),
    ("lifecycle", "repro.core.fleet.lifecycle", "LifecycleService"),
    ("lifecycle", "repro.core.execution", "WorkloadExecution"),
    ("capacity", "repro.core.fleet.capacity", "CapacityService"),
    ("interruption", "repro.core.fleet.interruption", "InterruptionService"),
    ("checkpoint", "repro.core.fleet.checkpoint", "CheckpointBackend"),
    ("checkpoint", "repro.core.fleet.checkpoint", "DynamoCheckpointBackend"),
    ("checkpoint", "repro.core.fleet.checkpoint", "EFSCheckpointBackend"),
    ("dag", "repro.core.fleet.coordinator", "DagCoordinator"),
    ("dag", "repro.core.dag", "StepPlanner"),
    ("placement", "repro.core.optimizer", "SpotVerseOptimizer"),
    ("dynamodb", "repro.cloud.services.dynamodb", "DynamoDBService"),
    ("retry", "repro.cloud.retry", "RetryPolicy"),
    ("ec2", "repro.cloud.services.ec2", "EC2Service"),
    ("billing", "repro.cloud.billing", "CostLedger"),
    ("market", "repro.cloud.lattice", "MarketLattice"),
    ("market", "repro.cloud.market", "SpotMarket"),
    ("market", "repro.cloud.provider", "CloudProvider"),
    ("monitor", "repro.core.monitor", "Monitor"),
    ("s3", "repro.cloud.services.s3", "S3Service"),
    ("bus", "repro.obs.events", "EventBus"),
    ("bus", "repro.obs.provenance", "DecisionLog"),
)

#: Dunder methods that are the public surface of a layer class.
PUBLIC_DUNDERS = {
    "_MetaMapping": ("__getitem__", "__setitem__", "__delitem__", "__iter__", "__len__"),
}

#: Module-level retry helpers; callers import them by name, so each
#: importing module's binding is patched too.
RETRY_MODULE = "repro.cloud.retry"
RETRY_FUNCTIONS = ("call_with_retries", "note_retry", "note_dead_letter")

#: Store methods that read state and those that stage a write.
STATE_READS = frozenset({
    "workload_item", "workload_items", "workload_ids", "has_workload", "done_count",
    "state_counts", "instance_bindings", "tracked_requests", "dag_item", "dag_items",
    "has_dag", "tenant_item", "tenant_items", "__getitem__", "__iter__", "__len__",
})
STATE_WRITES = frozenset({
    "save_execution", "bind_instance", "pop_instance", "track_request", "pop_request",
    "save_dag", "save_tenant", "__setitem__", "__delitem__",
})

#: Label heads this benchmark maps itself (see the module docstring).
LABEL_HEADS = {"tenancy": "tenancy", "ec2": "ec2"}

def layer_for_label(label: str) -> str:
    """The layer owning an engine callback scheduled under *label*."""
    head = label.partition(":")[0]
    if head.startswith("dag"):
        return "dag"
    mapped = LABEL_HEADS.get(head)
    if mapped is not None:
        return mapped
    return subsystem_for(label)


def _in_layer(stack: List[list], layer: str) -> bool:
    return any(frame[1] == layer for frame in stack)


# Probes run after a span closes, with the enclosing spans still on the
# stack; they fold the counters the per-layer metrics need.
def _probe_get_item(tracer: "SpanTracer", args, result) -> None:
    if _in_layer(tracer._stack, "state"):
        tracer.counters["state.gets"] += 1
        if result is not None:
            tracer.counters["state.get_hits"] += 1


def _probe_batch_write(tracer: "SpanTracer", args, result) -> None:
    if _in_layer(tracer._stack, "state"):
        tracer.counters["state.batch_writes"] += 1


def _probe_drain(tracer: "SpanTracer", args, result) -> None:
    if result:
        tracer.counters["tenancy.rounds"] += 1
        tracer.counters["tenancy.admitted"] += len(result)


def _count_on_demand(tracer: "SpanTracer", placements) -> None:
    for placement in placements:
        tracer.counters["placement.placed"] += 1
        if placement.option is PurchasingOption.ON_DEMAND:
            tracer.counters["placement.on_demand"] += 1


def _probe_initial(tracer: "SpanTracer", args, result) -> None:
    tracer.counters["placement.workloads"] += len(args[1])
    _count_on_demand(tracer, result)
    if _in_layer(tracer._stack, "dag"):
        tracer.counters["dag.rounds"] += 1
        tracer.counters["dag.stages"] += len(args[1])


def _probe_migration(tracer: "SpanTracer", args, result) -> None:
    _count_on_demand(tracer, (result,))


PROBES: Dict[Tuple[str, str], Callable] = {
    ("DynamoDBService", "get_item"): _probe_get_item,
    ("DynamoDBService", "batch_write_item"): _probe_batch_write,
    ("AdmissionController", "drain"): _probe_drain,
    ("SpotVerseOptimizer", "initial_placements"): _probe_initial,
    ("SpotVerseOptimizer", "migration_placement"): _probe_migration,
}


class SpanTracer:
    """Aggregating span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        # Wrappers close over these containers, so they are cleared in
        # place, never rebound.
        self.self_time: Dict[str, float] = defaultdict(float)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._group_layer: Dict[str, str] = {}

    def reset(self) -> None:
        """Drop every aggregate (e.g. after set-up, before the timed phase)."""
        self.self_time.clear()
        self.inclusive.clear()
        self.calls.clear()
        self.counters.clear()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def wrap(self, layer: str, key: str, fn: Callable, probe: Optional[Callable] = None) -> Callable:
        """Return *fn* timed as a span of *layer*, aggregated under *key*."""
        stack = self._stack
        self_time = self.self_time
        inclusive = self.inclusive
        calls = self.calls
        tracer = self

        def span(*args, **kwargs):
            frame = [0.0, layer]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_time[layer] += elapsed - frame[0]
                inclusive[key] += elapsed
                calls[key] += 1
                if stack:
                    stack[-1][0] += elapsed
            if probe is not None:
                probe(tracer, args, result)
            return result

        return span

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch(self, owner: object, name: str, value: object) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Patch every layer class and the retry helpers."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, module_name, class_name in LAYER_CLASSES:
            cls = getattr(importlib.import_module(module_name), class_name)
            dunders = PUBLIC_DUNDERS.get(class_name, ())
            for name, attr in list(vars(cls).items()):
                if not isinstance(attr, FunctionType):
                    continue
                if name.startswith("_") and name not in dunders and name != "__init__":
                    continue
                self._patch(
                    cls,
                    name,
                    self.wrap(layer, f"{class_name}.{name}", attr, PROBES.get((class_name, name))),
                )
        retry = importlib.import_module(RETRY_MODULE)
        originals = {name: getattr(retry, name) for name in RETRY_FUNCTIONS}
        wrapped = {
            name: self.wrap("retry", name, fn) for name, fn in originals.items()
        }
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace or not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, fn in originals.items():
                if namespace.get(name) is fn:
                    self._patch(module, name, wrapped[name])

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def attach_engine(self, engine) -> None:
        """Trace *engine*'s loop, pushes, callbacks and tick hooks.

        Instance attributes shadow the class methods, so only this
        engine is affected.  ``every``/``every_batch`` re-arm through
        ``call_at``, so periodic callbacks are wrapped there too.
        """
        push_at = self.wrap("sim", "engine.call_at", engine.call_at)
        push_in = self.wrap("sim", "engine.call_in", engine.call_in)
        callback = self._callback

        def call_at(time, fn, label=""):
            return push_at(time, callback(fn, label), label)

        def call_in(delay, fn, label=""):
            return push_in(delay, callback(fn, label), label)

        engine.call_at = call_at
        engine.call_in = call_in
        engine.run_until = self.wrap("sim", "engine.run_until", engine.run_until)
        add_hook = engine.add_tick_hook

        def add_tick_hook(hook):
            owner = type(getattr(hook, "__self__", None)).__name__
            layer = "state" if owner == "FleetStateStore" else "sim"
            add_hook(self.wrap(layer, f"tick:{owner}", hook))

        engine.add_tick_hook = add_tick_hook

    def _callback(self, fn: Callable, label: str) -> Callable:
        group = default_group(label)
        layer = self._group_layer.get(group)
        if layer is None:
            layer = self._group_layer[group] = layer_for_label(label)
        return self.wrap(layer, f"cb:{group}", fn)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict:
        """JSON-ready aggregates, written out when the run ends."""
        return {
            "self_seconds": dict(sorted(self.self_time.items())),
            "calls": dict(sorted(self.calls.items())),
            "inclusive_seconds": dict(sorted(self.inclusive.items())),
            "counters": dict(sorted(self.counters.items())),
        }
