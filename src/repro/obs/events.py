"""The structured telemetry event bus.

Every lifecycle action the control plane takes — filing a spot
request, a fulfillment, the two-minute interruption warning, a
migration, a checkpoint save/restore, falling back to on-demand,
a workload finishing — is emitted as a typed, sim-timestamped
:class:`TelemetryEvent` on one :class:`EventBus` per provider.

The bus is deliberately dumb: an append-only, totally ordered record
(monotonic ``seq``, non-decreasing sim ``time``) plus synchronous
subscribers.  Everything richer — metrics, span trees, reports — is
derived from the stream, which is what makes a run inspectable after
the fact from a JSONL file alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union


class EventType(enum.Enum):
    """Taxonomy of control-plane lifecycle events.

    Values are stable wire names (``<subsystem>.<action>``) used in the
    JSONL export; renaming one is a breaking change for consumers.
    """

    WORKLOAD_SUBMITTED = "workload.submitted"
    SPOT_REQUESTED = "spot.requested"
    SPOT_FULFILLED = "spot.fulfilled"
    SPOT_REQUEST_CANCELLED = "spot.request_cancelled"
    ON_DEMAND_LAUNCHED = "ondemand.launched"
    FALLBACK_ON_DEMAND = "ondemand.fallback"
    INSTANCE_ATTACHED = "instance.attached"
    WORKLOAD_RUNNING = "workload.running"
    INTERRUPTION_WARNING = "spot.interruption_warning"
    INSTANCE_RECLAIMED = "spot.reclaimed"
    MIGRATION_STARTED = "migration.started"
    MIGRATION_COMPLETED = "migration.completed"
    CHECKPOINT_SAVED = "checkpoint.saved"
    CHECKPOINT_RESTORED = "checkpoint.restored"
    WORKLOAD_DONE = "workload.done"
    CAPACITY_DISCARDED = "capacity.discarded"
    MARKET_ANOMALY = "market.anomaly"
    DECISION_EVALUATED = "decision.evaluated"
    CHAOS_WINDOW_OPENED = "chaos.window_opened"
    CHAOS_WINDOW_CLOSED = "chaos.window_closed"
    CHAOS_FAULT_INJECTED = "chaos.fault_injected"
    RESILIENCE_RETRY = "resilience.retry"
    RESILIENCE_DEAD_LETTER = "resilience.dead_letter"
    CHECKPOINT_FALLBACK = "checkpoint.fallback"
    #: Emitted only when an artifact write needed asynchronous retries,
    #: carrying the sim-time write latency; synchronous fault-free
    #: persists stay silent so pre-existing streams are unchanged.
    CHECKPOINT_PERSISTED = "checkpoint.persisted"
    #: DAG-aware placement: a batch submitted the stages of a compiled
    #: DAG.  ``workload_id`` is empty (fleet-level); attrs carry
    #: ``dag_id``, ``stages``, and ``steps``.
    DAG_SUBMITTED = "dag.submitted"
    #: A stage's dependencies all completed and it was handed to the
    #: placement policy.  ``workload_id`` is the stage's workload id;
    #: attrs carry ``dag_id``, ``steps``, ``deps``, and ``ready_set``
    #: (how many stages were released in the same batched decision).
    DAG_STEP_RELEASED = "dag.step_released"
    #: Every stage of a DAG completed.  ``workload_id`` is empty;
    #: attrs carry ``dag_id`` and ``stages``.
    DAG_DONE = "dag.done"
    #: Multi-tenant control plane: a tenant entered the registry.
    #: ``workload_id`` is empty; attrs carry ``tenant_id``, ``weight``,
    #: ``max_in_flight``, ``max_pending``, and ``policy``.
    TENANT_REGISTERED = "tenant.registered"
    #: A queued submission cleared admission and was handed to the
    #: batched placement round.  ``workload_id`` is the admitted
    #: workload; attrs carry ``tenant_id``, ``in_flight`` (including
    #: this admission), ``quota`` (0 = unlimited), ``policy``, and
    #: ``passed_over`` (eligible tenants the fair-share round skipped).
    TENANT_ADMITTED = "tenant.admitted"
    #: Backpressure: a submission was rejected because the tenant's
    #: bounded pending queue was full.  ``workload_id`` is the rejected
    #: workload; attrs carry ``tenant_id``, ``queued``, and ``limit``.
    TENANT_THROTTLED = "tenant.throttled"


#: Wire name -> member, for decoding JSONL streams.
EVENT_TYPES_BY_VALUE: Dict[str, EventType] = {member.value: member for member in EventType}


@dataclass
class TelemetryEvent:
    """One sim-timestamped record on the bus.

    Attributes:
        seq: Bus-wide monotonic sequence number (total order, stable
            under equal timestamps).
        time: Virtual time the event was emitted.
        type: Event taxonomy member.
        workload_id: Workload the event concerns ("" for fleet-level).
        region: Region involved, when meaningful.
        instance_id: Instance involved, when meaningful.
        request_id: Spot request involved, when meaningful.
        option: Purchasing option ("spot" / "on-demand"), when meaningful.
        attrs: Free-form extra attributes (latency, bytes, phase, ...).
    """

    seq: int
    time: float
    type: EventType
    workload_id: str = ""
    region: str = ""
    instance_id: str = ""
    request_id: str = ""
    option: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation (used by the JSONL export)."""
        record: Dict[str, Any] = {
            "seq": self.seq,
            "time": self.time,
            "type": self.type.value,
        }
        for name in ("workload_id", "region", "instance_id", "request_id", "option"):
            value = getattr(self, name)
            if value:
                record[name] = value
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "TelemetryEvent":
        """Rebuild an event from its :meth:`to_dict` form."""
        return cls(
            seq=int(record["seq"]),
            time=float(record["time"]),
            type=EVENT_TYPES_BY_VALUE[record["type"]],
            workload_id=record.get("workload_id", ""),
            region=record.get("region", ""),
            instance_id=record.get("instance_id", ""),
            request_id=record.get("request_id", ""),
            option=record.get("option", ""),
            attrs=dict(record.get("attrs", {})),
        )


#: Synchronous subscriber signature.
Subscriber = Callable[[TelemetryEvent], None]


class EventBus:
    """Append-only, totally ordered telemetry stream with subscribers.

    Args:
        clock: Zero-argument callable returning the current sim time.
            The provider attaches its engine clock; standalone buses
            (unit tests, replay) default to a frozen zero clock.

    Ordering guarantees:

    * ``seq`` is strictly increasing in emission order;
    * ``time`` is non-decreasing (the sim clock never runs backwards),
      so interleaved interruptions across workloads keep their causal
      order in the stream.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        self._events: List[TelemetryEvent] = []
        self._subscribers: List[tuple] = []  # (callback, frozenset[EventType] | None)
        self._seq = 0

    def attach_clock(self, clock: Callable[[], float]) -> None:
        """Bind the sim clock used to stamp subsequent events."""
        self._clock = clock

    def now(self) -> float:
        """Current value of the bus clock (what the next event gets)."""
        return self._clock()

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(
        self,
        type: EventType,
        workload_id: str = "",
        region: str = "",
        instance_id: str = "",
        request_id: str = "",
        option: str = "",
        **attrs: Any,
    ) -> TelemetryEvent:
        """Stamp and append one event; fan out to subscribers."""
        event = TelemetryEvent(
            seq=self._seq,
            time=self._clock(),
            type=type,
            workload_id=workload_id,
            region=region,
            instance_id=instance_id,
            request_id=request_id,
            option=option,
            attrs=attrs,
        )
        self._seq += 1
        self._events.append(event)
        for callback, wanted in list(self._subscribers):
            if wanted is None or type in wanted:
                callback(event)
        return event

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------
    def subscribe(
        self,
        callback: Subscriber,
        types: Optional[Iterable[EventType]] = None,
    ) -> Callable[[], None]:
        """Register *callback* (optionally filtered); returns an unsubscriber."""
        entry = (callback, frozenset(types) if types is not None else None)
        self._subscribers.append(entry)

        def unsubscribe() -> None:
            if entry in self._subscribers:
                self._subscribers.remove(entry)

        return unsubscribe

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def events(
        self,
        types: Union[EventType, Sequence[EventType], None] = None,
        workload_id: Optional[str] = None,
        since_seq: int = 0,
    ) -> List[TelemetryEvent]:
        """Filtered view of the stream, in emission order."""
        if isinstance(types, EventType):
            wanted: Optional[frozenset] = frozenset((types,))
        elif types is not None:
            wanted = frozenset(types)
        else:
            wanted = None
        return [
            event
            for event in self._events
            if event.seq >= since_seq
            and (wanted is None or event.type in wanted)
            and (workload_id is None or event.workload_id == workload_id)
        ]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def clear(self) -> None:
        """Drop recorded events (``seq`` keeps counting; order survives)."""
        self._events.clear()
