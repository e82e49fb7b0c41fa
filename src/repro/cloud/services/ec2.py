"""Simulated EC2: instances, spot requests, and interruptions.

The service owns the full spot lifecycle the paper's Controller reacts
to:

* **Spot requests** are fulfilled with a probability and delay driven
  by the market's Spot Placement Score — low-score markets leave
  requests ``open``, which is exactly the condition SpotVerse's
  15-minute sweep (Section 4) exists to handle.
* **Interruptions** are sampled per running instance every
  :data:`~repro.cloud.interruptions.EVALUATION_INTERVAL` from the
  market's current hazard.  An interruption first emits a two-minute
  warning on the EventBridge bus (``aws.ec2`` /
  ``EC2 Spot Instance Interruption Warning``), then terminates the
  instance — giving workloads the checkpoint window the paper relies
  on.
* **Billing** accrues per-second at the market's current spot price
  (or the fixed on-demand price) into the provider's ledger.  Billing
  state of live instances is columnar (:class:`_LiveTable`), so each
  hazard tick bills and samples every instance in one array pass.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.billing import CostCategory
from repro.cloud.interruptions import (
    EVALUATION_INTERVAL,
    INTERRUPTION_NOTICE,
    interruption_probability,
)
from repro.errors import (
    CapacityError,
    InstanceNotFoundError,
    RequestLimitExceededError,
    SpotRequestError,
)
from repro.obs import EventType
from repro.sim.clock import HOUR

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cloud.market import SpotMarket
    from repro.cloud.provider import CloudProvider
    from repro.obs.metrics import BoundCounter


class InstanceState(enum.Enum):
    """Lifecycle state of a simulated instance."""

    PENDING = "pending"
    RUNNING = "running"
    INTERRUPTING = "interrupting"  # two-minute notice received
    INTERRUPTED = "interrupted"
    TERMINATED = "terminated"


class InstanceLifecycle(enum.Enum):
    """Purchasing option of an instance."""

    SPOT = "spot"
    ON_DEMAND = "on-demand"


class SpotRequestState(enum.Enum):
    """State of a spot instance request."""

    OPEN = "open"
    ACTIVE = "active"
    CANCELLED = "cancelled"
    FAILED = "failed"


@dataclass
class Instance:
    """A simulated EC2 instance.

    Attributes:
        instance_id: Unique id, e.g. ``"i-000042"``.
        region: Region name.
        az: Availability-zone name.
        instance_type: Full type name.
        lifecycle: Spot or on-demand.
        launch_time: Virtual launch timestamp.
        state: Current lifecycle state.
        tag: Attribution tag (typically a workload id) used in billing.
        end_time: Termination/interruption timestamp, if ended.

    ``accrued_cost`` (USD billed so far) reads the instance's row of the
    EC2 live table while the instance is live and is frozen when it
    ends.
    """

    instance_id: str
    region: str
    az: str
    instance_type: str
    lifecycle: InstanceLifecycle
    launch_time: float
    state: InstanceState = InstanceState.RUNNING
    tag: str = ""
    end_time: Optional[float] = None
    _detail: str = field(default="", repr=False)
    #: The live table holding this instance's billing row (None once
    #: the instance has ended), the row index, and the final accrued
    #: cost frozen at the end.
    _table: Optional["_LiveTable"] = field(default=None, repr=False)
    _row: int = field(default=-1, repr=False)
    _accrued: float = field(default=0.0, repr=False)

    @property
    def accrued_cost(self) -> float:
        """USD billed so far."""
        table = self._table
        if table is None:
            return self._accrued
        return float(table.accrued[self._row])

    @property
    def is_live(self) -> bool:
        """Whether the instance is still consuming (and billing) capacity."""
        return self.state in (InstanceState.RUNNING, InstanceState.INTERRUPTING)

    def uptime(self, now: float) -> float:
        """Seconds the instance has been up at *now* (or until it ended)."""
        end = self.end_time if self.end_time is not None else now
        return max(0.0, end - self.launch_time)


@dataclass
class SpotRequest:
    """A simulated spot instance request.

    Attributes:
        request_id: Unique id, e.g. ``"sir-000007"``.
        region: Target region.
        instance_type: Requested type.
        created_at: Virtual creation timestamp.
        state: Current request state.
        instance_id: Fulfilling instance id once active.
        attempts: Fulfillment attempts made (initial + sweeps).
        tag: Attribution tag propagated to the instance.
    """

    request_id: str
    region: str
    instance_type: str
    created_at: float
    state: SpotRequestState = SpotRequestState.OPEN
    instance_id: Optional[str] = None
    attempts: int = 0
    tag: str = ""


#: Signature of interruption-notice subscribers registered in code
#: (EventBridge delivery happens additionally, for rule-based wiring).
NoticeCallback = Callable[[Instance], None]


class _LiveTable:
    """Billing state of the live instances, one row each, in launch order.

    Columns: last-billed time, accrued cost, spot flag, market slot
    (-1 for on-demand), on-demand price, interrupting flag,
    ``cost_accrued_usd`` counter slot, ledger source id and a live
    flag; ``rows`` maps a row back to its :class:`Instance`.  A row
    stays in place after its instance ends (live flag cleared) until
    :meth:`compact` drops ended rows, which the EC2 service does only
    between sweeps, so row indices are stable while a sweep runs.
    """

    #: The numpy columns, resized and compacted together.
    COLUMNS = (
        "billed", "accrued", "spot", "market", "od_price", "interrupting", "counter",
        "source", "alive",
    )

    def __init__(self, capacity: int = 64) -> None:
        self.rows: List[Optional[Instance]] = []
        self.n = 0
        self.ended = 0
        self.billed = np.zeros(capacity)
        self.accrued = np.zeros(capacity)
        self.spot = np.zeros(capacity, dtype=bool)
        self.market = np.zeros(capacity, dtype=np.intp)
        self.od_price = np.zeros(capacity)
        self.interrupting = np.zeros(capacity, dtype=bool)
        self.counter = np.zeros(capacity, dtype=np.intp)
        self.source = np.zeros(capacity, dtype=np.intp)
        self.alive = np.zeros(capacity, dtype=bool)

    def append(
        self,
        instance: Instance,
        now: float,
        market: int,
        od_price: float,
        counter: int,
        source: int,
    ) -> int:
        """Add a live row for *instance*; returns its index."""
        row = self.n
        if row == len(self.billed):
            for name in self.COLUMNS:
                column = getattr(self, name)
                setattr(self, name, np.concatenate((column, np.zeros_like(column))))
        self.billed[row] = now
        self.accrued[row] = 0.0
        self.spot[row] = market >= 0
        self.market[row] = market
        self.od_price[row] = od_price
        self.interrupting[row] = False
        self.counter[row] = counter
        self.source[row] = source
        self.alive[row] = True
        self.rows.append(instance)
        self.n = row + 1
        return row

    def end(self, row: int) -> float:
        """Mark *row* ended; returns its final accrued cost."""
        self.alive[row] = False
        self.rows[row] = None
        self.ended += 1
        return float(self.accrued[row])

    def compact(self) -> None:
        """Drop ended rows, keeping launch order, and renumber the rest."""
        keep = np.flatnonzero(self.alive[: self.n])
        count = len(keep)
        for name in self.COLUMNS:
            column = getattr(self, name)
            column[:count] = column[keep]
        self.alive[count : self.n] = False
        rows = [self.rows[index] for index in keep.tolist()]
        for row, instance in enumerate(rows):
            instance._row = row
        self.rows = rows
        self.n = count
        self.ended = 0


class EC2Service:
    """The EC2 substrate, spanning every region of the provider."""

    #: Boot delay before an on-demand instance reaches ``running``.
    ON_DEMAND_LAUNCH_DELAY = 45.0
    #: Base fulfillment delay for a spot request (seconds).
    SPOT_BASE_DELAY = 60.0
    #: Extra fulfillment delay per point of missing placement score.
    SPOT_DELAY_PER_SCORE_POINT = 25.0

    def __init__(self, provider: "CloudProvider") -> None:
        self._provider = provider
        self._engine = provider.engine
        self._telemetry = provider.telemetry
        self._rng = provider.engine.streams.get("ec2")
        self._instances: Dict[str, Instance] = {}
        # Billing rows of the live instances, in launch order (the
        # order the hazard sweep bills and draws in).
        self._table = _LiveTable()
        # Spot markets with launched instances; a row's market slot
        # indexes this list.
        self._markets: List["SpotMarket"] = []
        self._market_slots: Dict[Tuple[str, str], int] = {}
        # cost_accrued_usd handles, one per (region, purchasing option);
        # a row's counter slot indexes ``_cost_counter_list``.
        self._cost_counters: Dict[Tuple[str, str], int] = {}
        self._cost_counter_list: List["BoundCounter"] = []
        self._requests: Dict[str, SpotRequest] = {}
        self._instance_counter = itertools.count()
        self._request_counter = itertools.count()
        self._notice_callbacks: List[NoticeCallback] = []
        self._completion_events: Dict[str, object] = {}
        self.interruption_log: List[Tuple[float, str, str, str]] = []
        self._eval_task = self._engine.every(
            EVALUATION_INTERVAL, self._evaluate_interruptions, label="ec2:interruption-eval"
        )

    # ------------------------------------------------------------------
    # Launch paths
    # ------------------------------------------------------------------
    def run_on_demand(self, region: str, instance_type: str, tag: str = "") -> Instance:
        """Launch an on-demand instance immediately.

        On-demand capacity is modelled as always available (the paper's
        on-demand strategy never fails to launch).
        """
        self._provider.regions.get(region)
        self._provider.instances.get(instance_type)
        instance = self._launch(region, instance_type, InstanceLifecycle.ON_DEMAND, tag)
        self._telemetry.bus.emit(
            EventType.ON_DEMAND_LAUNCHED,
            workload_id=tag,
            region=region,
            instance_id=instance.instance_id,
            option=InstanceLifecycle.ON_DEMAND.value,
        )
        return instance

    def request_spot_instances(
        self,
        region: str,
        instance_type: str,
        tag: str = "",
        on_fulfilled: Optional[Callable[[SpotRequest, Instance], None]] = None,
    ) -> SpotRequest:
        """File a spot request; fulfillment is asynchronous.

        The request succeeds on each attempt with probability driven by
        the market's current placement score; otherwise it remains
        ``open`` for a later :meth:`retry_open_request` (the 15-minute
        sweep).  *on_fulfilled* fires when (if) an instance launches.
        """
        market = self._provider.market(region, instance_type)
        if not market.available:
            raise CapacityError(
                f"instance type {instance_type!r} is not offered in region {region!r}"
            )
        chaos = self._provider.chaos
        if chaos is not None and chaos.ec2_request_fault(region):
            raise RequestLimitExceededError(
                f"RequestSpotInstances rejected in {region!r} (injected API error)"
            )
        request = SpotRequest(
            request_id=f"sir-{next(self._request_counter):06d}",
            region=region,
            instance_type=instance_type,
            created_at=self._engine.now,
            tag=tag,
        )
        self._requests[request.request_id] = request
        self._telemetry.bus.emit(
            EventType.SPOT_REQUESTED,
            workload_id=tag,
            region=region,
            request_id=request.request_id,
            option=InstanceLifecycle.SPOT.value,
        )
        self._telemetry.metrics.counter(
            "spot_requests_total", "spot requests filed"
        ).inc(region=region)
        self._attempt_fulfillment(request, on_fulfilled)
        return request

    def retry_open_request(
        self,
        request_id: str,
        on_fulfilled: Optional[Callable[[SpotRequest, Instance], None]] = None,
    ) -> SpotRequest:
        """Retry an ``open`` request (the Controller's sweep path)."""
        request = self._requests.get(request_id)
        if request is None:
            raise SpotRequestError(f"unknown spot request {request_id!r}")
        if request.state is not SpotRequestState.OPEN:
            raise SpotRequestError(
                f"spot request {request_id!r} is {request.state.value}, not open"
            )
        self._attempt_fulfillment(request, on_fulfilled)
        return request

    def cancel_spot_request(self, request_id: str) -> None:
        """Cancel an open request; active requests are unaffected."""
        request = self._requests.get(request_id)
        if request is None:
            raise SpotRequestError(f"unknown spot request {request_id!r}")
        if request.state is SpotRequestState.OPEN:
            request.state = SpotRequestState.CANCELLED
            self._telemetry.bus.emit(
                EventType.SPOT_REQUEST_CANCELLED,
                workload_id=request.tag,
                region=request.region,
                request_id=request.request_id,
            )

    def _attempt_fulfillment(
        self,
        request: SpotRequest,
        on_fulfilled: Optional[Callable[[SpotRequest, Instance], None]],
    ) -> None:
        """One fulfillment attempt: maybe schedule a launch."""
        market = self._provider.market(request.region, request.instance_type)
        request.attempts += 1
        chaos = self._provider.chaos
        if chaos is not None and chaos.region_blacked_out(request.region):
            # Region blackout: no spot capacity at all.  The request
            # stays OPEN and the controller's sweep retries it after
            # the window closes.
            return
        score = market.placement_score
        # Placement score drives launch success: score 10 ~ certain,
        # score 1 ~ coin flip.  Matches AWS guidance that higher scores
        # mean a higher likelihood the request succeeds.
        p_fulfill = min(0.98, 0.45 + 0.055 * score)
        p_fulfill *= market.fulfillment_factor()
        if market.in_reclaim_burst(self._engine.now):
            # Capacity is being reclaimed right now: almost no spare
            # capacity to fulfill new requests.  Requests stay open and
            # the controller's sweep retries after the burst passes.
            p_fulfill *= 0.15
        if self._rng.random() >= p_fulfill:
            return  # stays OPEN; the sweep will retry
        delay = self.SPOT_BASE_DELAY + float(
            self._rng.exponential(self.SPOT_DELAY_PER_SCORE_POINT * max(0.0, 10.0 - score))
        )

        def fulfill() -> None:
            if request.state is not SpotRequestState.OPEN:
                return
            fulfill_chaos = self._provider.chaos
            if fulfill_chaos is not None and fulfill_chaos.region_blacked_out(request.region):
                return  # blackout opened while the launch was in flight
            instance = self._launch(
                request.region, request.instance_type, InstanceLifecycle.SPOT, request.tag
            )
            request.state = SpotRequestState.ACTIVE
            request.instance_id = instance.instance_id
            latency = self._engine.now - request.created_at
            self._telemetry.bus.emit(
                EventType.SPOT_FULFILLED,
                workload_id=request.tag,
                region=request.region,
                instance_id=instance.instance_id,
                request_id=request.request_id,
                option=InstanceLifecycle.SPOT.value,
                latency=latency,
                attempts=request.attempts,
            )
            self._telemetry.metrics.histogram(
                "spot_fulfillment_latency_seconds", "request-to-launch latency"
            ).observe(latency, region=request.region)
            if on_fulfilled is not None:
                on_fulfilled(request, instance)

        self._engine.call_in(delay, fulfill, label=f"ec2:fulfill:{request.request_id}")

    def _launch(
        self, region: str, instance_type: str, lifecycle: InstanceLifecycle, tag: str
    ) -> Instance:
        region_obj = self._provider.regions.get(region)
        az_index = int(self._rng.integers(len(region_obj.zones)))
        now = self._engine.now
        instance = Instance(
            instance_id=f"i-{next(self._instance_counter):06d}",
            region=region,
            az=region_obj.zones[az_index].name,
            instance_type=instance_type,
            lifecycle=lifecycle,
            launch_time=now,
            tag=tag,
        )
        instance._detail = detail = f"{instance_type} {instance.instance_id}"
        self._instances[instance.instance_id] = instance
        if lifecycle is InstanceLifecycle.SPOT:
            market = self._provider.market(region, instance_type)
            market.instances_running += 1
            market_slot = self._market_slots.get((region, instance_type))
            if market_slot is None:
                market_slot = self._market_slots[(region, instance_type)] = len(self._markets)
                self._markets.append(market)
            od_price = 0.0
            category = CostCategory.SPOT_INSTANCE
        else:
            market_slot = -1
            od_price = self._provider.price_book.od_price(region, instance_type)
            category = CostCategory.ON_DEMAND_INSTANCE
        counter_key = (region, lifecycle.value)
        counter_slot = self._cost_counters.get(counter_key)
        if counter_slot is None:
            counter_slot = self._cost_counters[counter_key] = len(self._cost_counter_list)
            self._cost_counter_list.append(
                self._telemetry.metrics.counter(
                    "cost_accrued_usd", "instance spend by region and purchasing option"
                ).bound(region=region, purchasing_option=lifecycle.value)
            )
        source = self._provider.ledger.register_source(category, region, tag, detail)
        instance._table = self._table
        instance._row = self._table.append(
            instance, now, market_slot, od_price, counter_slot, source
        )
        return instance

    def _release_capacity(self, instance: Instance) -> None:
        """Return a spot instance's slot to its market pool."""
        if instance.lifecycle is InstanceLifecycle.SPOT:
            market = self._provider.market(instance.region, instance.instance_type)
            market.instances_running = max(0, market.instances_running - 1)

    # ------------------------------------------------------------------
    # Interruption machinery
    # ------------------------------------------------------------------
    def on_interruption_notice(self, callback: NoticeCallback) -> None:
        """Subscribe to two-minute interruption warnings (code path)."""
        self._notice_callbacks.append(callback)

    def _evaluate_interruptions(self) -> None:
        """Periodic hazard tick: bill every live instance, sample every running spot one.

        One array pass over the live table.  Each live row is billed
        ``price * dt / HOUR`` since its last mark (the market's current
        spot price, or the on-demand price); each running spot row
        whose market has a positive interruption probability gets one
        Bernoulli draw, all from a single ``rng.random(k)``, which
        consumes the "ec2" stream exactly as *k* scalar draws.

        A hit interrupts synchronously, and notice and bus subscribers
        may terminate or launch instances before the next row is
        reached.  So the pass runs in segments: on the first hit the
        stream is rewound and redrawn up to the hit, bills are
        committed up to and including the hit row, the interruption
        begins, and the next segment recomputes prices, probabilities
        and draws from the row after it.  A market's probability is
        memoised for the tick once a committed row has used it —
        ``hazard_at`` reads ``instances_running``, which callbacks can
        change.  Rows launched during the tick are neither billed nor
        sampled until the next one.  Every ledger entry, total, accrued
        cost, counter value and RNG draw equals what one scalar
        bill-then-draw step per instance, in launch order, produces.
        """
        table = self._table
        if table.ended * 2 > table.n:
            table.compact()
        end = table.n
        now = self._engine.now
        rng = self._rng
        memo: Dict[int, float] = {}
        start = 0
        while start < end:
            amounts, bills = self._window(now, start, end)
            candidates = start + np.flatnonzero(
                table.alive[start:end] & table.spot[start:end] & ~table.interrupting[start:end]
            )
            markets = table.market[candidates]
            probabilities = self._probabilities(now, markets, memo)
            p = probabilities[markets]
            drawn = p > 0.0
            draw_rows = candidates[drawn]
            hit = -1
            if draw_rows.size:
                state = rng.bit_generator.state
                hits = np.flatnonzero(rng.random(draw_rows.size) < p[drawn])
                if hits.size:
                    first = int(hits[0])
                    rng.bit_generator.state = state
                    rng.random(first + 1)
                    hit = int(draw_rows[first])
            stop = end if hit < 0 else hit + 1
            billed = np.flatnonzero(bills[: stop - start])
            self._commit(now, start + billed, amounts[billed])
            if hit < 0:
                return
            met = np.bincount(markets[candidates < stop], minlength=len(self._markets))
            for market in np.flatnonzero(met).tolist():
                memo.setdefault(market, float(probabilities[market]))
            self._begin_interruption(table.rows[hit])
            start = stop

    def _probabilities(
        self, now: float, markets: np.ndarray, memo: Dict[int, float]
    ) -> np.ndarray:
        """Interruption probability per market slot, for the slots in *markets*."""
        probabilities = np.zeros(len(self._markets))
        present = np.bincount(markets, minlength=len(self._markets))
        for slot in np.flatnonzero(present).tolist():
            probability = memo.get(slot)
            if probability is None:
                probability = interruption_probability(
                    self._markets[slot].hazard_at(now), EVALUATION_INTERVAL
                )
            probabilities[slot] = probability
        return probabilities

    def _begin_interruption(self, instance: Instance) -> None:
        """Deliver the two-minute warning and schedule the reclaim."""
        now = self._engine.now
        instance.state = InstanceState.INTERRUPTING
        self._table.interrupting[instance._row] = True
        self.interruption_log.append((now, instance.instance_id, instance.region, instance.tag))
        self._telemetry.bus.emit(
            EventType.INTERRUPTION_WARNING,
            workload_id=instance.tag,
            region=instance.region,
            instance_id=instance.instance_id,
            option=instance.lifecycle.value,
            uptime=instance.uptime(now),
        )
        self._telemetry.metrics.counter(
            "interruptions_total", "two-minute interruption warnings"
        ).inc(region=instance.region)
        tracer = self._telemetry.tracer
        warn_ctx = None
        if tracer is not None:
            parent = tracer.peek(("instance", instance.instance_id))
            warn_ctx = tracer.event(
                "ec2:interruption-warning",
                "interruption",
                trace_id=instance.tag or None,
                parent=parent,
                region=instance.region,
                instance_id=instance.instance_id,
            )
        self._provider.eventbridge.put_event(
            source="aws.ec2",
            detail_type="EC2 Spot Instance Interruption Warning",
            detail={
                "instance-id": instance.instance_id,
                "instance-action": "terminate",
                "region": instance.region,
                "instance-type": instance.instance_type,
                "tag": instance.tag,
            },
            trace=warn_ctx,
        )
        for callback in list(self._notice_callbacks):
            callback(instance)
        self._engine.call_in(
            INTERRUPTION_NOTICE,
            lambda: self._finalize_interruption(instance),
            label=f"ec2:reclaim:{instance.instance_id}",
        )

    def force_interruptions(
        self,
        regions: Optional[Sequence[str]] = None,
        fraction: float = 1.0,
        rng=None,
    ) -> int:
        """Interrupt running spot instances on demand (chaos primitives).

        Region blackouts pass ``fraction=1.0`` with one region; reclaim
        storms pass a probability and their own RNG stream.  Instances
        already inside a notice window are skipped.  Iteration follows
        launch order, which is deterministic for a given seed.

        Returns:
            The number of instances that received a warning.

        Raises:
            ValueError: If *fraction* is below 1.0 without an *rng* to
                draw with.
        """
        if fraction < 1.0 and rng is None:
            raise ValueError(f"fraction={fraction!r} needs an rng to sample instances with")
        wanted = set(regions) if regions is not None else None
        table = self._table
        live_spot = np.flatnonzero(table.alive[: table.n] & table.spot[: table.n])
        count = 0
        for instance in [table.rows[row] for row in live_spot.tolist()]:
            if instance.state is not InstanceState.RUNNING:
                continue  # ended or warned by an earlier notice's callbacks
            if wanted is not None and instance.region not in wanted:
                continue
            if fraction < 1.0 and float(rng.random()) >= fraction:
                continue
            self._begin_interruption(instance)
            count += 1
        return count

    def _finalize_interruption(self, instance: Instance) -> None:
        if instance.state is not InstanceState.INTERRUPTING:
            return  # terminated during the notice window
        now = self._engine.now
        self._bill(instance, now)
        instance.state = InstanceState.INTERRUPTED
        instance.end_time = now
        self._end(instance)
        tracer = self._telemetry.tracer
        if tracer is not None:
            attach_ctx = tracer.take(("instance", instance.instance_id))
            if attach_ctx is not None:
                tracer.event(
                    "ec2:reclaim",
                    "interruption",
                    parent=attach_ctx,
                    region=instance.region,
                    instance_id=instance.instance_id,
                )
        self._telemetry.bus.emit(
            EventType.INSTANCE_RECLAIMED,
            workload_id=instance.tag,
            region=instance.region,
            instance_id=instance.instance_id,
        )

    # ------------------------------------------------------------------
    # Termination and billing
    # ------------------------------------------------------------------
    def terminate_instances(self, instance_ids: Sequence[str]) -> None:
        """Terminate instances by id (idempotent for already-ended ones)."""
        now = self._engine.now
        for instance_id in instance_ids:
            instance = self._instances.get(instance_id)
            if instance is None:
                raise InstanceNotFoundError(f"unknown instance {instance_id!r}")
            if not instance.is_live:
                continue
            self._bill(instance, now)
            instance.state = InstanceState.TERMINATED
            instance.end_time = now
            self._end(instance)

    def _end(self, instance: Instance) -> None:
        """Retire an ended instance's row and return its capacity."""
        instance._accrued = self._table.end(instance._row)
        instance._table = None
        instance._row = -1
        self._release_capacity(instance)

    def _bill(self, instance: Instance, now: float) -> None:
        """Accrue one instance's cost since its last billing mark."""
        table = self._table
        row = instance._row
        dt = now - float(table.billed[row])
        if dt <= 0:
            return
        if instance.lifecycle is InstanceLifecycle.SPOT:
            price = self._markets[int(table.market[row])].spot_price
            category = CostCategory.SPOT_INSTANCE
        else:
            price = float(table.od_price[row])
            category = CostCategory.ON_DEMAND_INSTANCE
        amount = price * dt / HOUR
        table.accrued[row] += amount
        table.billed[row] = now
        self._cost_counter_list[int(table.counter[row])].inc(amount)
        self._provider.ledger.charge(
            time=now,
            category=category,
            amount=amount,
            region=instance.region,
            tag=instance.tag,
            detail=instance._detail,
        )

    def _window(self, now: float, start: int, end: int) -> Tuple[np.ndarray, np.ndarray]:
        """Window amounts of rows ``[start, end)`` and the mask of rows that bill.

        ``price * dt / HOUR`` elementwise is the scalar formula's IEEE
        operation order, so each amount is bit-identical to it.
        """
        table = self._table
        dt = now - table.billed[start:end]
        bills = table.alive[start:end] & (dt > 0)
        # Slot -1 (on-demand rows) reads the trailing 0.0; np.where
        # takes their on-demand price instead.
        prices = np.array([market.spot_price for market in self._markets] + [0.0])
        price = np.where(
            table.spot[start:end], prices[table.market[start:end]], table.od_price[start:end]
        )
        return price * dt / HOUR, bills

    def _commit(self, now: float, rows: np.ndarray, amounts: np.ndarray) -> None:
        """Bill table *rows* their window *amounts* at *now*, in row order."""
        if not rows.size:
            return
        table = self._table
        table.accrued[rows] += amounts
        table.billed[rows] = now
        # Fold each cost_accrued_usd series left to right from its
        # current value; series new to the registry are inserted in the
        # order their first row appears, as one-by-one increments would.
        slots = table.counter[rows]
        counters = self._cost_counter_list
        totals = np.array([counter.value() for counter in counters])
        np.add.at(totals, slots, amounts)
        first = np.full(len(counters), len(slots))
        np.minimum.at(first, slots, np.arange(len(slots)))
        touched = np.flatnonzero(first < len(slots))
        touched = touched[np.argsort(first[touched], kind="stable")]
        for slot, total in zip(touched.tolist(), totals[touched].tolist()):
            counters[slot].advance_to(total)
        self._provider.ledger.charge_window(now, table.source[rows], amounts)

    def settle_billing(self) -> None:
        """Bill every live instance up to the current time."""
        now = self._engine.now
        end = self._table.n
        amounts, bills = self._window(now, 0, end)
        billed = np.flatnonzero(bills)
        self._commit(now, billed, amounts[billed])

    # ------------------------------------------------------------------
    # Describe APIs
    # ------------------------------------------------------------------
    def describe_instance(self, instance_id: str) -> Instance:
        """Return the instance record for *instance_id*."""
        instance = self._instances.get(instance_id)
        if instance is None:
            raise InstanceNotFoundError(f"unknown instance {instance_id!r}")
        return instance

    def describe_instances(
        self,
        region: Optional[str] = None,
        states: Optional[Sequence[InstanceState]] = None,
    ) -> List[Instance]:
        """Return instances filtered by region and/or state."""
        result = []
        for instance in self._instances.values():
            if region is not None and instance.region != region:
                continue
            if states is not None and instance.state not in states:
                continue
            result.append(instance)
        return result

    def describe_spot_requests(
        self, states: Optional[Sequence[SpotRequestState]] = None
    ) -> List[SpotRequest]:
        """Return spot requests, optionally filtered by state."""
        if states is None:
            return list(self._requests.values())
        return [request for request in self._requests.values() if request.state in states]

    def describe_spot_price_history(
        self, region: str, instance_type: str
    ) -> Sequence[Tuple[float, float]]:
        """Return the market's recorded ``(time, price)`` series."""
        return self._provider.market(region, instance_type).price_trace()

    def interruption_count(self, tag_prefix: str = "") -> int:
        """Count logged interruptions, optionally filtered by tag prefix."""
        if not tag_prefix:
            return len(self.interruption_log)
        return sum(1 for _, _, _, tag in self.interruption_log if tag.startswith(tag_prefix))

    def shutdown(self) -> None:
        """Stop the periodic hazard evaluation (end of experiment)."""
        self._eval_task.cancel()
