"""Durable fleet state in the simulated DynamoDB.

The paper's Section 4 control plane keeps *all* durable state in
DynamoDB: the serverless components (Lambdas, the Step Functions
re-acquire machine) are stateless and can die or redeploy at any time.
:class:`FleetStateStore` reproduces that property for the fleet
controller — workload progress, instance bindings, and open spot
requests live in DynamoDB tables rather than in-process dicts, so a
controller can be torn down mid-run and a fresh one rebuilt from the
store alone (see ``LifecycleService.restore``).

The store's tables are *unmetered* (see
:class:`~repro.cloud.services.dynamodb.Table`): the paper bills its
checkpoint/metrics tables, which stay metered, but the state mirror's
request volume is a reproduction artifact and must not perturb the
cost model the evaluation compares.

:class:`ControlPlaneRouter` is the non-durable half: the stand-in for
the *deployed* serverless endpoints.  Cloud-side wiring (EventBridge
targets, the CloudWatch sweep rule, EC2 fulfillment callbacks) holds a
reference to the router's stable methods, and the router forwards to
whichever service instances are currently bound — exactly how a real
Lambda survives a control-plane redeploy: the endpoint is stable, the
code behind it is replaced.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, MutableMapping, Optional, Set, Tuple

from repro.cloud.retry import RetryPolicy, call_with_retries, note_dead_letter, note_retry
from repro.errors import ExperimentError, ThrottlingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.cloud.services.dynamodb import DynamoDBService
    from repro.cloud.services.ec2 import Instance, SpotRequest
    from repro.core.execution import WorkloadExecution

#: Synchronous retry schedule for store reads/writes against an injected
#: DynamoDB throttle.  The retries happen inside the calling event (no
#: simulated time passes), so only ``max_attempts`` matters here.
STORE_RETRY_POLICY = RetryPolicy(max_attempts=5, interval=0.0, backoff_rate=1.0)

#: Tenant every workload belongs to unless the tenancy layer says
#: otherwise — single-tenant runs never mention tenants at all.
DEFAULT_TENANT = "default"


def shard_index(tenant_id: str, workload_id: str, n_shards: int) -> int:
    """Stable shard of one workload: ``hash(tenant_id, workload_id) % n``.

    Uses CRC-32 rather than Python's builtin ``hash`` so the partition
    map survives process restarts and ``PYTHONHASHSEED`` — the same
    (tenant, workload) pair must land on the same shard in a resumed
    controller or a replayed run.
    """
    if n_shards <= 1:
        return 0
    return zlib.crc32(f"{tenant_id}/{workload_id}".encode("utf-8")) % n_shards


class _MetaMapping(MutableMapping):
    """Dict-like view over one partition of the store's meta table.

    Lets components (e.g. the EFS checkpoint backend's per-region file
    system registry) keep small key-value state durably without knowing
    about DynamoDB.
    """

    def __init__(self, store: "FleetStateStore", section: str) -> None:
        self._store = store
        self._section = section

    def __getitem__(self, key: str) -> Any:
        store = self._store
        pending = store._pending[store.meta_table]
        pending_key = (self._section, key)
        if pending_key in pending:
            staged = pending[pending_key]
            if staged is None:
                raise KeyError(key)
            return staged["value"]
        item = store._read(
            f"fleet-state:meta:{self._section}",
            store._dynamodb.get_item, store.meta_table, self._section, key,
        )
        if item is None:
            raise KeyError(key)
        return item["value"]

    def __setitem__(self, key: str, value: Any) -> None:
        self._store._stage_put(
            self._store.meta_table,
            (self._section, key),
            {"section": self._section, "key": key, "value": value},
            scope=f"fleet-state:meta:{self._section}",
        )

    def __delitem__(self, key: str) -> None:
        self.__getitem__(key)  # raise KeyError when absent
        self._store._stage_delete(
            self._store.meta_table,
            (self._section, key),
            scope=f"fleet-state:meta:{self._section}",
        )

    def __iter__(self) -> Iterator[str]:
        store = self._store
        rows = store._read(
            f"fleet-state:meta:{self._section}",
            store._dynamodb.query, store.meta_table, self._section,
        )
        keys = {row["key"] for row in rows}
        for (section, key), staged in store._pending[store.meta_table].items():
            if section != self._section:
                continue
            if staged is None:
                keys.discard(key)
            else:
                keys.add(key)
        # The flushed path reads through ``query``, which returns rows
        # sorted by sort key; sorting the merged set keeps iteration
        # order independent of flush timing.
        return iter(sorted(keys))

    def __len__(self) -> int:
        return len(list(iter(self)))


class FleetStateStore:
    """Workload / instance / request state, durably in DynamoDB.

    Args:
        dynamodb: The simulated DynamoDB service to keep state in.
        namespace: Table-name namespace; controllers default to a fresh
            one minted by the DynamoDB service (``ctl000``, ``ctl001``,
            ... *per provider*, so two runs on fresh providers — e.g. a
            plain run and its instrumented chaos twin — mint identical
            namespaces and stay bit-identical).  Pass the same store
            object to a new controller to rebuild from it.
        n_shards: Partition count for the workload / instance / request
            tables.  The default of 1 is byte-identical to the
            unsharded store (same table names, same flush batches, same
            scan orders).  With more shards, items partition by
            :func:`shard_index` over ``(tenant_id, workload_id)`` —
            the tenancy layer assigns tenants via
            :meth:`assign_tenant` before registration, everything else
            defaults to :data:`DEFAULT_TENANT` — so per-shard scans,
            flush batches, and :meth:`state_counts` stay O(shard)
            instead of O(fleet).  The meta / tenants tables are
            control-plane-small and stay unsharded.
    """

    def __init__(
        self,
        dynamodb: "DynamoDBService",
        namespace: Optional[str] = None,
        n_shards: int = 1,
    ) -> None:
        if int(n_shards) < 1:
            raise ExperimentError(f"n_shards must be >= 1, got {n_shards}")
        self._dynamodb = dynamodb
        self._provider = dynamodb.provider
        self.n_shards = int(n_shards)
        self.namespace = (
            namespace if namespace is not None else dynamodb.next_store_namespace()
        )
        prefix = f"spotverse-fleet-{self.namespace}"
        self._prefix = prefix
        self.workloads_table = f"{prefix}-workloads"
        self.instances_table = f"{prefix}-instances"
        self.requests_table = f"{prefix}-requests"
        self.meta_table = f"{prefix}-meta"
        self.tenants_table = f"{prefix}-tenants"

        def shard_names(base: str) -> List[str]:
            # Shard 0 keeps the historical unsuffixed name so a
            # 1-shard store is indistinguishable from pre-shard builds.
            return [base] + [f"{base}-s{i:02d}" for i in range(1, self.n_shards)]

        self._workload_shards = shard_names(self.workloads_table)
        self._instance_shards = shard_names(self.instances_table)
        self._request_shards = shard_names(self.requests_table)
        for table in self._workload_shards:
            dynamodb.create_table(table, partition_key="workload_id", metered=False)
        for table in self._instance_shards:
            dynamodb.create_table(table, partition_key="instance_id", metered=False)
        for table in self._request_shards:
            dynamodb.create_table(table, partition_key="request_id", metered=False)
        dynamodb.create_table(
            self.meta_table, partition_key="section", sort_key="key", metered=False
        )
        dynamodb.create_table(self.tenants_table, partition_key="tenant_id", metered=False)
        # Write-through overlay: mutations stage here (keyed by the
        # table's ``(partition, sort)`` tuple; ``None`` is a tombstone)
        # and land in DynamoDB as one ``batch_write_item`` per table at
        # the next engine tick boundary.  Reads consult the overlay
        # first, so staged state is always visible.
        self._pending: Dict[str, Dict[Tuple[Any, Any], Optional[Dict[str, Any]]]] = {}
        flush_tables: List[Tuple[str, str]] = []
        for group in (self._workload_shards, self._instance_shards, self._request_shards):
            for table in group:
                flush_tables.append((table, table[len(prefix) + 1:]))
        flush_tables.append((self.meta_table, "meta"))
        flush_tables.append((self.tenants_table, "tenants"))
        self._flush_tables = tuple(flush_tables)
        for table, _ in self._flush_tables:
            self._pending[table] = {}
        # Tables staged since the last flush; ``flush`` visits only
        # these, in ``_flush_tables`` order (rank).
        self._dirty: Set[str] = set()
        self._flush_rank = {
            table: (rank, f"fleet-state:flush:{label}")
            for rank, (table, label) in enumerate(self._flush_tables)
        }
        # Shard routing state.  Both maps are in-process conveniences
        # over durable data: tenants are re-assigned on resume (the
        # tenancy layer persists its map in the meta table) and items
        # whose routing is unknown here — an unassigned workload id, an
        # instance/request bound by an earlier process — fall back to
        # an all-shard probe, so a rebuilt controller over the same
        # store object — the crash-recovery contract — never loses an
        # item.  ``_workload_shard`` memoises :meth:`shard_of`.
        self._tenant_of: Dict[str, str] = {}
        self._workload_shard: Dict[str, int] = {}
        self._entity_shard: Dict[str, int] = {}
        dynamodb.provider.engine.add_tick_hook(self.flush)
        self.router = ControlPlaneRouter()

    # ------------------------------------------------------------------
    # Shard routing
    # ------------------------------------------------------------------
    def assign_tenant(self, workload_id: str, tenant_id: str) -> None:
        """Pin *workload_id*'s shard to *tenant_id* (before registration)."""
        self._tenant_of[workload_id] = tenant_id
        self._workload_shard.pop(workload_id, None)

    def tenant_of(self, workload_id: str) -> str:
        """Tenant a workload was admitted for (:data:`DEFAULT_TENANT` if none)."""
        return self._tenant_of.get(workload_id, DEFAULT_TENANT)

    def shard_of(self, workload_id: str) -> int:
        """The shard *workload_id*'s items live on."""
        if self.n_shards == 1:
            return 0
        shard = self._workload_shard.get(workload_id)
        if shard is None:
            shard = shard_index(self.tenant_of(workload_id), workload_id, self.n_shards)
            self._workload_shard[workload_id] = shard
        return shard

    # ------------------------------------------------------------------
    # Resilient store access
    # ------------------------------------------------------------------
    # Store traffic is the control plane's most frequent DynamoDB use,
    # so it is the first casualty of an injected throttle window.  Both
    # helpers retry in place (no simulated time passes inside an event);
    # a write exhausted past ``STORE_RETRY_POLICY.max_attempts`` is
    # dropped with a dead letter — the mirror self-heals on the next
    # ``_sync`` — while an exhausted read re-raises, because callers
    # cannot act on state they never saw.
    #
    # Without a chaos controller both helpers call DynamoDB directly.
    # That is exact, not an approximation: ``ThrottlingError`` is only
    # ever raised by ``DynamoDBService._chaos_gate``, which returns
    # early when no chaos controller is attached, so the retry wrapper
    # could never retry, dead-letter or emit anything.

    def _write(self, scope: str, op: Callable[..., Any], *args: Any) -> bool:
        """Apply ``op(*args)``; ``False`` when it was dead-lettered."""
        telemetry = self._provider.telemetry
        tracer = telemetry.tracer
        if tracer is not None and tracer.current is not None:
            # Store traffic off a causal chain (setup, bookkeeping
            # sweeps) stays out of every trace tree.
            tracer.event(scope, "dynamodb")
        if self._provider.chaos is None:
            op(*args)
            return True

        def apply() -> bool:
            op(*args)
            return True

        def exhausted(exc: BaseException) -> bool:
            note_dead_letter(telemetry, scope, str(exc))
            return False

        return call_with_retries(
            apply,
            STORE_RETRY_POLICY,
            retryable=ThrottlingError,
            on_retry=lambda attempt, exc: note_retry(telemetry, scope, attempt, exc),
            on_exhausted=exhausted,
        )

    def _read(self, scope: str, op: Callable[..., Any], *args: Any) -> Any:
        """Return ``op(*args)``, retried against injected throttles."""
        if self._provider.chaos is None:
            return op(*args)
        telemetry = self._provider.telemetry
        return call_with_retries(
            lambda: op(*args),
            STORE_RETRY_POLICY,
            retryable=ThrottlingError,
            on_retry=lambda attempt, exc: note_retry(telemetry, scope, attempt, exc),
        )

    # ------------------------------------------------------------------
    # Batched write-through overlay
    # ------------------------------------------------------------------
    # Every mutation stages into ``_pending`` and lands in DynamoDB at
    # the next engine tick boundary as one batch per table.  The tracer
    # event still fires at the *staging* site (the causal chain the
    # write belongs to); the flush itself runs between events, where no
    # span is current.  One semantic caveat: deleting and re-putting the
    # same key inside one tick keeps the row's original scan position,
    # where item-at-a-time writes would move it to the end — no store
    # client does this (instance/request ids are unique per acquisition
    # and workloads are never deleted).

    def _stage(
        self,
        table: str,
        key: Tuple[Any, Any],
        item: Optional[Dict[str, Any]],
        scope: str,
    ) -> None:
        tracer = self._provider.telemetry.tracer
        if tracer is not None and tracer.current is not None:
            tracer.event(scope, "dynamodb")
        # Staged dicts are stored as-is: every staging site passes a
        # freshly built dict, and overlay reads copy on the way out.
        self._pending[table][key] = item
        self._dirty.add(table)

    def _stage_put(
        self, table: str, key: Tuple[Any, Any], item: Dict[str, Any], scope: str
    ) -> None:
        self._stage(table, key, item, scope)

    def _stage_delete(self, table: str, key: Tuple[Any, Any], scope: str) -> None:
        self._stage(table, key, None, scope)

    def _overlay_scan(self, table: str, rows: List[Dict[str, Any]], key_attr: str) -> List[Dict[str, Any]]:
        """Merge a table scan with the staged overlay.

        Scanned rows keep their positions (staged replacements swap in
        place, tombstoned rows drop out); keys staged but never flushed
        append in staging order — matching the insertion order a flushed
        table would show.
        """
        pending = self._pending[table]
        if not pending:
            return rows
        merged = []
        seen = set()
        for row in rows:
            key = (row[key_attr], None)
            if key in pending:
                seen.add(key)
                staged = pending[key]
                if staged is None:
                    continue
                merged.append(dict(staged))
            else:
                merged.append(row)
        for key, staged in pending.items():
            if staged is not None and key not in seen:
                merged.append(dict(staged))
        return merged

    def flush(self) -> None:
        """Land every staged write in DynamoDB, one batch per table.

        Runs from the engine's tick hook (and from controller teardown).
        Only tables staged since the last flush are visited, in
        ``_flush_tables`` order, so an idle tick costs nothing however
        many shards the store has.  A batch that exhausts its retry
        budget against an injected throttle is dead-lettered and
        **stays pending** (and dirty), so the next tick's flush retries
        it — the mirror self-heals instead of silently losing state.
        """
        if not self._dirty:
            return
        rank = self._flush_rank
        tables = sorted(self._dirty, key=rank.__getitem__)
        self._dirty = set()
        for table in tables:
            pending = self._pending[table]
            if not pending:
                continue
            puts = [item for item in pending.values() if item is not None]
            deletes = [key for key, item in pending.items() if item is None]
            if self._write(rank[table][1], self._dynamodb.batch_write_item, table, puts, deletes):
                pending.clear()
            else:
                self._dirty.add(table)

    # ------------------------------------------------------------------
    # Workload state
    # ------------------------------------------------------------------
    def save_execution(self, execution: "WorkloadExecution") -> None:
        """Persist one execution's full durable state (upsert)."""
        item = execution.state_item()
        self._stage_put(
            self._workload_shards[self.shard_of(item["workload_id"])],
            (item["workload_id"], None),
            item,
            scope="fleet-state:save-execution",
        )

    def workload_item(self, workload_id: str) -> Optional[Dict[str, Any]]:
        """The stored state of one workload, or ``None``.

        A workload whose tenant is assigned (or any workload of a
        1-shard store) lives on exactly one shard, so that is the only
        read.  An unassigned id on a sharded store — restore over a
        store whose tenant map was not reloaded — may have been written
        under another tenant, so a miss on its routed shard probes the
        rest.
        """
        routed = self.shard_of(workload_id)
        order = [routed]
        if workload_id not in self._tenant_of:
            order += [i for i in range(self.n_shards) if i != routed]
        key = (workload_id, None)
        for index in order:
            table = self._workload_shards[index]
            pending = self._pending[table]
            if key in pending:
                staged = pending[key]
                return dict(staged) if staged is not None else None
            item = self._read(
                "fleet-state:workload-item", self._dynamodb.get_item, table, workload_id
            )
            if item is not None:
                return item
        return None

    def workload_items(self, shard: Optional[int] = None) -> List[Dict[str, Any]]:
        """Stored workloads, in registration order (one shard or all).

        With shards, the order is per-shard registration order
        concatenated in shard order — deterministic, but interleaved
        differently than a 1-shard store would show.
        """
        tables = (
            self._workload_shards if shard is None else [self._workload_shards[shard]]
        )
        items: List[Dict[str, Any]] = []
        for table in tables:
            rows = self._read("fleet-state:workload-items", self._dynamodb.scan, table)
            items.extend(self._overlay_scan(table, rows, "workload_id"))
        return items

    def workload_ids(self) -> List[str]:
        """Stored workload ids, in registration order."""
        return [item["workload_id"] for item in self.workload_items()]

    def has_workload(self, workload_id: str) -> bool:
        """Whether *workload_id* is registered."""
        return self.workload_item(workload_id) is not None

    def done_count(self) -> int:
        """How many stored workloads have finished."""
        return sum(1 for item in self.workload_items() if item["state"] == "done")

    def state_counts(self, shard: Optional[int] = None) -> Dict[str, int]:
        """Stored workloads per state, name-sorted (one shard or all).

        The flight recorder embeds this in blackbox snapshots: one
        line of fleet shape ("3 running, 2 migrating, 1 done") that
        usually orients an incident before the event ring is read.
        Reads via :meth:`DynamoDBService.peek_items` — snapshots fire
        mid-run from inside event fan-out, and a metered or
        chaos-gated read there would consume fault-stream RNG draws
        and perturb the very run being recorded.
        """
        tables = (
            self._workload_shards if shard is None else [self._workload_shards[shard]]
        )
        counts: Dict[str, int] = {}
        for table in tables:
            rows = self._overlay_scan(
                table, self._dynamodb.peek_items(table), "workload_id"
            )
            for item in rows:
                state = item["state"]
                counts[state] = counts.get(state, 0) + 1
        return dict(sorted(counts.items()))

    # ------------------------------------------------------------------
    # Instance bindings
    # ------------------------------------------------------------------
    def bind_instance(self, instance: "Instance", workload_id: str) -> None:
        """Record that *instance* runs *workload_id*."""
        shard = self.shard_of(workload_id)
        if self.n_shards > 1:
            self._entity_shard[instance.instance_id] = shard
        self._stage_put(
            self._instance_shards[shard],
            (instance.instance_id, None),
            {"instance_id": instance.instance_id, "workload_id": workload_id},
            scope="fleet-state:bind-instance",
        )

    def _pop_row(self, tables: List[str], entity_id: str, scope: str) -> Optional[str]:
        """Remove one binding/tracking row; returns its workload id."""
        routed = self._entity_shard.get(entity_id, 0)
        order = [routed] + [i for i in range(len(tables)) if i != routed]
        for index in order:
            table = tables[index]
            key = (entity_id, None)
            pending = self._pending[table]
            if key in pending:
                staged = pending[key]
                if staged is None:
                    return None
                self._stage_delete(table, key, scope=scope)
                self._entity_shard.pop(entity_id, None)
                return staged["workload_id"]
            item = self._read(scope, self._dynamodb.get_item, table, entity_id)
            if item is not None:
                self._stage_delete(table, key, scope=scope)
                self._entity_shard.pop(entity_id, None)
                return item["workload_id"]
            if len(tables) == 1:
                return None
        return None

    def pop_instance(self, instance_id: str) -> Optional[str]:
        """Remove and return the workload bound to *instance_id*."""
        return self._pop_row(
            self._instance_shards, instance_id, scope="fleet-state:pop-instance"
        )

    def instance_bindings(self) -> Dict[str, str]:
        """Current ``instance_id -> workload_id`` map."""
        bindings: Dict[str, str] = {}
        for table in self._instance_shards:
            rows = self._read("fleet-state:instance-bindings", self._dynamodb.scan, table)
            rows = self._overlay_scan(table, rows, "instance_id")
            bindings.update(
                {item["instance_id"]: item["workload_id"] for item in rows}
            )
        return bindings

    # ------------------------------------------------------------------
    # Spot request tracking
    # ------------------------------------------------------------------
    def track_request(self, request: "SpotRequest", workload_id: str) -> None:
        """Track an open spot request filed for *workload_id*."""
        shard = self.shard_of(workload_id)
        if self.n_shards > 1:
            self._entity_shard[request.request_id] = shard
        self._stage_put(
            self._request_shards[shard],
            (request.request_id, None),
            {"request_id": request.request_id, "workload_id": workload_id},
            scope="fleet-state:track-request",
        )

    def pop_request(self, request_id: str) -> Optional[str]:
        """Remove and return the workload a request was filed for."""
        return self._pop_row(
            self._request_shards, request_id, scope="fleet-state:pop-request"
        )

    def tracked_requests(self) -> List[Tuple[str, str]]:
        """``(request_id, workload_id)`` pairs, in filing order."""
        pairs: List[Tuple[str, str]] = []
        for table in self._request_shards:
            rows = self._read("fleet-state:tracked-requests", self._dynamodb.scan, table)
            rows = self._overlay_scan(table, rows, "request_id")
            pairs.extend((item["request_id"], item["workload_id"]) for item in rows)
        return pairs

    # ------------------------------------------------------------------
    # Tenant roster (multi-tenant control plane)
    # ------------------------------------------------------------------
    def save_tenant(self, item: Dict[str, Any]) -> None:
        """Persist one tenant spec (upsert).

        The item is the registry's ``TenantSpec.to_dict()``: quota,
        fair-share weight, pending-queue bound, and default policy.
        Specs are durable like workload state — a rebuilt controller
        reloads the roster from this table alone.
        """
        self._stage_put(
            self.tenants_table,
            (item["tenant_id"], None),
            item,
            scope="fleet-state:save-tenant",
        )

    def tenant_item(self, tenant_id: str) -> Optional[Dict[str, Any]]:
        """The stored spec of one tenant, or ``None``."""
        pending = self._pending[self.tenants_table]
        key = (tenant_id, None)
        if key in pending:
            staged = pending[key]
            return dict(staged) if staged is not None else None
        return self._read(
            "fleet-state:tenant-item", self._dynamodb.get_item, self.tenants_table, tenant_id
        )

    def tenant_items(self) -> List[Dict[str, Any]]:
        """Every stored tenant spec, in registration order."""
        rows = self._read("fleet-state:tenant-items", self._dynamodb.scan, self.tenants_table)
        return self._overlay_scan(self.tenants_table, rows, "tenant_id")

    # ------------------------------------------------------------------
    # Meta state
    # ------------------------------------------------------------------
    def mapping(self, section: str) -> MutableMapping:
        """A durable dict-like view over one meta-table partition."""
        return _MetaMapping(self, section)


class ControlPlaneRouter:
    """Stable dispatch endpoints for the fleet services.

    All cloud-side wiring targets the router, never a service instance
    directly, so pending deliveries (EventBridge events, EC2
    fulfillment callbacks, Step Functions attempts, the CloudWatch
    sweep) keep working across a controller teardown/rebuild.
    """

    def __init__(self) -> None:
        self._capacity = None
        self._interruption = None
        self._ec2 = None

    def bind(self, capacity, interruption, ec2) -> None:
        """Point the endpoints at freshly constructed services."""
        self._capacity = capacity
        self._interruption = interruption
        self._ec2 = ec2

    def unbind(self) -> None:
        """Detach the services (controller torn down)."""
        self._capacity = None
        self._interruption = None

    # -- endpoints ------------------------------------------------------
    def spot_fulfilled(self, request, instance) -> None:
        """EC2 ``on_fulfilled`` callback endpoint."""
        if self._capacity is not None:
            self._capacity.on_spot_fulfilled(request, instance)
        elif self._ec2 is not None:
            # No controller bound: nothing can use the capacity.
            self._ec2.terminate_instances([instance.instance_id])

    def sweep(self) -> None:
        """CloudWatch 15-minute sweep endpoint."""
        if self._capacity is not None:
            self._capacity.sweep_open_requests()
        if self._interruption is not None:
            # Repair interruptions whose event-path handling was lost to
            # injected faults (dropped deliveries, crashed Lambdas).
            self._interruption.reconcile_missed_interruptions()

    def interruption_event(self, event: Dict[str, Any], context: object) -> str:
        """Interruption-handler Lambda endpoint."""
        if self._interruption is None:
            return "ignored"
        return self._interruption.handle_event(event, context)

    def reacquire(self, input: Dict[str, Any]) -> str:
        """Step Functions re-acquire task endpoint."""
        if self._interruption is None:
            return "noop"
        return self._interruption.reacquire_task(input)
