"""Cost accounting for the simulated cloud.

The paper's cost model (Section 5.1.2) sums per-second instance usage
at the prevailing spot or on-demand price, plus the differential costs
of the control plane: Lambda invocations, DynamoDB writes, CloudWatch
rules, and cross-region S3 transfer for checkpoint workloads.  The
:class:`CostLedger` records every charge with enough dimensions
(category, region, tag) for experiments to slice costs per strategy and
per workload.  Instance billing arrives as one compact window per EC2
hazard sweep rather than one record per instance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np


class CostCategory(enum.Enum):
    """What a ledger entry paid for."""

    SPOT_INSTANCE = "spot-instance"
    ON_DEMAND_INSTANCE = "on-demand-instance"
    LAMBDA = "lambda"
    DYNAMODB = "dynamodb"
    S3_STORAGE = "s3-storage"
    S3_TRANSFER = "s3-transfer"
    CLOUDWATCH = "cloudwatch"
    STEP_FUNCTIONS = "step-functions"


# ``Enum.value`` is a DynamicClassAttribute — a Python-level descriptor
# call on every access, which is measurable at ledger charge rates.
# Mirror each member's value string into a plain instance attribute the
# hot path can read directly.
for _category in CostCategory:
    _category._value_str = _category.value  # type: ignore[attr-defined]
del _category


#: USD per Lambda GB-second (x86, us-east-1 list price).
LAMBDA_GB_SECOND_PRICE = 0.0000166667
#: USD per Lambda request.
LAMBDA_REQUEST_PRICE = 0.0000002
#: USD per DynamoDB write request unit.
DYNAMODB_WRITE_PRICE = 0.00000125
#: USD per DynamoDB read request unit.
DYNAMODB_READ_PRICE = 0.00000025
#: USD per GB transferred between regions.
S3_CROSS_REGION_TRANSFER_PRICE = 0.02
#: USD per GB-month of S3 standard storage.
S3_STORAGE_PRICE_GB_MONTH = 0.023
#: USD per CloudWatch metric put (custom metrics, amortised).
CLOUDWATCH_PUT_PRICE = 0.0000003
#: USD per Step Functions state transition.
STEP_FUNCTIONS_TRANSITION_PRICE = 0.000025


@dataclass
class CostEntry:
    """One charge in the ledger.

    Attributes:
        time: Virtual time the charge accrued.
        category: What kind of resource was billed.
        amount: USD charged.
        region: Region the charge accrued in ("" for global services).
        tag: Free-form attribution tag, typically a workload id.
        detail: Human-readable description for audit output.
    """

    time: float
    category: CostCategory
    amount: float
    region: str = ""
    tag: str = ""
    detail: str = ""


#: Initial slot count of a :class:`_Totals` and of the source table.
_INITIAL_SLOTS = 64


class _Totals:
    """Running USD totals by name, one float64 slot per name.

    A name gets its slot on its first charge, so slot order is
    first-charge order — the order :meth:`CostLedger.by_region` and
    :meth:`CostLedger.by_category` report.  Slot 0 is a sink for the
    empty name: a window folds every row, and a row without a tag or
    region lands there without being reported.  Every fold adds in
    charge order, so each total is the same left-to-right float sum a
    per-charge ``+=`` gives.
    """

    __slots__ = ("slots", "values")

    def __init__(self) -> None:
        self.slots: Dict[str, int] = {}
        self.values = np.zeros(_INITIAL_SLOTS)

    def slot(self, name: str) -> int:
        """The slot of *name*, allocated on first use (0 for ``""``)."""
        if not name:
            return 0
        slot = self.slots.get(name)
        if slot is None:
            slot = self.slots[name] = len(self.slots) + 1
            if slot == len(self.values):
                self.values = np.concatenate((self.values, np.zeros(len(self.values))))
        return slot

    def add(self, name: str, amount: float) -> None:
        """Add one charge of *amount* to *name*."""
        slot = self.slots.get(name)
        if slot is None:
            slot = self.slot(name)
        self.values[slot] += amount

    def get(self, name: str) -> float:
        """Total of *name* (0.0 if never charged)."""
        slot = self.slots.get(name)
        return 0.0 if slot is None else float(self.values[slot])

    def as_dict(self) -> Dict[str, float]:
        """``{name: total}`` in first-charge order."""
        return dict(zip(self.slots, self.values[1 : len(self.slots) + 1].tolist()))


class _Window:
    """One billing window: charges of several sources at one time.

    ``sources[i]`` was charged ``amounts[i]``, in array order.  Twelve
    bytes per charge instead of one six-field tuple each.
    """

    __slots__ = ("time", "sources", "amounts")

    def __init__(self, time: float, sources: np.ndarray, amounts: np.ndarray) -> None:
        self.time = time
        self.sources = sources
        self.amounts = amounts


class CostLedger:
    """Append-only ledger of simulated charges.

    Two kinds of record share one charge-ordered log:

    * :meth:`charge` appends one plain tuple per charge — the path of
      every request unit, metric put and single instance bill;
    * :meth:`charge_window` appends one compact window per EC2 billing
      sweep: an array of *source* ids (see :meth:`register_source`)
      and an array of amounts, all at one time.

    :attr:`entries` expands both into :class:`CostEntry` objects in
    charge order.  The running totals by category, tag and region live
    in numpy slot arrays so a window folds into them with one
    ``np.add.at`` each; ``np.add.at`` adds element by element in index
    order, so every total is bit-identical to charging the window's
    rows one by one.
    """

    __slots__ = ("_entries", "_by_category", "_by_tag", "_by_region", "_sources", "_source_slots")

    def __init__(self) -> None:
        self._entries: List[Union[tuple, _Window]] = []
        self._by_category = _Totals()
        self._by_tag = _Totals()
        self._by_region = _Totals()
        #: ``(category, region, tag, detail)`` per registered source.
        self._sources: List[Tuple[CostCategory, str, str, str]] = []
        #: Per source: its (category, tag, region) total slots, or -1
        #: until its first charge allocates them.
        self._source_slots = np.full((_INITIAL_SLOTS, 3), -1, dtype=np.intp)

    def charge(
        self,
        time: float,
        category: CostCategory,
        amount: float,
        region: str = "",
        tag: str = "",
        detail: str = "",
    ) -> None:
        """Record a charge.

        Zero-amount charges are recorded too — they document that a
        billable action occurred, which keeps audit trails complete.
        Negative amounts are rejected.
        """
        if amount < 0:
            raise ValueError(f"cannot charge a negative amount: {amount!r}")
        self._entries.append((time, category, amount, region, tag, detail))
        self._by_category.add(category._value_str, amount)
        if tag:
            self._by_tag.add(tag, amount)
        if region:
            self._by_region.add(region, amount)

    def register_source(
        self, category: CostCategory, region: str = "", tag: str = "", detail: str = ""
    ) -> int:
        """Declare a recurring charge (e.g. one instance) for :meth:`charge_window`.

        Returns:
            The source id a window names the charge by.
        """
        source = len(self._sources)
        self._sources.append((category, region, tag, detail))
        if source == len(self._source_slots):
            self._source_slots = np.concatenate(
                (self._source_slots, np.full_like(self._source_slots, -1))
            )
        return source

    def charge_window(self, time: float, sources: np.ndarray, amounts: np.ndarray) -> None:
        """Record one charge of ``amounts[i]`` to ``sources[i]`` per row, at *time*.

        Equivalent to calling :meth:`charge` once per row in array
        order with each source's category, region, tag and detail.
        The ledger keeps *amounts*; the caller must not modify it.
        """
        if not len(amounts):
            return
        if amounts.min() < 0:
            raise ValueError(f"cannot charge a negative amount: {float(amounts.min())!r}")
        slots = self._source_slots[sources]
        fresh = np.flatnonzero(slots[:, 0] < 0)
        if fresh.size:
            # First charges allocate total slots in row order, which is
            # the order one-by-one charging would insert the names in.
            for source in sources[fresh].tolist():
                category, region, tag, _ = self._sources[source]
                self._source_slots[source] = (
                    self._by_category.slot(category._value_str),
                    self._by_tag.slot(tag),
                    self._by_region.slot(region),
                )
            slots = self._source_slots[sources]
        np.add.at(self._by_category.values, slots[:, 0], amounts)
        np.add.at(self._by_tag.values, slots[:, 1], amounts)
        np.add.at(self._by_region.values, slots[:, 2], amounts)
        self._entries.append(_Window(time, sources.astype(np.int32), amounts))

    # ------------------------------------------------------------------
    # Audit views
    # ------------------------------------------------------------------
    def _expand(self, records: Iterable[Union[tuple, _Window]]) -> Iterator[CostEntry]:
        sources = self._sources
        for record in records:
            if type(record) is tuple:
                yield CostEntry(*record)
                continue
            time = record.time
            for source, amount in zip(record.sources.tolist(), record.amounts.tolist()):
                category, region, tag, detail = sources[source]
                yield CostEntry(time, category, amount, region, tag, detail)

    @property
    def entries(self) -> List[CostEntry]:
        """All recorded entries in charge order.

        Materialises a fresh :class:`CostEntry` list from the raw
        storage — O(n) per access, so audit/report code should bind it
        once rather than index it repeatedly.
        """
        return list(self._expand(self._entries))

    def entries_after(self, time: float) -> Iterator[CostEntry]:
        """Entries charged at a time later than *time*, in charge order.

        Windows at or before *time* are skipped whole, without
        materialising their rows.
        """
        for record in self._entries:
            if type(record) is tuple:
                if record[0] > time:
                    yield CostEntry(*record)
            elif record.time > time:
                yield from self._expand((record,))

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def total(self, category: Optional[CostCategory] = None) -> float:
        """Total USD, optionally restricted to one category.

        The grand total folds the category totals left to right in
        first-charge order.  Builtin ``sum`` is compensated on Python
        3.12+, which would make the total depend on the interpreter.
        """
        if category is None:
            total = 0.0
            for value in self._by_category.as_dict().values():
                total += value
            return total
        return self._by_category.get(category._value_str)

    def total_for_tag(self, tag: str) -> float:
        """Total USD attributed to *tag* (e.g. one workload)."""
        return self._by_tag.get(tag)

    def total_for_region(self, region: str) -> float:
        """Total USD accrued in *region*."""
        return self._by_region.get(region)

    def instance_total(self) -> float:
        """Total spend on compute (spot + on-demand)."""
        return self.total(CostCategory.SPOT_INSTANCE) + self.total(
            CostCategory.ON_DEMAND_INSTANCE
        )

    def overhead_total(self) -> float:
        """Total spend on control-plane services (everything but compute)."""
        return self.total() - self.instance_total()

    def by_category(self) -> Dict[str, float]:
        """Return ``{category value: total}`` for reporting."""
        return self._by_category.as_dict()

    def by_region(self) -> Dict[str, float]:
        """Return ``{region: total}`` for reporting."""
        return self._by_region.as_dict()
