"""Reference-model check of the columnar EC2 hazard sweep.

``EC2Service`` bills and samples every live instance per hazard tick in
one array pass over its live table, and commits bills to the ledger as
compact windows.  :class:`ReferenceEC2` below is the per-instance loop
it replaced: one ``_bill`` -> ``CostLedger.charge`` and one scalar
``rng.random()`` per live instance per tick, with instance state in a
dict.  Both run the same seeded scenario — raised hazards in finite
capacity pools, mixed spot and on-demand fleets over several regions, a notice subscriber that
synchronously terminates another live instance, relaunches under a
shared tag and sometimes settles billing mid-sweep, scheduled
terminations and a fractional reclaim storm — and must agree exactly:
ledger entries, totals and their first-charge order, every instance's
accrued cost, the ``cost_accrued_usd`` series, the interruption log and
the "ec2" stream's state.
"""

import dataclasses
from types import SimpleNamespace
from typing import Dict, List
from unittest import mock

import numpy as np
import pytest

from repro.chaos.invariants import NoBillingPastEndCheck
from repro.cloud import provider as provider_module
from repro.cloud.billing import CostCategory, CostLedger
from repro.cloud.interruptions import EVALUATION_INTERVAL, interruption_probability
from repro.cloud.provider import CloudProvider
from repro.cloud.services.ec2 import (
    EC2Service,
    Instance,
    InstanceLifecycle,
    InstanceState,
)
from repro.sim.clock import HOUR

REGIONS = ("us-east-1", "eu-west-1", "ap-southeast-2")
INSTANCE_TYPE = "m5.large"
HORIZON = 14 * HOUR


class ReferenceEC2(EC2Service):
    """EC2 billing and hazard sampling one instance at a time.

    Instances keep their billing state in ``_billing`` (last-billed
    time, market, on-demand price, counter handle) and their accrued
    cost in ``Instance._accrued``; nothing goes through the live table.
    The inherited ``_begin_interruption`` marks a table row, which for
    these row-less instances is the (unused) last slot.
    """

    def __init__(self, provider) -> None:
        super().__init__(provider)
        self._live: Dict[str, Instance] = {}
        self._billing: Dict[str, list] = {}
        self._counters: Dict[tuple, object] = {}

    def _launch(self, region, instance_type, lifecycle, tag):
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
        instance._detail = f"{instance_type} {instance.instance_id}"
        self._instances[instance.instance_id] = instance
        self._live[instance.instance_id] = instance
        market = od_price = None
        if lifecycle is InstanceLifecycle.SPOT:
            market = self._provider.market(region, instance_type)
            market.instances_running += 1
        else:
            od_price = self._provider.price_book.od_price(region, instance_type)
        key = (region, lifecycle.value)
        bound = self._counters.get(key)
        if bound is None:
            bound = self._counters[key] = self._telemetry.metrics.counter(
                "cost_accrued_usd", "instance spend by region and purchasing option"
            ).bound(region=region, purchasing_option=lifecycle.value)
        self._billing[instance.instance_id] = [now, market, od_price, bound]
        return instance

    def _evaluate_interruptions(self):
        now = self._engine.now
        rng = self._rng
        probabilities = {}
        for instance in list(self._live.values()):
            state = instance.state
            if state is not InstanceState.RUNNING and state is not InstanceState.INTERRUPTING:
                continue
            self._bill(instance, now)
            if instance.lifecycle is not InstanceLifecycle.SPOT:
                continue
            if state is InstanceState.INTERRUPTING:
                continue
            market_key = (instance.region, instance.instance_type)
            probability = probabilities.get(market_key)
            if probability is None:
                market = self._billing[instance.instance_id][1]
                probability = probabilities[market_key] = interruption_probability(
                    market.hazard_at(now), EVALUATION_INTERVAL
                )
            if probability > 0.0 and rng.random() < probability:
                self._begin_interruption(instance)

    def force_interruptions(self, regions=None, fraction=1.0, rng=None):
        wanted = set(regions) if regions is not None else None
        count = 0
        for instance in list(self._live.values()):
            if not instance.is_live or instance.state is InstanceState.INTERRUPTING:
                continue
            if instance.lifecycle is not InstanceLifecycle.SPOT:
                continue
            if wanted is not None and instance.region not in wanted:
                continue
            if fraction < 1.0 and rng is not None and float(rng.random()) >= fraction:
                continue
            self._begin_interruption(instance)
            count += 1
        return count

    def _end(self, instance):
        self._live.pop(instance.instance_id, None)
        self._release_capacity(instance)

    def _bill(self, instance, now):
        state = self._billing[instance.instance_id]
        last_billed, market, od_price, bound = state
        dt = now - last_billed
        if dt <= 0:
            return
        if instance.lifecycle is InstanceLifecycle.SPOT:
            price = market.spot_price
            category = CostCategory.SPOT_INSTANCE
        else:
            price = od_price
            category = CostCategory.ON_DEMAND_INSTANCE
        amount = price * dt / HOUR
        instance._accrued += amount
        state[0] = now
        bound.inc(amount)
        self._provider.ledger.charge(
            time=now,
            category=category,
            amount=amount,
            region=instance.region,
            tag=instance.tag,
            detail=instance._detail,
        )

    def settle_billing(self):
        now = self._engine.now
        for instance in self._live.values():
            if instance.is_live:
                self._bill(instance, now)


def _world(seed: int, reference: bool) -> CloudProvider:
    """Run the seeded scenario on a fresh provider; return it settled."""
    if reference:
        with mock.patch.object(provider_module, "EC2Service", ReferenceEC2):
            provider = CloudProvider(seed=seed)
    else:
        provider = CloudProvider(seed=seed)
    assert isinstance(provider.ec2, ReferenceEC2) is reference
    engine, ec2 = provider.engine, provider.ec2
    script = np.random.default_rng(1000 + seed)
    markets = [provider.market(region, INSTANCE_TYPE) for region in REGIONS]
    for market in markets:
        # A finite pool makes hazard_at depend on instances_running,
        # which notice callbacks change in the middle of a sweep.
        market.profile = dataclasses.replace(market.profile, capacity=14)
    live_states = (InstanceState.RUNNING, InstanceState.INTERRUPTING)

    def raise_hazards():
        for market in markets:
            market.force_frequency(200.0 + 100.0 * float(script.random()))

    def launch(tag: str):
        region = REGIONS[int(script.integers(len(REGIONS)))]
        if script.random() < 0.35:
            ec2.run_on_demand(region, INSTANCE_TYPE, tag=tag)
        else:
            ec2.request_spot_instances(region, INSTANCE_TYPE, tag=tag)

    def on_notice(instance):
        # Terminate another live instance (before or after this one in
        # launch order), relaunch under the warned instance's tag, and
        # now and then settle billing in the middle of the sweep.
        others = [
            other for other in ec2.describe_instances(states=live_states)
            if other.instance_id != instance.instance_id
        ]
        if others and script.random() < 0.6:
            victim = others[int(script.integers(len(others)))]
            ec2.terminate_instances([victim.instance_id])
        if script.random() < 0.7:
            ec2.run_on_demand(instance.region, INSTANCE_TYPE, tag=instance.tag)
        else:
            ec2.request_spot_instances(instance.region, INSTANCE_TYPE, tag=instance.tag)
        if script.random() < 0.15:
            ec2.settle_billing()
        if script.random() < 0.3:
            # Move one market's hazard mid-sweep: markets the sweep has
            # already sampled keep their memoised probability, the
            # others must see the new one.
            market = markets[int(script.integers(len(markets)))]
            market.force_frequency(0.0 if script.random() < 0.5 else 400.0)

    def terminate_some():
        live = ec2.describe_instances(states=(InstanceState.RUNNING,))
        for instance in live:
            if script.random() < 0.1:
                ec2.terminate_instances([instance.instance_id])

    def storm():
        ec2.force_interruptions(regions=REGIONS[:2], fraction=0.5, rng=script)

    def counter_prelude():
        # The (ap-southeast-2, on-demand) cost series gets its counter
        # slot first but is first charged after (us-east-1, on-demand):
        # series must enter the registry in first-charge order.
        first = ec2.run_on_demand("ap-southeast-2", INSTANCE_TYPE, tag="pre-0")
        ec2.terminate_instances([first.instance_id])
        ec2.run_on_demand("us-east-1", INSTANCE_TYPE, tag="pre-1")
        ec2.run_on_demand("ap-southeast-2", INSTANCE_TYPE, tag="pre-2")

    ec2.on_interruption_notice(on_notice)
    engine.call_at(0.0, counter_prelude, label="test:prelude")
    engine.every(HOUR, raise_hazards, label="test:hazards")
    engine.every(2 * HOUR + 7.0, terminate_some, label="test:terminate")
    engine.call_at(5 * HOUR, storm, label="test:storm")
    for index in range(72):
        # Untagged instances and exact-tick launches (dt == 0 rows) too.
        tag = "" if index % 9 == 0 else f"wl-{index % 40:02d}"
        when = EVALUATION_INTERVAL * (index // 2) if index % 4 == 0 else 541.0 * index
        engine.call_at(when, lambda tag=tag: launch(tag), label="test:launch")
    raise_hazards()
    engine.run_until(HORIZON)
    ec2.settle_billing()
    return provider


def _observed(provider: CloudProvider) -> dict:
    ledger = provider.ledger
    instances = provider.ec2.describe_instances()
    return {
        "entries": [
            (e.time, e.category, e.amount, type(e.amount), e.region, e.tag, e.detail)
            for e in ledger.entries
        ],
        "total": ledger.total(),
        "by_category": list(ledger.by_category().items()),
        "by_region": list(ledger.by_region().items()),
        # No public by-tag view: read the totals in first-charge order.
        "by_tag": list(ledger._by_tag.as_dict().items()),
        "tag_totals": {i.tag: ledger.total_for_tag(i.tag) for i in instances},
        "accrued": [(i.instance_id, i.accrued_cost, i.state, i.end_time) for i in instances],
        "counter": list(
            provider.telemetry.metrics.counter("cost_accrued_usd").series().items()
        ),
        "interruptions": list(provider.ec2.interruption_log),
        "ec2_stream": provider.engine.streams.get("ec2").bit_generator.state,
    }


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 5, 8])
def test_sweep_matches_per_instance_reference(seed):
    vectorised = _world(seed, reference=False)
    reference = _world(seed, reference=True)
    got, want = _observed(vectorised), _observed(reference)
    # The scenario must reach the interesting paths.
    assert len(want["interruptions"]) >= 10
    assert any(i.lifecycle is InstanceLifecycle.ON_DEMAND
               for i in reference.ec2.describe_instances())
    for key in want:
        _assert_same(got[key], want[key], key)


def _assert_same(got, want, key: str) -> None:
    """Equality with a short report (the first differing element)."""
    if got == want:
        return
    if isinstance(want, list):
        index = next(
            (i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want))
        )
        pytest.fail(
            f"{key}: {len(got)} vs {len(want)} items, first difference at {index}: "
            f"{got[index:index + 1]} != {want[index:index + 1]}"
        )
    pytest.fail(f"{key}: {got!r} != {want!r}"[:2000])


def test_entries_after_skips_to_later_charges():
    provider = _world(4, reference=False)
    entries = provider.ledger.entries
    for cut in (-1.0, 0.0, EVALUATION_INTERVAL, 3.3 * HOUR, HORIZON - 1.0, HORIZON):
        expected = [entry for entry in entries if entry.time > cut]
        assert list(provider.ledger.entries_after(cut)) == expected


def test_billing_past_end_check_reports_late_charges():
    provider = _world(4, reference=False)
    ended = 6 * HOUR
    ctx = SimpleNamespace(provider=provider, result=SimpleNamespace(ended_at=ended))
    expected = [
        f"{entry.category.value} ${entry.amount:.4f} at t={entry.time:.0f} "
        f"(run ended t={ended:.0f})"
        for entry in provider.ledger.entries
        if entry.time > ended
    ]
    assert expected
    assert NoBillingPastEndCheck().finalize(ctx) == expected


def test_sweep_bills_in_windows():
    provider = _world(6, reference=False)
    ledger = provider.ledger
    windows = [record for record in ledger._entries if type(record) is not tuple]
    assert windows
    assert len(ledger._entries) < len(ledger.entries)


class TestLedgerTotal:
    def test_total_folds_left_to_right(self):
        # Builtin sum (Neumaier-compensated on Python 3.12+) would give
        # 1.0000000000000002 here.
        ledger = CostLedger()
        ledger.charge(0.0, CostCategory.SPOT_INSTANCE, 1.0)
        ledger.charge(0.0, CostCategory.LAMBDA, 1e-16)
        ledger.charge(0.0, CostCategory.DYNAMODB, 1e-16)
        assert ledger.total() == 1.0

    def test_window_charges_match_scalar_charges(self):
        window, scalar = CostLedger(), CostLedger()
        rows: List[tuple] = [
            (CostCategory.SPOT_INSTANCE, "us-east-1", "w1", "a"),
            (CostCategory.ON_DEMAND_INSTANCE, "eu-west-1", "", "b"),
            (CostCategory.SPOT_INSTANCE, "us-east-1", "w1", "c"),
        ]
        sources = np.array([window.register_source(*row) for row in rows])
        amounts = np.array([0.1, 0.2, 0.3])
        window.charge_window(5.0, sources, amounts)
        for row, amount in zip(rows, amounts.tolist()):
            category, region, tag, detail = row
            scalar.charge(5.0, category, amount, region=region, tag=tag, detail=detail)
        assert repr(window.entries) == repr(scalar.entries)
        assert window.by_region() == scalar.by_region()
        assert window.total_for_tag("w1") == scalar.total_for_tag("w1")
        assert window.total() == scalar.total()
        with pytest.raises(ValueError):
            window.charge_window(6.0, sources[:1], np.array([-1.0]))


class TestForceInterruptions:
    def test_fraction_without_rng_is_rejected(self):
        provider = CloudProvider(seed=2)
        provider.ec2.request_spot_instances("us-east-1", INSTANCE_TYPE, tag="w")
        provider.engine.run_until(HOUR)
        with pytest.raises(ValueError, match="rng"):
            provider.ec2.force_interruptions(fraction=0.5)
        assert provider.ec2.interruption_log == []

    def test_full_fraction_needs_no_rng(self):
        provider = CloudProvider(seed=2)
        provider.ec2.request_spot_instances("us-east-1", INSTANCE_TYPE, tag="w")
        provider.engine.run_until(HOUR)
        assert provider.ec2.force_interruptions() == 1
