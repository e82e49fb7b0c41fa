"""Market lattice: bit-exactness against the reference stepper, and
TraceBuffer semantics.

``tests/market_reference.py`` steps a freshly built provider's markets
one draw at a time with the original scalar expressions; the lattice
must reproduce those series bit for bit across engine runs, warmup,
noise-block refills and history-chunk flushes.
"""

import numpy as np
import pytest

from repro.cloud.lattice import MarketLattice, TraceBuffer
from repro.cloud.market import SpotMarket
from repro.cloud.profiles import MarketProfile
from repro.cloud.provider import CloudProvider
from repro.sim.clock import DAY, HOUR
from tests import market_reference


def _assert_markets_equal(reference, lattice_provider):
    for key, reference_market in reference._markets.items():
        market = lattice_provider._markets[key]
        assert list(reference_market.price_trace()) == list(market.price_trace()), key
        assert list(reference_market.metric_history) == list(market.metric_history), key
        assert reference_market.spot_price == market.spot_price, key
        assert reference_market.placement_score == market.placement_score, key
        assert reference_market.interruption_frequency == market.interruption_frequency, key
        assert reference_market.stability_score == market.stability_score, key


def test_vectorized_markets_bit_identical_to_scalar():
    reference = CloudProvider(seed=13)
    market_reference.run_markets(reference._markets.values(), 50)
    vector = CloudProvider(seed=13)
    vector.engine.run_until(50 * HOUR)
    _assert_markets_equal(reference, vector)


def test_vectorized_warmup_bit_identical_to_scalar():
    reference = CloudProvider(seed=13)
    market_reference.warmup_provider_markets(reference, 30)
    market_reference.run_markets(reference._markets.values(), 10)
    vector = CloudProvider(seed=13)
    vector.warmup_markets(30)
    vector.engine.run_until(10 * HOUR)
    _assert_markets_equal(reference, vector)


def test_lattice_survives_noise_block_boundary():
    # A tiny prefetch block and history chunk force several refills and
    # flushes within one run; the series must stay identical to the
    # reference throughout, including a warmup that straddles both.
    reference = CloudProvider(seed=13)
    market_reference.warmup_provider_markets(reference, 7)
    market_reference.run_markets(reference._markets.values(), 25)
    vector = CloudProvider(seed=13)
    vector.lattice = MarketLattice(
        list(vector._markets.values()), noise_block=4, history_chunk=3
    )
    vector.warmup_markets(7)
    vector.engine.run_until(25 * HOUR)
    _assert_markets_equal(reference, vector)


def test_standalone_lattice_matches_reference_warmup():
    # The dataset generators' shape: markets outside any provider, one
    # lattice, daily steps via warmup.
    def build(seed):
        return SpotMarket(
            profile=MarketProfile(region="eu-west-1", instance_type="c5.xlarge"),
            od_price=0.2,
            rng=np.random.default_rng(seed),
            step_interval=DAY,
        )

    reference, market = build(21), build(21)
    market_reference.warmup_market(reference, 300, start_time=5.0)
    MarketLattice([market], noise_block=128, history_chunk=256).warmup(300, start_time=5.0)
    assert list(reference.price_trace()) == list(market.price_trace())
    assert list(reference.metric_history) == list(market.metric_history)


def test_force_frequency_writes_through_to_lattice():
    provider = CloudProvider(seed=3)
    market = next(iter(provider._markets.values()))
    market.force_frequency(3000.0)
    assert market.interruption_frequency == 3000.0


def test_lattice_requires_markets_and_uniform_interval():
    with pytest.raises(ValueError):
        MarketLattice([])
    provider = CloudProvider(seed=5)
    markets = list(provider._markets.values())
    markets[0].step_interval = 2 * HOUR
    with pytest.raises(ValueError):
        MarketLattice(markets).warmup(3)


def test_trace_returns_live_view_not_copy():
    provider = CloudProvider(seed=9)
    market = next(iter(provider._markets.values()))
    provider.engine.run_until(3 * HOUR)
    view = market.price_process.trace()
    assert view is market.price_process.trace()
    assert len(view) == 3
    provider.engine.run_until(5 * HOUR)
    # The view tracks later appends instead of freezing a copy.
    assert len(market.price_process.trace()) == 5


def test_trace_buffer_reads_like_tuple_list():
    buffer = TraceBuffer(2, capacity=2)
    rows = [(0.0, 1.5), (1.0, 2.5), (2.0, 3.5)]
    for row in rows:
        buffer.append(row)  # third append crosses the growth boundary
    assert len(buffer) == 3
    assert buffer[0] == rows[0]
    assert buffer[-1] == rows[-1]
    assert buffer[1:] == rows[1:]
    assert list(buffer) == rows
    assert buffer == rows
    assert [time for time, _ in buffer] == [0.0, 1.0, 2.0]
    with pytest.raises(IndexError):
        buffer[3]


def test_trace_buffer_columns_and_equality():
    buffer = TraceBuffer(2)
    buffer.extend_columns(np.array([0.0, 1.0]), np.array([5.0, 6.0]))
    assert buffer.column(1).tolist() == [5.0, 6.0]
    with pytest.raises(ValueError):
        buffer.column(1)[0] = 9.9  # read-only view
    with pytest.raises(ValueError):
        buffer.extend_columns(np.array([2.0]))  # wrong column count
    other = TraceBuffer(2)
    other.append((0.0, 5.0))
    other.append((1.0, 6.0))
    assert buffer == other
    other.append((2.0, 7.0))
    assert buffer != other
    buffer.clear()
    assert len(buffer) == 0 and buffer == []
