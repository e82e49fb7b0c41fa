"""Scalar reference stepper for spot markets.

:class:`~repro.cloud.lattice.MarketLattice` is the only code in
``src/`` that advances a market.  This module keeps the per-market,
one-draw-at-a-time form of the same dynamics as the oracle the lattice
is proven against (``tests/test_lattice.py``) and timed against
(``benchmarks/test_bench_market_lattice.py``).

The functions operate on a freshly built market's ``_rng`` and scalar
state — a market whose lattice has not stepped yet, so its stream is
untouched.  The expressions are the original scalar ones, kept verbatim
(association order included): equality with the lattice is bit-exact,
not approximate.
"""

from __future__ import annotations

from typing import Iterable

from repro.cloud.lattice import (
    FREQ_MAX,
    FREQ_MIN,
    PLACEMENT_MAX,
    PLACEMENT_MIN,
    WALK_REVERSION,
)


def _bounded(value: float, lo: float, hi: float) -> float:
    return min(max(value, lo), hi)


def step_price(market, now: float) -> float:
    """Advance the market's spot price one interval; returns the new price."""
    process = market.price_process
    noise = market.profile.spot_volatility * process._mean * float(market._rng.standard_normal())
    drift = process._kappa * (process._mean - process._price)
    process._price = process._clamp(process._price + drift + noise)
    process.history.append((now, process._price))
    return process._price


def step_market(market, now: float) -> None:
    """Advance price, placement score and frequency one interval."""
    step_price(market, now)
    # Mean-reverting bounded walks.  Reversion keeps each market in
    # its calibrated band; the noise produces the regional drift of
    # Figure 4.
    market._placement = _bounded(
        market._placement
        + WALK_REVERSION * (market.profile.placement_mean - market._placement)
        + market.profile.placement_volatility * float(market._rng.standard_normal()),
        PLACEMENT_MIN,
        PLACEMENT_MAX,
    )
    market._freq = _bounded(
        market._freq
        + WALK_REVERSION * (market.profile.interruption_freq_pct - market._freq)
        + market.profile.freq_volatility * float(market._rng.standard_normal()),
        FREQ_MIN,
        FREQ_MAX,
    )
    market._metric_history.append((now, market._placement, market._freq))


def warmup_market(market, steps: int, start_time: float = 0.0) -> None:
    """Step the market *steps* times at ``start_time + (i + 1) * interval``."""
    for i in range(steps):
        step_market(market, start_time + (i + 1) * market.step_interval)


def run_markets(markets: Iterable, steps: int, start_time: float = 0.0) -> None:
    """Step every market *steps* times, step-major like the engine tick."""
    markets = list(markets)
    interval = markets[0].step_interval
    for i in range(steps):
        now = start_time + (i + 1) * interval
        for market in markets:
            step_market(market, now)


def warmup_provider_markets(provider, steps: int) -> None:
    """Reference ``CloudProvider.warmup_markets``: burn-in, then drop history."""
    for market in provider._markets.values():
        warmup_market(market, steps, start_time=-steps * market.step_interval)
        market.price_process.history.clear()
        market._metric_history.clear()
