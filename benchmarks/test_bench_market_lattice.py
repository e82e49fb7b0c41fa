"""Benchmark: vectorized market lattice vs scalar market stepping.

Steps every calibrated market (the full 12-region x 4-type book) for a
few simulated weeks two ways — the scalar reference stepper in
``tests/market_reference.py`` (one Python loop iteration, three scalar
normal draws, and a tuple append per market per hour) and the
provider's :class:`~repro.cloud.lattice.MarketLattice` — and asserts:

* same-seed price and metric traces are **bit-identical**, and
* the lattice is at least 3x faster at pure market stepping.

The committed ``BENCH_test_market_lattice_stepping.json`` carries the
measured speedup so CI history shows the fast path staying fast.
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.cloud.provider import CloudProvider
from repro.sim.clock import HOUR
from tests import market_reference

#: Simulated market-stepping horizon.  Long enough that stepping (not
#: provider construction) dominates the wall time on both paths.
HOURS = 24 * 21

#: Required advantage of the vectorized path (ISSUE acceptance bar).
MIN_SPEEDUP = 3.0


def _run_markets(vectorized: bool) -> CloudProvider:
    provider = CloudProvider(seed=11)
    if vectorized:
        provider.engine.run_until(HOURS * HOUR)
    else:
        market_reference.run_markets(provider._markets.values(), HOURS)
    provider.shutdown()
    return provider


def test_market_lattice_stepping(benchmark):
    scalar_start = time.perf_counter()
    scalar_provider = _run_markets(vectorized=False)
    scalar_wall = time.perf_counter() - scalar_start

    extra = {"scalar_wall_seconds": round(scalar_wall, 4)}

    def vectorized_run():
        start = time.perf_counter()
        provider = _run_markets(vectorized=True)
        wall = time.perf_counter() - start
        # Filled mid-run so run_once picks these up for the baseline.
        extra["vectorized_wall_seconds"] = round(wall, 4)
        extra["speedup_vs_scalar"] = round(scalar_wall / wall, 2)
        return provider

    vector_provider = run_once(benchmark, vectorized_run, extra=extra)
    speedup = extra["speedup_vs_scalar"]

    # Bit-exact equivalence: every market's recorded price and metric
    # series must match the scalar reference sample for sample.
    for key, scalar_market in scalar_provider._markets.items():
        vector_market = vector_provider._markets[key]
        assert list(scalar_market.price_trace()) == list(vector_market.price_trace()), key
        assert list(scalar_market.metric_history) == list(vector_market.metric_history), key

    assert speedup >= MIN_SPEEDUP, (
        f"vectorized market stepping only {speedup:.2f}x faster than scalar "
        f"(required {MIN_SPEEDUP:g}x): scalar {scalar_wall:.3f}s, "
        f"vectorized {extra['vectorized_wall_seconds']:.3f}s"
    )
