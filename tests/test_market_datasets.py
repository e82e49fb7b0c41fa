"""Digest gate for the market dataset generators (Figures 2 and 4).

``generate_price_traces``, ``generate_advisor_dataset`` and
``generate_placement_dataset`` replay calibrated markets into the
series the Figure 2 and Figure 4 analyses consume.  The committed
fixture pins a sha256 of each generator's full output for fixed seeds,
so any change to how markets are stepped — noise order, arithmetic,
history recording — shows up here as a digest mismatch.

Floats are serialised with ``json`` (shortest round-trip ``repr``), so
the digest moves if any single bit of any sample moves.

Regenerate ONLY when a change is meant to alter market dynamics:
``PYTHONPATH=src python -m tests.test_market_datasets``.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.data.placement import generate_placement_dataset
from repro.data.spot_advisor import generate_advisor_dataset
from repro.data.traces import generate_price_traces

FIXTURE_PATH = Path(__file__).parent / "data" / "golden_market_datasets.json"


def _sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _price_traces():
    traces = generate_price_traces(["m5.xlarge", "c5.2xlarge"], days=30, seed=7)
    return [
        [trace.region, trace.az, trace.instance_type, trace.times, trace.prices]
        for trace in traces
    ]


def _advisor():
    dataset = generate_advisor_dataset(days=60, seed=3)
    return [dataclasses.astuple(record) for record in dataset.records]


def _placement():
    dataset = generate_placement_dataset(days=60, seed=5)
    return [dataclasses.astuple(record) for record in dataset.records]


DATASETS = {
    "price_traces_2types_30d_seed7": _price_traces,
    "advisor_60d_seed3": _advisor,
    "placement_60d_seed5": _placement,
}


def compute_digests():
    """``{dataset name: {"rows": n, "sha256": hex}}`` for every dataset."""
    digests = {}
    for name, build in DATASETS.items():
        rows = build()
        digests[name] = {"rows": len(rows), "sha256": _sha256(rows)}
    return digests


@pytest.fixture(scope="module")
def fixture():
    assert FIXTURE_PATH.exists(), "dataset digest fixture missing"
    return json.loads(FIXTURE_PATH.read_text())


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_dataset_digest_unchanged(name, fixture):
    rows = DATASETS[name]()
    assert len(rows) == fixture[name]["rows"]
    assert _sha256(rows) == fixture[name]["sha256"]


def test_fixture_covers_every_dataset(fixture):
    assert set(fixture) == set(DATASETS)


if __name__ == "__main__":
    FIXTURE_PATH.write_text(json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE_PATH}")
