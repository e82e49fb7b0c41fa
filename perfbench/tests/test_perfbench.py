"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, metrics  # noqa: E402
from perfbench.run import input_seeds, measure, run_iteration  # noqa: E402
from perfbench.tracer import SpanTracer, layer_for_label  # noqa: E402
from perfbench.workloads import MAX_HOURS, WORKLOADS  # noqa: E402
from repro.core.fleet.state import FleetStateStore  # noqa: E402
from repro.sim.engine import SimulationEngine  # noqa: E402

#: Tiny per-workload sizes: big enough that each workload still
#: exercises its layers (spot-churn sees interruptions, tenant-fleet
#: queues behind quotas), small enough to run in seconds.
TINY = {"tenant-fleet": 500, "spot-churn": 40, "dag-fanout": 6}
SEED = 3


def _build(name: str, input_seed: int = SEED):
    cls = WORKLOADS[name]
    return cls(SimulationEngine(seed=cls.sim_seed), input_seed, TINY[name])


def _run(name: str, input_seed: int = SEED):
    workload = _build(name, input_seed)
    return workload, workload.run()


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    out = measure(name, SEED, seconds=0, trace=trace, size=TINY[name])
    assert out["correct"], out["problems"]
    assert out["failed"] == 0 and out["attempted"] > 0
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(out["metrics"]) == [metric for metric, _ in table]
    for metric, unit in table:
        entry = out["metrics"][metric]
        assert entry["unit"] == unit
        assert isinstance(entry["value"], (int, float))
    if trace:
        assert out["metrics"]["trace.other_frac"]["value"] <= 0.05
    else:
        for metric, _ in metrics.END_TO_END:
            assert out["metrics"][metric]["value"] > 0, metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_a_dropped_record_trips_the_checks(name):
    workload, result = _run(name)
    assert checks.check(workload, result) == []
    result.records.pop()
    assert any("records" in failure for failure in checks.check(workload, result))


def test_a_tampered_cost_trips_the_checks():
    workload, result = _run("dag-fanout")
    result.total_cost += 0.01
    assert any("ledger total" in failure for failure in checks.check(workload, result))


def test_a_stage_started_early_trips_the_checks():
    workload, result = _run("dag-fanout")
    merge = next(r for r in result.records if r.workload_id.endswith(":merge"))
    merge.attempt_starts[0] = 0.0
    assert any("precede" in failure for failure in checks.check(workload, result))


def test_a_miscounted_decision_log_trips_the_checks():
    workload, result = _run("tenant-fleet")
    workload.provider.telemetry.decisions.decisions_dropped += 1
    assert any("decision log" in failure for failure in checks.check(workload, result))


def test_a_second_completion_trips_the_checks():
    workload, result = _run("spot-churn")
    workload.audit.done[result.records[0].workload_id] += 1
    assert any("more than once" in failure for failure in checks.check(workload, result))


def test_run_seeds_select_disjoint_input_sets():
    assert set(input_seeds(1)).isdisjoint(input_seeds(2))
    assert input_seeds(1) == input_seeds(1)


def test_seed_drives_inputs_and_digest():
    first, second = _build("dag-fanout", 1), _build("dag-fanout", 2)
    durations = [
        [stage.workload.total_duration for dag in w.dags for stage in dag.stages]
        for w in (first, second)
    ]
    assert durations[0] != durations[1]
    again = run_iteration("dag-fanout", 1, TINY["dag-fanout"])
    assert run_iteration("dag-fanout", 1, TINY["dag-fanout"]).digest == again.digest
    assert run_iteration("dag-fanout", 2, TINY["dag-fanout"]).digest != again.digest


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_digests_match(name):
    untraced = run_iteration(name, SEED, TINY[name])
    traced = run_iteration(name, SEED, TINY[name], traced=True)
    assert traced.digest == untraced.digest
    assert traced.sim == untraced.sim
    assert traced.spans["self_seconds"]


def test_tracer_uninstall_restores_every_attribute():
    original = FleetStateStore.flush
    tracer = SpanTracer()
    tracer.install()
    assert FleetStateStore.flush is not original
    tracer.uninstall()
    assert FleetStateStore.flush is original


def test_every_engine_label_maps_to_a_named_layer():
    for label in (
        "tenancy:admit", "dag:release", "exec:wl-1:seg0", "ec2:fulfill:sir-1",
        "ec2:interruption-eval", "ec2:reclaim:i-1", "markets:step",
        "cloudwatch:spotverse-collect-metrics", "cloudwatch:spotverse-open-request-sweep",
        "sfn:spotverse-reacquire", "eventbridge:spotverse-on-interruption",
    ):
        assert layer_for_label(label) != "other", label
    assert layer_for_label("") == "other"


def test_spot_churn_resume_matches_an_uninterrupted_run():
    resumed, resumed_result = _run("spot-churn")
    plain = _build("spot-churn")
    plain_result = plain.controller.run(plain.inputs, max_hours=MAX_HOURS)
    assert checks.sim_outcome(resumed, resumed_result) == checks.sim_outcome(plain, plain_result)
    assert [r.to_item() for r in resumed_result.records] == [
        r.to_item() for r in plain_result.records
    ]


def test_run_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tenant-fleet", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
