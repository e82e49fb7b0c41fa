"""The CI perf guardrail comparator (benchmarks/check_regression.py)."""

import importlib.util
import json
import pathlib
import sys

import pytest

_MODULE_PATH = (
    pathlib.Path(__file__).parent.parent / "benchmarks" / "check_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_regression", _MODULE_PATH)
check_regression = importlib.util.module_from_spec(_spec)
# Registered before exec so dataclass string-annotation resolution
# (from __future__ import annotations) can find the module.
sys.modules["check_regression"] = check_regression
_spec.loader.exec_module(check_regression)


def _payload(name="bench", wall=1.0, tput=1000.0, rss=100_000_000):
    return {
        "benchmark": name,
        "wall_seconds": wall,
        "sim_events_per_second": tput,
        "peak_rss_bytes": rss,
    }


def test_identical_payloads_pass():
    assert check_regression.compare_payloads(_payload(), _payload()) == []


def test_within_tolerance_passes():
    fresh = _payload(wall=1.5, tput=700.0, rss=150_000_000)
    assert check_regression.compare_payloads(_payload(), fresh) == []


def test_each_metric_breach_detected():
    slow = check_regression.compare_payloads(_payload(), _payload(wall=2.0))
    assert [v.metric for v in slow] == ["wall_seconds"]
    cold = check_regression.compare_payloads(_payload(), _payload(tput=100.0))
    assert [v.metric for v in cold] == ["sim_events_per_second"]
    fat = check_regression.compare_payloads(_payload(), _payload(rss=500_000_000))
    assert [v.metric for v in fat] == ["peak_rss_bytes"]
    assert "peak_rss_bytes" in fat[0].render()


def test_zero_baseline_metrics_are_skipped():
    baseline = _payload(wall=0.0, tput=0.0, rss=0)
    fresh = _payload(wall=100.0, tput=0.0, rss=10**12)
    assert check_regression.compare_payloads(baseline, fresh) == []


def test_custom_tolerances():
    fresh = _payload(wall=1.5)
    assert check_regression.compare_payloads(_payload(), fresh, wall_tol=1.1)
    assert not check_regression.compare_payloads(_payload(), fresh, wall_tol=2.0)


def _write(directory, payload):
    path = directory / f"BENCH_{payload['benchmark']}.json"
    path.write_text(json.dumps(payload))


def test_check_directories_compares_shared_files(tmp_path):
    baseline_dir = tmp_path / "baseline"
    fresh_dir = tmp_path / "fresh"
    baseline_dir.mkdir()
    fresh_dir.mkdir()
    _write(baseline_dir, _payload("shared"))
    _write(baseline_dir, _payload("retired"))
    _write(fresh_dir, _payload("shared", wall=5.0))
    _write(fresh_dir, _payload("brand_new", wall=99.0))
    violations = check_regression.check_directories(baseline_dir, fresh_dir)
    # Only the shared benchmark is enforced; one-sided files are notes.
    assert [v.benchmark for v in violations] == ["shared"]


def test_main_exit_codes(tmp_path, capsys):
    baseline_dir = tmp_path / "baseline"
    fresh_dir = tmp_path / "fresh"
    baseline_dir.mkdir()
    fresh_dir.mkdir()
    _write(baseline_dir, _payload("ok"))
    _write(fresh_dir, _payload("ok"))
    argv = ["--fresh", str(fresh_dir), "--baseline", str(baseline_dir)]
    assert check_regression.main(argv) == 0
    _write(fresh_dir, _payload("ok", wall=10.0))
    assert check_regression.main(argv) == 1
    assert "wall_seconds" in capsys.readouterr().out
    assert check_regression.main(["--fresh", str(tmp_path / "missing")]) == 2


def test_repo_baselines_are_valid_json():
    directory = _MODULE_PATH.parent / "_baselines"
    names = sorted(path.name for path in directory.glob("BENCH_*.json"))
    assert names, "committed benchmark baselines are missing"
    for path in directory.glob("BENCH_*.json"):
        payload = json.loads(path.read_text())
        assert payload["benchmark"] == path.stem[len("BENCH_"):]
        assert payload["wall_seconds"] >= 0


def _sweep_payload(speedup, cpu_count, jobs=4):
    payload = _payload("parallel", wall=1.0)
    payload["speedup_vs_serial"] = speedup
    payload["cpu_count"] = cpu_count
    payload["jobs"] = jobs
    return payload


def test_speedup_enforced_between_many_core_runs():
    baseline = _sweep_payload(3.0, cpu_count=8)
    ok = _sweep_payload(2.2, cpu_count=8)
    assert check_regression.compare_payloads(baseline, ok) == []
    collapsed = _sweep_payload(1.2, cpu_count=8)
    violations = check_regression.compare_payloads(baseline, collapsed)
    assert [v.metric for v in violations] == ["speedup_vs_serial"]


def test_speedup_low_core_run_only_checks_serial_fallback_floor():
    # Baseline from an 8-core runner, fresh run on 1 core: near-linear
    # speedup is impossible there, so only the fallback floor applies.
    baseline = _sweep_payload(3.0, cpu_count=8)
    serial_fallback = _sweep_payload(0.97, cpu_count=1)
    assert check_regression.compare_payloads(baseline, serial_fallback) == []
    # The historical 1-core mis-fire: the pool time-slicing four
    # workers on one CPU measured 0.35x — that must now fail.
    thrash = _sweep_payload(0.35, cpu_count=1)
    violations = check_regression.compare_payloads(baseline, thrash)
    assert [v.metric for v in violations] == ["speedup_vs_serial"]
    assert "serial fallback" in violations[0].render()


def test_speedup_ignored_when_either_side_lacks_it():
    assert check_regression.compare_payloads(
        _payload(), _sweep_payload(0.2, cpu_count=1)
    ) == []


def test_profiler_overhead_enforced():
    baseline = _payload("overhead")
    baseline["profiler_overhead_x"] = 1.1
    ok = _payload("overhead")
    ok["profiler_overhead_x"] = 1.3
    assert check_regression.compare_payloads(baseline, ok) == []
    bloated = _payload("overhead")
    bloated["profiler_overhead_x"] = 2.5
    violations = check_regression.compare_payloads(baseline, bloated)
    assert [v.metric for v in violations] == ["profiler_overhead_x"]


def test_streaming_overhead_enforced():
    baseline = _payload("overhead")
    baseline["streaming_overhead_x"] = 1.16
    ok = _payload("overhead")
    ok["streaming_overhead_x"] = 1.4
    assert check_regression.compare_payloads(baseline, ok) == []
    bloated = _payload("overhead")
    bloated["streaming_overhead_x"] = 2.5
    violations = check_regression.compare_payloads(baseline, bloated)
    assert [v.metric for v in violations] == ["streaming_overhead_x"]


@pytest.mark.parametrize("env_name, flag", [
    ("SPOTVERSE_BENCH_WALL_TOL", "wall_tol"),
    ("SPOTVERSE_BENCH_TPUT_TOL", "tput_tol"),
    ("SPOTVERSE_BENCH_RSS_TOL", "rss_tol"),
])
def test_env_tolerance_overrides(monkeypatch, env_name, flag):
    monkeypatch.setenv(env_name, "9.5")
    assert check_regression._env_tol(env_name, 1.0) == 9.5
    monkeypatch.delenv(env_name)
    assert check_regression._env_tol(env_name, 1.0) == 1.0


def test_fanout_speedup_enforced():
    baseline = _payload("dag_fanout")
    baseline["fanout_speedup_x"] = 5.4
    ok = _payload("dag_fanout")
    ok["fanout_speedup_x"] = 4.0  # within the 1.6x band, above the floor
    assert check_regression.compare_payloads(baseline, ok) == []
    eroded = _payload("dag_fanout")
    eroded["fanout_speedup_x"] = 2.9  # breaks both band and floor
    violations = check_regression.compare_payloads(baseline, eroded)
    assert [v.metric for v in violations] == [
        "fanout_speedup_x",
        "fanout_speedup_x",
    ]
    assert any("absolute floor" in v.render() for v in violations)
    # Even inside the relative band, the acceptance floor is absolute.
    baseline_low = _payload("dag_fanout")
    baseline_low["fanout_speedup_x"] = 3.2
    slipped = _payload("dag_fanout")
    slipped["fanout_speedup_x"] = 2.5  # 3.2/1.6 = 2.0 < 2.5, band OK
    violations = check_regression.compare_payloads(baseline_low, slipped)
    assert [v.limit for v in violations] == [">= 3 (absolute floor)"]
    # One-sided payloads are never enforced (new benchmark landing).
    assert check_regression.compare_payloads(_payload(), eroded) == []


def test_throughput_floor_enforced():
    baseline = _payload("fig3", tput=33000.0)
    baseline["floor_events_per_second"] = 32400.0
    # Fresh run inside the relative band AND above floor/tol: passes.
    ok = _payload("fig3", tput=25000.0)
    assert check_regression.compare_payloads(baseline, ok) == []
    # A slide below floor/tol fails (here the relative band breaks too;
    # the floor violation is the one naming the absolute limit).
    regressed = _payload("fig3", tput=15000.0)
    violations = check_regression.compare_payloads(baseline, regressed)
    assert [v.metric for v in violations] == [
        "sim_events_per_second",
        "sim_events_per_second",
    ]
    assert any("floor" in v.render() for v in violations)


def test_throughput_floor_is_independent_of_relative_band():
    # The floor binds even when the committed payload carries no
    # throughput of its own (so the relative band is skipped) — a
    # regenerated baseline cannot silently drop the guarantee.
    baseline = _payload("fig3", tput=0.0)
    baseline["floor_events_per_second"] = 32400.0
    regressed = _payload("fig3", tput=15000.0)
    violations = check_regression.compare_payloads(baseline, regressed)
    assert [v.metric for v in violations] == ["sim_events_per_second"]
    assert "floor" in violations[0].render()
    assert check_regression.compare_payloads(
        baseline, _payload("fig3", tput=25000.0)
    ) == []
