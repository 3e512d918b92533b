"""Tests of the benchmark itself. Run from the repository root with

    python3 -m pytest -q perfbench/bench_tests.py

The file name keeps them out of the package's own test collection.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

import measure  # noqa: E402
import ofdm_music  # noqa: E402
import percentiles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


# -- percentile rule ---------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert percentiles.reportable_percentile(n) == expected


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))      # 1..100, unsorted
    assert percentiles.percentile(values, 50) == 50
    assert percentiles.percentile(values, 90) == 90
    assert percentiles.percentile(values, 100) == 100
    assert percentiles.percentile([7.0], 90) == 7.0
    assert percentiles.samples_beyond(100, 90) == 10
    with pytest.raises(ValueError):
        percentiles.percentile([], 50)


def test_quartile_spread():
    assert percentiles.quartile_spread([10.0] * 10) == 0.0
    assert percentiles.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == \
        pytest.approx((8.25 - 2.75) / 5.5)


# -- self time of nested spans -----------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans, "perf_counter_ns", clock)
    tracer = spans.Tracer()

    def point():
        clock.now += 3

    def inner():
        clock.now += 10
        traced_point()

    def outer():
        clock.now += 1
        traced_inner()
        clock.now += 2
        traced_inner()

    traced_point = tracer.point_eval(point)
    traced_inner = tracer.span("inner", inner)
    traced_outer = tracer.span("outer", outer)
    traced_outer()                      # outside an operation: not recorded
    assert not tracer.self_ns["outer"] and tracer.point_calls == 0
    with tracer.operation(units=2):
        clock.now += 4
        traced_outer()
    assert tracer.op_ns == [4 + 1 + 2 + 2 * (10 + 3)]
    assert tracer.self_ns["outer"] == [3]
    assert tracer.self_ns["inner"] == [10, 10]
    assert (tracer.point_calls, tracer.point_ns) == (2, 6)
    assert tracer.op_self_ns == 4
    assert tracer.units == 2
    total = tracer.op_ns[0]
    assert sum(map(sum, tracer.self_ns.values())) + tracer.point_ns + \
        tracer.op_self_ns == total


def test_span_records_on_error(monkeypatch):
    tracer = spans.Tracer()
    seen = []

    def fails():
        raise KeyError("x")
    traced = tracer.span("fails", fails, on_error=seen.append)
    with pytest.raises(KeyError):
        with tracer.operation(units=1):
            traced()
    assert len(tracer.self_ns["fails"]) == 1 and isinstance(seen[0], KeyError)


# -- speed reference ---------------------------------------------------------

def test_speed_factors_use_the_samples_around_each_operation(monkeypatch):
    samples = iter([1.0, 3.0, 1.0])
    monkeypatch.setattr(speed, "sample", lambda: next(samples))
    track = speed.SpeedTrack()
    track.after_op(2, force=True)
    track.after_op(3, force=True)
    nominal = speed.NOMINAL_S
    assert track.factors(3) == [nominal / 2.0, nominal / 2.0, nominal / 2.0]
    assert speed.kernel() == speed.kernel()


# -- metric names ------------------------------------------------------------

def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_metric_names_follow_the_pattern_and_are_unique():
    bench = _bench()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert percentiles.valid_metric_name(name), name
    assert not percentiles.valid_metric_name("bad name")
    assert not percentiles.valid_metric_name(".leading-dot")
    assert not percentiles.valid_metric_name("x" * 65)


def test_benchmark_json_matches_the_reported_metrics():
    bench = _bench()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert bench["paths"] == ["perfbench"]
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


# -- smoke runs --------------------------------------------------------------

@pytest.fixture
def work_dir(tmp_path):
    return str(tmp_path / "work")


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_run_of_each_workload(name, work_dir):
    workload = workloads.make(name, seed=5, work_dir=work_dir)
    workload.setup()
    try:
        phase = measure.run_loop(workload, seconds=0.0, max_ops=workload.op_quantum)
        checks = measure.Checks()
        checks.add_phase(workload, phase, "smoke")
        checks.run("rerun", lambda: workload.rerun_check(phase.outputs, count=1))
        assert checks.failed == 0, checks.messages
        assert phase.raw_latencies() and all(s > 0 for s in phase.raw_latencies())
        assert len(phase.factors) == len(phase) and all(f > 0 for f in phase.factors)
    finally:
        workload.close()


def test_traced_operation_accounts_for_its_time(work_dir):
    workload = workloads.make("mc-sweep", seed=5, work_dir=work_dir)
    workload.setup()
    plain = workload.execute(workload.prepare(0))
    tracer = spans.Tracer()
    restore = spans.instrument(tracer, ofdm_music)
    try:
        with tracer.operation(units=1):
            traced = workload.execute(workload.prepare(0))
    finally:
        restore()
    assert ofdm_music.detect.__name__ == "detect"
    assert ofdm_music.harness.run_trial.__globals__["detect"] is ofdm_music.detect
    assert workload.fingerprint(traced) == workload.fingerprint(plain)
    metrics = spans.layer_metrics(tracer)
    assert set(metrics) <= set(spans.PER_LAYER)
    shares = [v for k, v in metrics.items() if k.endswith("share")
              and k.rsplit(".", 1)[0] in spans.SPANS + (spans.POINT_EVAL,)]
    assert sum(shares) + metrics["trace.remainder_share"] == pytest.approx(1.0)
    assert metrics["detection.detect.calls"] == 1.0
    assert metrics["music.point_eval.calls"] > 0


def _run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_the_result_line_last(trace):
    proc = _run_cli("--workload", "calibrate", "--seed", "3", "--seconds", "0",
                    "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = measure.END_TO_END if trace == "0" else spans.PER_LAYER
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
    assert report["provenance"]["seed"] == 3


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_cli("--workload", "mc-sweep", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
