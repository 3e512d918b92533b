"""The names the benchmark's span tracer binds to must exist in the package.

``perfbench/spans.py`` wraps functions and methods of ``ofdm_music`` by name
and reads some of their parameters by name (``n_seeds`` and ``grid`` of
``refine_candidates``, ``report`` of ``assign_and_score``). A rename there
would leave its counters at zero; this guard fails on it in the package's own
test run. So would a refiner that valued its peaks other than through
``SpectrumEvaluator.value``, the point evaluation the tracer counts.
"""

import os

import ofdm_music

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench")


def test_traced_mc_sweep_counts_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans
    import workloads

    workload = workloads.McSweep(seed=3)
    workload.setup()
    tracer = spans.Tracer()
    restore = spans.instrument(tracer, ofdm_music)
    try:
        for i in range(4):
            with tracer.operation(units=1):
                workload.execute(workload.prepare(i))
    finally:
        restore()
    for counter in ("decompose", "seeds", "score"):
        assert tracer.counts[counter] > 0, counter
    assert ofdm_music.harness.run_trial.__globals__["detect"] is ofdm_music.detect


def test_traced_estimate_frames_counts_refinement_and_point_values(
        monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans
    import workloads

    workload = workloads.make("estimate-frames", 3, str(tmp_path / "work"))
    workload.setup()
    tracer = spans.Tracer()
    restore = spans.instrument(tracer, ofdm_music)
    try:
        for i in range(workload.op_quantum):
            frame = workload.prepare(i)
            with tracer.operation(units=1):
                workload.execute(frame)
    finally:
        restore()
        workload.close()
    assert tracer.point_calls > 0
    assert tracer.self_ns["detection.refine"]
    assert tracer.counts["seeds"] > 0 and tracer.counts["peaks"] > 0


def test_every_workload_runs_one_quantum(monkeypatch, tmp_path):
    # The signatures the workloads call: detect, run_trial, calibrate_kappa,
    # run_sweep and the config builders.
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    for name in ("mc-sweep", "calibrate", "estimate-frames"):
        workload = workloads.make(name, 5, str(tmp_path / "work"))
        workload.setup()
        try:
            for i in range(workload.op_quantum):
                prepared = workload.prepare(i)
                assert workload.check(prepared, workload.execute(prepared)) == [], \
                    (name, i)
        finally:
            workload.close()

    sweep = workloads.McSweepParallel(5, n_workers=1)
    sweep.setup()
    try:
        point = sweep.cfg.scenario.range_diffs_m[:1]
        summary = sweep.sweep(sweep.scenario(0, point), 1)
    finally:
        sweep.close()
    assert summary.x_axis == point
    assert summary.n_trials == sweep.trials_per_point
    assert workloads.finite(*summary.p_missed, *summary.rmse_range_m,
                            *summary.rmse_azimuth_deg)
