"""Acceptance suite: one test per release criterion, with pinned tolerances.

Each test prints a `criterion N: PASS/FAIL` line (run with ``pytest -s`` to
see them live). The Monte Carlo criteria use desk-scale trial counts and are
the slow part of the suite; everything is seeded and deterministic.

Criterion 9 (end-to-end noise-only false-alarm band) is expected to FAIL:
order selection on noise-only scenes returns zero sources essentially always
(measured 0/3000), which short-circuits detection before any threshold
comparison, so no calibration factor can raise the empty-scene alarm rate
into the demanded band. The test still measures it faithfully.
"""

import math
import os

import numpy as np
import pytest

from ofdm_music import (AlreadyCanceledError, Detection, DetectorConfig,
                        GridConfig, Routine, ScenarioSpec, Target, TargetScene,
                        calibrate_kappa, cancel_target, covariance,
                        decompose, detect, flop_estimate,
                        make_plan, mdl_order, music_value, noise_variance_for_snr,
                        range_resolution, run_sweep, smooth, steering_angle,
                        steering_params, steering_range, synthesize_csi,
                        unambiguous_range)
from ofdm_music.harness import _sub_seed
from ofdm_music.presets import (baseline_plan, baseline_radio, equal_m_plan,
                                range_only_plan)

from oracles import decimated_steering

N_WORKERS = min(2, os.cpu_count() or 1)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_closed_form_reproduction():
    radio = baseline_radio()
    plan = baseline_plan(radio)
    dr = range_resolution(radio, plan)
    r_max = unambiguous_range(radio, plan)
    ok = (abs(dr - 1.781) <= 0.005
          and r_max == 25.0
          and plan.n_sub_f == 15 and plan.n_sub_a == 3
          and plan.samples_per_subarray == 45 and plan.n_subarrays == 200)
    report(1, ok, f"dr={dr:.4f} m, r_max={r_max}, "
                  f"counts=({plan.n_sub_f},{plan.n_sub_a},"
                  f"{plan.samples_per_subarray},{plan.n_subarrays})")


def test_criterion_2_flop_model():
    base = flop_estimate(45, 2)
    full = flop_estimate(4203, 2)
    ratio = full / base
    ok = base == 174_150 and 8.0e5 <= ratio <= 9.0e5
    report(2, ok, f"flops(45,2)={base}, reduction={ratio:.4g}")


def test_criterion_3_equal_range_rank():
    radio = baseline_radio()
    targets = (Target(10.0, math.radians(-15), 1 + 0j),
               Target(10.0, math.radians(20), 0.8 + 0.3j))

    def rank(plan):
        csi = synthesize_csi(radio, TargetScene(targets, 0.0), 0)
        w = np.linalg.eigvalsh(covariance(smooth(csi, plan)).matrix)[::-1]
        return int(np.sum(w > 1e-6 * w[0]))

    freq_only = make_plan(radio, 1401, 4, 100, 1, 1, 1)   # antenna sets: 1
    two_sets = baseline_plan(radio)                       # antenna sets: 2
    r1, r2 = rank(freq_only), rank(two_sets)
    report(3, r1 == 1 and r2 == 2,
           f"rank(frequency-striding only)={r1}, rank(two antenna sets)={r2}")


def test_criterion_4_single_target_accuracy():
    radio = baseline_radio()
    plan = baseline_plan(radio)
    params = steering_params(radio, plan)
    gc = GridConfig(radio, plan)
    dc = DetectorConfig()
    rng = np.random.default_rng(40_001)
    range_errors, angle_errors = [], []
    for i in range(100):
        r = float(rng.uniform(1.0, 24.0))
        th = float(np.radians(rng.uniform(-60.0, 60.0)))
        tgt = Target(r, th, complex(np.exp(2j * np.pi * rng.uniform()) / r ** 2))
        sigma2 = noise_variance_for_snr(TargetScene((tgt,), 0.0), radio, 20.0)
        csi = synthesize_csi(radio, TargetScene((tgt,), sigma2), 50_000 + i)
        subs = decompose(covariance(smooth(csi, plan)))
        rep = detect(subs, params, gc, dc)
        if rep.detections:
            best = max(rep.detections, key=lambda d: d.spectrum_value)
            range_errors.append(abs(best.range_m - r))
            angle_errors.append(abs(best.azimuth_rad - th))
        else:
            range_errors.append(math.inf)
            angle_errors.append(math.inf)
    med_r = float(np.median(range_errors))
    med_th = math.degrees(float(np.median(angle_errors)))
    ok = med_r < 0.02 and med_th < 0.5
    report(4, ok, f"median |dr|={med_r:.4f} m, median |dtheta|={med_th:.3f} deg "
                  f"(100 trials at 20 dB)")


def test_criterion_5_same_range_resolvability():
    radio = baseline_radio()
    spec = ScenarioSpec(n_trials=500, snr_db=15.0, range_diffs_m=(0.0,),
                        min_angle_sep_deg=20.0, rng_seed=50_005)
    dc = DetectorConfig(routine=Routine.MULTIPLE)
    p_2d = run_sweep(spec, radio, baseline_plan(radio), dc,
                     n_workers=N_WORKERS).p_missed[0]
    p_1d = run_sweep(spec, radio, range_only_plan(radio), dc,
                     n_workers=N_WORKERS).p_missed[0]
    ok = p_2d <= 0.10 and p_1d >= 0.95
    report(5, ok, f"p_missed 2D multiple={p_2d:.4f} (<=0.10), "
                  f"1D={p_1d:.4f} (>=0.95), J=500")


def test_criterion_6_routine_ordering():
    radio = baseline_radio()
    plan = baseline_plan(radio)
    j = 500
    p = {}
    for routine in (Routine.OFF, Routine.SINGLE, Routine.MULTIPLE):
        spec = ScenarioSpec(n_trials=j, snr_db=15.0, range_diffs_m=(0.0, 1.0),
                            rng_seed=60_006, base_range_max_m=24.0)
        summary = run_sweep(spec, radio, plan, DetectorConfig(routine=routine),
                            n_workers=N_WORKERS)
        p[routine] = summary.p_missed

    def ordered(p_off, p_other):
        # one-sided 95% allowance on the difference of two proportions
        pooled = (p_off + p_other) / 2.0
        se = math.sqrt(max(pooled * (1 - pooled) * 2.0 / j, 1e-12))
        return p_off >= p_other - 1.645 * se

    ok = all(ordered(p[Routine.OFF][i], p[other][i])
             for i in range(2)
             for other in (Routine.SINGLE, Routine.MULTIPLE))
    detail = ", ".join(f"{r.value}={[round(x, 4) for x in p[r]]}" for r in p)
    report(6, ok, f"p_missed at diffs (0, 1 m): {detail}")


def test_criterion_7_cancelation_nulling():
    radio = baseline_radio()
    plan = baseline_plan(radio)
    params = steering_params(radio, plan)
    targets = (Target(8.0, math.radians(-20), 0.0156 + 0j),
               Target(16.0, math.radians(30), 0.0039 + 0j))
    sigma2 = noise_variance_for_snr(TargetScene(targets, 0.0), radio, 120.0)
    csi = synthesize_csi(radio, TargetScene(targets, sigma2), 70_007)
    subs = decompose(covariance(smooth(csi, plan)))
    rep = detect(subs, params, GridConfig(radio, plan), DetectorConfig())
    first = max(rep.detections, key=lambda d: d.spectrum_value)
    pre = music_value(subs, decimated_steering(radio, plan, first.range_m,
                                               first.azimuth_rad))
    canceled = cancel_target(subs, GridConfig(radio, plan), first)
    post = music_value(canceled, decimated_steering(radio, plan, first.range_m,
                                                    first.azimuth_rad))
    drop_db = 10.0 * math.log10(pre / post)
    second_value = music_value(
        canceled, decimated_steering(radio, plan, 16.0, math.radians(30)))
    ok = drop_db >= 60.0 and second_value >= rep.threshold_used
    report(7, ok, f"drop at canceled peak={drop_db:.1f} dB (>=60), "
                  f"second peak {second_value:.3g} vs gamma "
                  f"{rep.threshold_used:.3g}")


def test_criterion_8_decimation_benefit():
    radio = baseline_radio()
    spec = ScenarioSpec(n_trials=300, snr_db=20.0, free_placement=True,
                        rng_seed=80_008, base_range_max_m=25.0)
    results = {}
    for decim in (100, 1):
        summary = run_sweep(spec, radio, equal_m_plan(decim, radio),
                            DetectorConfig(), n_workers=N_WORKERS)
        results[decim] = (summary.rmse_range_m[0], summary.p_missed[0])
    rmse_ratio = results[1][0] / results[100][0]
    ok = rmse_ratio >= 5.0 and results[100][1] < results[1][1]
    report(8, ok, f"range RMSE {results[100][0]:.3f} m vs {results[1][0]:.3f} m "
                  f"(x{rmse_ratio:.1f}), p_missed {results[100][1]:.4f} vs "
                  f"{results[1][1]:.4f}, J=300")


def test_criterion_9_cfar_soundness():
    radio = baseline_radio()
    plan = baseline_plan(radio)
    dc = DetectorConfig(p_fa=0.01)
    kappa = calibrate_kappa(radio, plan, dc, n_trials=1000, rng_seed=90_009,
                            n_workers=N_WORKERS)
    dc_cal = DetectorConfig(p_fa=0.01, kappa=kappa)
    params = steering_params(radio, plan)
    gc = GridConfig(radio, plan)
    alarms = 0
    trials = 1000
    for t in range(trials):
        seed = _sub_seed(90_010, 7, t)
        csi = synthesize_csi(radio, TargetScene((), 1.0), seed)
        subs = decompose(covariance(smooth(csi, plan)))
        rep = detect(subs, params, gc, dc_cal)
        alarms += bool(rep.detections)
    rate = alarms / trials
    ok = 0.003 <= rate <= 0.03
    report(9, ok, f"kappa={kappa:.4f}, empirical false-alarm rate={rate:.4f} "
                  f"vs band [0.003, 0.03]; order selection returns zero "
                  f"sources on noise, so the pipeline cannot alarm")


def test_criterion_10_property_suite():
    rng = np.random.default_rng(100_010)
    checked = 0
    from ofdm_music import RadioConfig
    for case in range(1000):
        n = int(rng.integers(12, 48))
        k = int(rng.integers(2, 6))
        c = 3e8
        radio = RadioConfig(n_subcarriers=n, subcarrier_spacing_hz=60e3,
                            carrier_freq_hz=3.5e9, n_antennas=k,
                            antenna_spacing_m=c / 3.5e9 / 2,
                            speed_of_light_m_s=c)
        a_f = int(rng.integers(1, n + 1))
        a_a = int(rng.integers(1, k + 1))
        plan = make_plan(radio, a_f, a_a,
                         int(rng.integers(1, a_f + 1)),
                         int(rng.integers(1, a_a + 1)),
                         int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        theta = float(rng.uniform(-1.2, 1.2))
        r = float(rng.uniform(0.5, 40.0))
        seed = int(rng.integers(0, 2 ** 31))

        # steering vectors are unit-modulus with first element exactly one
        b = steering_angle(radio, theta)
        a = steering_range(radio, r)
        assert b[0] == 1.0 + 0.0j and a[0] == 1.0 + 0.0j
        assert np.max(np.abs(np.abs(b) - 1)) < 1e-12
        assert np.max(np.abs(np.abs(a) - 1)) < 1e-12

        scene = TargetScene(
            (Target(r, theta, complex(*rng.normal(size=2))),),
            float(rng.uniform(0.01, 1.0)))
        csi = synthesize_csi(radio, scene, seed)
        # determinism under a fixed seed
        assert np.array_equal(csi.data, synthesize_csi(radio, scene, seed).data)

        cov = covariance(smooth(csi, plan))
        m = plan.samples_per_subarray
        # Hermitian, PSD, trace conservation through the eigendecomposition
        assert np.max(np.abs(cov.matrix - cov.matrix.conj().T)) < 1e-12
        w = np.linalg.eigvalsh(cov.matrix)
        assert w.min() >= -1e-9 * max(w.max(), 1e-300)
        subs = decompose(cov)
        assert np.sum(subs.eigenvalues) == pytest.approx(
            np.trace(cov.matrix).real, rel=1e-9)
        # model order is invariant to covariance scale (meaningless with a
        # single snapshot, where the description-length penalty vanishes)
        if cov.n_snapshots >= 2:
            q = subs.order_estimate
            assert mdl_order(subs.eigenvalues * 7.3e4, cov.n_snapshots) == q
            assert mdl_order(subs.eigenvalues * 1e-6, cov.n_snapshots) == q

        # canceling leaves q - 1 orthonormal signal columns, orthogonal to
        # the canceled steering vector c: c joins the noise subspace
        q = subs.signal_basis.shape[1]
        if q > 0:
            params = steering_params(radio, plan)
            r_try = float(rng.uniform(0.0, 0.99)) * params.r_max_m
            det = Detection(r_try, theta, 1.0, 0)
            try:
                canceled = cancel_target(subs, GridConfig(radio, plan), det)
            except AlreadyCanceledError:
                canceled = None
            if canceled is not None:
                basis = canceled.signal_basis
                assert basis.shape == (m, q - 1)
                gram = basis.conj().T @ basis
                assert np.max(np.abs(gram - np.eye(q - 1)), initial=0) < 1e-9
                c = decimated_steering(radio, plan, det.range_m, det.azimuth_rad)
                assert np.linalg.norm(basis.conj().T @ c) \
                    <= 1e-9 * np.linalg.norm(c)
        checked += 1
    report(10, checked == 1000, f"{checked} randomized property cases")
