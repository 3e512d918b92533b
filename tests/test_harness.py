import dataclasses
import json
import logging
import math
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from ofdm_music import (ConfigError, Detection, DetectionReport, DetectorConfig,
                        DomainError, GridConfig, Routine, ScenarioSpec,
                        ScoringContext,
                        Target, TargetScene, assign_and_score, calibrate_kappa,
                        covariance, decompose, detect, generate_trial, make_plan,
                        noise_variance_for_snr, run_sweep, run_trial, smooth,
                        synthesize_csi, trimmed_rmse, write_sweep_outputs)
from ofdm_music import harness
from ofdm_music.music import SpectrumGrid, coarse_grid, grid_geometry
from ofdm_music.presets import baseline_plan, baseline_radio, range_only_plan

from test_signal_model import small_radio


def spec_with(**kwargs):
    base = dict(n_trials=4, snr_db=15.0, range_diffs_m=(0.0, 0.5), rng_seed=3)
    base.update(kwargs)
    return ScenarioSpec(**base)


def make_report(dets, gamma=0.1, routine=Routine.MULTIPLE):
    return DetectionReport(detections=tuple(dets), threshold_used=gamma,
                           routine=routine, spectra_computed=1)


@pytest.fixture
def pool_starts(monkeypatch):
    """``max_workers`` of every process pool the harness starts, in order."""
    starts = []

    class CountingPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    return starts


@pytest.fixture
def inline_pools(monkeypatch):
    """The pools the harness opens: ``sizes`` holds the ``max_workers`` of
    each and ``maps`` the (job count, chunk size) of each ``map`` call, in
    order. These pools start no process and map lazily in this one."""
    record = SimpleNamespace(sizes=[], maps=[])

    class InlinePool:
        def __init__(self, max_workers, initializer=None):
            record.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            jobs = list(iterable)
            record.maps.append((len(jobs), chunksize))
            return map(fn, jobs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    return record


class TestGenerateTrial:
    def test_zero_diff_equal_ranges(self):
        radio = baseline_radio()
        scene = generate_trial(spec_with(), radio, 0, 0.0)
        assert scene.targets[0].range_m == scene.targets[1].range_m

    def test_geometry_fixed_across_sweep_points(self):
        radio = baseline_radio()
        a = generate_trial(spec_with(), radio, 5, 0.0)
        b = generate_trial(spec_with(), radio, 5, 2.0)
        assert a.targets[0].range_m == b.targets[0].range_m
        assert a.targets[0].azimuth_rad == b.targets[0].azimuth_rad
        assert a.targets[1].azimuth_rad == b.targets[1].azimuth_rad
        assert b.targets[1].range_m == pytest.approx(
            a.targets[1].range_m + 2.0, abs=1e-12)
        # coefficient phase kept, magnitude follows the moved range
        assert np.angle(a.targets[1].coeff) == pytest.approx(
            np.angle(b.targets[1].coeff), abs=1e-12)

    def test_trials_differ(self):
        radio = baseline_radio()
        a = generate_trial(spec_with(), radio, 0, 0.0)
        b = generate_trial(spec_with(), radio, 1, 0.0)
        assert a.targets[0].range_m != b.targets[0].range_m

    def test_base_ranges_uniform(self):
        radio = small_radio(n=16, k=2)
        spec = spec_with(base_range_max_m=25.0, n_trials=10_000)
        ranges = np.array([
            generate_trial(spec, radio, t, 0.0).targets[0].range_m
            for t in range(10_000)])
        _, p = stats.kstest(ranges / 25.0, "uniform")
        assert p > 0.01

    def test_angles_within_range_and_separation(self):
        radio = small_radio(n=16, k=2)
        spec = spec_with(min_angle_sep_deg=20.0, n_trials=200)
        for t in range(200):
            scene = generate_trial(spec, radio, t, 0.0)
            th = [math.degrees(tgt.azimuth_rad) for tgt in scene.targets]
            assert all(-60.0 <= x <= 60.0 for x in th)
            assert abs(th[0] - th[1]) >= 20.0

    @pytest.mark.parametrize("sep", [120.0, 150.0])
    def test_unreachable_separation_rejected(self, sep):
        # two azimuths in [-60, 60] deg are never 120 deg or more apart; the
        # rejection loop in generate_trial used to spin forever on this spec
        with pytest.raises(ConfigError, match="min_angle_sep_deg"):
            spec_with(min_angle_sep_deg=sep)

    def test_separation_just_inside_span_accepted(self):
        spec = spec_with(min_angle_sep_deg=110.0, angle_range_deg=(-60.0, 60.0))
        scene = generate_trial(spec, small_radio(n=16, k=2), 0, 0.0)
        th = [math.degrees(t.azimuth_rad) for t in scene.targets]
        assert abs(th[0] - th[1]) >= 110.0

    @pytest.mark.parametrize("field, value", [
        ("min_angle_sep_deg", math.nan),
        ("snr_db", math.nan), ("snr_db", math.inf), ("snr_db", -math.inf),
        ("base_range_max_m", math.nan), ("base_range_max_m", math.inf),
        ("range_diffs_m", (0.0, math.nan)), ("range_diffs_m", (math.inf,)),
        ("angle_range_deg", (math.nan, 60.0)),
        ("angle_range_deg", (-60.0, math.nan)),
        ("angle_range_deg", (-math.inf, 60.0)),
        ("angle_range_deg", (-95.0, 60.0)), ("angle_range_deg", (-60.0, 90.0)),
    ])
    def test_non_finite_or_out_of_domain_rejected(self, field, value):
        # A NaN separation used to pass the span check and make
        # generate_trial loop forever; a NaN SNR ran noiseless, and an
        # azimuth bound past 90 deg failed mid-sweep. Only the constructor
        # runs here, so a missing check fails instead of hanging.
        with pytest.raises(ConfigError):
            spec_with(**{field: value})

    @pytest.mark.parametrize("snr_db", [-300.0, 300.0])
    @pytest.mark.parametrize("base_range_max_m, outward", [(1e-3, 0.0),
                                                           (1e12, math.inf)])
    def test_snr_and_base_range_limits(self, snr_db, base_range_max_m,
                                       outward):
        # snr_db = 1e300 used to overflow 10 ** (snr_db / 10) and
        # base_range_max_m = 1e-300 the inverse-square coefficient, in the
        # middle of a run. At the limits every noise variance is a normal
        # float; one step past either limit the spec is rejected.
        radio = small_radio(n=16, k=2)
        spec = spec_with(snr_db=snr_db, base_range_max_m=base_range_max_m)
        for t in range(20):
            sigma2 = generate_trial(spec, radio, t, 0.5).noise_variance
            assert sys.float_info.min < sigma2 < sys.float_info.max
        with pytest.raises(ConfigError, match="snr_db"):
            spec_with(snr_db=math.nextafter(snr_db, 2.0 * snr_db),
                      base_range_max_m=base_range_max_m)
        with pytest.raises(ConfigError, match="base_range_max_m"):
            spec_with(snr_db=snr_db,
                      base_range_max_m=math.nextafter(base_range_max_m, outward))

    @pytest.mark.parametrize("n_trials", [0, -1])
    def test_no_trials_rejected(self, n_trials):
        with pytest.raises(ConfigError, match="n_trials must be >= 1"):
            spec_with(n_trials=n_trials)

    def test_negative_seed_rejected(self):
        # numpy's SeedSequence raised ValueError on it in the middle of a run
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            spec_with(rng_seed=-1)

    def test_sweep_without_points_rejected(self):
        # it used to run no trials and write a sweep.csv of only a header
        with pytest.raises(ConfigError, match="at least one range difference"):
            spec_with(range_diffs_m=())
        assert spec_with(range_diffs_m=(), free_placement=True).range_diffs_m == ()

    def test_free_placement_sorted(self):
        radio = small_radio(n=16, k=2)
        spec = spec_with(free_placement=True)
        for t in range(50):
            scene = generate_trial(spec, radio, t, 0.0)
            assert scene.targets[0].range_m <= scene.targets[1].range_m

    def test_noise_variance_realizes_snr(self):
        radio = baseline_radio()
        scene = generate_trial(spec_with(snr_db=10.0), radio, 2, 1.0)
        noiseless = synthesize_csi(radio, TargetScene(scene.targets, 0.0), 0)
        power = np.mean(np.abs(noiseless.data) ** 2)
        assert scene.noise_variance == pytest.approx(power / 10.0, rel=1e-12)


class TestNoiseVarianceForSnr:
    def test_zero_db(self):
        radio = baseline_radio()
        scene = TargetScene((Target(10.0, 0.1, 0.01 + 0j),), 0.0)
        power = np.mean(np.abs(synthesize_csi(radio, scene, 0).data) ** 2)
        assert noise_variance_for_snr(scene, radio, 0.0) == pytest.approx(power)

    def test_ten_db(self):
        radio = baseline_radio()
        scene = TargetScene((Target(10.0, 0.1, 0.01 + 0j),), 0.0)
        power = np.mean(np.abs(synthesize_csi(radio, scene, 0).data) ** 2)
        assert noise_variance_for_snr(scene, radio, 10.0) == pytest.approx(
            power / 10.0)

    def test_empty_scene_rejected(self):
        with pytest.raises(DomainError):
            noise_variance_for_snr(TargetScene((), 0.0), baseline_radio(), 10.0)

    @pytest.mark.parametrize("targets", [
        (Target(10.0, 0.1, 0j),),
        (Target(10.0, 0.1, 0.01 + 0.02j), Target(10.0, 0.1, -0.01 - 0.02j))],
        ids=["zero-coefficient", "opposite-coefficients"])
    def test_zero_power_rejected(self, targets):
        with pytest.raises(DomainError):
            noise_variance_for_snr(TargetScene(targets, 0.0), baseline_radio(), 10.0)

    def test_no_csi_synthesized(self, monkeypatch):
        monkeypatch.setattr(harness, "synthesize_csi", None)
        scene = generate_trial(spec_with(snr_db=10.0), baseline_radio(), 2, 1.0)
        assert scene.noise_variance > 0

    def test_empirical_snr_within_tenth_db(self):
        radio = baseline_radio()
        scene0 = TargetScene((Target(8.0, 0.3, 0.016 + 0j),
                              Target(15.0, -0.2, 0.004 + 0j)), 0.0)
        sigma2 = noise_variance_for_snr(scene0, radio, 12.0)
        noiseless = synthesize_csi(radio, scene0, 0).data
        sig_power = np.mean(np.abs(noiseless) ** 2)
        noise_acc = 0.0
        trials = 100
        for seed in range(trials):
            noisy = synthesize_csi(radio, TargetScene(scene0.targets, sigma2),
                                   seed).data
            noise_acc += np.mean(np.abs(noisy - noiseless) ** 2)
        snr_db = 10 * math.log10(sig_power / (noise_acc / trials))
        assert snr_db == pytest.approx(12.0, abs=0.1)


class TestAssignAndScore:
    truth = ((5.0, 0.1), (9.0, -0.2))

    def test_perfect_detections(self):
        report = make_report([Detection(5.0, 0.1, 3.0, 0),
                              Detection(9.0, -0.2, 2.0, 0)])
        res = assign_and_score(self.truth, report)
        assert res.assigned_errors == ((0.0, 0.0), (0.0, 0.0))
        assert res.missed == (False, False)

    def test_order_invariance(self):
        dets = [Detection(9.1, -0.25, 2.0, 0), Detection(5.2, 0.12, 3.0, 0)]
        a = assign_and_score(self.truth, make_report(dets))
        b = assign_and_score(self.truth, make_report(dets[::-1]))
        assert a.assigned_errors == b.assigned_errors
        assert a.assigned_errors[0][0] == pytest.approx(0.2)
        assert a.assigned_errors[1][0] == pytest.approx(0.1)

    def test_three_detections_keep_two_strongest(self):
        dets = [Detection(5.0, 0.1, 3.0, 0), Detection(9.0, -0.2, 2.5, 0),
                Detection(20.0, 0.9, 0.2, 1)]   # weak false alarm
        res = assign_and_score(self.truth, make_report(dets))
        assert res.assigned_errors == ((0.0, 0.0), (0.0, 0.0))
        assert res.missed == (False, False)

    def test_single_detection_scored_against_first_target(self):
        # even a detection sitting exactly on target 2 scores against target 1
        report = make_report([Detection(9.0, -0.2, 3.0, 0)])
        ctx = self.context()
        res = assign_and_score(self.truth, report, ctx)
        assert res.missed == (False, True)
        assert res.assigned_errors[0][0] == pytest.approx(4.0)

    @staticmethod
    def context():
        radio = baseline_radio()
        plan = baseline_plan(radio)
        targets = (Target(5.0, 0.1, 0.04 + 0j), Target(9.0, -0.2, 0.0123 + 0j))
        scene0 = TargetScene(targets, 0.0)
        sigma2 = noise_variance_for_snr(scene0, radio, 20.0)
        csi = synthesize_csi(radio, TargetScene(targets, sigma2), 5)
        subs = decompose(covariance(smooth(csi, plan)))
        return ScoringContext(subs, GridConfig(radio, plan))

    def test_fallback_grid_estimates(self):
        # zero detections: target 1 takes the plain grid maximum (wherever it
        # is), target 2 the strongest grid sample outside that point's main
        # lobe
        ctx = self.context()
        res = assign_and_score(self.truth, make_report([]), ctx)
        assert res.missed == (True, True)
        g1 = ctx.grid_argmax()
        assert res.assigned_errors[0][0] == pytest.approx(g1[0] - self.truth[0][0])
        assert res.assigned_errors[0][1] == pytest.approx(g1[1] - self.truth[0][1])
        g2 = ctx.residual_argmax([g1])
        assert res.assigned_errors[1][0] == pytest.approx(g2[0] - self.truth[1][0])

    def test_single_detection_residual_fallback(self):
        ctx = self.context()
        report = make_report([Detection(5.0, 0.1, 3.0, 0)])
        res = assign_and_score(self.truth, report, ctx)
        assert res.missed == (False, True)
        assert res.assigned_errors[0] == (0.0, 0.0)
        assert res.assigned_errors[1][0] == pytest.approx(0.0, abs=1.0)

    def test_missing_context_rejected(self):
        with pytest.raises(ConfigError):
            assign_and_score(self.truth, make_report([]))

    def test_unordered_truth_rejected(self):
        with pytest.raises(DomainError):
            assign_and_score(((9.0, 0.0), (5.0, 0.0)), make_report([]))

    def test_range_only_scoring_nan_angles(self):
        report = make_report([Detection(5.0, 0.0, 3.0, 0),
                              Detection(9.0, 0.0, 2.0, 0)])
        res = assign_and_score(self.truth, report, score_angle=False)
        assert math.isnan(res.assigned_errors[0][1])
        assert math.isnan(res.assigned_errors[1][1])
        assert res.assigned_errors[0][0] == 0.0


class TestStandIns:
    """``ScoringContext`` reads both stand-ins off one coarse grid."""

    # The golden range-only scenes at a 0 m difference: MDL finds order 1,
    # detect finds one target, and canceling it would leave no signal columns.
    SPEC = ScenarioSpec(n_trials=3, snr_db=15.0, range_diffs_m=(0.0, 1.0),
                        base_range_max_m=22.5, rng_seed=20_221_011)

    @staticmethod
    def rotated(subs, seed):
        """``subs`` with its signal basis times a seeded random q x q
        unitary: the same span, so the same noise subspace, with other
        rounding."""
        rng = np.random.default_rng(seed)
        q = subs.signal_basis.shape[1]
        u, _ = np.linalg.qr(rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q)))
        return dataclasses.replace(subs, signal_basis=subs.signal_basis @ u)

    @staticmethod
    def brute_force(ctx, points):
        """(range, angle) of the strongest grid sample outside a box of 2.5
        cells on both axes around every point, ranges compared modulo r_max,
        found one sample at a time."""
        grid = ctx.grid
        geometry = grid_geometry(ctx.grid_config)
        r_max = geometry.params.r_max_m
        half_r, half_th = 2.5 * geometry.cell
        best = None
        for i, r in enumerate(grid.ranges_m):
            for j, th in enumerate(grid.angles_rad):
                if any(min(abs(r - pr + k * r_max) for k in (-1, 0, 1)) < half_r
                       and abs(th - pth) < half_th for pr, pth in points):
                    continue
                if best is None or grid.values[i, j] > best[0]:
                    best = (grid.values[i, j], float(r), float(th))
        return best[1:]

    @pytest.mark.parametrize("trial", range(3))
    def test_stand_in_survives_noise_basis_rotation(self, trial):
        radio = baseline_radio()
        plan = range_only_plan(radio)
        grid_config = GridConfig(radio, plan)
        scene = generate_trial(self.SPEC, radio, trial, 0.0)
        csi = synthesize_csi(radio, scene, 1_000 * trial)
        subs = decompose(covariance(smooth(csi, plan)))
        report = detect(subs, grid_geometry(grid_config).params, grid_config,
                        DetectorConfig())
        assert len(report.detections) == 1
        det = report.detections[0]
        point = [(det.range_m, det.azimuth_rad)]
        # The grid reads only the signal basis, so rotating it is what can
        # change the grid's rounding.
        rotated = ScoringContext(self.rotated(subs, trial), grid_config)
        assert rotated.residual_argmax(point) \
            == ScoringContext(subs, grid_config).residual_argmax(point)

    def test_rotation_reaches_the_grid(self):
        # Otherwise the rotation test above would pass trivially.
        radio = baseline_radio()
        plan = range_only_plan(radio)
        grid_config = GridConfig(radio, plan)
        moved = 0
        for trial in range(3):
            scene = generate_trial(self.SPEC, radio, trial, 0.0)
            subs = decompose(covariance(smooth(
                synthesize_csi(radio, scene, 1_000 * trial), plan)))
            rotated = ScoringContext(self.rotated(subs, trial), grid_config)
            moved += int(np.sum(rotated.grid.values
                                != ScoringContext(subs, grid_config).grid.values))
        assert moved > 0

    @pytest.mark.parametrize("points", [
        [(5.0, 0.1)], [(9.0, -0.2)], [(5.0, 0.1), (9.0, -0.2)],
        [(0.3, 0.1)], [(24.9, -0.9)]])
    def test_residual_argmax_matches_brute_force(self, points):
        ctx = TestAssignAndScore.context()
        assert ctx.residual_argmax(points) == self.brute_force(ctx, points)

    def test_order_zero_stand_ins_are_the_first_samples(self):
        # No signal columns grid to exactly 1/M, so argmax takes the first
        # sample and the masked argmax the first one outside the mask.
        ctx = TestAssignAndScore.context()
        m = ctx.subspaces.signal_basis.shape[0]
        ctx = ScoringContext(dataclasses.replace(
            ctx.subspaces, signal_basis=np.zeros((m, 0)), order_estimate=0),
            ctx.grid_config)
        grid = ctx.grid
        assert np.all(grid.values == 1.0 / m)
        first = ctx.grid_argmax()
        assert first == (grid.ranges_m[0], grid.angles_rad[0])
        assert ctx.residual_argmax([first]) == self.brute_force(ctx, [first]) \
            == (grid.ranges_m[0], grid.angles_rad[3])

    def test_mask_wraps_at_unambiguous_range(self):
        # a point 0.3 m from r = 0 masks the samples just below r_max; the
        # strongest sample is planted there, so only the wrap masks it
        ctx = TestAssignAndScore.context()
        grid = ctx.grid
        values = np.random.default_rng(0).random(grid.values.shape)
        values[-1, 2] = 2.0
        ctx.grid = SpectrumGrid(grid.ranges_m, grid.angles_rad, values)
        points = [(0.3, float(grid.angles_rad[2]))]
        stand_in = ctx.residual_argmax(points)
        assert stand_in[0] < grid.ranges_m[-2]
        assert stand_in == self.brute_force(ctx, points)

    @pytest.mark.parametrize("n_detections, grids", [(0, 1), (1, 1), (2, 0)])
    def test_grids_built(self, monkeypatch, n_detections, grids):
        calls = []

        def counting_grid(*args):
            calls.append(args)
            return coarse_grid(*args)

        monkeypatch.setattr(harness, "coarse_grid", counting_grid)
        dets = [Detection(5.0, 0.1, 3.0, 0), Detection(9.0, -0.2, 2.0, 0)]
        assign_and_score(TestAssignAndScore.truth,
                         make_report(dets[:n_detections]), TestAssignAndScore.context())
        assert len(calls) == grids


class TestTrimmedRmse:
    def test_all_zero(self):
        assert trimmed_rmse([0.0] * 10) == 0.0

    def test_hundred_ones(self):
        assert trimmed_rmse([1.0] * 100) == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        errors = rng.normal(size=1000)
        # independent brute force: sort absolute errors, drop 10 from each
        # end, plain RMSE of the rest
        a = np.sort(np.abs(errors))[10:-10]
        brute = math.sqrt(np.mean(a ** 2))
        assert trimmed_rmse(errors) == pytest.approx(brute, rel=1e-12)
        assert trimmed_rmse(errors) == pytest.approx(brute, rel=0.05)

    def test_outliers_trimmed(self):
        # floor(0.01 * 100) = 1 dropped from each end of the absolute sort
        errors = [0.1] * 99 + [1000.0]
        assert trimmed_rmse(errors) == pytest.approx(0.1)

    @pytest.mark.parametrize("errors", [[-0.3], [0.25, -1.5]])
    def test_tiny_samples_give_the_plain_rmse(self, errors):
        a = np.asarray(errors)
        assert trimmed_rmse(errors) == float(np.sqrt(np.mean(a ** 2)))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            trimmed_rmse([])

    def test_huge_errors_stay_finite(self):
        # The squares of 1e300 overflow; the RMSE is at most the largest
        # error, so it is finite.
        assert trimmed_rmse([1e300, -1e300]) == 1e300
        assert trimmed_rmse([3e300, 4e300]) == pytest.approx(
            5e300 / math.sqrt(2), rel=1e-15)


class TestRunSweep:
    def test_smoke_one_row_per_point(self):
        radio = baseline_radio()
        plan = baseline_plan(radio)
        spec = ScenarioSpec(n_trials=2, snr_db=20.0, range_diffs_m=(0.0, 1.0, 2.0),
                            rng_seed=1, base_range_max_m=22.0)
        summary = run_sweep(spec, radio, plan, DetectorConfig())
        assert summary.x_axis == (0.0, 1.0, 2.0)
        assert len(summary.p_missed) == 3
        assert all(0.0 <= p <= 1.0 for p in summary.p_missed)
        assert all(r >= 0 for r in summary.rmse_range_m)
        assert summary.n_trials == 2

    def test_single_trial_smoke(self):
        radio = baseline_radio()
        plan = baseline_plan(radio)
        spec = ScenarioSpec(n_trials=1, snr_db=20.0, range_diffs_m=(0.0, 2.0),
                            rng_seed=9, base_range_max_m=22.0)
        summary = run_sweep(spec, radio, plan, DetectorConfig())
        assert len(summary.x_axis) == 2
        assert all(np.isfinite(summary.rmse_range_m))

    def test_deterministic_and_worker_invariant(self):
        radio = baseline_radio()
        plan = baseline_plan(radio)
        spec = ScenarioSpec(n_trials=4, snr_db=15.0, range_diffs_m=(0.5,),
                            rng_seed=2, base_range_max_m=22.0)
        a = run_sweep(spec, radio, plan, DetectorConfig())
        b = run_sweep(spec, radio, plan, DetectorConfig())
        c = run_sweep(spec, radio, plan, DetectorConfig(), n_workers=2)
        assert a == b == c

    def test_one_pool_per_sweep(self, pool_starts):
        radio = baseline_radio()
        plan = baseline_plan(radio)
        spec = ScenarioSpec(n_trials=2, snr_db=15.0, range_diffs_m=(0.0, 0.5, 1.0),
                            rng_seed=7, base_range_max_m=22.0)
        parallel = run_sweep(spec, radio, plan, DetectorConfig(), n_workers=2)
        assert pool_starts == [2]
        assert run_sweep(spec, radio, plan, DetectorConfig()) == parallel
        assert pool_starts == [2]   # one worker maps in-process

    def test_no_more_workers_than_trials(self, inline_pools):
        # The cap is the sweep's trials in all: points times J.
        radio = baseline_radio()
        plan = baseline_plan(radio)
        spec = ScenarioSpec(n_trials=3, snr_db=15.0, range_diffs_m=(0.0, 1.0),
                            rng_seed=7, base_range_max_m=22.0)
        wide = run_sweep(spec, radio, plan, DetectorConfig(), n_workers=64)
        assert inline_pools.sizes == [6]
        assert run_sweep(spec, radio, plan, DetectorConfig()) == wide
        one = dataclasses.replace(spec, n_trials=1)
        run_sweep(one, radio, plan, DetectorConfig(), n_workers=64)
        assert inline_pools.sizes == [6, 2]   # one trial at each of two points

    def test_one_map_per_sweep(self, inline_pools):
        radio = baseline_radio()
        plan = baseline_plan(radio)
        spec = ScenarioSpec(n_trials=2, snr_db=15.0, range_diffs_m=(0.0, 0.5, 1.0),
                            rng_seed=7, base_range_max_m=22.0)
        parallel = run_sweep(spec, radio, plan, DetectorConfig(), n_workers=2)
        assert inline_pools.sizes == [2]
        assert inline_pools.maps == [(6, 1)]   # 3 points x 2 trials, one map
        assert run_sweep(spec, radio, plan, DetectorConfig()) == parallel
        assert inline_pools.maps == [(6, 1)]   # one worker maps in-process
        # The chunk rule over the 104 jobs of 26 points x 4 trials.
        assert list(harness._map_jobs(abs, 104, 2)) == list(range(104))
        assert inline_pools.maps[-1] == (104, 6)

    def test_single_trial_points_share_a_pool(self, pool_starts):
        # J = 1 used to map each point in-process; the three jobs now go to
        # a two-worker pool, with the same summary bit for bit.
        radio = baseline_radio()
        plan = baseline_plan(radio)
        spec = ScenarioSpec(n_trials=1, snr_db=15.0, range_diffs_m=(0.0, 0.5, 1.0),
                            rng_seed=8, base_range_max_m=22.0)
        parallel = run_sweep(spec, radio, plan, DetectorConfig(), n_workers=2)
        assert pool_starts == [2]
        assert run_sweep(spec, radio, plan, DetectorConfig()) == parallel

    def test_point_records_follow_the_last_trial(self, inline_pools, monkeypatch,
                                                 caplog):
        # A record logged while a worker computes would time the worker as
        # the parent's; every trial returns, and the pool shuts down, before
        # the first record.
        records_at_trial, records_at_exit = [], []
        trial = harness.run_trial

        def counted_trial(*args):
            records_at_trial.append(len(caplog.records))
            return trial(*args)

        class ExitCountedPool(harness.ProcessPoolExecutor):
            def __exit__(self, *exc):
                records_at_exit.append(len(caplog.records))
                return super().__exit__(*exc)

        monkeypatch.setattr(harness, "run_trial", counted_trial)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", ExitCountedPool)
        caplog.set_level(logging.INFO, logger=harness.__name__)
        radio = baseline_radio()
        spec = ScenarioSpec(n_trials=2, snr_db=15.0, range_diffs_m=(0.0, 1.0),
                            rng_seed=7, base_range_max_m=22.0)
        run_sweep(spec, radio, baseline_plan(radio), DetectorConfig(), n_workers=2)
        assert inline_pools.maps == [(4, 1)]
        assert records_at_trial == [0] * 4
        assert records_at_exit == [0]
        assert [r.getMessage().split(" (")[0] for r in caplog.records] == [
            "sweep point 1/2", "sweep point 2/2"]

    @pytest.mark.parametrize("n_workers", [0, -3])
    def test_no_workers_rejected(self, pool_starts, monkeypatch, n_workers):
        trials = []
        monkeypatch.setattr(harness, "run_trial",
                            lambda *args: trials.append(args))
        radio = baseline_radio()
        with pytest.raises(ConfigError, match="n_workers must be >= 1"):
            run_sweep(spec_with(), radio, baseline_plan(radio), DetectorConfig(),
                      n_workers=n_workers)
        assert trials == [] and pool_starts == []

    def test_free_placement_single_point(self):
        radio = baseline_radio()
        plan = baseline_plan(radio)
        spec = ScenarioSpec(n_trials=3, snr_db=20.0, free_placement=True,
                            rng_seed=4)
        summary = run_sweep(spec, radio, plan, DetectorConfig())
        assert len(summary.x_axis) == 1
        assert math.isnan(summary.x_axis[0])

    def test_range_only_plan_nan_azimuth(self):
        from ofdm_music.presets import range_only_plan
        radio = baseline_radio()
        spec = ScenarioSpec(n_trials=3, snr_db=20.0, range_diffs_m=(2.0,),
                            rng_seed=5, base_range_max_m=22.0)
        summary = run_sweep(spec, radio, range_only_plan(radio), DetectorConfig())
        assert math.isnan(summary.rmse_azimuth_deg[0])
        assert summary.rmse_range_m[0] >= 0

    def test_first_target_only_scores_target_one(self):
        # The RMSEs come from the target-1 errors alone; the miss rate still
        # counts a miss of either target.
        radio = baseline_radio()
        plan = baseline_plan(radio)
        spec = ScenarioSpec(n_trials=3, snr_db=15.0, range_diffs_m=(0.5,),
                            rng_seed=6, base_range_max_m=22.0)
        det = DetectorConfig()
        # Jobs 0 .. J - 1 are the trials of the one sweep point, at 0.5 m.
        errors = [harness._sweep_trial(spec, GridConfig(radio, plan), det, t)[0]
                  for t in range(spec.n_trials)]
        first = run_sweep(spec, radio, plan, det, first_target_only=True)
        both = run_sweep(spec, radio, plan, det)
        assert first.rmse_range_m == (trimmed_rmse([e[0][0] for e in errors]),)
        assert first.rmse_azimuth_deg == (
            trimmed_rmse([math.degrees(e[0][1]) for e in errors]),)
        assert both.rmse_range_m == (
            trimmed_rmse([e[q][0] for e in errors for q in (0, 1)]),)
        assert first.rmse_range_m != both.rmse_range_m
        assert first.p_missed == both.p_missed

    def test_missed_detection_drops_with_separation(self):
        # routine multiple at 15 dB: well-separated targets (5 m) are missed
        # no more often than barely-separated ones (0.5 m)
        radio = baseline_radio()
        plan = baseline_plan(radio)
        spec = ScenarioSpec(n_trials=200, snr_db=15.0, range_diffs_m=(0.5, 5.0),
                            rng_seed=31, base_range_max_m=19.9)
        summary = run_sweep(spec, radio, plan, DetectorConfig(), n_workers=2)
        assert summary.p_missed[1] <= summary.p_missed[0]

    def test_csv_and_sidecar(self, tmp_path):
        radio = baseline_radio()
        plan = baseline_plan(radio)
        spec = ScenarioSpec(n_trials=2, snr_db=20.0, range_diffs_m=(0.0, 1.0),
                            rng_seed=6, base_range_max_m=22.0)
        summary = run_sweep(spec, radio, plan, DetectorConfig())
        csv_path, json_path = write_sweep_outputs(summary, tmp_path,
                                                  {"seed": 6})
        lines = Path(csv_path).read_text().strip().splitlines()
        assert lines[0] == "x_value,p_missed,rmse_range_m,rmse_azimuth_deg,n_trials"
        assert len(lines) == 3
        import json as json_mod
        doc = json_mod.loads(Path(json_path).read_text())
        assert doc["seed"] == 6
        assert doc["summary"]["n_trials"] == 2

    def test_sidecar_nulls_only_the_nan_by_design(self, tmp_path):
        # Free placement has a NaN x value and a one-column grid a NaN
        # azimuth RMSE: null in sweep.json. A non-finite value anywhere else
        # is a fault, and is not written as if it were not estimated.
        summary = harness.SweepSummary(
            x_axis=(math.nan,), p_missed=(0.5,), rmse_range_m=(1.0,),
            rmse_azimuth_deg=(math.nan,), n_trials=2)
        _, json_path = write_sweep_outputs(summary, tmp_path, {})
        doc = json.loads(Path(json_path).read_text())
        assert doc["summary"]["x_axis"] == [None]
        assert doc["summary"]["rmse_azimuth_deg"] == [None]
        for field, bad in (("p_missed", math.nan), ("rmse_range_m", math.inf),
                           ("rmse_azimuth_deg", math.inf)):
            with pytest.raises(ValueError):
                write_sweep_outputs(dataclasses.replace(summary, **{field: (bad,)}),
                                    tmp_path / field, {})


def blas_threads_in_worker(_trial):
    time.sleep(0.05)   # holds the worker, so that both workers take trials
    return os.getpid(), harness._openblas_function("get_num_threads")()


class TestBlasPin:
    @pytest.fixture
    def two_blas_threads(self):
        """Run the parent on two OpenBLAS threads, which a fork inherits."""
        get = harness._openblas_function("get_num_threads")
        set_threads = harness._openblas_function("set_num_threads")
        if get is None or set_threads is None:
            pytest.skip("numpy bundles no OpenBLAS")
        before = get()
        set_threads(2)
        if get() != 2:
            set_threads(before)
            pytest.skip("OpenBLAS does not run two threads here")
        yield
        set_threads(before)

    def worker_threads(self):
        seen = set(harness._map_jobs(blas_threads_in_worker, 8, 2))
        assert len({pid for pid, _ in seen}) == 2
        return {threads for _, threads in seen}

    def test_each_worker_runs_one_thread(self, monkeypatch, two_blas_threads):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert self.worker_threads() == {1}

    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_user_setting_kept(self, monkeypatch, two_blas_threads, var):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv(var, "2")
        assert self.worker_threads() == {2}


class TestCalibrateKappa:
    def test_one_pool_and_worker_invariant(self, pool_starts):
        # 8 snapshots of 27 samples: MDL overestimates the order on noise, so
        # the pivots are nonzero and kappa is not the trivial 1.0
        radio = small_radio(n=12, k=4)
        plan = make_plan(radio, 9, 3, 1, 1, 1, 1)
        kw = dict(n_trials=20, rng_seed=4)
        parallel = calibrate_kappa(radio, plan, DetectorConfig(), n_workers=2, **kw)
        assert pool_starts == [2]
        assert parallel > 1.0
        assert calibrate_kappa(radio, plan, DetectorConfig(), **kw) == parallel
        assert pool_starts == [2]

    def test_no_more_workers_than_trials(self, inline_pools):
        radio = small_radio(n=12, k=4)
        plan = make_plan(radio, 9, 3, 1, 1, 1, 1)
        wide = calibrate_kappa(radio, plan, DetectorConfig(), n_trials=3,
                               rng_seed=4, n_workers=64)
        assert inline_pools.sizes == [3]
        assert calibrate_kappa(radio, plan, DetectorConfig(), n_trials=3,
                               rng_seed=4) == wide
        calibrate_kappa(radio, plan, DetectorConfig(), n_trials=1, n_workers=64)
        assert inline_pools.sizes == [3]   # a single trial maps in-process

    @pytest.mark.parametrize("n_trials", [0, -2])
    def test_no_trials_rejected(self, pool_starts, n_trials):
        radio = small_radio(n=12, k=4)
        plan = make_plan(radio, 9, 3, 1, 1, 1, 1)
        with pytest.raises(ConfigError, match="n_trials"):
            calibrate_kappa(radio, plan, DetectorConfig(), n_trials=n_trials,
                            n_workers=2)
        assert pool_starts == []

    def test_no_workers_rejected(self, pool_starts, monkeypatch):
        pivots = []
        monkeypatch.setattr(harness, "_calibration_pivot",
                            lambda *args: pivots.append(args))
        radio = small_radio(n=12, k=4)
        plan = make_plan(radio, 9, 3, 1, 1, 1, 1)
        with pytest.raises(ConfigError, match="n_workers must be >= 1"):
            calibrate_kappa(radio, plan, DetectorConfig(), n_trials=4,
                            n_workers=0)
        assert pivots == [] and pool_starts == []

    def test_negative_seed_rejected(self, pool_starts):
        radio = small_radio(n=12, k=4)
        plan = make_plan(radio, 9, 3, 1, 1, 1, 1)
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            calibrate_kappa(radio, plan, DetectorConfig(), n_trials=4,
                            rng_seed=-1, n_workers=2)
        assert pool_starts == []


class TestEstimate:
    @pytest.mark.parametrize("routine", list(Routine))
    def test_matches_the_chain_written_out(self, routine):
        radio = baseline_radio()
        plan = baseline_plan(radio)
        grid_config = GridConfig(radio, plan)
        det = DetectorConfig(routine=routine)
        spec = spec_with()
        n_detections = 0
        for trial_index in range(spec.n_trials):
            for diff in spec.range_diffs_m:
                scene = generate_trial(spec, radio, trial_index, diff)
                csi = synthesize_csi(radio, scene, 100 + trial_index)
                subs, report = harness.estimate(csi, grid_config, det)
                chain = decompose(covariance(smooth(csi, plan)))
                chain_report = detect(chain, grid_geometry(grid_config).params,
                                      grid_config, det)
                assert subs.signal_basis.tobytes() == chain.signal_basis.tobytes()
                assert subs.eigenvalues.tobytes() == chain.eigenvalues.tobytes()
                assert subs.order_estimate == chain.order_estimate
                assert report.to_json() == chain_report.to_json()
                n_detections += len(report.detections)
        assert n_detections > 0


class TestRunTrial:
    def test_two_targets_required(self):
        radio = baseline_radio()
        plan = baseline_plan(radio)
        scene = TargetScene((Target(5.0, 0.1, 1 + 0j),), 0.1)
        with pytest.raises(ConfigError):
            run_trial(radio, plan, DetectorConfig(), scene, 0)

    def test_one_angle_column_scores_no_azimuth(self):
        radio = baseline_radio()
        plan = baseline_plan(radio)
        targets = (Target(6.0, math.radians(-20), 0.028 + 0j),
                   Target(15.0, math.radians(25), 0.0044 + 0j))
        sigma2 = noise_variance_for_snr(TargetScene(targets, 0.0), radio, 25.0)
        result = run_trial(radio, plan, DetectorConfig(),
                           TargetScene(targets, sigma2), 8, math.radians(10.0))
        assert all(math.isnan(err[1]) for err in result.assigned_errors)

    def test_clean_scene_scores_zero_errors(self):
        radio = baseline_radio()
        plan = baseline_plan(radio)
        targets = (Target(6.0, math.radians(-20), 0.028 + 0j),
                   Target(15.0, math.radians(25), 0.0044 + 0j))
        scene0 = TargetScene(targets, 0.0)
        sigma2 = noise_variance_for_snr(scene0, radio, 25.0)
        result = run_trial(radio, plan, DetectorConfig(),
                           TargetScene(targets, sigma2), 8)
        assert result.missed == (False, False)
        assert abs(result.assigned_errors[0][0]) < 0.05
        assert abs(result.assigned_errors[1][0]) < 0.05
