import json
import math
import pickle

import numpy as np
import pytest

from ofdm_music import (DEFAULT_THETA_LIM_RAD, AlreadyCanceledError,
                        ConfigError, Detection, DetectionReport, DetectorConfig,
                        GridConfig, Routine, ScenarioSpec, SpectrumEvaluator,
                        SpectrumGrid, Subspaces, Target, TargetScene,
                        cancel_target, cfar_threshold, coarse_grid, covariance,
                        decimated_steering, decompose, detect, generate_trial,
                        grid_geometry, grid_steering, music_value,
                        noise_variance_for_snr, refine_candidates, run_trial,
                        smooth, steering_params, synthesize_csi)
from ofdm_music import detection, music
from ofdm_music.detection import _ascend, empirical_quantile
from ofdm_music.presets import (baseline_plan, baseline_radio, equal_m_plan,
                                range_only_plan)


def pipeline(targets, snr_db, noise_seed=0, plan=None, radio=None):
    radio = radio or baseline_radio()
    plan = plan or baseline_plan(radio)
    scene0 = TargetScene(targets, 0.0)
    sigma2 = noise_variance_for_snr(scene0, radio, snr_db)
    csi = synthesize_csi(radio, TargetScene(targets, sigma2), noise_seed)
    subs = decompose(covariance(smooth(csi, plan)))
    return radio, plan, steering_params(radio, plan), subs


class TestCfarThreshold:
    def constant_grid(self, value=2.5):
        return SpectrumGrid(ranges_m=np.arange(5.0), angles_rad=np.arange(3.0),
                            values=np.full((5, 3), value))

    def test_constant_grid(self):
        assert cfar_threshold(self.constant_grid(), 0.01) == pytest.approx(2.5)

    def test_kappa_scales(self):
        assert cfar_threshold(self.constant_grid(), 0.01, kappa=2.0) \
            == pytest.approx(5.0)

    def test_quantile(self):
        vals = np.arange(100.0).reshape(10, 10)
        grid = SpectrumGrid(ranges_m=np.arange(10.0), angles_rad=np.arange(10.0),
                            values=vals)
        assert cfar_threshold(grid, 0.1) == pytest.approx(
            np.quantile(vals, 0.9))

    def test_empirical_quantile_matches_numpy_bit_for_bit(self):
        rng = np.random.default_rng(8)
        sizes = (1, 2, 3, 145, 1000)
        for i in range(1200):
            n = sizes[i % len(sizes)] if i % 2 else int(rng.integers(1, 400))
            if i % 3 == 0:   # ties: a few distinct values, repeated
                vals = rng.choice(rng.exponential(size=3), size=n)
            else:
                vals = rng.exponential(scale=10.0 ** rng.uniform(-5, 5), size=n)
            for q in (0.5, 0.9, 0.99, 0.999, float(rng.uniform())):
                got = empirical_quantile(vals, q)
                assert got.hex() == float(np.quantile(vals, q)).hex(), (vals, q)
        grid = rng.exponential(size=(29, 5))
        assert empirical_quantile(grid, 0.99) == float(np.quantile(grid, 0.99))

    def test_p_fa_domain(self):
        from ofdm_music import DomainError
        with pytest.raises(DomainError):
            cfar_threshold(self.constant_grid(), 1.5)


def random_scene(seed, plan=None):
    """A seeded scene of 1-3 targets at 10-30 dB, decomposed, with its grid
    and grid config."""
    rng = np.random.default_rng(seed)
    targets = tuple(
        Target(float(r), float(th),
               complex(np.exp(2j * np.pi * rng.uniform()) / r ** 2))
        for r, th in zip(rng.uniform(1.0, 24.0, rng.integers(1, 4)),
                         np.radians(rng.uniform(-60.0, 60.0, 3))))
    radio, plan, params, subs = pipeline(targets, float(rng.uniform(10, 30)),
                                         noise_seed=seed, plan=plan)
    gc = GridConfig(radio, plan)
    return params, subs, coarse_grid(subs, gc), gc


def one_hot(grid, i, j):
    """The grid with its values replaced so that (i, j) is the only seed."""
    values = np.zeros_like(grid.values)
    values[i, j] = 1.0
    return SpectrumGrid(grid.ranges_m, grid.angles_rad, values)


class Quadratic:
    """Denominator 1 + (r - 3.7)^2 + 4 (s + 0.2)^2 and its derivatives."""

    def denominator(self, r, s):
        den = 1.0 + (r - 3.7) ** 2 + 4.0 * (s + 0.2) ** 2
        grad = np.stack([2.0 * (r - 3.7), 8.0 * (s + 0.2)], axis=1)
        return den, grad, np.broadcast_to(np.diag([2.0, 8.0]), (len(r), 2, 2))


class Cosines:
    """Denominator 2 - cos(r) cos(s): minima on a lattice, saddles between."""

    def denominator(self, r, s):
        cr, cs, sr, ss = np.cos(r), np.cos(s), np.sin(r), np.sin(s)
        hess = np.stack([np.stack([cr * cs, -sr * ss], axis=1),
                         np.stack([-sr * ss, cr * cs], axis=1)], axis=1)
        return 2.0 - cr * cs, np.stack([sr * cs, cr * ss], axis=1), hess


class BumpedParabola:
    """Denominator r^2 / 1000 plus a narrow bump at r = 14; s plays no part."""

    def denominator(self, r, s):
        bump = np.exp(-(r - 14.0) ** 2 / 0.005)
        grad = np.stack([2e-3 * r - 400.0 * (r - 14.0) * bump, 0.0 * s], axis=1)
        hess = np.zeros((len(r), 2, 2))
        hess[:, 0, 0] = 2e-3 + bump * (1.6e5 * (r - 14.0) ** 2 - 400.0)
        return r ** 2 / 1000.0 + bump, grad, hess


class TiltedTrough:
    """Denominator (r - 3)^2 - 5 s: a trough in r whose floor falls toward
    larger s everywhere, so its minima in a box lie on the top edge in s."""

    def denominator(self, r, s):
        grad = np.stack([2.0 * (r - 3.0), np.full_like(s, -5.0)], axis=1)
        hess = np.broadcast_to(np.diag([2.0, 0.0]), (len(r), 2, 2))
        return (r - 3.0) ** 2 - 5.0 * s, grad, hess


class Counted:
    """Wraps a closed-form evaluator and keeps every batch it evaluates."""

    def __init__(self, evaluator):
        self.evaluator, self.batches = evaluator, []

    def denominator(self, r, s):
        self.batches.append(np.column_stack([r, s]))
        return self.evaluator.denominator(r, s)


class TestRefineCandidates:
    LIM = DEFAULT_THETA_LIM_RAD

    @pytest.mark.parametrize("seed", range(20))
    def test_never_below_seed_and_in_bounds(self, seed):
        params, subs, grid, gc = random_scene(seed)
        order = np.argsort(-grid.values.ravel(), kind="stable")[:10]
        for idx in order:
            i, j = divmod(int(idx), grid.angles_rad.size)
            peaks = refine_candidates(subs, gc, one_hot(grid, i, j), 1)
            for r, th, v in peaks:
                assert v >= grid.values[i, j] * (1 - 1e-12)
                assert 0.0 <= r < params.r_max_m
                assert -self.LIM <= th <= self.LIM

    @pytest.mark.parametrize("seed", range(20))
    def test_values_are_point_evaluations(self, seed):
        params, subs, grid, gc = random_scene(seed)
        peaks = refine_candidates(subs, gc, grid, 10)
        assert peaks
        ev = SpectrumEvaluator(subs, grid_geometry(gc))
        for r, th, v in peaks:
            assert v == ev.value(r, th)

    @pytest.mark.parametrize("seed", range(10))
    def test_values_only_the_returned_peaks(self, seed, monkeypatch):
        params, subs, grid, gc = random_scene(seed)
        valued = []
        value = SpectrumEvaluator.value

        def counted(self, r, theta):
            valued.append((r, theta))
            return value(self, r, theta)

        monkeypatch.setattr(SpectrumEvaluator, "value", counted)
        peaks = refine_candidates(subs, gc, grid, 10)
        assert peaks
        assert valued == [(r, th) for r, th, _ in peaks]

    def test_degenerate_axis_not_searched(self):
        for seed in range(5):
            params, subs, grid, gc = random_scene(seed, plan=range_only_plan(
                baseline_radio()))
            assert grid.angles_rad.size == 1
            peaks = refine_candidates(subs, gc, grid, 10)
            assert peaks
            for r, th, v in peaks:
                assert th == grid.angles_rad[0]

    def test_refines_music_peak(self):
        radio, plan, params, subs = pipeline(
            (Target(9.0, math.radians(15), 0.01 + 0j),), 120.0)
        # Seed at (8.5 m, 26 deg): about half a cell off in both dimensions.
        grid = SpectrumGrid(np.array([8.5, 9.39]),
                            np.radians([26.0, 54.6]), np.eye(2))
        (r, th, v), = refine_candidates(subs, GridConfig(radio, plan), grid, 1)
        assert abs(r - 9.0) < 1e-3
        assert abs(th - math.radians(15)) < 1e-3

    def test_quadratic_converges(self):
        # About twelve cells from the minimum: capped steps, then exact Newton.
        x, _ = _ascend(Quadratic(), np.array([[9.0, 0.4]]), np.array([0.5, 0.1]),
                       np.array([-10.0, -1.0]), np.array([10.0, 1.0]))
        assert x[0] == pytest.approx([3.7, -0.2], abs=1e-9)

    def test_trust_radius_regrows_after_a_rejected_step(self):
        # The first capped step lands on the bump and is rejected; the
        # remaining 14.5 cells fit in the step budget only at full radius.
        x, _ = _ascend(BumpedParabola(), np.array([[15.0, 0.0]]), np.ones(2),
                       np.array([-20.0, 0.0]), np.array([20.0, 0.0]))
        assert x[0] == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_separable_multimodal(self):
        # The start is where the Hessian is indefinite: gradient steps first.
        start = np.array([[1.2, -1.0]])
        assert np.linalg.eigvalsh(Cosines().denominator(*start.T)[2])[0, 0] < 0
        x, _ = _ascend(Cosines(), start, np.array([0.5, 0.5]),
                       np.array([-4.0, -4.0]), np.array([4.0, 4.0]))
        assert x[0] == pytest.approx([0.0, 0.0], abs=1e-9)

    @pytest.mark.parametrize("seed, canceled", [(0, False), (1, False),
                                                 (2, False), (0, True)],
                             ids=["0", "1", "2", "0-canceled"])
    def test_derivatives_match_finite_differences(self, seed, canceled):
        params, subs, grid, gc = random_scene(seed)
        if canceled:
            r, th, _ = grid.argmax()
            subs = cancel_target(subs, params, Detection(r, th, 0.0, 0))
        ev = SpectrumEvaluator(subs, grid_geometry(gc))
        rng = np.random.default_rng(seed)
        r = rng.uniform(1.0, 24.0, 8)
        s = rng.uniform(-0.8, 0.8, 8)
        den, grad, hess = ev.denominator(r, s)
        ref = np.array([1.0 / ev.value(ri, math.asin(si)) for ri, si in zip(r, s)])
        assert den == pytest.approx(ref, rel=1e-10)
        h = 1e-5
        for axis in range(2):
            dx = h * np.eye(2)[axis]
            d_hi, g_hi, _ = ev.denominator(r + dx[0], s + dx[1])
            d_lo, g_lo, _ = ev.denominator(r - dx[0], s - dx[1])
            scale = np.abs(hess).max()
            assert np.allclose(grad[:, axis], (d_hi - d_lo) / (2 * h),
                               rtol=1e-6, atol=1e-6 * np.abs(grad).max())
            assert np.allclose(hess[:, :, axis], (g_hi - g_lo) / (2 * h),
                               rtol=1e-5, atol=1e-6 * scale)


class TestCancelTarget:
    def test_empty_noise_basis_appends_normalized(self):
        radio = baseline_radio()
        plan = baseline_plan(radio)
        params = steering_params(radio, plan)
        m = plan.samples_per_subarray
        subs = Subspaces(noise_basis=np.zeros((m, 0), dtype=complex),
                         signal_basis=np.eye(m, dtype=complex),
                         eigenvalues=np.ones(m), order_estimate=m)
        out = cancel_target(subs, params, Detection(5.0, 0.1, 1.0, 0))
        v = decimated_steering(params, 5.0, 0.1)
        assert out.noise_basis.shape == (m, 1)
        assert out.noise_basis[:, 0] == pytest.approx(v / np.linalg.norm(v),
                                                      rel=1e-12)

    def test_nulls_detected_target(self):
        radio, plan, params, subs = pipeline(
            (Target(8.0, math.radians(-20), 0.016 + 0j),
             Target(16.0, math.radians(30), 0.004 + 0j)), 120.0)
        det = Detection(8.0, math.radians(-20), 0.0, 0)
        pre = music_value(subs, decimated_steering(params, 8.0, math.radians(-20)))
        out = cancel_target(subs, params, det)
        post = music_value(out, decimated_steering(params, 8.0, math.radians(-20)))
        assert pre > 1e9
        assert post <= 1e-6 * pre

    def test_orthonormality_and_column_count(self):
        radio, plan, params, subs = pipeline(
            (Target(6.0, -0.3, 0.03 + 0j), Target(14.0, 0.4, 0.005 + 0j),
             Target(20.0, 0.9, 0.002 + 0j)), 15.0)
        n0 = subs.noise_basis.shape[1]
        m = plan.samples_per_subarray
        out = subs
        for i, (r, th) in enumerate([(6.0, -0.3), (14.0, 0.4), (20.0, 0.9)]):
            if out.noise_basis.shape[1] >= m:
                break
            out = cancel_target(out, params, Detection(r, th, 0.0, i))
            basis, signal = out.noise_basis, out.signal_basis
            assert basis.shape[1] == n0 + i + 1
            assert basis.shape[1] + signal.shape[1] == m
            gram = basis.conj().T @ basis
            assert np.max(np.abs(gram - np.eye(basis.shape[1]))) < 1e-9
            gram = signal.conj().T @ signal
            assert np.max(np.abs(gram - np.eye(signal.shape[1])), initial=0) < 1e-9
            assert np.max(np.abs(signal.conj().T @ basis), initial=0) < 1e-9
        assert out.noise_basis.shape[1] > n0

    @pytest.mark.parametrize("plan_name", ["baseline", "equal_m_1"])
    def test_partition_holds_to_1e12(self, plan_name):
        # Each cancel appends u = U_S w / ||w||: [U_N u] stays orthonormal and
        # orthogonal to the new signal basis, and canceling again raises.
        checked = 0
        for subs, params, gc in two_target_scenes(plan_name, 10):
            report = detect(subs, params, gc, DetectorConfig())
            current = subs
            for det in report.detections:
                current = cancel_target(current, params, det)
                noise, signal = current.noise_basis, current.signal_basis
                assert noise.shape[1] + signal.shape[1] == noise.shape[0]
                gram = noise.conj().T @ noise
                assert np.max(np.abs(gram - np.eye(noise.shape[1]))) < 1e-12
                gram = signal.conj().T @ signal
                assert np.max(np.abs(gram - np.eye(signal.shape[1])),
                              initial=0) < 1e-12
                assert np.max(np.abs(signal.conj().T @ noise), initial=0) < 1e-12
                with pytest.raises(AlreadyCanceledError):
                    cancel_target(current, params, det)
                checked += 1
        assert checked >= 10

    def test_duplicate_cancel_raises(self):
        radio, plan, params, subs = pipeline(
            (Target(8.0, 0.2, 0.016 + 0j),), 120.0)
        det = Detection(8.0, 0.2, 0.0, 0)
        out = cancel_target(subs, params, det)
        with pytest.raises(AlreadyCanceledError):
            cancel_target(out, params, det)

    def test_unresolvable_pair_leaves_displaced_residual(self):
        # close pair: canceling the fitted peak leaves a residual peak that
        # is displaced from the second target's true location
        targets = (Target(10.0, math.radians(5), 0.01 + 0j),
                   Target(10.6, math.radians(9), 0.01 + 0j))
        radio, plan, params, subs = pipeline(targets, 25.0)
        gc = GridConfig(radio, plan)
        report = detect(subs, params, gc, DetectorConfig())
        assert report.detections
        first = max(report.detections, key=lambda d: d.spectrum_value)
        out = cancel_target(subs, params, first)
        geometry = grid_geometry(gc)
        ev = SpectrumEvaluator(out, geometry)
        ranges = np.linspace(8.0, 13.0, 161)
        angles = np.radians(np.linspace(-5, 20, 161))
        vals = ev.values(grid_steering(geometry.moments, ranges, angles)).reshape(
            ranges.size, angles.size)
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        res_r, res_th = ranges[i], angles[j]
        displacement = math.hypot(res_r - targets[1].range_m,
                                  res_th - targets[1].azimuth_rad)
        assert displacement > 0


class TestDetect:
    def two_target_setup(self, snr_db=15.0, seed=3):
        targets = (Target(7.0, math.radians(-25), 0.02 + 0j),
                   Target(14.0, math.radians(20), 0.005 + 0j))
        return pipeline(targets, snr_db, noise_seed=seed)

    def test_two_resolvable_targets_detected(self):
        radio, plan, params, subs = self.two_target_setup()
        report = detect(subs, params, GridConfig(radio, plan), DetectorConfig())
        assert len(report.detections) == 2
        got = sorted((d.range_m, math.degrees(d.azimuth_rad))
                     for d in report.detections)
        assert got[0][0] == pytest.approx(7.0, abs=0.05)
        assert got[0][1] == pytest.approx(-25.0, abs=1.0)
        assert got[1][0] == pytest.approx(14.0, abs=0.05)
        assert got[1][1] == pytest.approx(20.0, abs=1.0)

    def test_params_of_another_plan_rejected(self):
        # equal_m_plan(50) has the baseline's M = 45 but other steering phases
        radio, plan, params, subs = self.two_target_setup()
        other = steering_params(radio, equal_m_plan(50, radio))
        with pytest.raises(ConfigError, match="steering parameters"):
            detect(subs, other, GridConfig(radio, plan), DetectorConfig())
        # equal parameters built apart from the grid geometry are accepted
        assert params is not grid_geometry(GridConfig(radio, plan)).params
        detect(subs, params, GridConfig(radio, plan), DetectorConfig())

    def test_gate_soundness(self):
        radio, plan, params, subs = self.two_target_setup()
        for routine in Routine:
            report = detect(subs, params, GridConfig(radio, plan),
                            DetectorConfig(routine=routine))
            for d in report.detections:
                assert d.spectrum_value >= report.threshold_used

    def test_merged_peaks_separated(self):
        radio, plan, params, subs = self.two_target_setup()
        from ofdm_music.music import coarse_grid, range_resolution
        cfg = DetectorConfig()
        report = detect(subs, params, GridConfig(radio, plan), cfg)
        cell = grid_geometry(GridConfig(radio, plan)).cell
        radius_r = detection._MERGE_RADIUS_CELLS * cell[0]
        radius_th = detection._MERGE_RADIUS_CELLS * cell[1]
        dets = [d for d in report.detections if d.iteration == 0]
        for i in range(len(dets)):
            for j in range(i + 1, len(dets)):
                assert (abs(dets[i].range_m - dets[j].range_m) >= radius_r
                        or abs(dets[i].azimuth_rad - dets[j].azimuth_rad)
                        >= radius_th)

    def test_off_subset_of_multiple_first_iteration(self):
        radio, plan, params, subs = self.two_target_setup()
        gc = GridConfig(radio, plan)
        off = detect(subs, params, gc, DetectorConfig(routine=Routine.OFF))
        mult = detect(subs, params, gc, DetectorConfig(routine=Routine.MULTIPLE))
        first_iter = {(d.range_m, d.azimuth_rad)
                      for d in mult.detections if d.iteration == 0}
        for d in off.detections:
            assert (d.range_m, d.azimuth_rad) in first_iter

    def test_single_one_iteration_equals_off_one_seed(self):
        radio, plan, params, subs = self.two_target_setup()
        gc = GridConfig(radio, plan)
        single = detect(subs, params, gc,
                        DetectorConfig(routine=Routine.SINGLE, max_iterations=1))
        off = detect(subs, params, gc,
                     DetectorConfig(routine=Routine.OFF, n_start=1))
        assert single.threshold_used == off.threshold_used
        assert single.spectra_computed == off.spectra_computed == 1
        assert [(d.range_m, d.azimuth_rad, d.spectrum_value, d.iteration)
                for d in single.detections] \
            == [(d.range_m, d.azimuth_rad, d.spectrum_value, d.iteration)
                for d in off.detections]

    def test_order_zero_gives_empty_report(self):
        radio = baseline_radio()
        plan = baseline_plan(radio)
        csi = synthesize_csi(radio, TargetScene((), 1.0), 12)
        subs = decompose(covariance(smooth(csi, plan)))
        assert subs.order_estimate == 0
        report = detect(subs, params=steering_params(radio, plan),
                        grid_config=GridConfig(radio, plan),
                        det_config=DetectorConfig())
        assert report.detections == ()
        assert report.spectra_computed == 1

    def test_iteration_recovers_weak_target(self):
        # strong/weak pair: the weak one is typically found only after the
        # strong one is canceled, i.e. in a later iteration
        targets = (Target(5.0, math.radians(-10), 0.04 + 0j),
                   Target(5.0, math.radians(40), 0.004 + 0j))
        radio, plan, params, subs = pipeline(targets, 20.0, noise_seed=1)
        report = detect(subs, params, GridConfig(radio, plan), DetectorConfig())
        assert len(report.detections) >= 2
        angles = sorted(math.degrees(d.azimuth_rad) for d in report.detections[:2])
        assert angles[0] == pytest.approx(-10.0, abs=3.0)
        assert angles[1] == pytest.approx(40.0, abs=3.0)

    def test_noise_only_reports_empty(self):
        radio = baseline_radio()
        plan = baseline_plan(radio)
        params = steering_params(radio, plan)
        gc = GridConfig(radio, plan)
        dc = DetectorConfig()
        empty = 0
        for seed in range(50):
            csi = synthesize_csi(radio, TargetScene((), 1.0), 1000 + seed)
            subs = decompose(covariance(smooth(csi, plan)))
            empty += not detect(subs, params, gc, dc).detections
        assert empty >= 49   # ~p_fa of trials may alarm; here usually none

    def test_same_range_pair_detected_within_half_resolution(self):
        # equal ranges, angles 20 deg apart, 15 dB, routine multiple: both
        # targets found with range errors below half a resolution cell in
        # at least 85% of trials
        radio = baseline_radio()
        plan = baseline_plan(radio)
        params = steering_params(radio, plan)
        gc = GridConfig(radio, plan)
        dc = DetectorConfig()
        from ofdm_music.music import range_resolution
        half_dr = range_resolution(radio, plan) / 2
        rng = np.random.default_rng(77)
        hits = 0
        trials = 100
        for i in range(trials):
            r = float(rng.uniform(2.0, 24.0))
            th1 = float(rng.uniform(np.radians(-60), np.radians(40)))
            th2 = th1 + math.radians(20.0)
            targets = (Target(r, th1, complex(np.exp(2j * np.pi * rng.uniform())
                                              / r ** 2)),
                       Target(r, th2, complex(np.exp(2j * np.pi * rng.uniform())
                                              / r ** 2)))
            sigma2 = noise_variance_for_snr(TargetScene(targets, 0.0), radio,
                                            15.0)
            csi = synthesize_csi(radio, TargetScene(targets, sigma2), 2000 + i)
            subs = decompose(covariance(smooth(csi, plan)))
            report = detect(subs, params, gc, dc)
            if len(report.detections) >= 2:
                best2 = sorted(report.detections,
                               key=lambda d: -d.spectrum_value)[:2]
                if all(abs(d.range_m - r) < half_dr for d in best2):
                    hits += 1
        assert hits >= 85

    def test_report_json_fields(self):
        radio, plan, params, subs = self.two_target_setup()
        report = detect(subs, params, GridConfig(radio, plan), DetectorConfig())
        doc = json.loads(report.to_json())
        assert doc["routine"] == "multiple"
        assert doc["gamma"] == report.threshold_used
        assert doc["spectra_computed"] == report.spectra_computed
        assert len(doc["detections"]) == len(report.detections)
        d0 = doc["detections"][0]
        assert set(d0) == {"range_m", "azimuth_deg", "value", "iteration"}
        assert d0["azimuth_deg"] == pytest.approx(
            math.degrees(report.detections[0].azimuth_rad))


def detect_loop_reference(subspaces, params, grid_config, det_config):
    """The detection loop before it stopped at a complete noise basis.

    It re-grids and refines the flat spectrum left once cancelations have
    completed the basis, and marks the report saturated whenever rounding
    noise on that spectrum beats the threshold.
    """
    grid = coarse_grid(subspaces, grid_config)
    gamma = cfar_threshold(grid, det_config.p_fa, det_config.kappa)
    spectra = 1
    if subspaces.noise_basis.shape[1] >= subspaces.noise_basis.shape[0]:
        return DetectionReport(detections=(), threshold_used=gamma,
                               routine=det_config.routine, spectra_computed=spectra)
    if det_config.routine is Routine.OFF:
        merged = refine_candidates(subspaces, grid_config, grid,
                                   det_config.n_seeds)
        dets = [Detection(r, th, val, 0) for r, th, val in merged if val >= gamma]
        return DetectionReport(detections=tuple(dets), threshold_used=gamma,
                               routine=det_config.routine, spectra_computed=spectra)
    m_total = subspaces.noise_basis.shape[0]
    current = subspaces
    detections = []
    saturated = False
    for iteration in range(det_config.max_iterations):
        if iteration > 0:
            grid = coarse_grid(current, grid_config)
            spectra += 1
            gamma = cfar_threshold(grid, det_config.p_fa, det_config.kappa)
        merged = refine_candidates(current, grid_config, grid,
                                   det_config.n_seeds)
        survivors = [p for p in merged if p[2] >= gamma]
        if not survivors:
            break
        appended = 0
        for r, th, val in sorted(survivors, key=lambda p: -p[2]):
            if current.noise_basis.shape[1] >= m_total:
                saturated = True
                break
            det = Detection(r, th, val, iteration)
            try:
                current = cancel_target(current, params, det)
            except AlreadyCanceledError:
                continue
            detections.append(det)
            appended += 1
        if saturated or appended == 0:
            break
    return DetectionReport(detections=tuple(detections), threshold_used=gamma,
                           routine=det_config.routine, spectra_computed=spectra,
                           saturated=saturated)


def complete(subspaces):
    return subspaces.noise_basis.shape[1] >= subspaces.noise_basis.shape[0]


class TestDetectLoop:
    PLANS = {"baseline": baseline_plan, "range_only": range_only_plan,
             "equal_m_1": lambda radio: equal_m_plan(1, radio)}

    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    def test_matches_loop_reference(self, plan_name, monkeypatch):
        # 100 seeded two-target scenes at 15 dB (range differences 0 and 1 m)
        # per plan, each under all three routines: the same detections, never
        # more spectra, and no grid or refinement on a complete noise basis.
        radio = baseline_radio()
        plan = self.PLANS[plan_name](radio)
        params = steering_params(radio, plan)
        gc = GridConfig(radio, plan)
        calls = {"coarse_grid": [0, 0], "refine_candidates": [0, 0]}

        def counted(name, fn):
            def wrapper(subspaces, *args, **kwargs):
                calls[name][0] += 1
                calls[name][1] += complete(subspaces)
                return fn(subspaces, *args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(detection, name,
                                counted(name, getattr(detection, name)))
        spec = ScenarioSpec(n_trials=100, snr_db=15.0, base_range_max_m=24.0,
                            rng_seed=8)
        spectra = [0, 0]
        for i in range(100):
            scene = generate_trial(spec, radio, i, range_diff_m=float(i % 2))
            subs = decompose(covariance(smooth(
                synthesize_csi(radio, scene, 5000 + i), plan)))
            for routine in Routine:
                dc = DetectorConfig(routine=routine)
                got = detect(subs, params, gc, dc)
                want = detect_loop_reference(subs, params, gc, dc)
                assert repr(got.detections) == repr(want.detections), (i, routine)
                assert got.spectra_computed <= want.spectra_computed
                assert not got.saturated or want.saturated
                spectra[0] += got.spectra_computed
                spectra[1] += want.spectra_computed
        assert calls["coarse_grid"][0] == spectra[0] < spectra[1]
        assert calls["refine_candidates"][0] > 0
        assert calls["coarse_grid"][1] == calls["refine_candidates"][1] == 0

    def two_target_subspaces(self):
        targets = (Target(7.0, math.radians(-25), 0.02 + 0j),
                   Target(14.0, math.radians(20), 0.005 + 0j))
        return pipeline(targets, 15.0, noise_seed=3)

    def test_both_targets_canceled_in_first_iteration(self):
        radio, plan, params, subs = self.two_target_subspaces()
        assert subs.order_estimate == 2
        dc = DetectorConfig()
        report = detect(subs, params, GridConfig(radio, plan), dc)
        assert [d.iteration for d in report.detections] == [0, 0]
        assert report.spectra_computed == 1
        assert report.saturated is False
        grid = coarse_grid(subs, GridConfig(radio, plan))
        assert report.threshold_used == cfar_threshold(grid, dc.p_fa, dc.kappa)

    def test_uncancelable_survivor_saturates(self):
        # One signal column, an equal mix of the two targets' steering
        # vectors: both peak above the threshold, but the first cancelation
        # completes the noise basis, so the second cannot be canceled.
        radio, plan, params, _ = self.two_target_subspaces()
        u = sum(v / np.linalg.norm(v) for v in (
            decimated_steering(params, 7.0, math.radians(-25)),
            decimated_steering(params, 14.0, math.radians(20))))
        w, vecs = np.linalg.eigh(np.outer(u, u.conj()))
        one = Subspaces(noise_basis=vecs[:, :-1], signal_basis=vecs[:, -1:],
                        eigenvalues=w[::-1], order_estimate=1)
        report = detect(one, params, GridConfig(radio, plan), DetectorConfig())
        assert len(report.detections) == 1
        assert report.saturated is True
        assert report.spectra_computed == 1


def ascend_reference(evaluator, x, cell, lo, hi):
    """The Newton ascent before it skipped repeated trial points.

    It holds every seed's state in (n, 2) arrays and evaluates every seed at
    every one of the ``_ASCENT_STEPS`` steps. A seed whose capped step is
    shorter than ``_MIN_STEP_CELLS`` is frozen for good. An axis on which a
    seed sits on a bound while its step points out of the box is held for
    the step, as a zero-width axis is, and the step is taken again on the
    other axes. Returns the final points and their denominators.
    """
    free = hi > lo

    def direction(grad, hess, axes):
        """Newton or unit gradient steps in cell units on the ``axes`` rows."""
        g = grad * cell * axes
        scale = np.outer(cell, cell) * (axes[:, :, np.newaxis]
                                        & axes[:, np.newaxis, :])
        h = hess * scale + np.eye(2) * ~axes[:, np.newaxis, :]
        h00, h01, h11 = h[:, 0, 0], h[:, 0, 1], h[:, 1, 1]
        det = h00 * h11 - h01 * h01
        convex = (h00 > 0) & (det > 0)
        det = np.where(convex, det, 1.0)
        newton = -np.stack([h11 * g[:, 0] - h01 * g[:, 1],
                            h00 * g[:, 1] - h01 * g[:, 0]], axis=1) \
            / det[:, np.newaxis]
        slope = np.linalg.norm(g, axis=1, keepdims=True)
        descent = -g / np.where(slope > 0, slope, 1.0)
        return np.where(convex[:, np.newaxis], newton, descent)

    x = np.array(x, dtype=float)
    den, grad, hess = map(np.array, evaluator.denominator(x[:, 0], x[:, 1]))
    radius = np.full(len(x), detection._MAX_STEP_CELLS)
    frozen = np.zeros(len(x), dtype=bool)
    for _ in range(detection._ASCENT_STEPS):
        axes = np.broadcast_to(free, x.shape)
        while True:
            step = direction(grad, hess, axes)
            out = axes & (((x <= lo) & (step < 0)) | ((x >= hi) & (step > 0)))
            if not out.any():
                break
            axes = axes & ~out
        length = np.linalg.norm(step, axis=1)
        shrink = np.minimum(1.0, radius / np.where(length > 0, length, 1.0))
        frozen |= length * shrink < detection._MIN_STEP_CELLS
        trial = np.clip(x + step * shrink[:, np.newaxis] * cell, lo, hi)
        den_t, grad_t, hess_t = evaluator.denominator(trial[:, 0], trial[:, 1])
        better = (den_t < den) & ~frozen
        x[better], den[better] = trial[better], den_t[better]
        grad[better], hess[better] = grad_t[better], hess_t[better]
        radius = np.where(frozen, radius, np.where(
            better, np.minimum(2.0 * radius, detection._MAX_STEP_CELLS),
            radius / 2.0))
    return x, den


def same_ascent(got, want):
    """Whether the points and denominators of two ascents agree bit for bit."""
    return all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


def two_target_scenes(plan_name, n):
    """(subspaces, params, grid config) of the seeded two-target scenes at
    15 dB that :class:`TestDetectLoop` uses, range differences 0 and 1 m."""
    radio = baseline_radio()
    plan = TestDetectLoop.PLANS[plan_name](radio)
    params = steering_params(radio, plan)
    gc = GridConfig(radio, plan)
    spec = ScenarioSpec(n_trials=n, snr_db=15.0, base_range_max_m=24.0,
                        rng_seed=8)
    for i in range(n):
        scene = generate_trial(spec, radio, i, range_diff_m=float(i % 2))
        yield decompose(covariance(smooth(
            synthesize_csi(radio, scene, 5000 + i), plan))), params, gc


def record_ascents(monkeypatch):
    """Patch ``detection._ascend`` to keep the arguments of every call."""
    calls = []

    def recorded(evaluator, x, cell, lo, hi):
        calls.append((evaluator, np.array(x), cell, lo, hi))
        return _ascend(evaluator, x, cell, lo, hi)

    monkeypatch.setattr(detection, "_ascend", recorded)
    return calls


class TestAscend:
    @pytest.mark.parametrize("plan_name", sorted(TestDetectLoop.PLANS))
    def test_matches_reference_in_detect(self, plan_name, monkeypatch):
        # Every ascent that 100 seeded two-target scenes per plan start,
        # under all three routines, ends bit for bit where the reference does.
        calls = record_ascents(monkeypatch)
        for subs, params, gc in two_target_scenes(plan_name, 100):
            for routine in Routine:
                detect(subs, params, gc, DetectorConfig(routine=routine))
        assert len(calls) >= 300
        for i, (evaluator, x, cell, lo, hi) in enumerate(calls):
            assert same_ascent(_ascend(evaluator, x, cell, lo, hi),
                               ascend_reference(evaluator, x, cell, lo, hi)), i

    @pytest.mark.parametrize("plan_name", sorted(TestDetectLoop.PLANS))
    def test_matches_reference_from_domain_bounds(self, plan_name):
        subs, params, gc = next(two_target_scenes(plan_name, 1))
        ev = SpectrumEvaluator(subs, grid_geometry(gc))
        r_hi = params.r_max_m * (1.0 - 1e-12)
        s_lim = math.sin(DEFAULT_THETA_LIM_RAD)
        cell = np.array([0.1, 0.05])
        if plan_name == "range_only":
            lo, hi = np.array([0.0, 0.0]), np.array([r_hi, 0.0])
        else:
            lo, hi = np.array([0.0, -s_lim]), np.array([r_hi, s_lim])
        x = np.array([[0.0, lo[1]], [r_hi, hi[1]], [0.0, hi[1]], [r_hi, lo[1]],
                      [0.5 * r_hi, lo[1]], [0.0, 0.0], [r_hi, 0.0]])
        assert same_ascent(_ascend(ev, x, cell, lo, hi),
                           ascend_reference(ev, x, cell, lo, hi))

    @pytest.mark.parametrize("evaluator, x, cell, lo, hi", [
        # The last start is 2e-7 cells from the minimum: its first step is
        # under _MIN_STEP_CELLS, so it stops before reaching the fixpoint.
        (Quadratic(), [[9.0, 0.4], [-10.0, 1.0], [3.7, -0.2], [10.0, -1.0],
                       [3.7 + 1e-7, -0.2]],
         [0.5, 0.1], [-10.0, -1.0], [10.0, 1.0]),
        # The first start has an indefinite Hessian; two start on a bound.
        (Cosines(), [[1.2, -1.0], [4.0, 4.0], [-4.0, 0.3], [3.1, -2.9]],
         [0.5, 0.5], [-4.0, -4.0], [4.0, 4.0]),
        (BumpedParabola(), [[15.0, 0.0], [20.0, 0.0], [-20.0, 0.0],
                            [14.0, 0.0]],
         [1.0, 1.0], [-20.0, 0.0], [20.0, 0.0]),
    ], ids=["quadratic", "cosines", "bumped_parabola"])
    def test_matches_reference_on_closed_forms(self, evaluator, x, cell, lo, hi):
        x, cell, lo, hi = map(np.array, (x, cell, lo, hi))
        assert same_ascent(_ascend(evaluator, x, cell, lo, hi),
                           ascend_reference(evaluator, x, cell, lo, hi))
        for seed in x:
            assert same_ascent(
                _ascend(evaluator, seed[np.newaxis], cell, lo, hi),
                ascend_reference(evaluator, seed[np.newaxis], cell, lo, hi))

    BOX = np.array([1.0, 0.1]), np.array([0.0, -1.0]), np.array([10.0, 1.0])

    def test_outward_axis_is_held_on_its_bound(self):
        # The step from s = 1 points out of the box: s is held, and a
        # Newton step in r alone reaches the trough.
        trough = Counted(TiltedTrough())
        x, den = _ascend(trough, np.array([[3.8, 1.0]]), *self.BOX)
        assert len(trough.batches) <= 3   # the start and at most 2 steps
        assert x[0, 0] == pytest.approx(3.0, abs=1e-12)
        assert x[0, 1] == 1.0
        assert all(batch[0, 1] == 1.0 for batch in trough.batches)
        assert den[0] == TiltedTrough().denominator(x[:, 0], x[:, 1])[0][0]

    def test_inward_step_leaves_the_bound(self):
        # From s = -1 the step points into the box, so the seed leaves the
        # bound; from the corner (0, -1) too.
        start = np.array([[3.8, -1.0], [0.0, -1.0]])
        x, den = _ascend(TiltedTrough(), start, *self.BOX)
        assert np.all(x[:, 1] > -1.0)
        assert np.all(den < TiltedTrough().denominator(start[:, 0],
                                                       start[:, 1])[0])
        x, _ = _ascend(Quadratic(), np.array([[3.7, 1.0], [10.0, -1.0]]),
                       np.array([0.5, 0.1]), *self.BOX[1:])
        assert x == pytest.approx(np.array([[3.7, -0.2]] * 2), abs=1e-9)

    def test_few_ascents_run_into_the_step_cap(self, monkeypatch):
        # An ascent runs into the cap when a longer budget would evaluate
        # more points. Clipped steps that crept along the edge of the search
        # box used to do so in about half of these ascents.
        calls = record_ascents(monkeypatch)
        for subs, params, gc in two_target_scenes("baseline", 100):
            detect(subs, params, gc, DetectorConfig())
        capped = 0
        for evaluator, x, cell, lo, hi in calls:
            counts = []
            for steps in (detection._ASCENT_STEPS,
                          10 * detection._ASCENT_STEPS):
                monkeypatch.setattr(detection, "_ASCENT_STEPS", steps)
                counted = Counted(evaluator)
                _ascend(counted, x, cell, lo, hi)
                counts.append(sum(map(len, counted.batches)))
            monkeypatch.undo()
            capped += counts[0] < counts[1]
        assert len(calls) >= 100
        assert capped <= 0.1 * len(calls)

    def test_step_under_the_minimum_stops_the_seed(self):
        start = np.array([[3.7 + 1e-7, -0.2], [3.7 + 1e-5, -0.2]])
        x, _ = _ascend(Quadratic(), start, np.array([0.5, 0.1]),
                       np.array([-10.0, -1.0]), np.array([10.0, 1.0]))
        assert np.array_equal(x[0], start[0])
        assert x[1] == pytest.approx([3.7, -0.2], abs=1e-12)
        assert x[1, 0] != start[1, 0]

    @pytest.mark.parametrize("plan_name", sorted(TestDetectLoop.PLANS))
    def test_denominator_rows_do_not_depend_on_the_batch(self, plan_name):
        # What makes skipping a repeated point exact: a point's denominator,
        # gradient and Hessian are the same bits in any batch.
        subs, params, gc = next(two_target_scenes(plan_name, 1))
        ev = SpectrumEvaluator(subs, grid_geometry(gc))
        rng = np.random.default_rng(11)
        pts = np.column_stack([rng.uniform(0.0, params.r_max_m, 10),
                               rng.uniform(-0.85, 0.85, 10)])
        full = ev.denominator(pts[:, 0], pts[:, 1])
        for idx in ([3], [0, 9], [2, 3, 5, 7], list(range(9)),
                    rng.permutation(10), rng.permutation(10)[:6]):
            part = pts[idx]
            for got, want in zip(ev.denominator(part[:, 0], part[:, 1]), full):
                assert got.tobytes() == want[idx].tobytes(), idx

    def test_evaluates_under_half_the_points_and_never_repeats(self,
                                                               monkeypatch):
        # The reference evaluates every seed at the start and at every
        # step. Skipping repeated points must save more than half of that
        # over seeded baseline scenes, and no seed may be evaluated at the
        # point it was evaluated at in the step before.
        calls = record_ascents(monkeypatch)
        for subs, params, gc in two_target_scenes("baseline", 100):
            detect(subs, params, gc, DetectorConfig())
        batches = []
        denominator = SpectrumEvaluator.denominator

        def counted(self, ranges_m, sines):
            batches.append(list(zip(ranges_m.tolist(), sines.tolist())))
            return denominator(self, ranges_m, sines)

        monkeypatch.setattr(SpectrumEvaluator, "denominator", counted)
        evaluated = budget = 0
        for evaluator, x, cell, lo, hi in calls:
            budget += len(x) * (detection._ASCENT_STEPS + 1)
            batches.clear()
            _ascend(evaluator, x, cell, lo, hi)
            together = sum(map(len, batches))
            evaluated += together
            # Seeds do not interact, so each can be followed on its own.
            alone = 0
            for seed in x:
                batches.clear()
                _ascend(evaluator, seed[np.newaxis], cell, lo, hi)
                assert all(before != after
                           for before, after in zip(batches, batches[1:]))
                alone += sum(map(len, batches))
            assert alone == together
        assert len(calls) >= 100
        assert evaluated <= 0.5 * budget


def coarse_grid_reference(subspaces, params, config, plan,
                          theta_lim_rad=DEFAULT_THETA_LIM_RAD, noise_side=False):
    """The coarse grid as built before its geometry was kept per grid config.

    Every call derives the axes, the phase ramps and the grid steering
    vectors again before projecting them: on the signal side,
    M - ||U_S^H v||^2, or with ``noise_side`` as ||U_N^H v||^2, the form the
    grid had before it moved to the signal side.
    """
    r_step = music.range_resolution(config, plan) / 2.0
    ranges = np.arange(0.0, music.unambiguous_range(config, plan), r_step)
    if plan.n_sub_a > 1:
        extent = (plan.n_sub_a - 1) * plan.decim_a * config.antenna_spacing_m
        th_step = (config.wavelength_m / extent) / 2.0
        angles = np.arange(-theta_lim_rad, theta_lim_rad + 1e-12, th_step)
        angles = angles[angles <= theta_lim_rad + 1e-12]
    else:
        angles = np.array([0.0])
    i = np.repeat(np.arange(params.n_sub_f), params.n_sub_a)
    j = np.tile(np.arange(params.n_sub_a), params.n_sub_f)
    ramp_r = params.phi_f * (2.0 / params.speed_of_light_m_s) * i
    ramp_theta = params.phi_a * j
    sin_th = np.sin(angles)
    phases = ranges[:, np.newaxis, np.newaxis] * ramp_r \
        + sin_th[np.newaxis, :, np.newaxis] * ramp_theta
    v = np.exp(1j * phases.reshape(-1, ramp_r.size))
    if noise_side:
        proj = np.ascontiguousarray(subspaces.noise_basis.conj().T) @ v.T
        den = np.sum(np.abs(proj) ** 2, axis=0)
    else:
        proj = subspaces.signal_basis.conj().T @ v.T
        den = ramp_r.size - np.sum(proj.real ** 2 + proj.imag ** 2, axis=0)
    clamp = music.MUSIC_VALUE_CLAMP
    with np.errstate(divide="ignore"):
        vals = np.where(den <= 1.0 / clamp, clamp,
                        np.minimum(1.0 / np.maximum(den, 1e-300), clamp))
    return SpectrumGrid(ranges, angles, vals.reshape(ranges.size, angles.size))


def refine_box_reference(params, grid, theta_lim_rad):
    """(lo, hi, cell) as ``refine_candidates`` derived them from its grid."""
    r_hi = params.r_max_m * (1.0 - 1e-12)
    r_step = float(grid.ranges_m[1] - grid.ranges_m[0])
    if grid.angles_rad.size > 1:
        s_lim = math.sin(theta_lim_rad)
        return (np.array([0.0, -s_lim]), np.array([r_hi, s_lim]),
                np.array([r_step, float(grid.angles_rad[1] - grid.angles_rad[0])]))
    s0 = np.sin(grid.angles_rad)[0]
    return np.array([0.0, s0]), np.array([r_hi, s0]), np.array([r_step, 1.0])


class TestGridGeometry:
    LIMITS = (DEFAULT_THETA_LIM_RAD, math.radians(45.0), 0.0)

    @pytest.mark.parametrize("plan_name", sorted(TestDetectLoop.PLANS))
    def test_grids_match_reference_before_and_after_cancelations(self,
                                                                 plan_name):
        # 30 seeded two-target scenes per plan: the grid of the decomposed
        # scene and of every cancelation that detect made, bit for bit.
        grids = 0
        for subs, params, gc in two_target_scenes(plan_name, 30):
            report = detect(subs, params, gc, DetectorConfig())
            current = subs
            for det in (None,) + report.detections:
                if det is not None:
                    current = cancel_target(current, params, det)
                for lim in self.LIMITS[:2]:
                    g = GridConfig(gc.radio, gc.plan, lim)
                    got = coarse_grid(current, g)
                    want = coarse_grid_reference(current, params, g.radio,
                                                 g.plan, lim)
                    assert got.ranges_m.tobytes() == want.ranges_m.tobytes()
                    assert got.angles_rad.tobytes() == want.angles_rad.tobytes()
                    assert got.values.tobytes() == want.values.tobytes()
                    grids += 1
        assert grids >= 120

    @pytest.mark.parametrize("plan_name", sorted(TestDetectLoop.PLANS))
    def test_grids_match_the_noise_side_form(self, plan_name):
        # The projector identity: away from exact nulls of the noise-side
        # denominator, the signal-side grid agrees with it to 1e-10.
        compared = total = 0
        for subs, params, gc in two_target_scenes(plan_name, 10):
            report = detect(subs, params, gc, DetectorConfig())
            current = subs
            for det in (None,) + report.detections:
                if det is not None:
                    current = cancel_target(current, params, det)
                got = coarse_grid(current, gc).values
                want = coarse_grid_reference(current, params, gc.radio, gc.plan,
                                             noise_side=True).values
                kept = 1.0 / want > 1e-6   # noise-side denominator
                assert np.allclose(got[kept], want[kept], rtol=1e-10, atol=0)
                compared += int(kept.sum())
                total += kept.size
        assert compared >= 0.9 * total

    @pytest.mark.parametrize("plan_name", sorted(TestDetectLoop.PLANS))
    def test_refine_box_matches_reference(self, plan_name):
        subs, params, gc = next(two_target_scenes(plan_name, 1))
        for lim in self.LIMITS:
            geometry = grid_geometry(GridConfig(gc.radio, gc.plan, lim))
            want = refine_box_reference(params, coarse_grid_reference(
                subs, params, gc.radio, gc.plan, lim), lim)
            got = (geometry.lo, geometry.hi, geometry.cell)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
            assert geometry.params == params

    def test_twenty_trials_build_the_steering_once(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return grid_steering(*args)

        monkeypatch.setattr(music, "grid_steering", counted)
        music.grid_geometry.cache_clear()
        radio = baseline_radio()
        plan = baseline_plan(radio)
        spec = ScenarioSpec(n_trials=20, snr_db=15.0, base_range_max_m=22.5,
                            rng_seed=4)
        for t in range(20):
            run_trial(radio, plan, DetectorConfig(),
                      generate_trial(spec, radio, t, 1.0), 100 + t)
        assert len(built) == 1

    def test_arrays_are_read_only(self):
        geometry = grid_geometry(GridConfig(baseline_radio(), baseline_plan()))
        assert geometry.steering.shape == (45, 29 * 5)
        for a in (geometry.steering, geometry.ranges_m, geometry.angles_rad,
                  geometry.moments, geometry.lo, geometry.hi, geometry.cell):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            geometry.steering[0, 0] = 0.0

    def test_memo_leaves_the_config_record_alone(self):
        gc = GridConfig(baseline_radio(), baseline_plan())
        before = pickle.dumps(gc)
        geometry = grid_geometry(gc)
        assert pickle.dumps(gc) == before
        # An equal record, as a pool worker unpickles it, shares the entry.
        assert grid_geometry(pickle.loads(before)) is geometry


class TestDetectorConfig:
    def test_p_fa_bounds(self):
        with pytest.raises(ConfigError):
            DetectorConfig(p_fa=0.0)
        with pytest.raises(ConfigError):
            DetectorConfig(p_fa=1.0)

    def test_positive_counts(self):
        with pytest.raises(ConfigError):
            DetectorConfig(n_start=0)
        with pytest.raises(ConfigError):
            DetectorConfig(max_iterations=0)

    def test_routine_parsing(self):
        assert Routine.from_string(" Multiple ") is Routine.MULTIPLE
        with pytest.raises(ConfigError):
            Routine.from_string("both")

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf, 0.0])
    def test_kappa_positive_and_finite(self, kappa):
        # NaN made estimate print "gamma": NaN; inf gated out every target.
        with pytest.raises(ConfigError, match="kappa"):
            DetectorConfig(kappa=kappa)
