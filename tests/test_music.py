import math

import numpy as np
import pytest

from ofdm_music import (DomainError, NumericalError, SampleCovariance, SpectrumEvaluator, Subspaces,
                        Target, TargetScene, coarse_grid, covariance,
                        decimated_steering, decompose, flop_estimate, grid_axes,
                        mdl_order, music_value, noise_variance_for_snr,
                        range_resolution, sample_subarray, smooth, steering_params,
                        synthesize_csi, unambiguous_range)
from ofdm_music.music import MUSIC_VALUE_CLAMP
from ofdm_music.presets import baseline_plan, baseline_radio, equal_m_plan


def decomposed_scene(cfg, plan, targets, snr_db, noise_seed=0):
    scene0 = TargetScene(targets, 0.0)
    sigma2 = noise_variance_for_snr(scene0, cfg, snr_db)
    csi = synthesize_csi(cfg, TargetScene(targets, sigma2), noise_seed)
    return decompose(covariance(smooth(csi, plan)))


class TestSteeringParams:
    def test_baseline_factors(self):
        cfg = baseline_radio()
        plan = baseline_plan(cfg)
        p = steering_params(cfg, plan)
        assert p.phi_a == pytest.approx(
            2 * math.pi * plan.decim_a * cfg.antenna_spacing_m / cfg.wavelength_m)
        assert p.phi_a == pytest.approx(math.pi)   # half-wavelength spacing
        assert p.phi_f == pytest.approx(-2 * math.pi * 100 * 60e3)
        assert (p.n_sub_f, p.n_sub_a) == (15, 3)
        assert p.r_max_m == pytest.approx(25.0)


class TestDecimatedSteering:
    def test_origin_all_ones(self):
        p = steering_params(baseline_radio(), baseline_plan())
        assert np.array_equal(decimated_steering(p, 0.0, 0.0), np.ones(45))

    def test_kronecker_structure(self):
        p = steering_params(baseline_radio(), baseline_plan())
        v = decimated_steering(p, 7.3, 0.42)
        a = np.exp(1j * p.phi_f * 2 * 7.3 / p.speed_of_light_m_s
                   * np.arange(p.n_sub_f))
        b = np.exp(1j * p.phi_a * math.sin(0.42) * np.arange(p.n_sub_a))
        for i in range(p.n_sub_f):
            for j in range(p.n_sub_a):
                assert v[i * p.n_sub_a + j] == pytest.approx(a[i] * b[j], rel=1e-12)

    def test_matches_sampled_subarray(self):
        cfg = baseline_radio()
        plan = baseline_plan(cfg)
        h = 1.3 - 0.2j
        csi = synthesize_csi(cfg, TargetScene((Target(11.0, -0.5, h),), 0.0), 0)
        sampled = sample_subarray(csi, plan, 0)
        steer = decimated_steering(steering_params(cfg, plan), 11.0, -0.5)
        assert sampled == pytest.approx(h * steer, rel=1e-12)

    def test_domain_checks(self):
        p = steering_params(baseline_radio(), baseline_plan())
        with pytest.raises(DomainError):
            decimated_steering(p, 25.0, 0.0)
        with pytest.raises(DomainError):
            decimated_steering(p, -1.0, 0.0)
        with pytest.raises(DomainError):
            decimated_steering(p, 1.0, 2.0)


class TestMdl:
    def test_white_covariance_order_zero(self):
        cov = SampleCovariance(matrix=0.3 * np.eye(12, dtype=complex),
                               n_snapshots=50)
        assert decompose(cov).order_estimate == 0

    def test_noiseless_single_target_with_floor(self):
        cfg = baseline_radio()
        plan = baseline_plan(cfg)
        csi = synthesize_csi(cfg, TargetScene((Target(9.0, 0.2, 1 + 0j),), 0.0), 0)
        cov = covariance(smooth(csi, plan))
        w = np.linalg.eigvalsh(cov.matrix)[::-1]
        assert np.sum(w > 1e-9 * w[0]) == 1
        floored = SampleCovariance(
            matrix=cov.matrix + 1e-6 * w[0] * np.eye(45), n_snapshots=200)
        assert decompose(floored).order_estimate == 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            w = np.sort(rng.exponential(size=20))[::-1]
            q = mdl_order(w, 64)
            for s in (1e-6, 0.1, 3.0, 1e9):
                assert mdl_order(s * w, 64) == q

    def test_two_targets_15db_mostly_order_two(self):
        cfg = baseline_radio()
        plan = baseline_plan(cfg)
        targets = (Target(5.0, math.radians(-20), 1 / 25 + 0j),
                   Target(10.0, math.radians(25), 1 / 100 + 0j))
        scene0 = TargetScene(targets, 0.0)
        sigma2 = noise_variance_for_snr(scene0, cfg, 15.0)
        scene = TargetScene(targets, sigma2)
        hits = sum(
            decompose(covariance(smooth(synthesize_csi(cfg, scene, seed),
                                        plan))).order_estimate == 2
            for seed in range(200))
        assert hits >= 180


class TestDecompose:
    def test_subspace_shapes_and_orthogonality(self):
        cfg = baseline_radio()
        plan = baseline_plan(cfg)
        targets = (Target(6.0, -0.3, 0.05 + 0j), Target(14.0, 0.4, 0.01 + 0j))
        subs = decomposed_scene(cfg, plan, targets, 15.0)
        m = 45
        q = subs.order_estimate
        assert subs.noise_basis.shape == (m, m - q)
        assert subs.signal_basis.shape == (m, q)
        eye = subs.noise_basis.conj().T @ subs.noise_basis
        assert np.max(np.abs(eye - np.eye(m - q))) < 1e-9
        cross = subs.signal_basis.conj().T @ subs.noise_basis
        assert np.max(np.abs(cross)) < 1e-9
        assert np.all(np.diff(subs.eigenvalues) <= 1e-12)

    def test_trace_conservation(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(16, 40)) + 1j * rng.normal(size=(16, 40))
        r = a @ a.conj().T / 40
        r = (r + r.conj().T) / 2
        subs = decompose(SampleCovariance(matrix=r, n_snapshots=40))
        assert np.sum(subs.eigenvalues) == pytest.approx(np.trace(r).real,
                                                         rel=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariance_rejected(self, bad):
        # eigh does not flag these: on NaN input it returns made-up eigenvalues
        r = np.eye(4, dtype=complex)
        r[1, 2] = r[2, 1] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            decompose(SampleCovariance(matrix=r, n_snapshots=10))


class TestMusicValue:
    def make_subspaces(self, m=10, q=2, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        u, _ = np.linalg.qr(a)
        return Subspaces(noise_basis=u[:, q:], signal_basis=u[:, :q],
                         eigenvalues=np.ones(m), order_estimate=q)

    def test_orthogonal_vector_clamped(self):
        subs = self.make_subspaces()
        v = subs.signal_basis[:, 0]
        assert music_value(subs, v) == MUSIC_VALUE_CLAMP

    def test_noise_column_gives_one(self):
        subs = self.make_subspaces()
        assert music_value(subs, subs.noise_basis[:, 3]) == pytest.approx(1.0,
                                                                          rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_brute_force_sum(self, seed):
        subs = self.make_subspaces(seed=seed)
        rng = np.random.default_rng(100 + seed)
        v = rng.normal(size=10) + 1j * rng.normal(size=10)
        brute = sum(abs(np.vdot(subs.noise_basis[:, i], v)) ** 2
                    for i in range(subs.noise_basis.shape[1]))
        assert music_value(subs, v) == pytest.approx(1.0 / brute, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_projector_formula(self, seed):
        subs = self.make_subspaces(seed=seed)
        rng = np.random.default_rng(200 + seed)
        v = rng.normal(size=10) + 1j * rng.normal(size=10)
        un = subs.noise_basis
        denom = np.real(v.conj() @ un @ un.conj().T @ v)
        assert music_value(subs, v) == pytest.approx(1.0 / denom, rel=1e-10)

    def test_evaluator_matches_music_value(self):
        cfg = baseline_radio()
        plan = baseline_plan(cfg)
        params = steering_params(cfg, plan)
        subs = decomposed_scene(cfg, plan, (Target(8.0, 0.3, 0.02 + 0j),), 20.0)
        ev = SpectrumEvaluator(subs, params)
        rng = np.random.default_rng(0)
        for _ in range(20):
            r = rng.uniform(0, 24.9)
            th = rng.uniform(-1.0, 1.0)
            direct = music_value(subs, decimated_steering(params, r, th))
            assert ev.value(r, th) == pytest.approx(direct, rel=1e-12)
        ranges = np.linspace(0.0, 24.0, 7)
        angles = np.linspace(-1.0, 1.0, 5)
        grid_vals = ev.values(ranges, angles)
        for i, r in enumerate(ranges):
            for j, th in enumerate(angles):
                assert grid_vals[i, j] == pytest.approx(ev.value(r, th), rel=1e-10)


class TestResolutionAndGrid:
    def test_baseline_resolution_and_r_max(self):
        cfg = baseline_radio()
        plan = baseline_plan(cfg)
        assert range_resolution(cfg, plan) == pytest.approx(1.781, abs=0.005)
        assert unambiguous_range(cfg, plan) == 25.0

    def test_unambiguous_range_scaling(self):
        cfg = baseline_radio()
        assert unambiguous_range(cfg, equal_m_plan(1, cfg)) == 2500.0
        assert unambiguous_range(cfg, equal_m_plan(50, cfg)) == 50.0

    def test_resolution_scales_with_aperture(self):
        cfg = baseline_radio()
        coarse = range_resolution(cfg, equal_m_plan(1, cfg))
        fine = range_resolution(cfg, baseline_plan(cfg))
        assert coarse / fine == pytest.approx(1401 / 15, rel=1e-12)

    def test_grid_axes_domain(self):
        cfg = baseline_radio()
        plan = baseline_plan(cfg)
        ranges, angles = grid_axes(cfg, plan, math.radians(60))
        assert ranges[0] == 0.0
        assert ranges[-1] < 25.0
        assert np.diff(ranges) == pytest.approx(range_resolution(cfg, plan) / 2)
        assert abs(angles).max() <= math.radians(60) + 1e-9

    def test_grid_values_nonnegative_finite(self):
        cfg = baseline_radio()
        plan = baseline_plan(cfg)
        subs = decomposed_scene(cfg, plan, (Target(8.0, 0.1, 0.02 + 0j),), 10.0)
        grid = coarse_grid(subs, steering_params(cfg, plan), cfg, plan)
        assert np.all(grid.values >= 0)
        assert np.all(np.isfinite(grid.values))

    def test_single_angle_axis_for_one_antenna_subarrays(self):
        cfg = baseline_radio()
        from ofdm_music import make_plan
        plan = make_plan(cfg, 1401, 1, 100, 1, 1, 1)
        _, angles = grid_axes(cfg, plan)
        assert angles.tolist() == [0.0]

    def test_peak_dominates_far_grid_points(self):
        # near-noiseless single target: the true-location value clamps while
        # grid points beyond one resolution cell stay 20 dB lower
        cfg = baseline_radio()
        plan = baseline_plan(cfg)
        params = steering_params(cfg, plan)
        r0, th0 = 10.0, math.radians(20)
        subs = decomposed_scene(cfg, plan, (Target(r0, th0, 0.01 + 0j),), 120.0)
        grid = coarse_grid(subs, params, cfg, plan)
        peak = SpectrumEvaluator(subs, params).value(r0, th0)
        dr = range_resolution(cfg, plan)
        dth = 2 * (grid.angles_rad[1] - grid.angles_rad[0])
        far = [grid.values[i, j]
               for i in range(grid.ranges_m.size)
               for j in range(grid.angles_rad.size)
               if abs(grid.ranges_m[i] - r0) > dr
               or abs(grid.angles_rad[j] - th0) > dth]
        assert peak >= 100.0 * max(far)

    def test_steering_periodic_in_unambiguous_range(self):
        # the decimated phase ramp advances by exact multiples of 2*pi over
        # one unambiguous range, so spectrum values repeat; this is why the
        # search domain stops at r_max
        cfg = baseline_radio()
        plan = baseline_plan(cfg)
        params = steering_params(cfg, plan)
        subs = decomposed_scene(cfg, plan, (Target(7.0, 0.2, 0.02 + 0j),), 20.0)
        theta = 0.2
        b = np.exp(1j * params.phi_a * math.sin(theta)
                   * np.arange(params.n_sub_a))
        for r in (7.0, 3.3, 14.2):
            v1 = decimated_steering(params, r, theta)
            a2 = np.exp(1j * params.phi_f
                        * 2 * (r + params.r_max_m) / params.speed_of_light_m_s
                        * np.arange(params.n_sub_f))
            v2 = (a2[:, np.newaxis] * b[np.newaxis, :]).ravel()
            assert np.max(np.abs(v2 - v1)) < 1e-12
            assert music_value(subs, v2) == pytest.approx(music_value(subs, v1),
                                                          rel=1e-9)

    def test_aliased_target_indistinguishable_on_lattice(self):
        # a physical target one full unambiguous range farther samples to the
        # same sub-array vectors up to per-sub-array unimodular scalars
        cfg = baseline_radio()
        plan = baseline_plan(cfg)
        near = synthesize_csi(cfg, TargetScene((Target(7.0, 0.2, 1 + 0j),), 0.0), 0)
        far = synthesize_csi(cfg, TargetScene((Target(32.0, 0.2, 1 + 0j),), 0.0), 0)
        for ell in (0, 57, 199):
            v_near = sample_subarray(near, plan, ell)
            v_far = sample_subarray(far, plan, ell)
            scale = v_far[0] / v_near[0]
            assert abs(abs(scale) - 1.0) < 1e-12
            assert v_far == pytest.approx(v_near * scale, rel=1e-10)


class TestFlopEstimate:
    def test_baseline_count(self):
        assert flop_estimate(45, 2) == 174_150

    def test_reduction_factor(self):
        ratio = flop_estimate(4203, 2) / flop_estimate(45, 2)
        assert 8.0e5 <= ratio <= 9.0e5

    def test_trivial(self):
        assert flop_estimate(1, 0) == 2

    def test_order_must_be_below_size(self):
        with pytest.raises(DomainError):
            flop_estimate(4, 4)
