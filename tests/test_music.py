import dataclasses
import math

import numpy as np
import pytest

from ofdm_music import (ConfigError, DomainError, GridConfig, NumericalError, SampleCovariance, SpectrumEvaluator, Subspaces,
                        Target, TargetScene, coarse_grid, covariance,
                        decompose, flop_estimate,
                        grid_geometry, grid_steering, make_plan,
                        mdl_order, music_value, noise_variance_for_snr,
                        range_resolution, smooth, steering_params,
                        synthesize_csi, unambiguous_range)
from ofdm_music import music
from ofdm_music.config import (bundled_config_text, build_run_config,
                                parse_config_text)
from ofdm_music.music import MUSIC_VALUE_CLAMP, SpectrumGrid, point_steering
from ofdm_music.presets import (baseline_plan, baseline_radio, equal_m_plan,
                                range_only_plan)

from oracles import decimated_steering, sample_subarray
from test_signal_model import small_radio


def scene_covariance(cfg, plan, targets, snr_db, noise_seed=0):
    scene0 = TargetScene(targets, 0.0)
    sigma2 = noise_variance_for_snr(scene0, cfg, snr_db)
    csi = synthesize_csi(cfg, TargetScene(targets, sigma2), noise_seed)
    return covariance(smooth(csi, plan))


def decomposed_scene(cfg, plan, targets, snr_db, noise_seed=0):
    return decompose(scene_covariance(cfg, plan, targets, snr_db, noise_seed))


class TestSteeringParams:
    def test_baseline_factors(self):
        cfg = baseline_radio()
        plan = baseline_plan(cfg)
        p = steering_params(cfg, plan)
        assert p.phi_a == pytest.approx(
            2 * math.pi * plan.decim_a * cfg.antenna_spacing_m / cfg.wavelength_m)
        assert p.phi_a == pytest.approx(math.pi)   # half-wavelength spacing
        assert p.phi_f == pytest.approx(-2 * math.pi * 100 * 60e3)
        assert p.r_max_m == pytest.approx(25.0)
        # The grid reads only these; counts and c come from the plan and radio.
        assert [f.name for f in dataclasses.fields(p)] == \
            ["phi_a", "phi_f", "r_max_m"]


class TestDecimatedSteering:
    """The Kronecker form of ``oracles``, and the package's one steering
    expression against it."""

    def test_origin_all_ones(self):
        cfg = baseline_radio()
        assert np.array_equal(decimated_steering(cfg, baseline_plan(cfg), 0.0, 0.0),
                              np.ones(45))

    def test_kronecker_structure(self):
        cfg = baseline_radio()
        plan = baseline_plan(cfg)
        p = steering_params(cfg, plan)
        v = decimated_steering(cfg, plan, 7.3, 0.42)
        a = np.exp(1j * p.phi_f * 2 * 7.3 / cfg.speed_of_light_m_s
                   * np.arange(plan.n_sub_f))
        b = np.exp(1j * p.phi_a * math.sin(0.42) * np.arange(plan.n_sub_a))
        for i in range(plan.n_sub_f):
            for j in range(plan.n_sub_a):
                assert v[i * plan.n_sub_a + j] == pytest.approx(a[i] * b[j],
                                                                rel=1e-12)

    @pytest.mark.parametrize("plan_fn", [baseline_plan,
                                         lambda cfg: equal_m_plan(50, cfg)],
                             ids=["baseline", "equal_m_50"])
    def test_point_steering_matches_kronecker_form(self, plan_fn):
        cfg = baseline_radio()
        plan = plan_fn(cfg)
        moments = grid_geometry(GridConfig(cfg, plan)).moments
        rng = np.random.default_rng(3)
        r_max = unambiguous_range(cfg, plan)
        for r, th in zip(rng.uniform(0.0, r_max, 50), rng.uniform(-1.5, 1.5, 50)):
            assert np.max(np.abs(point_steering(moments, r, th)
                                 - decimated_steering(cfg, plan, r, th))) < 1e-12

    def test_matches_sampled_subarray(self):
        cfg = baseline_radio()
        plan = baseline_plan(cfg)
        h = 1.3 - 0.2j
        csi = synthesize_csi(cfg, TargetScene((Target(11.0, -0.5, h),), 0.0), 0)
        sampled = sample_subarray(csi, plan, 0)
        steer = decimated_steering(cfg, plan, 11.0, -0.5)
        assert sampled == pytest.approx(h * steer, rel=1e-12)

    def test_domain_checks(self):
        cfg = baseline_radio()
        plan = baseline_plan(cfg)
        with pytest.raises(DomainError):
            decimated_steering(cfg, plan, 25.0, 0.0)
        with pytest.raises(DomainError):
            decimated_steering(cfg, plan, -1.0, 0.0)
        with pytest.raises(DomainError):
            decimated_steering(cfg, plan, 1.0, 2.0)


def mdl_order_loop(eigenvalues, n_snapshots):
    """Reference: the MDL score of each order k computed one k at a time."""
    lam = np.asarray(eigenvalues, dtype=float)
    m = lam.size
    lam_max = lam[0]
    if lam_max <= 0:
        return 0
    lam = np.maximum(lam, lam_max * 1e-200)
    log_lam = np.log(lam)
    scores = np.empty(m)
    for k in range(m):
        log_geo = float(np.mean(log_lam[k:]))
        log_arith = math.log(float(np.mean(lam[k:])))
        scores[k] = n_snapshots * (m - k) * (log_arith - log_geo) \
            + 0.5 * k * (2 * m - k) * math.log(n_snapshots)
    return int(np.argmin(scores))


def random_spectrum(rng, kind):
    """Descending eigenvalues of one of several shapes MDL must handle."""
    m = int(rng.integers(1, 61))
    if kind == "white":
        lam = rng.exponential(size=m)
    elif kind == "signal":
        q = int(rng.integers(0, m + 1))
        lam = rng.chisquare(2 * int(rng.integers(5, 400)), size=m)
        lam[:q] *= 10.0 ** rng.uniform(0.0, 4.0, size=q)
    elif kind == "decades":
        lam = 10.0 ** rng.uniform(-300.0, 300.0, size=m)
    elif kind == "rank_deficient":
        q = int(rng.integers(1, m + 1))
        lam = np.concatenate([rng.exponential(size=q) + 1.0,
                              rng.normal(scale=1e-17, size=m - q)])
    elif kind == "equal":
        lam = np.full(m, 10.0 ** rng.uniform(-50.0, 50.0))
    else:   # below the 1e-200 floor
        q = int(rng.integers(1, m + 1))
        lam = np.concatenate([rng.exponential(size=q) + 1.0,
                              10.0 ** rng.uniform(-320.0, -201.0, size=m - q)])
    return np.sort(lam)[::-1]


class TestMdl:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(11)
        kinds = ("white", "signal", "decades", "rank_deficient", "equal", "floor")
        orders = set()
        for i in range(2400):
            lam = random_spectrum(rng, kinds[i % len(kinds)])
            n_snapshots = int(rng.integers(1, 1000))
            expected = mdl_order_loop(lam, n_snapshots)
            assert mdl_order(lam, n_snapshots) == expected, (lam, n_snapshots)
            orders.add(expected)
        assert len(orders) > 20   # the spectra exercise many orders, not just 0
        for lam in (np.zeros(45), np.zeros(1), np.ones(1), np.full(1, -2.0),
                    np.array([-1e-18, -1e-17])):
            assert mdl_order(lam, 200) == mdl_order_loop(lam, 200) == 0

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
        cov = scene_covariance(cfg, plan, targets, 15.0)
        subs = decompose(cov)
        m = 45
        q = subs.order_estimate
        assert q > 0
        assert subs.signal_basis.shape == (m, q)
        eye = subs.signal_basis.conj().T @ subs.signal_basis
        assert np.max(np.abs(eye - np.eye(q))) < 1e-9
        # The signal columns are orthogonal to the eigenvectors of the M - q
        # smallest eigenvalues, taken from a full eigendecomposition here.
        noise = np.linalg.eigh(cov.matrix)[1][:, :m - q]
        cross = subs.signal_basis.conj().T @ noise
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
        # neither eigh nor eigvalsh flags these: on NaN input they return
        # made-up eigenvalues
        r = np.eye(4, dtype=complex)
        r[1, 2] = r[2, 1] = bad
        for fn in (decompose, music.model_order):
            with pytest.raises(NumericalError, match="non-finite"):
                fn(SampleCovariance(matrix=r, n_snapshots=10))


def noise_covariance(cfg, plan, noise_seed):
    csi = synthesize_csi(cfg, TargetScene((), 1.0), noise_seed)
    return covariance(smooth(csi, plan))


class TestModelOrder:
    @pytest.mark.parametrize("plan_fn", [
        baseline_plan, range_only_plan, lambda cfg: equal_m_plan(1, cfg)])
    def test_equals_the_decomposed_order(self, plan_fn):
        # L >= M on all three plans; the SNRs give orders 0, 1 and 2
        cfg = baseline_radio()
        plan = plan_fn(cfg)
        targets = (Target(6.0, -0.3, 0.05 + 0j), Target(14.0, 0.4, 0.01 + 0j))
        orders = set()
        for seed in range(12):
            sigma2 = noise_variance_for_snr(TargetScene(targets, 0.0), cfg,
                                            (-10.0, 0.0, 15.0)[seed % 3])
            two = covariance(smooth(synthesize_csi(
                cfg, TargetScene(targets, sigma2), seed), plan))
            for cov in (noise_covariance(cfg, plan, seed), two):
                q = decompose(cov).order_estimate
                assert music.model_order(cov) == q
                orders.add(q)
        assert orders == {0, 1, 2}

    @pytest.mark.parametrize("name", ["small", "toy_geometry"])
    def test_zero_exactly_when_decomposed_order_is_zero(self, name):
        # L < M (small: M = 27, L = 8) or L close to M (toy: M = 9, L = 10):
        # eigh and eigvalsh round the tail eigenvalues differently, so only
        # whether the order is zero is asserted
        if name == "small":
            cfg = small_radio(n=12, k=4)
            plan = make_plan(cfg, 9, 3, 1, 1, 1, 1)
        else:
            run = build_run_config(parse_config_text(
                bundled_config_text("toy_geometry.cfg")))
            cfg, plan = run.radio, run.plan
        zero = []
        for seed in range(300):
            cov = noise_covariance(cfg, plan, seed)
            zero.append(decompose(cov).order_estimate == 0)
            assert (music.model_order(cov) == 0) == zero[-1], seed
        # small: every order nonzero; toy: both kinds occur
        assert set(zero) == ({False} if name == "small" else {False, True})


class TestMusicValue:
    def make_subspaces(self, m=10, q=2, seed=0):
        """Subspaces on the first q columns of a seeded random unitary, and
        the other m - q columns: the noise basis the tests check against."""
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        u, _ = np.linalg.qr(a)
        return Subspaces(signal_basis=u[:, :q], eigenvalues=np.ones(m),
                         order_estimate=q), u[:, q:]

    def test_orthogonal_vector_clamped(self):
        subs, _ = self.make_subspaces()
        v = subs.signal_basis[:, 0]
        assert music_value(subs, v) == MUSIC_VALUE_CLAMP

    def test_clamp_bound_returns_the_clamp(self):
        # 1 / (1 / C) rounds to C - 128, so the bound itself must give C.
        den = 1.0 / MUSIC_VALUE_CLAMP
        assert 1.0 / den < MUSIC_VALUE_CLAMP
        assert music._clamped_inverse(den) == MUSIC_VALUE_CLAMP
        vals = music._clamped_inverse(np.array([-1.0, 0.0, den, 2 * den, 4.0]))
        assert vals.tolist() == [MUSIC_VALUE_CLAMP] * 3 + [1.0 / (2 * den), 0.25]

    @pytest.mark.parametrize("den", [
        0.0, 1.0 / MUSIC_VALUE_CLAMP,
        math.nextafter(1.0 / MUSIC_VALUE_CLAMP, math.inf), 1e-300, 1.0,
        45.0,   # M of the baseline plan: the value of a flat spectrum
    ])
    def test_scalar_clamp_matches_the_array_form(self, den):
        # music_value's scalar clamp gives the bits of the grid's array form.
        got = music._clamped_inverse_of(den)
        assert type(got) is float
        assert got.hex() == float(music._clamped_inverse(np.array([den]))[0]).hex()

    def test_noise_column_gives_one(self):
        subs, noise = self.make_subspaces()
        assert music_value(subs, noise[:, 3]) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_brute_force_sum(self, seed):
        subs, noise = self.make_subspaces(q=seed % 3, seed=seed)
        rng = np.random.default_rng(100 + seed)
        v = rng.normal(size=10) + 1j * rng.normal(size=10)
        brute = sum(abs(np.vdot(noise[:, i], v)) ** 2
                    for i in range(noise.shape[1]))
        assert music_value(subs, v) == pytest.approx(1.0 / brute, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_projector_formula(self, seed):
        subs, un = self.make_subspaces(seed=seed)
        rng = np.random.default_rng(200 + seed)
        v = rng.normal(size=10) + 1j * rng.normal(size=10)
        denom = np.real(v.conj() @ un @ un.conj().T @ v)
        assert music_value(subs, v) == pytest.approx(1.0 / denom, rel=1e-10)

    def test_evaluator_matches_music_value(self):
        cfg = baseline_radio()
        plan = baseline_plan(cfg)
        subs = decomposed_scene(cfg, plan, (Target(8.0, 0.3, 0.02 + 0j),), 20.0)
        geometry = grid_geometry(GridConfig(cfg, plan))
        ev = SpectrumEvaluator(subs, geometry)
        rng = np.random.default_rng(0)
        for _ in range(20):
            r = rng.uniform(0, 24.9)
            th = rng.uniform(-1.0, 1.0)
            direct = music_value(subs, decimated_steering(cfg, plan, r, th))
            assert ev.value(r, th) == pytest.approx(direct, rel=1e-12)
        ranges = np.linspace(0.0, 24.0, 7)
        angles = np.linspace(-1.0, 1.0, 5)
        grid_vals = ev.values(grid_steering(geometry.moments, ranges,
                                            angles)).reshape(
            ranges.size, angles.size)
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

    def test_unknown_equal_m_decimation_rejected(self):
        with pytest.raises(ConfigError, match="no equal-M variant for decimation 7"):
            equal_m_plan(7)

    def test_resolution_scales_with_aperture(self):
        cfg = baseline_radio()
        coarse = range_resolution(cfg, equal_m_plan(1, cfg))
        fine = range_resolution(cfg, baseline_plan(cfg))
        assert coarse / fine == pytest.approx(1401 / 15, rel=1e-12)

    def test_grid_axes_domain(self):
        cfg = baseline_radio()
        plan = baseline_plan(cfg)
        geometry = grid_geometry(GridConfig(cfg, plan, math.radians(60)))
        ranges, angles = geometry.ranges_m, geometry.angles_rad
        assert ranges[0] == 0.0
        assert ranges[-1] < 25.0
        assert np.diff(ranges) == pytest.approx(range_resolution(cfg, plan) / 2)
        assert abs(angles).max() <= math.radians(60) + 1e-9

    @pytest.mark.parametrize("aperture_f, decim_f, rows", [(15, 3, 10),
                                                            (301, 7, 86)])
    def test_range_axis_has_ceil_2af_over_df_rows(self, aperture_f, decim_f,
                                                  rows):
        # 2 A_f / D_f is an integer here. A float arange over [0, r_max) used
        # to add a row at r_max (1 - 1.1e-16): the steering vector of r = 0,
        # outside the refiner's search box.
        radio = baseline_radio()
        geometry = grid_geometry(GridConfig(
            radio, make_plan(radio, aperture_f, 3, decim_f, 1)))
        assert geometry.ranges_m.size == rows
        assert geometry.ranges_m.max() <= geometry.hi[0]

    def test_spectrum_grid_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="does not match axes"):
            SpectrumGrid(ranges_m=np.arange(3.0), angles_rad=np.arange(2.0),
                         values=np.zeros((2, 3)))

    def test_grid_values_nonnegative_finite(self):
        cfg = baseline_radio()
        plan = baseline_plan(cfg)
        subs = decomposed_scene(cfg, plan, (Target(8.0, 0.1, 0.02 + 0j),), 10.0)
        grid = coarse_grid(subs, GridConfig(cfg, plan))
        assert np.all(grid.values >= 0)
        assert np.all(np.isfinite(grid.values))

    def test_single_angle_axis_for_one_antenna_subarrays(self):
        cfg = baseline_radio()
        plan = make_plan(cfg, 1401, 1, 100, 1, 1, 1)
        angles = grid_geometry(GridConfig(cfg, plan)).angles_rad
        assert angles.tolist() == [0.0]

    def test_peak_dominates_far_grid_points(self):
        # near-noiseless single target: the true-location value clamps while
        # grid points beyond one resolution cell stay 20 dB lower
        cfg = baseline_radio()
        plan = baseline_plan(cfg)
        r0, th0 = 10.0, math.radians(20)
        subs = decomposed_scene(cfg, plan, (Target(r0, th0, 0.01 + 0j),), 120.0)
        grid = coarse_grid(subs, GridConfig(cfg, plan))
        peak = SpectrumEvaluator(subs, grid_geometry(GridConfig(cfg, plan))
                                 ).value(r0, th0)
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
                   * np.arange(plan.n_sub_a))
        for r in (7.0, 3.3, 14.2):
            v1 = decimated_steering(cfg, plan, r, theta)
            a2 = np.exp(1j * params.phi_f
                        * 2 * (r + params.r_max_m) / cfg.speed_of_light_m_s
                        * np.arange(plan.n_sub_f))
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


class TestGridConfig:
    @pytest.mark.parametrize("deg", [95.0, -10.0, math.nan, math.inf])
    def test_theta_limit_outside_quarter_turn_rejected(self, deg):
        # 95 deg sampled the grid past 90 deg; -10 deg failed later with
        # "cannot derive a threshold from an empty grid".
        with pytest.raises(ConfigError, match="theta limit"):
            GridConfig(baseline_radio(), baseline_plan(), math.radians(deg))

    def test_angle_axis_bounded_before_it_is_built(self):
        # numpy's arange used to stop grid_geometry on d = 1e300 m with
        # "Maximum allowed size exceeded", in the first trial of a run. At
        # d = 1 km the baseline grid has about 98,000 angles, under the bound.
        radio, plan = baseline_radio(), baseline_plan()
        GridConfig(dataclasses.replace(radio, antenna_spacing_m=1e3), plan)
        for spacing in (1e4, 1e300):
            with pytest.raises(ConfigError, match="antenna spacing d"):
                GridConfig(dataclasses.replace(radio, antenna_spacing_m=spacing),
                           plan)

    def test_overflowing_range_axis_rejected(self):
        # c = 1e300 with delta_f = 1e-300 puts r_max at inf, and numpy's
        # arange used to stop grid_geometry with "cannot compute length".
        radio = dataclasses.replace(baseline_radio(), speed_of_light_m_s=1e300,
                                    subcarrier_spacing_hz=1e-300)
        with pytest.raises(ConfigError, match="unambiguous range"):
            GridConfig(radio, baseline_plan(radio))

    @pytest.mark.parametrize("lim", [0.0, math.pi / 2])
    def test_theta_limit_bounds_accepted(self, lim):
        geometry = grid_geometry(GridConfig(baseline_radio(), baseline_plan(),
                                            lim))
        assert np.abs(geometry.angles_rad).max() <= lim + 1e-9
        assert geometry.steering.shape[1] == \
            geometry.ranges_m.size * geometry.angles_rad.size


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
