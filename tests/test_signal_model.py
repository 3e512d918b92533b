import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from ofdm_music import (ConfigError, CsiFormatError, CsiMatrix, DomainError,
                        RadioConfig, Target, TargetScene, csi_from_symbols,
                        scene_coefficient, steering_angle, steering_range,
                        synthesize_csi)
from ofdm_music.presets import baseline_radio
from ofdm_music.signal_model import noiseless_power


def small_radio(n=64, k=4, c=3e8):
    wavelength = c / 3.5e9
    return RadioConfig(n_subcarriers=n, subcarrier_spacing_hz=60e3,
                       carrier_freq_hz=3.5e9, n_antennas=k,
                       antenna_spacing_m=wavelength / 2.0, speed_of_light_m_s=c)


class TestRadioConfig:
    def test_wavelength_follows_a_replaced_carrier(self):
        radio = dataclasses.replace(small_radio(), carrier_freq_hz=28e9)
        assert radio.wavelength_m == radio.speed_of_light_m_s / 28e9

    def test_wavelength_derived_from_carrier(self):
        cfg = small_radio()
        assert cfg.wavelength_m == pytest.approx(3e8 / 3.5e9, rel=1e-12)
        assert abs(cfg.wavelength_m * cfg.carrier_freq_hz - cfg.speed_of_light_m_s) \
            <= 1e-9 * cfg.speed_of_light_m_s

    @pytest.mark.parametrize("field,value", [
        ("n_subcarriers", 0), ("n_antennas", 0), ("subcarrier_spacing_hz", -1.0),
        ("carrier_freq_hz", 0.0), ("antenna_spacing_m", 0.0),
        *((field, value) for field in ("subcarrier_spacing_hz", "carrier_freq_hz",
                                       "antenna_spacing_m", "speed_of_light_m_s")
          for value in (math.nan, math.inf)),
    ])
    def test_positivity(self, field, value):
        kwargs = dict(n_subcarriers=8, subcarrier_spacing_hz=60e3,
                      carrier_freq_hz=3.5e9, n_antennas=2, antenna_spacing_m=0.04)
        kwargs[field] = value
        with pytest.raises(ConfigError):
            RadioConfig(**kwargs)

    @pytest.mark.parametrize("c, f_c", [(1e-300, 1e300), (1e300, 1e-300)])
    def test_wavelength_out_of_range_rejected(self, c, f_c):
        # Each value is positive and finite, but c / f_c underflows to 0,
        # which GridConfig used to divide by (ZeroDivisionError), or
        # overflows to inf.
        with pytest.raises(ConfigError, match="c / f_c"):
            RadioConfig(n_subcarriers=8, subcarrier_spacing_hz=60e3,
                        carrier_freq_hz=f_c, n_antennas=2,
                        antenna_spacing_m=0.04, speed_of_light_m_s=c)


class TestTarget:
    @pytest.mark.parametrize("range_m, azimuth_rad, match", [
        (0.0, 0.0, "range"), (-1.0, 0.0, "range"),
        (1.0, math.pi / 2, "azimuth"), (1.0, -math.pi / 2, "azimuth"),
        (1.0, 2.0, "azimuth"),
    ])
    def test_out_of_domain_rejected(self, range_m, azimuth_rad, match):
        with pytest.raises(DomainError, match=match):
            Target(range_m, azimuth_rad, 1 + 0j)


class TestSteeringAngle:
    def test_broadside_all_ones(self):
        v = steering_angle(small_radio(), 0.0)
        assert np.array_equal(v, np.ones(4))

    def test_endfire_limit_phases(self):
        # d = lambda/2: phase slope approaches pi per element as theta -> pi/2
        theta = math.pi / 2 - 1e-9
        v = steering_angle(small_radio(), theta)
        phases = np.unwrap(np.angle(v))
        assert phases == pytest.approx([0, math.pi, 2 * math.pi, 3 * math.pi],
                                       abs=1e-6)

    def test_thirty_degrees_element_one(self):
        # 2*pi * (d/lambda) * sin(30 deg) = 2*pi * 0.5 * 0.5 = pi/2
        v = steering_angle(small_radio(), math.radians(30.0))
        assert np.angle(v[1]) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            steering_angle(small_radio(), math.pi / 2)
        with pytest.raises(DomainError):
            steering_angle(small_radio(), -2.0)

    @pytest.mark.parametrize("theta", np.random.default_rng(1).uniform(
        -1.5, 1.5, 20).tolist())
    def test_unit_modulus_first_exact(self, theta):
        v = steering_angle(small_radio(), theta)
        assert v[0] == 1.0 + 0.0j
        assert np.abs(v) == pytest.approx(np.ones(4), abs=1e-12)


class TestSteeringRange:
    def test_zero_range_all_ones(self):
        assert np.array_equal(steering_range(small_radio(), 0.0), np.ones(64))

    def test_half_cycle(self):
        cfg = small_radio()
        r = cfg.speed_of_light_m_s / (4.0 * cfg.subcarrier_spacing_hz)
        v = steering_range(cfg, r)
        assert v[1] == pytest.approx(-1.0 + 0.0j, abs=1e-12)

    def test_phase_at_25m(self):
        # -2*pi * 60e3 * 2*25/3e8 = -2*pi*0.01
        v = steering_range(small_radio(), 25.0)
        assert np.angle(v[1]) == pytest.approx(-2 * math.pi * 0.01, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            steering_range(small_radio(), -0.1)

    def test_conjugate_product_is_one(self):
        v = steering_range(small_radio(), 17.3)
        assert np.conj(v) * v == pytest.approx(np.ones(64), abs=1e-12)


class TestTargetScene:
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_noise_variance_nonnegative_and_finite(self, bad):
        with pytest.raises(DomainError, match="noise variance"):
            TargetScene((), bad)


class TestSynthesize:
    def test_empty_noiseless_is_zero(self):
        cfg = small_radio()
        csi = synthesize_csi(cfg, TargetScene((), 0.0), 0)
        assert np.all(csi.data == 0)

    def test_single_target_rank_one_unit_magnitude(self):
        cfg = small_radio()
        scene = TargetScene((Target(10.0, 0.3, 1.0 + 0.0j),), 0.0)
        csi = synthesize_csi(cfg, scene, 0)
        s = np.linalg.svd(csi.data, compute_uv=False)
        assert s[1] <= 1e-9 * s[0]
        assert np.abs(csi.data) == pytest.approx(np.ones_like(csi.data, dtype=float),
                                                 abs=1e-12)

    def test_equal_range_rows_proportional(self):
        cfg = small_radio()
        scene = TargetScene((Target(9.0, -0.4, 1.0 + 0.5j),
                             Target(9.0, 0.7, 0.3 - 0.8j)), 0.0)
        csi = synthesize_csi(cfg, scene, 0)
        # common range factors the matrix: every row is a multiple of a(r)
        s = np.linalg.svd(csi.data, compute_uv=False)
        assert s[1] <= 1e-9 * s[0]

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_noiseless_rank_at_most_q(self, q):
        cfg = small_radio()
        rng = np.random.default_rng(q)
        targets = tuple(Target(rng.uniform(1, 40), rng.uniform(-1.0, 1.0),
                               complex(*rng.normal(size=2)))
                        for _ in range(q))
        csi = synthesize_csi(cfg, TargetScene(targets, 0.0), 0)
        s = np.linalg.svd(csi.data, compute_uv=False)
        assert np.sum(s > 1e-9 * s[0]) <= q

    def test_deterministic_and_noise_variance(self):
        cfg = small_radio(n=512)
        scene = TargetScene((Target(5.0, 0.1, 1.0 + 0.0j),), 0.25)
        a = synthesize_csi(cfg, scene, 7).data
        b = synthesize_csi(cfg, scene, 7).data
        assert np.array_equal(a, b)
        noiseless = synthesize_csi(cfg, TargetScene(scene.targets, 0.0), 7).data
        z = a - noiseless
        assert np.mean(np.abs(z) ** 2) == pytest.approx(0.25, rel=0.1)
        # circular: real and imaginary parts carry half the variance each
        assert np.var(z.real) == pytest.approx(0.125, rel=0.15)
        assert np.var(z.imag) == pytest.approx(0.125, rel=0.15)

    @pytest.mark.parametrize("n_targets", [0, 2])
    def test_noise_matches_two_draw_formula(self, n_targets):
        cfg = small_radio(n=96, k=4)
        targets = (Target(4.0, -0.3, 0.2 + 0.1j), Target(11.0, 0.5, -0.05j))
        scene = TargetScene(targets[:n_targets], 0.37)
        for seed in range(20):
            # Oracle: a real-part draw, then an imaginary-part draw, each at
            # sigma = sqrt(variance / 2).
            c = np.zeros((4, 96), dtype=complex)
            for tgt in scene.targets:
                c += tgt.coeff * np.outer(steering_angle(cfg, tgt.azimuth_rad),
                                          steering_range(cfg, tgt.range_m))
            rng = np.random.default_rng(seed)
            sigma = math.sqrt(scene.noise_variance / 2.0)
            c += rng.normal(scale=sigma, size=c.shape) \
                + 1j * rng.normal(scale=sigma, size=c.shape)
            data = synthesize_csi(cfg, scene, seed).data
            assert data.dtype == c.dtype and data.shape == c.shape
            assert data.tobytes() == c.tobytes()


class TestCsiFromSymbols:
    def test_all_ones_identity(self):
        cfg = small_radio(n=8, k=2)
        y = np.arange(16, dtype=complex).reshape(2, 8)
        out = csi_from_symbols(y, np.ones(8, dtype=complex), cfg)
        assert np.array_equal(out.data, y)

    def test_row_divided_by_itself(self):
        cfg = small_radio(n=8, k=2)
        s = np.exp(1j * np.linspace(0.1, 2.0, 8))
        y = np.vstack([s, 2 * s])
        out = csi_from_symbols(y, s, cfg)
        assert out.data[0] == pytest.approx(np.ones(8), abs=1e-12)
        assert out.data[1] == pytest.approx(2 * np.ones(8), abs=1e-12)

    def test_qpsk_round_trip(self):
        cfg = small_radio(n=32, k=4)
        rng = np.random.default_rng(3)
        c = rng.normal(size=(4, 32)) + 1j * rng.normal(size=(4, 32))
        qpsk = np.exp(1j * (math.pi / 4 + math.pi / 2
                            * rng.integers(0, 4, size=32)))
        y = c * qpsk[np.newaxis, :]
        out = csi_from_symbols(y, qpsk, cfg)
        assert out.data == pytest.approx(c, abs=1e-12)

    @pytest.mark.parametrize("received, transmitted", [
        ((8,), (8,)), ((2, 8), (2, 8)), ((2, 8), (7,)),
    ])
    def test_incompatible_shapes_rejected(self, received, transmitted):
        with pytest.raises(ConfigError, match="incompatible"):
            csi_from_symbols(np.ones(received, dtype=complex),
                             np.ones(transmitted, dtype=complex),
                             small_radio(n=8, k=2))

    def test_zero_symbol_names_subcarrier(self):
        cfg = small_radio(n=8, k=2)
        s = np.ones(8, dtype=complex)
        s[5] = 0.0
        with pytest.raises(DomainError, match="subcarrier 5"):
            csi_from_symbols(np.ones((2, 8), dtype=complex), s, cfg)


class TestSceneCoefficient:
    def test_reference_range_unit_magnitude(self):
        assert abs(scene_coefficient(1.0, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_square_two_way(self):
        assert abs(scene_coefficient(2.0, 0)) == pytest.approx(0.25, abs=1e-12)

    def test_deterministic(self):
        assert scene_coefficient(3.0, 42) == scene_coefficient(3.0, 42)

    def test_phase_uniform(self):
        phases = np.array([np.angle(scene_coefficient(1.0, s))
                           for s in range(10_000)]) % (2 * math.pi)
        _, p = stats.kstest(phases / (2 * math.pi), "uniform")
        assert p > 0.01

    def test_nonpositive_range_rejected(self):
        with pytest.raises(DomainError):
            scene_coefficient(0.0, 0)


class TestNoiselessPower:
    """The closed-form mean power against the mean of the synthesized CSI."""

    @staticmethod
    def synthesized(radio, targets):
        csi = synthesize_csi(radio, TargetScene(targets, 0.0), 0)
        return float(np.mean(np.abs(csi.data) ** 2))

    @staticmethod
    def targets(rng, n):
        return tuple(Target(float(r), float(th), complex(c))
                     for r, th, c in zip(rng.uniform(0.5, 24.0, n),
                                         rng.uniform(-1.2, 1.2, n),
                                         rng.normal(size=n) + 1j * rng.normal(size=n)))

    @pytest.mark.parametrize("n_targets", [1, 2, 3, 4])
    def test_random_scenes(self, n_targets):
        radio = baseline_radio()
        rng = np.random.default_rng(n_targets)
        for _ in range(20):
            targets = self.targets(rng, n_targets)
            assert noiseless_power(radio, targets) == pytest.approx(
                self.synthesized(radio, targets), rel=1e-12)

    @pytest.mark.parametrize("targets", [
        # equal ranges, equal azimuths, both equal (zero phase differences)
        (Target(10.0, 0.3, 0.01 + 0j), Target(10.0, -0.4, 0.02j)),
        (Target(8.0, 0.3, 0.01 + 0j), Target(14.0, 0.3, -0.005 + 0.01j)),
        (Target(8.0, 0.3, 0.01 + 0j), Target(8.0, 0.3, 0.003 - 0.01j),
         Target(20.0, -0.7, 0.004 + 0j)),
        # phase differences of about 1e-9 rad on each axis
        (Target(10.0, 0.3, 0.01 + 0j), Target(10.0 + 4e-7, 0.3, 0.01j)),
        (Target(10.0, 0.3, 0.01 + 0j), Target(10.0, 0.3 + 3e-10, 0.01j)),
        (Target(10.0, 0.3, 0.01 + 0j), Target(10.0 + 4e-7, 0.3 + 3e-10, -0.01j)),
    ], ids=["equal-range", "equal-azimuth", "equal-both", "near-range",
            "near-azimuth", "near-both"])
    def test_equal_and_near_equal_phases(self, targets):
        radio = baseline_radio()
        assert noiseless_power(radio, targets) == pytest.approx(
            self.synthesized(radio, targets), rel=1e-12)

    def test_single_antenna_radio(self):
        radio = dataclasses.replace(baseline_radio(), n_antennas=1)
        rng = np.random.default_rng(11)
        for n_targets in (1, 2, 3):
            targets = self.targets(rng, n_targets)
            assert noiseless_power(radio, targets) == pytest.approx(
                self.synthesized(radio, targets), rel=1e-12)

    def test_phase_differences_beyond_pi(self):
        # one-wavelength spacing: azimuths of +-30 deg are 2 pi apart per
        # antenna, and others wrap past pi
        radio = dataclasses.replace(baseline_radio(),
                                    antenna_spacing_m=baseline_radio().wavelength_m)
        for targets in ((Target(9.0, math.pi / 6, 0.01 + 0j),
                         Target(12.0, -math.pi / 6, 0.02j)),
                        (Target(9.0, 1.1, 0.01 + 0j), Target(12.0, -0.9, 0.02j))):
            assert noiseless_power(radio, targets) == pytest.approx(
                self.synthesized(radio, targets), rel=1e-12)


class TestCsiSerialization:
    def test_binary_round_trip(self, tmp_path):
        cfg = small_radio(n=16, k=3)
        rng = np.random.default_rng(0)
        data = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
        csi = CsiMatrix(data=data, config=cfg)
        path = tmp_path / "csi.bin"
        csi.to_binary(path)
        back = CsiMatrix.from_binary(path, cfg)
        assert np.array_equal(back.data, data)
        assert path.stat().st_size == 8 + 3 * 16 * 16

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"\x01\x02\x03")
        with pytest.raises(CsiFormatError, match="byte offset 0"):
            CsiMatrix.from_binary(path, small_radio(n=16, k=3))

    def test_truncated_payload_names_offset(self, tmp_path):
        cfg = small_radio(n=16, k=3)
        data = np.ones((3, 16), dtype=complex)
        path = tmp_path / "trunc.bin"
        CsiMatrix(data=data, config=cfg).to_binary(path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CsiFormatError) as err:
            CsiMatrix.from_binary(path, cfg)
        assert err.value.byte_offset == 100

    def test_dimension_mismatch(self, tmp_path):
        cfg = small_radio(n=16, k=3)
        path = tmp_path / "csi.bin"
        CsiMatrix(data=np.ones((3, 16), dtype=complex), config=cfg).to_binary(path)
        with pytest.raises(ConfigError):
            CsiMatrix.from_binary(path, small_radio(n=8, k=3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_rejected(self, bad):
        data = np.ones((3, 16), dtype=complex)
        data[2, 5] = bad
        with pytest.raises(ConfigError, match=r"non-finite entry at .*\(2, 5\)"):
            CsiMatrix(data=data, config=small_radio(n=16, k=3))

    def test_shape_invariant(self):
        with pytest.raises(ConfigError):
            CsiMatrix(data=np.ones((2, 5), dtype=complex),
                      config=small_radio(n=16, k=3))
