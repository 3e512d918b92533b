"""OFDM/ULA signal model: radio configuration, steering vectors, CSI synthesis.

The channel frequency response seen by a co-located monostatic receiver is a
K x N complex matrix (K antennas, N subcarriers). Each point scatterer at
range r and azimuth theta contributes a rank-1 outer product of an antenna
steering vector and a subcarrier (delay) steering vector, scaled by a complex
reflection coefficient.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CsiFormatError, DomainError

SPEED_OF_LIGHT = 299_792_458.0

# Reference range of the inverse-square scatterer amplitude model.
COEFF_REF_RANGE_M = 1.0


@dataclass(frozen=True)
class RadioConfig:
    """OFDM numerology plus receive ULA geometry; the wavelength is c / f_c."""

    n_subcarriers: int
    subcarrier_spacing_hz: float
    carrier_freq_hz: float
    n_antennas: int
    antenna_spacing_m: float
    speed_of_light_m_s: float = SPEED_OF_LIGHT

    def __post_init__(self):
        if self.n_subcarriers < 1:
            raise ConfigError(f"n_subcarriers must be >= 1, got {self.n_subcarriers}")
        if self.n_antennas < 1:
            raise ConfigError(f"n_antennas must be >= 1, got {self.n_antennas}")
        for name in ("subcarrier_spacing_hz", "carrier_freq_hz", "antenna_spacing_m",
                     "speed_of_light_m_s"):
            # Written so that NaN fails it.
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(
                    f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0 < self.wavelength_m < math.inf:
            raise ConfigError(f"the wavelength c / f_c must be positive and "
                              f"finite, got {self.wavelength_m}")

    @property
    def wavelength_m(self) -> float:
        return self.speed_of_light_m_s / self.carrier_freq_hz


@dataclass(frozen=True)
class Target:
    """Point scatterer at ``range_m`` / ``azimuth_rad`` with complex coefficient."""

    range_m: float
    azimuth_rad: float
    coeff: complex

    def __post_init__(self):
        if self.range_m <= 0:
            raise DomainError(f"target range must be positive, got {self.range_m}")
        if abs(self.azimuth_rad) >= math.pi / 2:
            raise DomainError(
                f"target azimuth must lie in (-pi/2, pi/2), got {self.azimuth_rad}")


@dataclass(frozen=True)
class TargetScene:
    """Ordered list of targets plus the AWGN variance per CSI entry."""

    targets: tuple[Target, ...]
    noise_variance: float

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        if not 0 <= self.noise_variance < math.inf:
            raise DomainError(
                f"noise variance must be nonnegative and finite, got "
                f"{self.noise_variance}")


@dataclass(frozen=True)
class CsiMatrix:
    """K x N channel-state-information matrix tied to its radio config."""

    data: np.ndarray
    config: RadioConfig

    def __post_init__(self):
        expected = (self.config.n_antennas, self.config.n_subcarriers)
        if self.data.shape != expected:
            raise ConfigError(
                f"CSI matrix shape {self.data.shape} does not match config {expected}")
        finite = np.isfinite(self.data)
        if not finite.all():
            first = tuple(int(i) for i in np.argwhere(~finite)[0])
            raise ConfigError(
                f"CSI matrix has a non-finite entry at (antenna, subcarrier) {first}")

    # -- flat binary format: little-endian u32 K, u32 N header, then K*N
    # -- row-major complex entries as interleaved (re, im) float64 pairs.

    def to_binary(self, path) -> None:
        k, n = self.data.shape
        with open(path, "wb") as f:
            f.write(struct.pack("<II", k, n))
            f.write(np.ascontiguousarray(self.data, dtype="<c16").tobytes())

    @classmethod
    def from_binary(cls, path, config: RadioConfig) -> "CsiMatrix":
        with open(path, "rb") as f:
            raw = f.read()
        if len(raw) < 8:
            raise CsiFormatError(
                f"truncated header: need 8 bytes, file has {len(raw)}", byte_offset=0)
        k, n = struct.unpack("<II", raw[:8])
        if k != config.n_antennas or n != config.n_subcarriers:
            raise ConfigError(
                f"CSI file declares {k}x{n} but config expects "
                f"{config.n_antennas}x{config.n_subcarriers}")
        expected = 8 + k * n * 16
        if len(raw) != expected:
            raise CsiFormatError(
                f"payload for {k}x{n} matrix needs {expected} bytes, file has {len(raw)}",
                byte_offset=min(len(raw), expected))
        data = np.frombuffer(raw[8:], dtype="<c16").reshape(k, n).copy()
        return cls(data=data, config=config)


def steering_angle(config: RadioConfig, theta: float) -> np.ndarray:
    """Antenna steering vector: element k is exp(j*2*pi*k*(d/lambda)*sin(theta))."""
    if abs(theta) >= math.pi / 2:
        raise DomainError(f"azimuth must lie in (-pi/2, pi/2), got {theta}")
    return np.exp(1j * _angle_phase(config, theta) * np.arange(config.n_antennas))


def steering_range(config: RadioConfig, r: float) -> np.ndarray:
    """Subcarrier steering vector: element n is exp(-j*2*pi*n*df*2r/c)."""
    if r < 0:
        raise DomainError(f"range must be nonnegative, got {r}")
    return np.exp(1j * _range_phase(config, r) * np.arange(config.n_subcarriers))


def _angle_phase(config: RadioConfig, theta: float) -> float:
    """Phase step between neighboring antennas, 2*pi*(d/lambda)*sin(theta)."""
    return 2.0 * math.pi * (config.antenna_spacing_m / config.wavelength_m) \
        * math.sin(theta)


def _range_phase(config: RadioConfig, r: float) -> float:
    """Phase step between neighboring subcarriers, -2*pi*df*2r/c."""
    return -2.0 * math.pi * config.subcarrier_spacing_hz \
        * (2.0 * r / config.speed_of_light_m_s)


def _dirichlet(n: int, x: float) -> complex:
    """The geometric sum sum_{k<n} exp(jkx), as
    exp(j(n-1)x/2) sin(nx/2) / sin(x/2) on x reduced to [-pi, pi], and n
    where that sine is 0. Unlike (1 - exp(jnx)) / (1 - exp(jx)), it keeps
    its digits as x approaches 0."""
    x -= 2.0 * math.pi * round(x / (2.0 * math.pi))
    s = math.sin(x / 2.0)
    if s == 0.0:
        return complex(n)
    half = 0.5 * (n - 1) * x
    return complex(math.cos(half), math.sin(half)) * (math.sin(n * x / 2.0) / s)


def noiseless_power(config: RadioConfig, targets) -> float:
    """Mean |C|^2 over the K x N noiseless CSI of ``targets``, in closed form.

    The CSI is sum_q c_q b(theta_q) a(r_q)^T, so its mean power is
    sum_{p,q} c_p c_q^* D_K(alpha_p - alpha_q) D_N(beta_p - beta_q) / (K N),
    where alpha and beta are the per-antenna and per-subcarrier phase steps
    and D_n is their geometric sum: O(Q^2) work instead of O(KN).
    """
    k, n = config.n_antennas, config.n_subcarriers
    steps = [(t.coeff, _angle_phase(config, t.azimuth_rad),
              _range_phase(config, t.range_m)) for t in targets]
    total = sum(cp * cq.conjugate() * _dirichlet(k, ap - aq) * _dirichlet(n, bp - bq)
                for cp, ap, bp in steps for cq, aq, bq in steps)
    return float(complex(total).real) / (k * n)


def synthesize_csi(config: RadioConfig, scene: TargetScene, rng_seed: int) -> CsiMatrix:
    """Superimpose all target contributions and add circular complex AWGN.

    Noise entries are i.i.d. CN(0, noise_variance): real and imaginary parts
    each carry half the variance. Deterministic for a given seed.
    """
    c = np.zeros((config.n_antennas, config.n_subcarriers), dtype=complex)
    for tgt in scene.targets:
        c += tgt.coeff * np.outer(steering_angle(config, tgt.azimuth_rad),
                                  steering_range(config, tgt.range_m))
    if scene.noise_variance > 0:
        # All real parts are drawn before all imaginary parts.
        noise = np.random.default_rng(rng_seed).standard_normal((2, *c.shape))
        noise *= math.sqrt(scene.noise_variance / 2.0)
        c.real += noise[0]
        c.imag += noise[1]
    return CsiMatrix(data=c, config=config)


def csi_from_symbols(received: np.ndarray, transmitted: np.ndarray,
                     config: RadioConfig) -> CsiMatrix:
    """Recover CSI from raw symbols by element-wise division y_{k,n} / s_n."""
    received = np.asarray(received)
    transmitted = np.asarray(transmitted)
    if received.ndim != 2 or transmitted.ndim != 1 \
            or received.shape[1] != transmitted.shape[0]:
        raise ConfigError(
            f"received {received.shape} incompatible with transmitted "
            f"{transmitted.shape}")
    zeros = np.flatnonzero(transmitted == 0)
    if zeros.size:
        raise DomainError(
            f"transmitted symbol at subcarrier {zeros[0]} is zero; cannot divide")
    return CsiMatrix(data=received / transmitted[np.newaxis, :], config=config)


def scene_coefficient(range_m: float, rng_seed: int) -> complex:
    """Scatterer coefficient with two-way free-space amplitude decay.

    Magnitude is (r_ref / r)^2 with r_ref = 1 m; phase is uniform on
    [0, 2*pi), deterministic for a given seed.
    """
    if range_m <= 0:
        raise DomainError(f"range must be positive, got {range_m}")
    psi = np.random.default_rng(rng_seed).uniform(0.0, 2.0 * math.pi)
    return complex(np.exp(1j * psi)) * (COEFF_REF_RANGE_M / range_m) ** 2
