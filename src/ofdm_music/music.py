"""Subspace decomposition and the decimated 2D MUSIC pseudospectrum.

The sample covariance is eigendecomposed, the model order is picked by the
Wax-Kailath minimum-description-length rule, and the pseudospectrum
1 / ||U_N^H v(r, theta)||^2 is evaluated with steering vectors matched to the
decimated sub-array lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateOrderError, DomainError, NumericalError
from .signal_model import RadioConfig
from .smoothing import SampleCovariance, SubarrayPlan

# Pseudospectrum ceiling: 1/||proj||^2 is singular at exact noiseless hits.
MUSIC_VALUE_CLAMP = 1e18

DEFAULT_THETA_LIM_RAD = math.radians(60.0)


@dataclass(frozen=True)
class Subspaces:
    """Partitioned eigenvectors of a sample covariance.

    ``noise_basis`` columns are orthonormal. After target cancelation the
    noise basis gains extra columns drawn from the signal span, so the
    signal/noise partition only holds for freshly decomposed instances.
    """

    noise_basis: np.ndarray
    signal_basis: np.ndarray
    eigenvalues: np.ndarray
    order_estimate: int


@dataclass(frozen=True)
class SteeringParams:
    """Per-element phase factors of the decimated steering vectors.

    phi_a = 2*pi*D_a*d/lambda, phi_f = -2*pi*D_f*df. Carries the speed of
    light and the unambiguous range so steering can be evaluated and
    domain-checked standalone.
    """

    phi_a: float
    phi_f: float
    n_sub_a: int
    n_sub_f: int
    speed_of_light_m_s: float
    r_max_m: float


@dataclass(frozen=True)
class SpectrumGrid:
    """Coarse pseudospectrum samples on a (range x angle) lattice."""

    ranges_m: np.ndarray
    angles_rad: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.ranges_m.size, self.angles_rad.size):
            raise ConfigError(
                f"grid values shape {self.values.shape} does not match axes "
                f"({self.ranges_m.size}, {self.angles_rad.size})")

    def range_step(self) -> float:
        return float(self.ranges_m[1] - self.ranges_m[0]) if self.ranges_m.size > 1 \
            else 0.0

    def angle_step(self) -> float:
        return float(self.angles_rad[1] - self.angles_rad[0]) \
            if self.angles_rad.size > 1 else 0.0

    def argmax(self) -> tuple[float, float, float]:
        """(range, angle, value) of the largest grid sample."""
        i, j = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return float(self.ranges_m[i]), float(self.angles_rad[j]), \
            float(self.values[i, j])


def mdl_order(eigenvalues: np.ndarray, n_snapshots: int) -> int:
    """Wax-Kailath MDL model-order estimate from descending eigenvalues.

    Minimizes L*(M-k)*log(arith/geo mean of the M-k smallest eigenvalues)
    + 0.5*k*(2M-k)*log(L) over k = 0..M-1. Scale-invariant in the
    eigenvalues.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    m = lam.size
    lam_max = lam[0]
    if lam_max <= 0:
        return 0
    # Floor keeps logs finite on rank-deficient covariances.
    lam = np.maximum(lam, lam_max * 1e-200)
    log_lam = np.log(lam)
    scores = np.empty(m)
    for k in range(m):
        tail = lam[k:]
        log_geo = float(np.mean(log_lam[k:]))
        log_arith = math.log(float(np.mean(tail)))
        scores[k] = n_snapshots * (m - k) * (log_arith - log_geo) \
            + 0.5 * k * (2 * m - k) * math.log(n_snapshots)
    return int(np.argmin(scores))


def decompose(cov: SampleCovariance) -> Subspaces:
    """Eigendecompose and split into signal/noise subspaces at the MDL order.

    A non-finite covariance (NaN input, or finite CSI large enough to
    overflow) is rejected up front: ``eigh`` would not flag it.
    """
    if not np.all(np.isfinite(cov.matrix)):
        raise NumericalError("sample covariance has non-finite entries")
    try:
        w, u = np.linalg.eigh(cov.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    w = w[::-1].copy()
    u = u[:, ::-1].copy()
    q = mdl_order(w, cov.n_snapshots)
    if q >= w.size:
        raise DegenerateOrderError(
            f"model order {q} leaves no noise subspace (M={w.size})")
    return Subspaces(noise_basis=u[:, q:], signal_basis=u[:, :q],
                     eigenvalues=w, order_estimate=q)


def steering_params(config: RadioConfig, plan: SubarrayPlan) -> SteeringParams:
    """Derive the decimated steering phase factors for a config/plan pair."""
    return SteeringParams(
        phi_a=2.0 * math.pi * plan.decim_a * config.antenna_spacing_m
        / config.wavelength_m,
        phi_f=-2.0 * math.pi * plan.decim_f * config.subcarrier_spacing_hz,
        n_sub_a=plan.n_sub_a,
        n_sub_f=plan.n_sub_f,
        speed_of_light_m_s=config.speed_of_light_m_s,
        r_max_m=unambiguous_range(config, plan))


def decimated_steering(params: SteeringParams, r: float, theta: float) -> np.ndarray:
    """Length-M steering vector on the decimated lattice, a~(r) kron b~(theta).

    Element i*n_sub_a + j equals exp(j*phi_f*(2r/c)*i) * exp(j*phi_a*sin(theta)*j).
    Ranges at or beyond the unambiguous range alias and are rejected.
    """
    if not 0 <= r < params.r_max_m:
        raise DomainError(
            f"range {r} outside unambiguous domain [0, {params.r_max_m})")
    if abs(theta) > math.pi / 2:
        raise DomainError(f"azimuth {theta} outside [-pi/2, pi/2]")
    a = np.exp(1j * params.phi_f * (2.0 * r / params.speed_of_light_m_s)
               * np.arange(params.n_sub_f))
    b = np.exp(1j * params.phi_a * math.sin(theta) * np.arange(params.n_sub_a))
    return (a[:, np.newaxis] * b[np.newaxis, :]).ravel()


def music_value(subspaces: Subspaces, steering: np.ndarray) -> float:
    """Pseudospectrum value 1 / ||U_N^H v||^2, clamped at 1e18."""
    proj = subspaces.noise_basis.conj().T @ steering
    den = float(np.real(np.vdot(proj, proj)))
    if den <= 1.0 / MUSIC_VALUE_CLAMP:
        return MUSIC_VALUE_CLAMP
    return min(1.0 / den, MUSIC_VALUE_CLAMP)


class SpectrumEvaluator:
    """Fast repeated pseudospectrum evaluation for one noise basis.

    Precomputes the conjugated noise basis and the per-element phase ramps so
    a point evaluation costs one complex exponential and one matvec. Produces
    values identical to ``music_value`` on ``decimated_steering`` vectors.
    """

    def __init__(self, subspaces: Subspaces, params: SteeringParams):
        self.subspaces = subspaces
        self.params = params
        self._noise_h = np.ascontiguousarray(subspaces.noise_basis.conj().T)
        i = np.repeat(np.arange(params.n_sub_f), params.n_sub_a)
        j = np.tile(np.arange(params.n_sub_a), params.n_sub_f)
        self._ramp_r = params.phi_f * (2.0 / params.speed_of_light_m_s) * i
        self._ramp_theta = params.phi_a * j

    def value(self, r: float, theta: float) -> float:
        v = np.exp(1j * (r * self._ramp_r + math.sin(theta) * self._ramp_theta))
        proj = self._noise_h @ v
        den = float(np.real(np.vdot(proj, proj)))
        if den <= 1.0 / MUSIC_VALUE_CLAMP:
            return MUSIC_VALUE_CLAMP
        return min(1.0 / den, MUSIC_VALUE_CLAMP)

    def values(self, ranges_m: np.ndarray, angles_rad: np.ndarray) -> np.ndarray:
        """Grid of values over the Cartesian product of the two axes."""
        sin_th = np.sin(angles_rad)
        phases = ranges_m[:, np.newaxis, np.newaxis] * self._ramp_r \
            + sin_th[np.newaxis, :, np.newaxis] * self._ramp_theta
        v = np.exp(1j * phases.reshape(-1, self._ramp_r.size))
        proj = self._noise_h @ v.T
        den = np.sum(np.abs(proj) ** 2, axis=0)
        with np.errstate(divide="ignore"):
            vals = np.where(den <= 1.0 / MUSIC_VALUE_CLAMP, MUSIC_VALUE_CLAMP,
                            np.minimum(1.0 / np.maximum(den, 1e-300),
                                       MUSIC_VALUE_CLAMP))
        return vals.reshape(ranges_m.size, angles_rad.size)


def range_resolution(config: RadioConfig, plan: SubarrayPlan) -> float:
    """Range resolution c / (2 * A_f * df) of the sub-array frequency aperture."""
    return config.speed_of_light_m_s / (2.0 * plan.aperture_f
                                        * config.subcarrier_spacing_hz)


def unambiguous_range(config: RadioConfig, plan: SubarrayPlan) -> float:
    """Maximum alias-free range c / (2 * D_f * df) under frequency decimation."""
    return config.speed_of_light_m_s / (2.0 * plan.decim_f
                                        * config.subcarrier_spacing_hz)


def angle_resolution(config: RadioConfig, plan: SubarrayPlan) -> float:
    """Broadside ULA resolution lambda / (aperture length) of the decimated array.

    Undefined for single-antenna sub-arrays (no angle dimension).
    """
    extent = (plan.n_sub_a - 1) * plan.decim_a * config.antenna_spacing_m
    if extent <= 0:
        raise DomainError("angle resolution undefined for single-antenna sub-arrays")
    return config.wavelength_m / extent


def grid_axes(config: RadioConfig, plan: SubarrayPlan,
              theta_lim_rad: float = DEFAULT_THETA_LIM_RAD
              ) -> tuple[np.ndarray, np.ndarray]:
    """Coarse-grid axes: half-resolution steps over [0, r_max) x [-lim, lim]."""
    r_step = range_resolution(config, plan) / 2.0
    ranges = np.arange(0.0, unambiguous_range(config, plan), r_step)
    if plan.n_sub_a > 1:
        th_step = angle_resolution(config, plan) / 2.0
        angles = np.arange(-theta_lim_rad, theta_lim_rad + 1e-12, th_step)
        angles = angles[angles <= theta_lim_rad + 1e-12]
    else:
        angles = np.array([0.0])
    return ranges, angles


def coarse_grid(subspaces: Subspaces, params: SteeringParams, config: RadioConfig,
                plan: SubarrayPlan,
                theta_lim_rad: float = DEFAULT_THETA_LIM_RAD) -> SpectrumGrid:
    """Evaluate the pseudospectrum on the half-resolution coarse grid.

    The one builder of coarse grids: detection, the re-grid after each
    cancelation, scoring fallbacks and calibration all come through here.
    """
    ranges, angles = grid_axes(config, plan, theta_lim_rad)
    vals = SpectrumEvaluator(subspaces, params).values(ranges, angles)
    return SpectrumGrid(ranges_m=ranges, angles_rad=angles, values=vals)


def flop_estimate(m: int, q: int) -> int:
    """FLOPs of one pseudospectrum evaluation, 2*M^2*(M-Q)."""
    if q >= m:
        raise DomainError(f"model order {q} must be below sub-array size {m}")
    return 2 * m * m * (m - q)
