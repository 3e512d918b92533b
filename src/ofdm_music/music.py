"""Subspace decomposition and the decimated 2D MUSIC pseudospectrum.

The sample covariance is eigendecomposed, the model order is picked by the
Wax-Kailath minimum-description-length rule, and the pseudospectrum
1 / ||U_N^H v(r, theta)||^2 is evaluated with steering vectors matched to the
decimated sub-array lattice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericalError
from .signal_model import RadioConfig
from .smoothing import SampleCovariance, SubarrayPlan

# Pseudospectrum ceiling: 1/||proj||^2 is singular at exact noiseless hits.
MUSIC_VALUE_CLAMP = 1e18

DEFAULT_THETA_LIM_RAD = math.radians(60.0)


@dataclass(frozen=True)
class Subspaces:
    """Partitioned eigenvectors of a sample covariance.

    The columns of ``noise_basis`` and ``signal_basis`` together form an
    orthonormal basis of C^M. Target cancelation moves one direction from
    the signal side to the noise side, so the partition holds after every
    cancelation too.
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
    # Sums over the tails lam[k:] for every k at once, smallest terms first.
    k = np.arange(m)
    tail_size = m - k
    tail_sum = np.cumsum(lam[::-1])[::-1]
    tail_log_sum = np.cumsum(np.log(lam[::-1]))[::-1]
    log_arith = np.log(tail_sum / tail_size)
    log_geo = tail_log_sum / tail_size
    scores = n_snapshots * tail_size * (log_arith - log_geo) \
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
    return _clamped_inverse(subspaces.noise_basis.conj().T @ steering)


def _clamped_inverse(proj: np.ndarray) -> float:
    """1 / ||proj||^2, clamped at ``MUSIC_VALUE_CLAMP``."""
    den = float(np.real(np.vdot(proj, proj)))
    if den <= 1.0 / MUSIC_VALUE_CLAMP:
        return MUSIC_VALUE_CLAMP
    return min(1.0 / den, MUSIC_VALUE_CLAMP)


def _steering(moments: np.ndarray, r, s) -> np.ndarray:
    """exp(j(r*a + s*b)) with the phase ramps a, b of ``moments``, for ranges
    ``r`` and sines ``s`` that broadcast; the last axis is the element."""
    return np.exp(1j * (np.multiply.outer(r, moments[1])
                        + np.multiply.outer(s, moments[2])))


def grid_steering(moments: np.ndarray, ranges_m: np.ndarray,
                  angles_rad: np.ndarray) -> np.ndarray:
    """Steering vectors of the grid ``ranges_m`` x ``angles_rad`` as columns,
    column i*angles_rad.size + j at (ranges_m[i], angles_rad[j])."""
    v = _steering(moments, ranges_m[:, np.newaxis],
                  np.sin(angles_rad)[np.newaxis, :])
    return v.reshape(-1, moments.shape[1]).T


class SpectrumEvaluator:
    """Fast repeated pseudospectrum evaluation for one subspace partition.

    Reads the phase ramps and their products, the six moment rows, from the
    grid geometry, so a point evaluation costs one complex exponential and
    one matvec. ``values``, the coarse grid, and ``denominator``, the
    refiner's objective, project on the q signal columns instead of the
    M - q noise columns, by the projector identity
    ||U_N^H v||^2 = M - ||U_S^H v||^2 for the unit-modulus steering vectors
    (Schmidt, IEEE TAP 1986). That form loses about log10(M / den) digits
    near a peak, which neither needs: the grid only seeds the refiner and
    sets the CFAR quantile, whose samples lie far below the peaks, and the
    refiner only compares denominators. ``value``, every reported peak
    value, projects on the noise side at full precision, identical to
    ``music_value`` on ``decimated_steering`` vectors. On a complete noise
    basis (q = 0) every grid value is exactly 1 / M.

    The conjugated noise basis and the (M, 6q) matrix whose column
    k*q + j is signal column j scaled by moment row k are built on first
    use, so a grid-only evaluator builds neither; one projection of a
    steering vector on the latter gives every product the denominator's
    gradient and Hessian need. The steering phase is linear in
    (r, sin theta), which gives the denominator a closed-form gradient and
    Hessian in those coordinates.
    """

    def __init__(self, subspaces: Subspaces, geometry: GridGeometry):
        self._subspaces = subspaces
        self._moments = geometry.moments

    @functools.cached_property
    def _noise_h(self) -> np.ndarray:
        return np.ascontiguousarray(self._subspaces.noise_basis.conj().T)

    @functools.cached_property
    def _weighted(self) -> np.ndarray:
        signal = self._subspaces.signal_basis.conj()
        return (self._moments.T[:, :, np.newaxis]
                * signal[:, np.newaxis, :]).reshape(len(signal), -1)

    def value(self, r: float, theta: float) -> float:
        v = _steering(self._moments, r, math.sin(theta))
        return _clamped_inverse(self._noise_h @ v)

    def values(self, steering: np.ndarray) -> np.ndarray:
        """Values at the steering vectors that are the columns of ``steering``."""
        proj = self._subspaces.signal_basis.conj().T @ steering
        den = steering.shape[0] - np.sum(proj.real ** 2 + proj.imag ** 2, axis=0)
        return np.where(den <= 1.0 / MUSIC_VALUE_CLAMP, MUSIC_VALUE_CLAMP,
                        np.minimum(1.0 / np.maximum(den, 1e-300), MUSIC_VALUE_CLAMP))

    def denominator(self, ranges_m: np.ndarray, sines: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """M - ||U_S^H v||^2 at points (r, sin theta), with gradient and Hessian.

        Every derivative of v = exp(j(r*a + s*b)) is v times a product of the
        phase ramps a, b, so one matmul projects them all. Returns arrays of
        shapes (n,), (n, 2) and (n, 2, 2), in (r, sin theta) coordinates.
        """
        v = _steering(self._moments, ranges_m, sines)
        # One (1, M) x (M, 6q) product per point: a stacked matmul, so a
        # point's bits do not depend on the batch it comes in.
        rows = len(self._moments)
        q = (v[:, np.newaxis, :] @ self._weighted).reshape(
            len(v), rows, self._weighted.shape[1] // rows)
        # The factors j and j^2 that differentiation brings down fold into the
        # signs of S = ||q_0||^2: S_x = -2 Im(q_0^H q_x) and
        # S_xy = 2 Re(q_x^H q_y - q_0^H q_xy). The denominator is M - S.
        cross = np.einsum("nk,nmk->nm", q[:, 0].conj(), q)
        gram = np.einsum("nik,njk->nij", q[:, 1:3].conj(), q[:, 1:3]).real
        curvature = cross[:, [3, 4, 4, 5]].real.reshape(-1, 2, 2)
        return self._moments.shape[1] - cross[:, 0].real, \
            2.0 * cross[:, 1:3].imag, 2.0 * (curvature - gram)


def range_resolution(config: RadioConfig, plan: SubarrayPlan) -> float:
    """Range resolution c / (2 * A_f * df) of the sub-array frequency aperture."""
    return config.speed_of_light_m_s / (2.0 * plan.aperture_f
                                        * config.subcarrier_spacing_hz)


def unambiguous_range(config: RadioConfig, plan: SubarrayPlan) -> float:
    """Maximum alias-free range c / (2 * D_f * df) under frequency decimation."""
    return config.speed_of_light_m_s / (2.0 * plan.decim_f
                                        * config.subcarrier_spacing_hz)


@dataclass(frozen=True)
class GridConfig:
    """The (radio, plan, theta-limit) record that fixes the coarse grid."""

    radio: RadioConfig
    plan: SubarrayPlan
    theta_lim_rad: float = DEFAULT_THETA_LIM_RAD

    def __post_init__(self):
        if not 0.0 <= self.theta_lim_rad <= math.pi / 2:
            raise ConfigError(
                f"theta limit must lie in [0, pi/2] rad, got {self.theta_lim_rad}")


@dataclass(frozen=True)
class GridGeometry:
    """What a :class:`GridConfig` fixes: the coarse grid's axes and steering
    vectors (the columns of ``steering``), the refiner's search box [lo, hi]
    and grid cell in (r, sin theta), and the rows 1, a, b, a*a, a*b, b*b of
    ``moments``: element m of a steering vector has the phase
    r*a[m] + sin(theta)*b[m]. All arrays are read-only."""

    params: SteeringParams
    ranges_m: np.ndarray
    angles_rad: np.ndarray
    steering: np.ndarray
    moments: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    cell: np.ndarray


@functools.lru_cache(maxsize=16)
def grid_geometry(grid_config: GridConfig) -> GridGeometry:
    """The geometry of ``grid_config``, built once and shared by every caller.

    The axes step by half a resolution cell over [0, r_max) x [-lim, lim].
    Single-antenna sub-arrays get the one angle 0, which pins the search box.
    """
    radio, plan = grid_config.radio, grid_config.plan
    theta_lim = grid_config.theta_lim_rad
    params = steering_params(radio, plan)
    r_step = range_resolution(radio, plan) / 2.0
    ranges = np.arange(0.0, params.r_max_m, r_step)
    if plan.n_sub_a > 1:
        extent = (plan.n_sub_a - 1) * plan.decim_a * radio.antenna_spacing_m
        angles = np.arange(-theta_lim, theta_lim + 1e-12,
                           radio.wavelength_m / extent / 2.0)
        angles = angles[angles <= theta_lim + 1e-12]
    else:
        angles = np.array([0.0])
    if angles.size > 1:
        s_lo, s_hi = -math.sin(theta_lim), math.sin(theta_lim)
        th_step = float(angles[1] - angles[0])
    else:
        s_lo = s_hi = np.sin(angles[0])
        th_step = 1.0
    lo = np.array([0.0, s_lo])
    hi = np.array([params.r_max_m * (1.0 - 1e-12), s_hi])
    cell = np.array([r_step, th_step])
    i = np.repeat(np.arange(plan.n_sub_f), plan.n_sub_a)
    j = np.tile(np.arange(plan.n_sub_a), plan.n_sub_f)
    a = params.phi_f * (2.0 / params.speed_of_light_m_s) * i
    b = params.phi_a * j
    moments = np.stack([np.ones_like(a), a, b, a * a, a * b, b * b])
    steering = grid_steering(moments, ranges, angles)
    for arr in (ranges, angles, steering, moments, lo, hi, cell):
        arr.flags.writeable = False
    return GridGeometry(params=params, ranges_m=ranges, angles_rad=angles,
                        steering=steering, moments=moments, lo=lo, hi=hi, cell=cell)


def coarse_grid(subspaces: Subspaces, grid_config: GridConfig) -> SpectrumGrid:
    """Evaluate the pseudospectrum on the half-resolution coarse grid.

    The one builder of coarse grids: detection, the re-grid after each
    cancelation, scoring fallbacks and calibration all come through here.
    """
    g = grid_geometry(grid_config)
    vals = SpectrumEvaluator(subspaces, g).values(g.steering)
    return SpectrumGrid(ranges_m=g.ranges_m, angles_rad=g.angles_rad,
                        values=vals.reshape(g.ranges_m.size, g.angles_rad.size))


def flop_estimate(m: int, q: int) -> int:
    """FLOPs of one pseudospectrum evaluation, 2*M^2*(M-Q)."""
    if q >= m:
        raise DomainError(f"model order {q} must be below sub-array size {m}")
    return 2 * m * m * (m - q)
