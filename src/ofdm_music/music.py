"""Subspace decomposition and the decimated 2D MUSIC pseudospectrum.

The sample covariance is eigendecomposed, the model order is picked by the
Wax-Kailath minimum-description-length rule, and the pseudospectrum
1 / ||U_N^H v(r, theta)||^2 is evaluated with steering vectors matched to the
decimated sub-array lattice. Only the q signal eigenvectors U_S are kept;
||U_N^H v||^2 is read off them by the projector U_N U_N^H = I - U_S U_S^H.

Every steering vector, gridded, refined, valued or canceled, is one
expression: element m of v(r, theta) is exp(j(r*a[m] + sin(theta)*b[m])),
with the phase ramps a, b of :class:`GridGeometry` ``moments``.
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
# Most entries of the largest matrix the estimator forms, 2 GiB of complex128;
# the baseline's largest is 45 x 200.
MAX_MATRIX_ENTRIES = 2 ** 27


@dataclass(frozen=True)
class Subspaces:
    """The signal subspace of a sample covariance.

    ``signal_basis`` holds q orthonormal columns, first the eigenvectors of
    the q largest eigenvalues; the noise subspace is their orthogonal
    complement in C^M and is not stored. A target cancelation moves one
    direction out of the signal basis, which leaves one column fewer.
    """

    signal_basis: np.ndarray
    eigenvalues: np.ndarray
    order_estimate: int


@dataclass(frozen=True)
class SteeringParams:
    """The three numbers the coarse grid reads from a radio and plan pair.

    phi_a = 2*pi*D_a*d/lambda and phi_f = -2*pi*D_f*df are the per-element
    phase factors of the decimated steering vectors, and r_max_m is the
    unambiguous range that bounds the grid's range axis.
    """

    phi_a: float
    phi_f: float
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


def _eig(solver, cov: SampleCovariance):
    """``solver(cov.matrix)`` for ``np.linalg.eigh`` or ``eigvalsh``.

    A non-finite covariance (NaN input, or finite CSI large enough to
    overflow) is rejected up front: neither solver would flag it.
    """
    if not np.all(np.isfinite(cov.matrix)):
        raise NumericalError("sample covariance has non-finite entries")
    try:
        return solver(cov.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc


def model_order(cov: SampleCovariance) -> int:
    """The MDL order of ``cov`` from its eigenvalues alone, without ``eigh``.

    Equal to ``decompose(cov).order_estimate`` whenever L >= M. With fewer
    snapshots L than samples M the smallest eigenvalues are rounding noise,
    which ``eigvalsh`` and ``eigh`` round differently, so a nonzero order
    can differ. Whether the order is zero has not been seen to differ (0 of
    19,000 seeded noise covariances), and that is all calibration reads.
    """
    return mdl_order(_eig(np.linalg.eigvalsh, cov)[::-1], cov.n_snapshots)


def decompose(cov: SampleCovariance) -> Subspaces:
    """Eigendecompose and keep the signal eigenvectors up to the MDL order.

    A non-finite covariance is rejected with ``NumericalError``.
    """
    w, u = _eig(np.linalg.eigh, cov)
    w = w[::-1].copy()
    u = u[:, ::-1].copy()
    q = mdl_order(w, cov.n_snapshots)
    return Subspaces(signal_basis=u[:, :q], eigenvalues=w, order_estimate=q)


def steering_params(config: RadioConfig, plan: SubarrayPlan) -> SteeringParams:
    """Derive the decimated steering phase factors for a config/plan pair."""
    return SteeringParams(
        phi_a=2.0 * math.pi * plan.decim_a * config.antenna_spacing_m
        / config.wavelength_m,
        phi_f=-2.0 * math.pi * plan.decim_f * config.subcarrier_spacing_hz,
        r_max_m=unambiguous_range(config, plan))


def music_value(subspaces: Subspaces, steering: np.ndarray) -> float:
    """1 / ||U_N^H v||^2, clamped at ``MUSIC_VALUE_CLAMP``, from the residual
    v - U_S U_S^H v of the signal-side projection: full precision at a
    near-null, where M - ||U_S^H v||^2 cancels to a few digits."""
    us = subspaces.signal_basis
    residual = steering - us @ (us.conj().T @ steering)
    return _clamped_inverse_of(float(np.vdot(residual, residual).real))


def _clamped_inverse(den):
    """1 / den, or the clamp C where den <= 1 / C: above that bound 1 / den
    is already below C (1 / (1 / C) rounds to C - 128)."""
    return np.where(den <= 1.0 / MUSIC_VALUE_CLAMP, MUSIC_VALUE_CLAMP,
                    1.0 / np.maximum(den, 1e-300))


def _clamped_inverse_of(den: float) -> float:
    """``_clamped_inverse`` of one float, the same bits without the array
    calls; its branch leaves only den > 1 / C to divide by."""
    return MUSIC_VALUE_CLAMP if den <= 1.0 / MUSIC_VALUE_CLAMP else 1.0 / den


def _steering(moments: np.ndarray, r, s) -> np.ndarray:
    """exp(j(r*a + s*b)) with the phase ramps a, b of ``moments``, for ranges
    ``r`` and sines ``s`` that broadcast; the last axis is the element."""
    return np.exp(1j * (np.multiply.outer(r, moments[1])
                        + np.multiply.outer(s, moments[2])))


def point_steering(moments: np.ndarray, r: float, theta: float) -> np.ndarray:
    """The steering vector at (r, theta): the one vector that
    :meth:`SpectrumEvaluator.value` values and ``cancel_target`` nulls."""
    return _steering(moments, r, math.sin(theta))


def grid_steering(moments: np.ndarray, ranges_m: np.ndarray,
                  angles_rad: np.ndarray) -> np.ndarray:
    """Steering vectors of the grid ``ranges_m`` x ``angles_rad`` as columns,
    column i*angles_rad.size + j at (ranges_m[i], angles_rad[j])."""
    v = _steering(moments, ranges_m[:, np.newaxis],
                  np.sin(angles_rad)[np.newaxis, :])
    return v.reshape(-1, moments.shape[1]).T


# Where den, grad and hess read the block q_i^H q_j of
# SpectrumEvaluator.denominator, flattened as floats: Re q_0^H q_0;
# Im q_0^H q_1, Im q_0^H q_2; Re q_0^H q_j for j = 3, 4, 4, 5; Re q_i^H q_j
# for (i, j) = (1, 1), (1, 2), (2, 1), (2, 2).
_DENOMINATOR_FLOATS = np.array([0, 3, 5, 6, 8, 8, 10, 14, 16, 26, 28])


class SpectrumEvaluator:
    """Fast repeated pseudospectrum evaluation for one signal subspace.

    Reads the phase ramps and their products, the six moment rows, from the
    grid geometry, so a point evaluation costs one complex exponential and
    one projection on the q signal columns. ``values``, the coarse grid, and
    ``denominator``, the refiner's objective, take the noise-side norm as
    M - ||U_S^H v||^2 for the unit-modulus steering vectors (Schmidt, IEEE
    TAP 1986). That form loses about log10(M / den) digits near a peak,
    which neither needs: the grid only seeds the refiner and sets the CFAR
    quantile, whose samples lie far below the peaks, and the refiner only
    compares denominators. ``value``, every reported peak value, is
    ``music_value``: the residual of the signal-side projection, at full
    precision. With no signal columns (q = 0) every grid value is exactly
    1 / M.

    The (M, 6q) matrix whose column k*q + j is signal column j scaled by
    moment row k is built on first use, so a grid-only evaluator does not
    build it; one projection of a steering vector on it gives the six
    projections q_0..q_5 whose products the denominator's gradient and
    Hessian need. The steering phase is linear in (r, sin theta), which
    gives the denominator a closed-form gradient and Hessian in those
    coordinates. A ``denominator`` call is fixed cost more than arithmetic
    (M = 45 elements on the baseline plan, a handful of points), so it
    makes few numpy calls: one ``_steering`` call, one stacked matmul, one
    ``einsum`` for the block q_i^H q_j (i < 3), and one index and three
    in-place updates on a float view of that block.
    """

    def __init__(self, subspaces: Subspaces, geometry: GridGeometry):
        self._subspaces = subspaces
        self._moments = geometry.moments

    @functools.cached_property
    def _weighted(self) -> np.ndarray:
        signal = self._subspaces.signal_basis.conj()
        return (self._moments.T[:, :, np.newaxis]
                * signal[:, np.newaxis, :]).reshape(len(signal), -1)

    def value(self, r: float, theta: float) -> float:
        return music_value(self._subspaces, point_steering(self._moments, r, theta))

    def values(self, steering: np.ndarray) -> np.ndarray:
        """Values at the steering vectors that are the columns of ``steering``."""
        proj = self._subspaces.signal_basis.conj().T @ steering
        return _clamped_inverse(
            steering.shape[0] - np.sum(proj.real ** 2 + proj.imag ** 2, axis=0))

    def denominator(self, ranges_m: np.ndarray, sines: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """M - ||U_S^H v||^2 at points (r, sin theta), with gradient and Hessian.

        Every derivative of v = exp(j(r*a + s*b)) is v times a product of the
        phase ramps a, b, so one matmul projects them all. ``ranges_m`` and
        ``sines`` are 1-D, or broadcast to 1-D, over the n points. Returns
        arrays of shapes (n,), (n, 2) and (n, 2, 2), in (r, sin theta)
        coordinates: views of one (n, 11) array.
        """
        v = _steering(self._moments, ranges_m, sines)
        n = len(v)
        # One (1, M) x (M, 6q) product per point: a stacked matmul, so a
        # point's bits do not depend on the batch it comes in.
        rows = len(self._moments)
        q = (v[:, np.newaxis, :] @ self._weighted).reshape(
            n, rows, self._weighted.shape[1] // rows)
        # The factors j and j^2 that differentiation brings down fold into the
        # signs of S = ||q_0||^2: S_x = -2 Im(q_0^H q_x) and
        # S_xy = 2 Re(q_x^H q_y - q_0^H q_xy). The denominator is M - S. All
        # of it reads the block q_i^H q_j, i < 3, as floats: 12 per row i,
        # the real part of column j at 2j and its imaginary part at 2j + 1.
        block = np.einsum("nik,njk->nij", q[:, :3].conj(), q).view(float)
        out = block.reshape(n, 36).take(_DENOMINATOR_FLOATS, axis=1)
        out[:, 3:7] -= out[:, 7:]
        out[:, 1:7] *= 2.0
        np.subtract(v.shape[1], out[:, 0], out=out[:, 0])
        return out[:, 0], out[:, 1:3], out[:, 3:7].reshape(n, 2, 2)


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
        radio, plan = self.radio, self.plan
        r_max = unambiguous_range(radio, plan)
        if not r_max < math.inf:
            raise ConfigError(
                f"the unambiguous range c / (2 D_f delta_f) overflows to {r_max}")
        # The largest matrix is M x max(M, L, G): the covariance, the smoothed
        # CSI or the G grid steering vectors, counted before numpy allocates.
        m, n_snapshots = plan.samples_per_subarray, plan.n_subarrays
        n_ranges, n_angles = _grid_shape(self)
        entries = m * max(m, n_snapshots, n_ranges * n_angles)
        if not entries <= MAX_MATRIX_ENTRIES:
            raise ConfigError(
                f"M = {m} sub-array samples, L = {n_snapshots} sub-arrays and a "
                f"grid of {n_ranges} ranges x {n_angles:.6g} angles (antenna "
                f"spacing d = {radio.antenna_spacing_m:g} m) need a matrix of "
                f"{entries:.3g} entries; at most {MAX_MATRIX_ENTRIES} are allowed")


def _grid_shape(grid_config: GridConfig) -> tuple[int, float]:
    """The coarse grid's (range count, angle count), the one statement of its
    shape. Half-cell steps: ceil(2 A_f / D_f) ranges in [0, r_max), and
    angles lambda / extent / 2 apart from -lim up to lim (with 1e-12 rad of
    slack). The angle count is a float, so an overflow reads inf; a
    single-antenna sub-array has extent 0, so one angle."""
    radio, plan = grid_config.radio, grid_config.plan
    waves = (plan.n_sub_a - 1) * plan.decim_a * radio.antenna_spacing_m \
        / radio.wavelength_m
    return -(-2 * plan.aperture_f // plan.decim_f), \
        np.floor((2.0 * grid_config.theta_lim_rad + 1e-12) * 2.0 * waves) + 1.0


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

    The axes step by half a resolution cell over [0, r_max) x [-lim, lim],
    with the counts of ``_grid_shape``. A grid with one angle, -lim or, for
    single-antenna sub-arrays, 0, pins the sine axis of the search box.
    """
    radio, plan = grid_config.radio, grid_config.plan
    theta_lim = grid_config.theta_lim_rad
    params = steering_params(radio, plan)
    r_step = range_resolution(radio, plan) / 2.0
    n_ranges, n_angles = _grid_shape(grid_config)
    ranges = r_step * np.arange(n_ranges)
    if n_angles > 1:
        extent = (plan.n_sub_a - 1) * plan.decim_a * radio.antenna_spacing_m
        # Rounded as np.arange(-lim, ...) rounds its step, the axis that the
        # golden outputs were made with, so the angles keep their bits.
        th_step = (-theta_lim + radio.wavelength_m / extent / 2.0) + theta_lim
        angles = -theta_lim + th_step * np.arange(int(n_angles))
        s_lo, s_hi = -math.sin(theta_lim), math.sin(theta_lim)
    else:
        angles = np.array([-theta_lim if plan.n_sub_a > 1 else 0.0])
        s_lo = s_hi = np.sin(angles[0])
        th_step = 1.0
    lo = np.array([0.0, s_lo])
    hi = np.array([params.r_max_m * (1.0 - 1e-12), s_hi])
    cell = np.array([r_step, th_step])
    i, j = plan.element_slots
    a = params.phi_f * (2.0 / radio.speed_of_light_m_s) * i
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
