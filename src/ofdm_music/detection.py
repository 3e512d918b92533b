"""Pseudospectrum peak search, CFAR gating and coherent target cancelation.

Peaks are seeded from the strongest coarse-grid samples, refined with a
bounded Powell direction search, deduplicated, and gated against an
empirical-quantile CFAR threshold. Detected targets can be canceled by
augmenting the noise basis with their orthogonalized steering vectors, so
the spectrum can be re-estimated without a new eigendecomposition.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import AlreadyCanceledError, ConfigError, DomainError
from .music import (DEFAULT_THETA_LIM_RAD, SpectrumEvaluator, SpectrumGrid,
                    Subspaces, SteeringParams, coarse_grid, decimated_steering)
from .signal_model import RadioConfig
from .smoothing import SubarrayPlan

# Line searches stay within one direction length of the current point: seeds
# are half-resolution grid maxima, so the peak to refine is never farther,
# and a wider window lets the search tunnel to a neighboring stronger peak.
# Repeated cycles (and the growing replacement directions) extend the reach.
_LINE_SEARCH_SPAN = 1.0
_LINE_SEARCH_XATOL = 1e-9
_LINE_SEARCH_MAXITER = 64


class Routine(enum.Enum):
    """Peak selection routines: iterate with cancelation or not."""

    SINGLE = "single"
    MULTIPLE = "multiple"
    OFF = "off"

    @classmethod
    def from_string(cls, name: str) -> "Routine":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ConfigError(
                f"unknown routine {name!r}; expected one of "
                f"{[r.value for r in cls]}")


@dataclass(frozen=True)
class Detection:
    """One detected target: refined location, spectrum value, iteration index."""

    range_m: float
    azimuth_rad: float
    spectrum_value: float
    iteration: int


@dataclass(frozen=True)
class DetectorConfig:
    n_start: int = 10
    p_fa: float = 0.01
    routine: Routine = Routine.MULTIPLE
    max_iterations: int = 8
    merge_radius: tuple[float, float] = (0.25, 0.25)   # fractions of (dr, dtheta)
    powell_tol: float = 1e-8
    powell_max_iter: int = 16
    kappa: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.p_fa < 1.0:
            raise ConfigError(f"p_fa must lie in (0, 1), got {self.p_fa}")
        if self.n_start < 1 or self.max_iterations < 1 or self.powell_max_iter < 1:
            raise ConfigError("n_start, max_iterations and powell_max_iter must be >= 1")
        if self.powell_tol <= 0 or self.kappa <= 0:
            raise ConfigError("powell_tol and kappa must be positive")

    @property
    def n_seeds(self) -> int:
        """Grid maxima refined per iteration: one for SINGLE, n_start otherwise."""
        return 1 if self.routine is Routine.SINGLE else self.n_start


@dataclass(frozen=True)
class GridConfig:
    """The (radio, plan, theta-limit) record that fixes the coarse grid."""

    radio: RadioConfig
    plan: SubarrayPlan
    theta_lim_rad: float = DEFAULT_THETA_LIM_RAD


@dataclass(frozen=True)
class DetectionReport:
    detections: tuple[Detection, ...]
    threshold_used: float
    routine: Routine
    spectra_computed: int
    saturated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "detections", tuple(self.detections))

    def to_json(self) -> str:
        return json.dumps({
            "routine": self.routine.value,
            "gamma": self.threshold_used,
            "detections": [{
                "range_m": d.range_m,
                "azimuth_deg": math.degrees(d.azimuth_rad),
                "value": d.spectrum_value,
                "iteration": d.iteration,
            } for d in self.detections],
            "spectra_computed": self.spectra_computed,
            "saturated": self.saturated,
        })


def cfar_threshold(grid: SpectrumGrid, p_fa: float, kappa: float = 1.0) -> float:
    """Empirical (1 - p_fa) quantile of the coarse-grid values, scaled by kappa.

    kappa maps the grid-quantile scale statistic to a refined-peak threshold
    and is calibrated offline by noise-only simulation (see
    :func:`ofdm_music.harness.calibrate_kappa`).
    """
    if grid.values.size == 0:
        raise ConfigError("cannot derive a threshold from an empty grid")
    if not 0.0 < p_fa < 1.0:
        raise DomainError(f"p_fa must lie in (0, 1), got {p_fa}")
    return float(np.quantile(grid.values, 1.0 - p_fa)) * kappa


def _feasible_interval(x: np.ndarray, d: np.ndarray, lo: np.ndarray,
                       hi: np.ndarray) -> tuple[float, float]:
    """Step range [t_lo, t_hi] keeping x + t*d inside [lo, hi]."""
    t_lo, t_hi = -_LINE_SEARCH_SPAN, _LINE_SEARCH_SPAN
    for i in range(x.size):
        if d[i] > 0:
            t_lo = max(t_lo, (lo[i] - x[i]) / d[i])
            t_hi = min(t_hi, (hi[i] - x[i]) / d[i])
        elif d[i] < 0:
            t_lo = max(t_lo, (hi[i] - x[i]) / d[i])
            t_hi = min(t_hi, (lo[i] - x[i]) / d[i])
    return t_lo, t_hi


def _line_maximize(objective, x: np.ndarray, f: float, d: np.ndarray,
                   lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, float]:
    """Bounded scalar maximization along x + t*d; never returns a worse point."""
    t_lo, t_hi = _feasible_interval(x, d, lo, hi)
    if t_hi - t_lo < 1e-14:
        return x, f
    res = minimize_scalar(lambda t: -objective(*(x + t * d)),
                          bounds=(t_lo, t_hi), method="bounded",
                          options={"xatol": _LINE_SEARCH_XATOL,
                                   "maxiter": _LINE_SEARCH_MAXITER})
    if -res.fun > f:
        return np.clip(x + res.x * d, lo, hi), float(-res.fun)
    return x, f


def powell_maximize(objective, start, bounds, steps, tol: float = 1e-8,
                    max_iter: int = 16) -> tuple[float, float, float]:
    """Maximize objective(r, theta) with Powell's conjugate-direction search.

    Initial directions are the coordinate axes scaled by ``steps``; each line
    search is a bounded golden-section/parabolic refinement kept inside
    ``bounds``. A cycle sweeps every direction, then may replace the
    direction of largest gain with the cycle displacement (Powell's update).
    Terminates when the per-cycle improvement drops below
    tol * (|value| + tol) or after ``max_iter`` cycles.

    Returns (r, theta, value); the value is never below objective(start) and
    the point stays within bounds. Axes with a zero step (degenerate
    dimensions) are not searched.
    """
    lo = np.array([bounds[0][0], bounds[1][0]], dtype=float)
    hi = np.array([bounds[0][1], bounds[1][1]], dtype=float)
    x = np.clip(np.asarray(start, dtype=float), lo, hi)
    f = float(objective(*x))
    dirs = []
    for axis, step in enumerate(steps):
        if step > 0 and hi[axis] > lo[axis]:
            d = np.zeros(2)
            d[axis] = step
            dirs.append(d)
    if not dirs:
        return float(x[0]), float(x[1]), f

    for _ in range(max_iter):
        x_begin, f_begin = x.copy(), f
        biggest_gain, biggest_i = 0.0, 0
        for i, d in enumerate(dirs):
            x, f_new = _line_maximize(objective, x, f, d, lo, hi)
            if f_new - f > biggest_gain:
                biggest_gain, biggest_i = f_new - f, i
            f = f_new
        if f - f_begin <= tol * (abs(f) + tol):
            break
        # Powell's direction-replacement test on the extrapolated point.
        ext = np.clip(2.0 * x - x_begin, lo, hi)
        f_ext = float(objective(*ext))
        if f_ext > f_begin:
            gain = f - f_begin
            t = 2.0 * (2.0 * f - f_begin - f_ext) * (gain - biggest_gain) ** 2 \
                - biggest_gain * (f_ext - f_begin) ** 2
            if t < 0:
                d_new = x - x_begin
                if np.linalg.norm(d_new) > 0:
                    x, f = _line_maximize(objective, x, f, d_new, lo, hi)
                    dirs[biggest_i] = d_new
    return float(x[0]), float(x[1]), f


def cancel_target(subspaces: Subspaces, params: SteeringParams,
                  det: Detection) -> Subspaces:
    """Augment the noise basis with the detected target's steering direction.

    The steering vector is orthogonalized against the current noise basis,
    normalized and appended, nulling the target in the re-estimated spectrum
    without recomputing the eigendecomposition. Raises
    :class:`AlreadyCanceledError` when the vector already lies in the noise
    span, which signals a duplicate detection.
    """
    c = decimated_steering(params, det.range_m, det.azimuth_rad)
    un = subspaces.noise_basis
    residual = c - un @ (un.conj().T @ c)
    # Second projection pass keeps the basis orthonormal after many cancels.
    residual = residual - un @ (un.conj().T @ residual)
    norm = float(np.linalg.norm(residual))
    if norm <= 1e-8 * math.sqrt(c.size):
        raise AlreadyCanceledError(
            f"steering at (r={det.range_m:.3f} m, theta={det.azimuth_rad:.4f} rad) "
            "already lies in the noise span")
    new_basis = np.hstack([un, (residual / norm)[:, np.newaxis]])
    return Subspaces(noise_basis=new_basis, signal_basis=subspaces.signal_basis,
                     eigenvalues=subspaces.eigenvalues,
                     order_estimate=subspaces.order_estimate)


def _merge_peaks(peaks: list[tuple[float, float, float]], radius_r: float,
                 radius_theta: float) -> list[tuple[float, float, float]]:
    """Drop peaks within the merge radius of a stronger one (in both dims)."""
    kept: list[tuple[float, float, float]] = []
    for p in sorted(peaks, key=lambda p: -p[2]):
        dup = any(abs(p[0] - q[0]) < radius_r and abs(p[1] - q[1]) < radius_theta
                  for q in kept)
        if not dup:
            kept.append(p)
    return kept


def refine_candidates(subspaces: Subspaces, params: SteeringParams,
                      grid: SpectrumGrid, det_config: DetectorConfig,
                      theta_lim_rad: float, n_seeds: int
                      ) -> list[tuple[float, float, float]]:
    """Powell-refine the ``n_seeds`` strongest grid points; merged, unsorted.

    Refined points pinned against a search-domain edge are dropped: they are
    boundary maxima, not spectrum peaks. In particular the aliased skirt of a
    near-zero-range target wraps in just below the unambiguous range and
    would otherwise masquerade as a detection there.
    """
    evaluator = SpectrumEvaluator(subspaces, params)
    flat = grid.values.ravel()
    order = np.argsort(-flat, kind="stable")[:min(n_seeds, flat.size)]
    n_angles = grid.angles_rad.size
    r_hi = params.r_max_m * (1.0 - 1e-12)
    if n_angles > 1:
        bounds = ((0.0, r_hi), (-theta_lim_rad, theta_lim_rad))
    else:
        bounds = ((0.0, r_hi), (grid.angles_rad[0], grid.angles_rad[0]))
    steps = (grid.range_step(), grid.angle_step())
    peaks = []
    for idx in order:
        i, j = divmod(int(idx), n_angles)
        seed = (float(grid.ranges_m[i]), float(grid.angles_rad[j]))
        r, th, val = powell_maximize(evaluator.value, seed, bounds, steps,
                                     det_config.powell_tol,
                                     det_config.powell_max_iter)
        pinned = False
        for coord, (lo, hi), step in zip((r, th), bounds, steps):
            if step > 0 and hi > lo:
                pinned |= min(coord - lo, hi - coord) < 1e-6 * step
        if not pinned:
            peaks.append((r, th, val))
    radius_r = det_config.merge_radius[0] * 2.0 * grid.range_step()
    radius_theta = det_config.merge_radius[1] * 2.0 * grid.angle_step() \
        if n_angles > 1 else math.inf
    return _merge_peaks(peaks, radius_r, radius_theta)


def detect(subspaces: Subspaces, params: SteeringParams, grid_config: GridConfig,
           det_config: DetectorConfig) -> DetectionReport:
    """Run the configured peak selection routine and return all detections.

    The CFAR threshold is recomputed from the current coarse grid at every
    iteration: cancelation only shrinks the spectrum pointwise, so the
    threshold sequence is non-increasing and the final (reported) value
    bounds every detection. Re-deriving it keeps the gate tied to the
    remaining spectrum floor instead of the already-canceled peaks.
    """
    radio, plan = grid_config.radio, grid_config.plan
    theta_lim = grid_config.theta_lim_rad
    grid = coarse_grid(subspaces, params, radio, plan, theta_lim)
    gamma = cfar_threshold(grid, det_config.p_fa, det_config.kappa)
    spectra = 1

    # A complete noise basis (estimated order zero) leaves no signal
    # directions: the spectrum is exactly flat and admits no peaks.
    if subspaces.noise_basis.shape[1] >= subspaces.noise_basis.shape[0]:
        return DetectionReport(detections=(), threshold_used=gamma,
                               routine=det_config.routine, spectra_computed=spectra)

    if det_config.routine is Routine.OFF:
        merged = refine_candidates(subspaces, params, grid, det_config, theta_lim,
                                   det_config.n_seeds)
        dets = [Detection(r, th, val, 0) for r, th, val in merged if val >= gamma]
        return DetectionReport(detections=tuple(dets), threshold_used=gamma,
                               routine=det_config.routine, spectra_computed=spectra)

    m_total = subspaces.noise_basis.shape[0]
    current = subspaces
    detections: list[Detection] = []
    saturated = False
    for iteration in range(det_config.max_iterations):
        if iteration > 0:
            grid = coarse_grid(current, params, radio, plan, theta_lim)
            spectra += 1
            gamma = cfar_threshold(grid, det_config.p_fa, det_config.kappa)
        merged = refine_candidates(current, params, grid, det_config, theta_lim,
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
                continue   # converged onto an already-canceled peak; drop it
            detections.append(det)
            appended += 1
        if saturated or appended == 0:
            break
    return DetectionReport(detections=tuple(detections), threshold_used=gamma,
                           routine=det_config.routine, spectra_computed=spectra,
                           saturated=saturated)
