"""Pseudospectrum peak search, CFAR gating and coherent target cancelation.

Peaks are seeded from the strongest coarse-grid samples, refined together by
a safeguarded Newton ascent, deduplicated, and gated against an
empirical-quantile CFAR threshold. Detected targets can be canceled by
moving the signal-span component of their steering vectors to the noise
basis, so the spectrum can be re-estimated without a new eigendecomposition.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import AlreadyCanceledError, ConfigError, DomainError
from .music import (GridConfig, SpectrumEvaluator, SpectrumGrid, Subspaces,
                    SteeringParams, coarse_grid, decimated_steering,
                    grid_geometry)

# Seeds are half-resolution grid maxima, so the peak to refine is about one
# grid cell away; a step longer than a cell could tunnel to a neighboring
# stronger peak. Twenty capped steps cover a few cells, and Newton steps
# converge quadratically once inside a peak's convex basin.
_ASCENT_STEPS = 20
_MAX_STEP_CELLS = 1.0
# A seed whose capped step is shorter than this has converged: a millionth
# of a cell is far below the accuracy the estimator is held to.
_MIN_STEP_CELLS = 1e-6
# Refined peaks closer than half a grid cell in both coordinates are one peak.
_MERGE_RADIUS_CELLS = 0.5


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
    kappa: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.p_fa < 1.0:
            raise ConfigError(f"p_fa must lie in (0, 1), got {self.p_fa}")
        if self.n_start < 1 or self.max_iterations < 1:
            raise ConfigError("n_start and max_iterations must be >= 1")
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ConfigError(f"kappa must be positive and finite, got {self.kappa}")

    @property
    def n_seeds(self) -> int:
        """Grid maxima refined per iteration: one for SINGLE, n_start otherwise."""
        return 1 if self.routine is Routine.SINGLE else self.n_start


@dataclass(frozen=True)
class DetectionReport:
    """What :func:`detect` found and what it cost.

    ``threshold_used`` is the CFAR threshold of the last spectrum searched,
    ``spectra_computed`` the number of spectra searched, and ``saturated``
    says that a survivor above that threshold could not be canceled because
    earlier cancelations of the same iteration had completed the noise basis.
    """

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


def empirical_quantile(values, q: float) -> float:
    """The q quantile of ``values``, bit for bit what ``np.quantile`` gives.

    numpy's default "linear" method: interpolate between the order statistics
    at floor((n - 1) q) and the next index, starting from whichever of the two
    is nearer. ``np.quantile`` itself imports ``numpy.ma`` (through
    ``np.unique``), which costs every process about 1 MiB.
    """
    flat = np.asarray(values, dtype=float).ravel()
    virtual = (flat.size - 1) * q
    if virtual >= flat.size - 1:
        return float(flat.max())
    lo = math.floor(virtual)
    part = np.partition(flat, (lo, lo + 1))
    a, b = float(part[lo]), float(part[lo + 1])
    t = virtual - lo
    if t >= 0.5:
        return b - (b - a) * (1 - t)
    return a + (b - a) * t


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
    return empirical_quantile(grid.values, 1.0 - p_fa) * kappa


def cancel_target(subspaces: Subspaces, params: SteeringParams,
                  det: Detection) -> Subspaces:
    """Move the detected target's steering direction to the noise side.

    The steering vector c is projected on the signal basis U_S, and
    u = U_S w / ||w|| with w = U_S^H c, its normalized component in the
    signal span, is appended to the noise basis. That nulls the target in
    the re-estimated spectrum without recomputing the eigendecomposition.
    The signal basis keeps the q - 1 directions orthogonal to u, so the two
    bases still partition C^M. Working on the q signal columns takes the
    norm with no subtraction and reads the M - q noise columns only to
    append to them. Raises :class:`AlreadyCanceledError` when the vector
    already lies in the noise span (||w|| <= 1e-8 sqrt(M), which includes
    an empty signal basis), which signals a duplicate detection.
    """
    c = decimated_steering(params, det.range_m, det.azimuth_rad)
    us = subspaces.signal_basis
    w = us.conj().T @ c
    norm = float(np.linalg.norm(w))
    if norm <= 1e-8 * math.sqrt(c.size):
        raise AlreadyCanceledError(
            f"steering at (r={det.range_m:.3f} m, theta={det.azimuth_rad:.4f} rad) "
            "already lies in the noise span")
    w /= norm
    u = us @ w
    # The Householder reflector that maps w, the coordinates of u in the
    # signal basis, onto the first axis is unitary and Hermitian, so its
    # other q - 1 columns are orthonormal and orthogonal to w.
    y = w.copy()
    y[0] += np.exp(1j * np.angle(w[0])) * np.linalg.norm(w)
    signal = us[:, 1:] - np.outer(us @ y, y[1:].conj() * (2.0 / np.vdot(y, y).real))
    return Subspaces(noise_basis=np.hstack([subspaces.noise_basis, u[:, np.newaxis]]),
                     signal_basis=signal, eigenvalues=subspaces.eigenvalues,
                     order_estimate=subspaces.order_estimate)


def _merge_peaks(peaks: list[tuple[float, float, float]], radius_r: float,
                 radius_theta: float) -> list[tuple[float, float, float]]:
    """Drop peaks within the merge radius of a stronger one (in both dims).

    ``peaks`` are (r, theta, denominator) triples, and a lower denominator is
    a stronger peak. The kept ones come back strongest first.
    """
    kept: list[tuple[float, float, float]] = []
    for p in sorted(peaks, key=lambda p: p[2]):
        dup = any(abs(p[0] - q[0]) < radius_r and abs(p[1] - q[1]) < radius_theta
                  for q in kept)
        if not dup:
            kept.append(p)
    return kept


def _ascend(evaluator: SpectrumEvaluator, x: np.ndarray, cell: np.ndarray,
            lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Climb the pseudospectrum from each row of ``x``, a point (r, sin theta).

    Minimizes the denominator in grid-cell units: a Newton step where its
    2x2 Hessian is positive definite, a unit step down the gradient
    elsewhere, capped at a per-point trust radius that halves on a rejected
    step and doubles back up to one cell on an accepted one. A step is kept
    only if it lowers the denominator, and is clipped to [lo, hi]; an axis
    with lo == hi is not searched. Returns the final points and their
    denominators.

    An axis on which a point sits on a bound of [lo, hi] while its step
    points out of the box is held for that step, as a zero-width axis is (no
    slope, unit curvature), and the step is taken again on the other axis:
    the projected Newton step for box constraints (Bertsekas, SIAM J.
    Control Optim. 20(2), 1982). A point with both axes held has stopped. A
    clipped step would instead creep along the bound until the step budget
    runs out.

    Each seed's state is a handful of Python floats, and its step is
    recomputed only when it accepts a move. A step evaluates, in one batched
    :meth:`SpectrumEvaluator.denominator` call, only the seeds whose trial
    point is new. A seed whose trial point is the point it was last rejected
    at just halves its radius: the denominator there is already known, and a
    seed's denominator never rises, so the step would be rejected again. A
    seed whose trial point rounds to its current point has stopped for good,
    since the shorter steps that follow round there too; so has a seed whose
    capped step is shorter than ``_MIN_STEP_CELLS``. A stopped seed's state
    never changes again, so it would keep stopping. These skips are exact
    because the denominator of a point does not depend on the batch it is
    evaluated in, and the scalar arithmetic repeats the order of operations
    of the batched form, so the iterates are the same bit for bit as those
    of an ascent that steps every seed, frozen ones in place, at every step.
    """
    c0, c1 = map(float, cell)
    lo0, lo1 = map(float, lo)
    hi0, hi1 = map(float, hi)
    free0, free1 = float(hi0 > lo0), float(hi1 > lo1)

    def evaluate(points):
        pts = np.array(points, dtype=float).reshape(-1, 2)
        den, grad, hess = evaluator.denominator(pts[:, 0], pts[:, 1])
        return zip(den.tolist(), grad.tolist(), hess.tolist())

    def direction(grad, hess, f0, f1):
        """(d0, d1) in cell units, searching the axes whose flag is 1.0.

        A Newton step where the Hessian is positive definite, else a unit
        step down the gradient.
        """
        g0, g1 = grad[0] * c0 * f0, grad[1] * c1 * f1
        # A held axis gets a unit curvature and no slope: it never moves.
        # Adding 0.0 also turns a -0.0 into 0.0, as the batched form does.
        h00 = hess[0][0] * (c0 * c0 * f0) + (1.0 - f0)
        h01 = hess[0][1] * (c0 * c1 * (f0 * f1)) + 0.0
        h11 = hess[1][1] * (c1 * c1 * f1) + (1.0 - f1)
        det = h00 * h11 - h01 * h01
        if h00 > 0 and det > 0:
            return -(h11 * g0 - h01 * g1) / det, -(h00 * g1 - h01 * g0) / det
        slope = math.sqrt(g0 * g0 + g1 * g1)
        if not slope > 0:
            slope = 1.0
        return -g0 / slope, -g1 / slope

    def step(point, grad, hess):
        """(d0, d1, length) of the step from ``point``; a zero length reads
        as 1.0. An axis whose step leaves the box from its bound is held."""
        x0, x1 = point
        f0, f1 = free0, free1
        while True:
            d0, d1 = direction(grad, hess, f0, f1)
            out0 = f0 and (x0 <= lo0 and d0 < 0 or x0 >= hi0 and d0 > 0)
            out1 = f1 and (x1 <= lo1 and d1 < 0 or x1 >= hi1 and d1 > 0)
            if not (out0 or out1):
                break
            f0, f1 = (0.0 if out0 else f0), (0.0 if out1 else f1)
        length = math.sqrt(d0 * d0 + d1 * d1)
        return d0, d1, length if length > 0 else 1.0

    points = np.asarray(x, dtype=float).reshape(-1, 2).tolist()
    state = [(den, *step(point, grad, hess))
             for point, (den, grad, hess) in zip(points, evaluate(points))]
    radius = [_MAX_STEP_CELLS] * len(points)
    rejected = [None] * len(points)
    active = list(range(len(points)))
    for _ in range(_ASCENT_STEPS):
        moving, fresh, trials = [], [], []
        for i in active:
            x0, x1 = points[i]
            _, d0, d1, length = state[i]
            shrink = min(1.0, radius[i] / length)
            if length * shrink < _MIN_STEP_CELLS:
                continue
            trial = [min(max(x0 + d0 * shrink * c0, lo0), hi0),
                     min(max(x1 + d1 * shrink * c1, lo1), hi1)]
            if trial == points[i]:
                continue
            moving.append(i)
            if trial == rejected[i]:
                radius[i] /= 2.0
            else:
                fresh.append(i)
                trials.append(trial)
        if trials:
            for i, trial, (den, grad, hess) in zip(fresh, trials,
                                                   evaluate(trials)):
                if den < state[i][0]:
                    points[i] = trial
                    state[i] = (den, *step(trial, grad, hess))
                    radius[i] = min(2.0 * radius[i], _MAX_STEP_CELLS)
                else:
                    radius[i] /= 2.0
                    rejected[i] = trial
        active = moving
        if not active:
            break
    return np.array(points, dtype=float).reshape(-1, 2), \
        np.array([s[0] for s in state], dtype=float)


def refine_candidates(subspaces: Subspaces, grid_config: GridConfig,
                      grid: SpectrumGrid,
                      n_seeds: int) -> list[tuple[float, float, float]]:
    """Refine the ``n_seeds`` strongest points of ``grid``; merged, strongest
    first.

    The ascent runs in (r, sin theta), where the steering phase is linear,
    in the search box and grid cells of the geometry of ``grid_config``.
    Refined points pinned against a search-domain edge are dropped: they are
    boundary maxima, not spectrum peaks. In particular the aliased skirt of
    a near-zero-range target wraps in just below the unambiguous range and
    would otherwise masquerade as a detection there. The rest are merged on
    the denominators the ascent ends with, and only the survivors are
    valued, by :meth:`SpectrumEvaluator.value` on the noise side, at full
    precision.
    """
    geometry = grid_geometry(grid_config)
    lo, hi, cell = geometry.lo, geometry.hi, geometry.cell
    evaluator = SpectrumEvaluator(subspaces, geometry)
    flat = grid.values.ravel()
    order = np.argsort(-flat, kind="stable")[:min(n_seeds, flat.size)]
    rows, cols = np.divmod(order, grid.angles_rad.size)
    seeds = np.column_stack([grid.ranges_m[rows], np.sin(grid.angles_rad[cols])])
    refined, den = _ascend(evaluator, seeds, cell, lo, hi)
    margin = np.minimum(refined - lo, hi - refined) / cell
    pinned = np.any((margin < 1e-6) & (hi > lo), axis=1)
    peaks = [(r, math.asin(s), d) for (r, s), d in
             zip(refined[~pinned].tolist(), den[~pinned].tolist())]
    radius_r = _MERGE_RADIUS_CELLS * float(cell[0])
    radius_theta = _MERGE_RADIUS_CELLS * float(cell[1]) \
        if geometry.angles_rad.size > 1 else math.inf
    return [(r, th, evaluator.value(r, th))
            for r, th, _ in _merge_peaks(peaks, radius_r, radius_theta)]


def _no_signal_left(subspaces: Subspaces) -> bool:
    """True once no signal columns are left: the noise basis then spans C^M
    and the spectrum is exactly flat."""
    return subspaces.signal_basis.shape[1] == 0


def detect(subspaces: Subspaces, params: SteeringParams, grid_config: GridConfig,
           det_config: DetectorConfig) -> DetectionReport:
    """Run the configured peak selection routine and return all detections.

    The CFAR threshold is recomputed from the current coarse grid at every
    iteration: cancelation only shrinks the spectrum pointwise, so the
    threshold sequence is non-increasing and the final (reported) value
    bounds every detection. Re-deriving it keeps the gate tied to the
    remaining spectrum floor instead of the already-canceled peaks.

    A complete noise basis leaves no signal directions, so its spectrum is
    exactly flat and admits no peaks. The iteration loop therefore ends,
    without gridding or searching that spectrum, once the basis is complete:
    at once on an order-zero estimate, else once cancelations complete it. A
    survivor met after that point in the same iteration cannot be canceled
    and marks the report ``saturated``. The ``off`` routine reports the
    survivors of iteration 0 in merge order and cancels none.

    ``params`` must be the steering parameters of ``grid_config``: plans of
    equal sub-array size would otherwise cancel the wrong steering vectors.
    """
    if params != grid_geometry(grid_config).params:
        raise ConfigError("steering parameters do not match the grid config")
    grid = coarse_grid(subspaces, grid_config)
    gamma = cfar_threshold(grid, det_config.p_fa, det_config.kappa)
    spectra = 1
    current = subspaces
    detections: list[Detection] = []
    saturated = False
    for iteration in range(det_config.max_iterations):
        if _no_signal_left(current):
            break
        if iteration > 0:
            grid = coarse_grid(current, grid_config)
            spectra += 1
            gamma = cfar_threshold(grid, det_config.p_fa, det_config.kappa)
        merged = refine_candidates(current, grid_config, grid, det_config.n_seeds)
        survivors = [p for p in merged if p[2] >= gamma]
        if det_config.routine is Routine.OFF:
            detections = [Detection(r, th, val, iteration)
                          for r, th, val in survivors]
            break
        if not survivors:
            break
        appended = 0
        for r, th, val in sorted(survivors, key=lambda p: -p[2]):
            if _no_signal_left(current):
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
