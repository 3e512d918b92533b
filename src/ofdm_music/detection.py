"""Pseudospectrum peak search, CFAR gating and coherent target cancelation.

Peaks are seeded from the strongest coarse-grid samples, refined together by
a safeguarded Newton ascent, deduplicated, and gated against an
empirical-quantile CFAR threshold. Detected targets can be canceled by
moving the signal-span component of their steering vectors out of the
signal basis, so the spectrum can be re-estimated without a new
eigendecomposition.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import AlreadyCanceledError, ConfigError, DomainError
from .music import (GridConfig, SpectrumEvaluator, SpectrumGrid, Subspaces,
                    SteeringParams, coarse_grid, grid_geometry, point_steering)

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
    earlier cancelations of the same iteration had left no signal columns.
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


def cancel_target(subspaces: Subspaces, grid_config: GridConfig,
                  det: Detection) -> Subspaces:
    """Move the detected target's steering direction out of the signal basis.

    The steering vector c at the detection, built on the geometry of
    ``grid_config`` by the expression that valued it, is projected on the
    signal basis U_S, and u = U_S w / ||w|| with w = U_S^H c, its normalized
    component in the signal span, is taken out of it: the signal basis keeps
    the q - 1 directions orthogonal to u, and u joins the noise subspace,
    their orthogonal complement. That nulls the target in the re-estimated
    spectrum without recomputing the eigendecomposition. Raises
    :class:`AlreadyCanceledError` when the vector already lies in the noise
    span (||w|| <= 1e-8 sqrt(M), which includes an empty signal basis),
    which signals a duplicate detection.
    """
    c = point_steering(grid_geometry(grid_config).moments, det.range_m,
                       det.azimuth_rad)
    us = subspaces.signal_basis
    w = us.conj().T @ c
    norm = float(np.linalg.norm(w))
    if norm <= 1e-8 * math.sqrt(c.size):
        raise AlreadyCanceledError(
            f"steering at (r={det.range_m:.3f} m, theta={det.azimuth_rad:.4f} rad) "
            "already lies in the noise span")
    w /= norm
    # The Householder reflector that maps w, the coordinates of u in the
    # signal basis, onto the first axis is unitary and Hermitian, so its
    # other q - 1 columns are orthonormal and orthogonal to w. Its vector
    # y = w + e^{j arg w_0} ||w|| e_0 is built in place of w.
    w[0] += np.exp(1j * np.angle(w[0])) * np.linalg.norm(w)
    signal = us[:, 1:] - np.outer(us @ w, w[1:].conj() * (2.0 / np.vdot(w, w).real))
    return dataclasses.replace(subspaces, signal_basis=signal)


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

    The loop is plain Python floats: the points are two coordinate lists,
    a seed's denominator and step (d0, d1, length) sit in lists beside
    them, and its step is recomputed only when it accepts a move. Each
    batched call is a few tens of microseconds of numpy overhead, so the
    loop around it keeps its own cost to a few list reads and float
    comparisons per seed and step. A seed stops once its capped
    step is shorter than ``_MIN_STEP_CELLS``, which includes a point with
    both axes held, whose step has zero length; a stopped seed's state never
    changes again, so it would keep stopping. Each step evaluates every seed
    that has not stopped in one batched :meth:`SpectrumEvaluator.denominator`
    call, and the loop ends once every seed has stopped. The iterates are the
    same bit for bit as those of an ascent that steps every seed, stopped
    ones in place, at every step, because the denominator of a point does
    not depend on the batch it is evaluated in, and the scalar arithmetic
    repeats the order of operations of the batched form.
    """
    c0, c1 = map(float, cell)
    lo0, lo1 = map(float, lo)
    hi0, hi1 = map(float, hi)
    free0, free1 = float(hi0 > lo0), float(hi1 > lo1)

    def evaluate(r, s):
        den, grad, hess = evaluator.denominator(np.array(r), np.array(s))
        return zip(r, s, den.tolist(), grad.tolist(), hess.tolist())

    def step(x0, x1, grad, hess):
        """(d0, d1, length) of the step from (x0, x1) in cell units: a
        Newton step where the Hessian is positive definite, else a unit step
        down the gradient. An axis whose step leaves the box from its bound
        is held, and the step is taken again on the other axis."""
        (g0, g1), ((h00, h01), (_, h11)) = grad, hess
        f0, f1 = free0, free1
        while True:
            # A held axis (flag 0.0) gets a unit curvature and no slope: it
            # never moves. Adding 0.0 also turns a -0.0 into 0.0, as the
            # batched form does.
            k0, k1 = g0 * c0 * f0, g1 * c1 * f1
            k00 = h00 * (c0 * c0 * f0) + (1.0 - f0)
            k01 = h01 * (c0 * c1 * (f0 * f1)) + 0.0
            k11 = h11 * (c1 * c1 * f1) + (1.0 - f1)
            det = k00 * k11 - k01 * k01
            if k00 > 0 and det > 0:
                d0 = -(k11 * k0 - k01 * k1) / det
                d1 = -(k00 * k1 - k01 * k0) / det
            else:
                slope = math.sqrt(k0 * k0 + k1 * k1)
                if not slope > 0:
                    slope = 1.0
                d0, d1 = -k0 / slope, -k1 / slope
            out0 = f0 and (x0 <= lo0 and d0 < 0 or x0 >= hi0 and d0 > 0)
            out1 = f1 and (x1 <= lo1 and d1 < 0 or x1 >= hi1 and d1 > 0)
            if not (out0 or out1):
                return d0, d1, math.sqrt(d0 * d0 + d1 * d1)
            f0, f1 = (0.0 if out0 else f0), (0.0 if out1 else f1)

    x = np.asarray(x, dtype=float).reshape(-1, 2)
    xs0, xs1 = x[:, 0].tolist(), x[:, 1].tolist()
    dens, steps = [], []
    for x0, x1, den, grad, hess in evaluate(xs0, xs1):
        dens.append(den)
        steps.append(step(x0, x1, grad, hess))
    radius = [_MAX_STEP_CELLS] * len(dens)
    active = range(len(dens))
    for _ in range(_ASCENT_STEPS):
        moving, trial0, trial1 = [], [], []
        for i in active:
            d0, d1, length = steps[i]
            rad = radius[i]
            if length < _MIN_STEP_CELLS or rad < _MIN_STEP_CELLS:
                continue
            shrink = rad / length if rad < length else 1.0
            t0 = xs0[i] + d0 * shrink * c0
            t1 = xs1[i] + d1 * shrink * c1
            moving.append(i)
            trial0.append(lo0 if t0 < lo0 else hi0 if t0 > hi0 else t0)
            trial1.append(lo1 if t1 < lo1 else hi1 if t1 > hi1 else t1)
        if not moving:
            break
        for i, (t0, t1, den, grad, hess) in zip(moving,
                                                evaluate(trial0, trial1)):
            if den < dens[i]:
                xs0[i], xs1[i], dens[i] = t0, t1, den
                steps[i] = step(t0, t1, grad, hess)
                radius[i] = min(2.0 * radius[i], _MAX_STEP_CELLS)
            else:
                radius[i] /= 2.0
        active = moving
    return np.column_stack([xs0, xs1]), np.array(dens)


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
    valued, by :meth:`SpectrumEvaluator.value`: the residual of the
    signal-side projection, at full precision.
    """
    geometry = grid_geometry(grid_config)
    lo, hi, cell = geometry.lo, geometry.hi, geometry.cell
    evaluator = SpectrumEvaluator(subspaces, geometry)
    flat = grid.values.ravel()
    order = np.argsort(-flat, kind="stable")[:n_seeds]
    rows, cols = np.divmod(order, grid.angles_rad.size)
    seeds = np.column_stack([grid.ranges_m[rows], np.sin(grid.angles_rad[cols])])
    refined, den = _ascend(evaluator, seeds, cell, lo, hi)
    (lo0, lo1), (hi0, hi1), (c0, c1) = lo.tolist(), hi.tolist(), cell.tolist()
    # Pinned: within a millionth of a cell of a bound of a searched axis.
    peaks = [(r, math.asin(s), d)
             for (r, s), d in zip(refined.tolist(), den.tolist())
             if not (hi0 > lo0 and min(r - lo0, hi0 - r) / c0 < 1e-6
                     or hi1 > lo1 and min(s - lo1, hi1 - s) / c1 < 1e-6)]
    # A grid with one angle column holds the sine axis, so its peaks share
    # one azimuth and merge on range alone.
    radius_r = _MERGE_RADIUS_CELLS * c0
    radius_theta = _MERGE_RADIUS_CELLS * c1
    return [(r, th, evaluator.value(r, th))
            for r, th, _ in _merge_peaks(peaks, radius_r, radius_theta)]


def _no_signal_left(subspaces: Subspaces) -> bool:
    """True once no signal columns are left: the noise subspace is then all
    of C^M and the spectrum is exactly flat."""
    return subspaces.signal_basis.shape[1] == 0


def detect(subspaces: Subspaces, params: SteeringParams, grid_config: GridConfig,
           det_config: DetectorConfig) -> DetectionReport:
    """Run the configured peak selection routine and return all detections.

    The CFAR threshold is recomputed from the current coarse grid at every
    iteration: cancelation only shrinks the spectrum pointwise, so the
    threshold sequence is non-increasing and the final (reported) value
    bounds every detection. Re-deriving it keeps the gate tied to the
    remaining spectrum floor instead of the already-canceled peaks.

    A signal basis with no columns left gives an exactly flat spectrum,
    which admits no peaks. The iteration loop therefore ends, without
    gridding or searching that spectrum, once no signal columns are left:
    at once on an order-zero estimate, else once cancelations empty it. It
    also ends after an iteration that cancels nothing, survivors or not. A
    survivor met after that point in the same iteration cannot be canceled
    and marks the report ``saturated``. The ``off`` routine reports the
    survivors of iteration 0 in merge order and cancels none.

    Every steering vector comes from the geometry of ``grid_config``.
    ``params`` must be its steering parameters; the check only rejects an
    inconsistent caller.
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
        appended = 0
        for r, th, val in sorted(survivors, key=lambda p: -p[2]):
            if _no_signal_left(current):
                saturated = True
                break
            det = Detection(r, th, val, iteration)
            try:
                current = cancel_target(current, grid_config, det)
            except AlreadyCanceledError:
                continue   # converged onto an already-canceled peak; drop it
            detections.append(det)
            appended += 1
        if appended == 0:
            break
    return DetectionReport(detections=tuple(detections), threshold_used=gamma,
                           routine=det_config.routine, spectra_computed=spectra,
                           saturated=saturated)
