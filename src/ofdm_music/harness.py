"""Monte Carlo scenario generation, scoring rules and sweep execution.

Two-target trials draw a common base range and independent azimuths, move the
second target out by the sweep's range difference, and keep the random
geometry fixed across sweep points for a given trial index. Detection errors
follow the range-based assignment rule: with two detections the one nearer
the array maps to the nearer target; with fewer detections the coarse-grid
maximum (after canceling any detection already made) stands in for the
missing estimate.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .detection import (Detection, DetectionReport, DetectorConfig, GridConfig,
                        cancel_target, cfar_threshold, detect, refine_candidates)
from .errors import AlreadyCanceledError, ConfigError, DomainError
from .music import (DEFAULT_THETA_LIM_RAD, Subspaces, SteeringParams,
                    coarse_grid, decompose, steering_params)
from .signal_model import (RadioConfig, Target, TargetScene, scene_coefficient,
                           synthesize_csi)
from .smoothing import SubarrayPlan, covariance, smooth

logger = logging.getLogger(__name__)

# Sub-stream tags for the splittable seeding scheme.
_GEOMETRY_TAG = 0
_COEFF_TAG = 1
_NOISE_TAG = 2
_CALIBRATION_TAG = 3


@dataclass(frozen=True)
class ScenarioSpec:
    """Two-target Monte Carlo scenario definition."""

    n_trials: int
    snr_db: float
    range_diffs_m: tuple[float, ...] = (0.0,)
    free_placement: bool = False
    angle_range_deg: tuple[float, float] = (-60.0, 60.0)
    base_range_max_m: float = 25.0
    rng_seed: int = 0
    min_angle_sep_deg: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "range_diffs_m", tuple(self.range_diffs_m))
        if self.n_trials < 1:
            raise ConfigError(f"n_trials must be >= 1, got {self.n_trials}")
        if any(d < 0 for d in self.range_diffs_m):
            raise ConfigError("range differences must be nonnegative")
        if self.base_range_max_m <= 0:
            raise ConfigError("base_range_max_m must be positive")
        span = self.angle_range_deg[1] - self.angle_range_deg[0]
        if span <= 0:
            raise ConfigError("angle range must be nonempty")
        # Uniform azimuth pairs from the span are almost surely never this far
        # apart, so the rejection loop in generate_trial would never end.
        if self.min_angle_sep_deg >= span:
            raise ConfigError(
                f"min_angle_sep_deg={self.min_angle_sep_deg} must be below the "
                f"angle span of {span} deg")


@dataclass(frozen=True)
class TrialResult:
    truth: tuple[tuple[float, float], tuple[float, float]]
    report: DetectionReport
    assigned_errors: tuple[tuple[float, float], tuple[float, float]]
    missed: tuple[bool, bool]


@dataclass(frozen=True)
class SweepSummary:
    x_axis: tuple[float, ...]
    p_missed: tuple[float, ...]
    rmse_range_m: tuple[float, ...]
    rmse_azimuth_deg: tuple[float, ...]
    n_trials: int

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["x_value", "p_missed", "rmse_range_m",
                             "rmse_azimuth_deg", "n_trials"])
            for i, x in enumerate(self.x_axis):
                writer.writerow([repr(float(x)), repr(self.p_missed[i]),
                                 repr(self.rmse_range_m[i]),
                                 repr(self.rmse_azimuth_deg[i]), self.n_trials])


def _sub_seed(*entropy: int) -> int:
    """Deterministic integer sub-seed from a splittable entropy tuple."""
    return int(np.random.SeedSequence(list(entropy)).generate_state(1,
                                                                    np.uint64)[0])


def generate_trial(spec: ScenarioSpec, radio: RadioConfig, trial_index: int,
                   range_diff_m: float = 0.0) -> TargetScene:
    """Draw one two-target scene; geometry depends only on (seed, trial_index).

    The base range and both azimuths come from a per-trial stream so the same
    trial index yields the same geometry at every sweep point; only the
    second target's range moves with ``range_diff_m``. Coefficient phases are
    per-trial/per-target; magnitudes follow the inverse-square path loss at
    the actual ranges. The noise variance realizes the requested SNR against
    the noiseless CSI power.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([spec.rng_seed, _GEOMETRY_TAG, trial_index]))
    if spec.free_placement:
        r1, r2 = np.sort(rng.uniform(0.0, spec.base_range_max_m, 2))
    else:
        r1 = rng.uniform(0.0, spec.base_range_max_m)
        r2 = r1 + range_diff_m
    lo, hi = (math.radians(a) for a in spec.angle_range_deg)
    min_sep = math.radians(spec.min_angle_sep_deg)
    while True:
        th1, th2 = rng.uniform(lo, hi, 2)
        if abs(th1 - th2) >= min_sep:
            break
    targets = tuple(
        Target(range_m=float(r), azimuth_rad=float(th),
               coeff=scene_coefficient(
                   float(r), _sub_seed(spec.rng_seed, _COEFF_TAG, trial_index, q)))
        for q, (r, th) in enumerate(((r1, th1), (r2, th2))))
    bare = TargetScene(targets=targets, noise_variance=0.0)
    sigma2 = noise_variance_for_snr(bare, radio, spec.snr_db)
    return TargetScene(targets=targets, noise_variance=sigma2)


def noise_variance_for_snr(scene: TargetScene, config: RadioConfig,
                           snr_db: float) -> float:
    """Noise variance realizing ``snr_db`` against the mean noiseless CSI power."""
    if not scene.targets:
        raise DomainError("cannot set an SNR for a scene without targets")
    noiseless = TargetScene(targets=scene.targets, noise_variance=0.0)
    csi = synthesize_csi(config, noiseless, rng_seed=0)
    power = float(np.mean(np.abs(csi.data) ** 2))
    if power == 0.0:
        raise DomainError("scene has zero signal power")
    return power / (10.0 ** (snr_db / 10.0))


class ScoringContext:
    """Coarse-grid fallback estimates for trials with missed detections."""

    def __init__(self, subspaces: Subspaces, params: SteeringParams,
                 radio: RadioConfig, plan: SubarrayPlan,
                 theta_lim_rad: float = DEFAULT_THETA_LIM_RAD):
        self.subspaces = subspaces
        self.params = params
        self.grid_config = GridConfig(radio, plan, theta_lim_rad)

    def _argmax(self, subspaces: Subspaces) -> tuple[float, float]:
        g = self.grid_config
        r, th, _ = coarse_grid(subspaces, self.params, g.radio, g.plan,
                               g.theta_lim_rad).argmax()
        return r, th

    def grid_argmax(self) -> tuple[float, float]:
        return self._argmax(self.subspaces)

    def residual_argmax(self, canceled: list[tuple[float, float]]
                        ) -> tuple[float, float]:
        """Grid maximum after canceling the given (range, azimuth) points."""
        subs = self.subspaces
        for r, th in canceled:
            try:
                subs = cancel_target(subs, self.params, Detection(r, th, 0.0, 0))
            except AlreadyCanceledError:
                continue
        return self._argmax(subs)


def assign_and_score(truth, report: DetectionReport,
                     context: ScoringContext | None = None,
                     score_angle: bool = True) -> TrialResult:
    """Apply the range-based assignment rule and fall back to grid maxima.

    ``truth`` is ((r1, th1), (r2, th2)) with target 1 nearer. With two or
    more detections the two strongest are kept and the nearer-in-range one is
    assigned to target 1. A single detection always scores against target 1;
    target 2 then takes the coarse-grid maximum after canceling that
    detection. With no detections target 1 takes the plain grid maximum and
    target 2 proceeds as in the single-detection case.

    Angle errors are NaN when ``score_angle`` is false (range-only plans).
    """
    (r1, th1), (r2, th2) = truth
    if r1 > r2:
        raise DomainError("truth must be ordered with target 1 nearer the array")
    dets = report.detections
    if len(dets) >= 2:
        strongest = sorted(dets, key=lambda d: -d.spectrum_value)[:2]
        near, far = sorted(strongest, key=lambda d: d.range_m)
        est1, est2 = (near.range_m, near.azimuth_rad), (far.range_m, far.azimuth_rad)
        missed = (False, False)
    elif len(dets) == 1:
        if context is None:
            raise ConfigError("missed-detection scoring requires a ScoringContext")
        est1 = (dets[0].range_m, dets[0].azimuth_rad)
        est2 = context.residual_argmax([est1])
        missed = (False, True)
    else:
        if context is None:
            raise ConfigError("missed-detection scoring requires a ScoringContext")
        est1 = context.grid_argmax()
        est2 = context.residual_argmax([est1])
        missed = (True, True)
    err1 = (est1[0] - r1, est1[1] - th1 if score_angle else math.nan)
    err2 = (est2[0] - r2, est2[1] - th2 if score_angle else math.nan)
    return TrialResult(truth=((r1, th1), (r2, th2)), report=report,
                       assigned_errors=(err1, err2), missed=missed)


def trimmed_rmse(errors, trim: float = 0.01) -> float:
    """RMSE after dropping floor(trim * n) largest and smallest absolute errors."""
    a = np.sort(np.abs(np.asarray(errors, dtype=float)))
    n = a.size
    if n < 3:
        raise DomainError(f"trimmed RMSE needs at least 3 samples, got {n}")
    k = int(math.floor(trim * n))
    kept = a[k:n - k] if k > 0 else a
    return float(np.sqrt(np.mean(kept ** 2)))


def _rmse(errors) -> float:
    """Trimmed RMSE, or the identical untrimmed value for tiny samples.

    Below 100 samples the 1% trim count is zero anyway; this keeps smoke runs
    with one or two trials per sweep point working.
    """
    if len(errors) < 3:
        return float(np.sqrt(np.mean(np.abs(np.asarray(errors, float)) ** 2)))
    return trimmed_rmse(errors)


def run_trial(radio: RadioConfig, plan: SubarrayPlan, det_config: DetectorConfig,
              scene: TargetScene, noise_seed: int,
              theta_lim_rad: float = DEFAULT_THETA_LIM_RAD) -> TrialResult:
    """Synthesize, smooth, decompose, detect and score one two-target scene."""
    if len(scene.targets) != 2:
        raise ConfigError("run_trial scores exactly two targets")
    csi = synthesize_csi(radio, scene, noise_seed)
    subs = decompose(covariance(smooth(csi, plan)))
    params = steering_params(radio, plan)
    report = detect(subs, params, GridConfig(radio, plan, theta_lim_rad), det_config)
    ctx = ScoringContext(subs, params, radio, plan, theta_lim_rad)
    truth = tuple((t.range_m, t.azimuth_rad) for t in scene.targets)
    return assign_and_score(truth, report, ctx, score_angle=plan.n_sub_a > 1)


@contextmanager
def _trial_map(n_workers: int):
    """Yield ``map_trials(fn, job, n_trials)``, backed by one pool per block.

    ``map_trials`` returns ``[fn(job, t) for t in range(n_trials)]`` in trial
    order. With more than one worker every call shares a single process
    pool, opened on entry and shut down on exit.
    """
    with (ProcessPoolExecutor(max_workers=n_workers) if n_workers > 1
          else nullcontext()) as pool:
        def map_trials(fn, job, n_trials: int) -> list:
            if pool is None:
                return [fn(job, t) for t in range(n_trials)]
            chunk = max(1, n_trials // (8 * n_workers))
            return list(pool.map(fn, [job] * n_trials, range(n_trials),
                                 chunksize=chunk))
        yield map_trials


@dataclass(frozen=True)
class _TrialJob:
    spec: ScenarioSpec
    grid: GridConfig
    det_config: DetectorConfig
    range_diff_m: float
    sweep_index: int


def _run_trial_job(job: _TrialJob, trial_index: int
                   ) -> tuple[tuple[tuple[float, float], tuple[float, float]],
                              tuple[bool, bool]]:
    g = job.grid
    scene = generate_trial(job.spec, g.radio, trial_index, job.range_diff_m)
    noise_seed = _sub_seed(job.spec.rng_seed, _NOISE_TAG, trial_index,
                           job.sweep_index)
    result = run_trial(g.radio, g.plan, job.det_config, scene, noise_seed,
                       g.theta_lim_rad)
    return result.assigned_errors, result.missed


def run_sweep(spec: ScenarioSpec, radio: RadioConfig, plan: SubarrayPlan,
              det_config: DetectorConfig,
              theta_lim_rad: float = DEFAULT_THETA_LIM_RAD,
              first_target_only: bool = False,
              n_workers: int = 1) -> SweepSummary:
    """Run all trials at every sweep point and aggregate the metrics.

    Trials get independent sub-seeds, so the summary is bit-identical for any
    worker count; aggregation always runs in trial order. All sweep points
    share one process pool. Free-placement scenarios collapse to a single
    sweep point with a NaN x value.
    """
    grid = GridConfig(radio, plan, theta_lim_rad)
    x_values = (math.nan,) if spec.free_placement else spec.range_diffs_m
    p_missed, rmse_r, rmse_th = [], [], []
    with _trial_map(n_workers) as map_trials:
        for sweep_index, x in enumerate(x_values):
            diff = 0.0 if spec.free_placement else float(x)
            job = _TrialJob(spec=spec, grid=grid, det_config=det_config,
                            range_diff_m=diff, sweep_index=sweep_index)
            results = map_trials(_run_trial_job, job, spec.n_trials)
            missed_any = [any(m) for _, m in results]
            p_missed.append(float(np.mean(missed_any)))
            n_targets = 1 if first_target_only else 2
            range_errors = [errs[q][0] for errs, _ in results
                            for q in range(n_targets)]
            rmse_r.append(_rmse(range_errors))
            if plan.n_sub_a > 1:
                angle_errors = [math.degrees(errs[q][1])
                                for errs, _ in results for q in range(n_targets)]
                rmse_th.append(_rmse(angle_errors))
            else:
                rmse_th.append(math.nan)
            logger.info("sweep point %s/%s (x=%s): p_missed=%.4f rmse_r=%.4f",
                        sweep_index + 1, len(x_values), x, p_missed[-1], rmse_r[-1])
    return SweepSummary(x_axis=tuple(float(x) for x in x_values),
                        p_missed=tuple(p_missed), rmse_range_m=tuple(rmse_r),
                        rmse_azimuth_deg=tuple(rmse_th), n_trials=spec.n_trials)


@dataclass(frozen=True)
class _CalibrationJob:
    grid: GridConfig
    det_config: DetectorConfig
    noise_variance: float
    rng_seed: int


def _calibration_pivot(job: _CalibrationJob, trial_index: int) -> float:
    g = job.grid
    seed = _sub_seed(job.rng_seed, _CALIBRATION_TAG, trial_index)
    scene = TargetScene(targets=(), noise_variance=job.noise_variance)
    csi = synthesize_csi(g.radio, scene, seed)
    subs = decompose(covariance(smooth(csi, g.plan)))
    if subs.order_estimate == 0:
        return 0.0   # flat spectrum: the detector cannot alarm on this trial
    params = steering_params(g.radio, g.plan)
    grid = coarse_grid(subs, params, g.radio, g.plan, g.theta_lim_rad)
    peaks = refine_candidates(subs, params, grid, job.det_config,
                              g.theta_lim_rad, job.det_config.n_seeds)
    if not peaks:   # every refinement pinned at a domain edge: nothing to alarm
        return 0.0
    return max(p[2] for p in peaks) / cfar_threshold(grid, job.det_config.p_fa)


def calibrate_kappa(radio: RadioConfig, plan: SubarrayPlan,
                    det_config: DetectorConfig,
                    theta_lim_rad: float = DEFAULT_THETA_LIM_RAD,
                    n_trials: int = 1000, rng_seed: int = 0,
                    noise_variance: float = 1.0, n_workers: int = 1) -> float:
    """Noise-only calibration of the CFAR scale factor kappa.

    Each noise-only trial yields the pivot (strongest refined peak) /
    (grid quantile); kappa is the (1 - p_fa) quantile of the pivots, so the
    probability that a noise-only trial produces any peak above
    kappa * quantile approximates p_fa. Deterministic for a given seed.
    """
    job = _CalibrationJob(grid=GridConfig(radio, plan, theta_lim_rad),
                          det_config=det_config, noise_variance=noise_variance,
                          rng_seed=rng_seed)
    with _trial_map(n_workers) as map_trials:
        pivots = map_trials(_calibration_pivot, job, n_trials)
    return max(1.0, float(np.quantile(pivots, 1.0 - det_config.p_fa)))


def write_sweep_outputs(summary: SweepSummary, out_dir, metadata: dict) -> tuple:
    """Write sweep.csv plus a sweep.json sidecar; returns both paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "sweep.csv")
    json_path = os.path.join(out_dir, "sweep.json")
    summary.to_csv(csv_path)
    doc = dict(metadata)
    doc["summary"] = {
        "x_axis": list(summary.x_axis),
        "p_missed": list(summary.p_missed),
        "rmse_range_m": list(summary.rmse_range_m),
        "rmse_azimuth_deg": list(summary.rmse_azimuth_deg),
        "n_trials": summary.n_trials,
    }
    with open(json_path, "w") as f:
        json.dump(doc, f, indent=2, allow_nan=True)
    return csv_path, json_path
