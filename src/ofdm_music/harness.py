"""Monte Carlo scenario generation, scoring rules and sweep execution.

Two-target trials draw a common base range and independent azimuths, move the
second target out by the sweep's range difference, and keep the random
geometry fixed across sweep points for a given trial index. Detection errors
follow the range-based assignment rule: with two detections the one nearer
the array maps to the nearer target; with fewer detections a missing
estimate takes the strongest sample of the trial's coarse grid outside the
main lobe of the estimate already made.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import glob
import json
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

import numpy as np

from .detection import (DetectionReport, DetectorConfig, cfar_threshold,
                        detect, empirical_quantile, refine_candidates)
from .errors import ConfigError, DomainError
from .music import (DEFAULT_THETA_LIM_RAD, GridConfig, SpectrumGrid, Subspaces,
                    coarse_grid, decompose, grid_geometry)
from .signal_model import (RadioConfig, Target, TargetScene, noiseless_power,
                           scene_coefficient, synthesize_csi)
from .smoothing import SubarrayPlan, covariance, smooth

logger = logging.getLogger(__name__)

# Sub-stream tags for the splittable seeding scheme.
_GEOMETRY_TAG = 0
_COEFF_TAG = 1
_NOISE_TAG = 2
_CALIBRATION_TAG = 3

# Half-width, in grid cells on both axes, of the main lobe (+-1 resolution
# cell, +-2 grid cells) masked around a point. The extra half cell keeps grid
# samples off the mask edge when the point is one, so rounding never sets it.
_MAIN_LOBE_CELLS = 2.5

# The widest SNR a scenario may ask for. 10 ** (snr_db / 10) overflows a
# float past about 3,080 dB; +-300 dB is far beyond any noise level.
MAX_ABS_SNR_DB = 300.0
# The base ranges a scenario may draw from. Over this span the inverse-square
# coefficients and their noise variances stay normal floats at any allowed
# SNR, while they overflow near 1e-300 m and underflow to 0 near 1e300 m.
BASE_RANGE_LIMITS_M = (1e-3, 1e12)


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
        # Every check is written so that NaN fails it.
        object.__setattr__(self, "range_diffs_m", tuple(self.range_diffs_m))
        if self.n_trials < 1:
            raise ConfigError(f"n_trials must be >= 1, got {self.n_trials}")
        if self.rng_seed < 0:   # SeedSequence takes only nonnegative entropy
            raise ConfigError(f"seed must be >= 0, got {self.rng_seed}")
        if not (self.range_diffs_m or self.free_placement):
            raise ConfigError("a sweep needs at least one range difference")
        if not abs(self.snr_db) <= MAX_ABS_SNR_DB:
            raise ConfigError(f"snr_db must lie in [-{MAX_ABS_SNR_DB:g}, "
                              f"{MAX_ABS_SNR_DB:g}] dB, got {self.snr_db}")
        if not all(0 <= d < math.inf for d in self.range_diffs_m):
            raise ConfigError("range differences must be finite and nonnegative")
        r_lo, r_hi = BASE_RANGE_LIMITS_M
        if not r_lo <= self.base_range_max_m <= r_hi:
            raise ConfigError(f"base_range_max_m must lie in [{r_lo:g}, {r_hi:g}] "
                              f"m, got {self.base_range_max_m}")
        lo, hi = self.angle_range_deg
        if not -90.0 < lo < hi < 90.0:
            raise ConfigError(f"angle range {self.angle_range_deg} deg must be "
                              "nonempty and inside (-90, 90)")
        span = hi - lo
        # Uniform azimuth pairs from the span are almost surely never this far
        # apart, so the rejection loop in generate_trial would never end.
        if not self.min_angle_sep_deg < span:
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
    """Noise variance realizing ``snr_db`` against the mean noiseless CSI power.

    That power is the closed form of :func:`noiseless_power`, O(Q^2) in the
    number of targets; no CSI is synthesized and no random number drawn.
    """
    if not scene.targets:
        raise DomainError("cannot set an SNR for a scene without targets")
    power = noiseless_power(config, scene.targets)
    if not power > 0.0:
        raise DomainError(f"scene signal power {power!r} is not positive")
    return power / (10.0 ** (snr_db / 10.0))


class ScoringContext:
    """Stand-ins for missed targets, read off the trial's first coarse grid,
    built on first use. The grid projects on the signal basis, so an order-0
    estimate's grid is exactly 1 / M everywhere, and its stand-ins are the
    first unmasked samples in grid order (``argmax`` takes the first of equal
    maxima): fixed by the geometry, not picked by rounding."""

    def __init__(self, subspaces: Subspaces, grid_config: GridConfig):
        self.subspaces = subspaces
        self.grid_config = grid_config

    @functools.cached_property
    def grid(self) -> SpectrumGrid:
        return coarse_grid(self.subspaces, self.grid_config)

    def grid_argmax(self) -> tuple[float, float]:
        r, th, _ = self.grid.argmax()
        return r, th

    def residual_argmax(self, canceled: list[tuple[float, float]]
                        ) -> tuple[float, float]:
        """Strongest grid sample outside ``_MAIN_LOBE_CELLS`` cells on both axes
        of each point; ranges wrap at r_max, their steering phase's period."""
        grid, g = self.grid, grid_geometry(self.grid_config)
        r_max, values = g.params.r_max_m, grid.values.copy()
        for r, th in canceled:
            dr = (grid.ranges_m - r) % r_max
            near_r = np.minimum(dr, r_max - dr) < _MAIN_LOBE_CELLS * g.cell[0]
            near_th = np.abs(grid.angles_rad - th) < _MAIN_LOBE_CELLS * g.cell[1]
            values[np.ix_(near_r, near_th)] = -np.inf
        r, th, _ = SpectrumGrid(grid.ranges_m, grid.angles_rad, values).argmax()
        return r, th


def assign_and_score(truth, report: DetectionReport,
                     context: ScoringContext | None = None,
                     score_angle: bool = True) -> TrialResult:
    """Apply the range-based assignment rule and fall back to grid maxima.

    ``truth`` is ((r1, th1), (r2, th2)) with target 1 nearer. With two or
    more detections the two strongest are kept and the nearer-in-range one is
    assigned to target 1. A single detection always scores against target 1;
    target 2 then takes the strongest coarse-grid sample outside that
    detection's main lobe. With no detections target 1 takes the plain grid
    maximum and target 2 the strongest sample outside its main lobe.

    Angle errors are NaN when ``score_angle`` is false (a grid with one
    angle column, on which no azimuth is estimated).
    """
    (r1, th1), (r2, th2) = truth
    if r1 > r2:
        raise DomainError("truth must be ordered with target 1 nearer the array")
    dets = report.detections
    if len(dets) < 2 and context is None:
        raise ConfigError("missed-detection scoring requires a ScoringContext")
    if len(dets) >= 2:
        strongest = sorted(dets, key=lambda d: -d.spectrum_value)[:2]
        near, far = sorted(strongest, key=lambda d: d.range_m)
        est1, est2 = (near.range_m, near.azimuth_rad), (far.range_m, far.azimuth_rad)
        missed = (False, False)
    else:
        est1 = (dets[0].range_m, dets[0].azimuth_rad) if dets \
            else context.grid_argmax()
        est2 = context.residual_argmax([est1])
        missed = (not dets, True)
    err1 = (est1[0] - r1, est1[1] - th1 if score_angle else math.nan)
    err2 = (est2[0] - r2, est2[1] - th2 if score_angle else math.nan)
    return TrialResult(truth=((r1, th1), (r2, th2)), report=report,
                       assigned_errors=(err1, err2), missed=missed)


def trimmed_rmse(errors) -> float:
    """RMSE after dropping the floor(0.01 * n) largest and smallest absolute
    errors (none below 100 samples: the plain RMSE). NaN errors, azimuths
    that were not estimated, give NaN."""
    a = np.sort(np.abs(np.asarray(errors, dtype=float)))
    n = a.size
    if n < 1:
        raise DomainError("RMSE of no samples")
    k = int(math.floor(0.01 * n))
    kept = a[k:n - k]
    with np.errstate(over="ignore"):
        rmse = float(np.sqrt(np.mean(kept ** 2)))
    if math.isinf(rmse) and math.isfinite(kept[-1]):
        # The squares overflowed; the RMSE is at most the largest error, so
        # it is finite once the errors are scaled by that error.
        rmse = float(kept[-1] * np.sqrt(np.mean((kept / kept[-1]) ** 2)))
    return rmse


def run_trial(radio: RadioConfig, plan: SubarrayPlan, det_config: DetectorConfig,
              scene: TargetScene, noise_seed: int,
              theta_lim_rad: float = DEFAULT_THETA_LIM_RAD) -> TrialResult:
    """Synthesize, smooth, decompose, detect and score one two-target scene."""
    if len(scene.targets) != 2:
        raise ConfigError("run_trial scores exactly two targets")
    csi = synthesize_csi(radio, scene, noise_seed)
    subs = decompose(covariance(smooth(csi, plan)))
    grid_config = GridConfig(radio, plan, theta_lim_rad)
    geometry = grid_geometry(grid_config)
    report = detect(subs, geometry.params, grid_config, det_config)
    ctx = ScoringContext(subs, grid_config)
    truth = tuple((t.range_m, t.azimuth_rad) for t in scene.targets)
    # With one angle column the sine axis is held: no azimuth is estimated.
    return assign_and_score(truth, report, ctx,
                            score_angle=geometry.angles_rad.size > 1)


def _openblas_function(name: str):
    """The OpenBLAS function ``name`` (say ``"set_num_threads"``) of the
    library bundled with numpy, or None where there is none."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                       "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_",
                       f"openblas_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn
    return None


def _pin_blas_threads() -> None:
    """Pool-worker initializer: one OpenBLAS thread per worker process.

    A forked worker inherits the parent's BLAS thread count, so N workers
    would each run one BLAS thread per core and contend for them. Threads
    set by the user through OPENBLAS_NUM_THREADS or OMP_NUM_THREADS are
    left as they are.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ:
        return
    set_threads = _openblas_function("set_num_threads")
    if set_threads is not None:
        set_threads(1)


@contextmanager
def _trial_map(n_workers: int):
    """Yield ``map_trials(fn, n_trials)``, backed by one pool per block.

    ``map_trials`` returns ``[fn(t) for t in range(n_trials)]`` in trial
    order. With more than one worker every call shares a single process
    pool, opened on entry and shut down on exit; its workers run OpenBLAS on
    one thread each.
    """
    with (ProcessPoolExecutor(max_workers=n_workers,
                              initializer=_pin_blas_threads) if n_workers > 1
          else nullcontext()) as pool:
        def map_trials(fn, n_trials: int) -> list:
            if pool is None:
                return [fn(t) for t in range(n_trials)]
            chunk = max(1, n_trials // (8 * n_workers))
            return list(pool.map(fn, range(n_trials), chunksize=chunk))
        yield map_trials


def _sweep_trial(spec: ScenarioSpec, grid: GridConfig, det_config: DetectorConfig,
                 range_diff_m: float, sweep_index: int, trial_index: int
                 ) -> tuple[tuple[tuple[float, float], tuple[float, float]],
                            tuple[bool, bool]]:
    scene = generate_trial(spec, grid.radio, trial_index, range_diff_m)
    noise_seed = _sub_seed(spec.rng_seed, _NOISE_TAG, trial_index, sweep_index)
    result = run_trial(grid.radio, grid.plan, det_config, scene, noise_seed,
                       grid.theta_lim_rad)
    return result.assigned_errors, result.missed


def run_sweep(spec: ScenarioSpec, radio: RadioConfig, plan: SubarrayPlan,
              det_config: DetectorConfig,
              theta_lim_rad: float = DEFAULT_THETA_LIM_RAD,
              first_target_only: bool = False,
              n_workers: int = 1) -> SweepSummary:
    """Run all trials at every sweep point and aggregate the metrics.

    Trials get independent sub-seeds, so the summary is bit-identical for any
    worker count; aggregation always runs in trial order. All sweep points
    share one process pool, of at most one worker per trial. Free-placement
    scenarios collapse to a single sweep point with a NaN x value. On a grid
    with one angle column every azimuth error is NaN, and so is their RMSE.
    """
    grid = GridConfig(radio, plan, theta_lim_rad)
    x_values = (math.nan,) if spec.free_placement else spec.range_diffs_m
    p_missed, rmse_r, rmse_th = [], [], []
    with _trial_map(min(n_workers, spec.n_trials)) as map_trials:
        for sweep_index, x in enumerate(x_values):
            diff = 0.0 if spec.free_placement else float(x)
            trial = functools.partial(_sweep_trial, spec, grid, det_config, diff,
                                      sweep_index)
            results = map_trials(trial, spec.n_trials)
            missed_any = [any(m) for _, m in results]
            p_missed.append(float(np.mean(missed_any)))
            n_targets = 1 if first_target_only else 2
            range_errors = [errs[q][0] for errs, _ in results
                            for q in range(n_targets)]
            rmse_r.append(trimmed_rmse(range_errors))
            angle_errors = [math.degrees(errs[q][1])
                            for errs, _ in results for q in range(n_targets)]
            rmse_th.append(trimmed_rmse(angle_errors))
            logger.info("sweep point %s/%s (x=%s): p_missed=%.4f rmse_r=%.4f",
                        sweep_index + 1, len(x_values), x, p_missed[-1], rmse_r[-1])
    return SweepSummary(x_axis=tuple(float(x) for x in x_values),
                        p_missed=tuple(p_missed), rmse_range_m=tuple(rmse_r),
                        rmse_azimuth_deg=tuple(rmse_th), n_trials=spec.n_trials)


def _calibration_pivot(grid: GridConfig, det_config: DetectorConfig,
                       rng_seed: int, trial_index: int) -> float:
    seed = _sub_seed(rng_seed, _CALIBRATION_TAG, trial_index)
    # Unit variance: MDL and the pivot ratio do not depend on the noise scale.
    scene = TargetScene(targets=(), noise_variance=1.0)
    csi = synthesize_csi(grid.radio, scene, seed)
    subs = decompose(covariance(smooth(csi, grid.plan)))
    if subs.signal_basis.shape[1] == 0:
        return 0.0   # flat spectrum: the detector cannot alarm on this trial
    spectrum = coarse_grid(subs, grid)
    peaks = refine_candidates(subs, grid, spectrum, det_config.n_seeds)
    if not peaks:   # every refinement pinned at a domain edge: nothing to alarm
        return 0.0
    return max(p[2] for p in peaks) / cfar_threshold(spectrum, det_config.p_fa)


def calibrate_kappa(radio: RadioConfig, plan: SubarrayPlan,
                    det_config: DetectorConfig,
                    theta_lim_rad: float = DEFAULT_THETA_LIM_RAD,
                    n_trials: int = 1000, rng_seed: int = 0,
                    n_workers: int = 1) -> float:
    """Noise-only calibration of the CFAR scale factor kappa.

    Each noise-only trial yields the pivot (strongest refined peak) /
    (grid quantile); kappa is the (1 - p_fa) quantile of the pivots, so the
    probability that a noise-only trial produces any peak above
    kappa * quantile approximates p_fa. Deterministic for a given seed.
    """
    if n_trials < 1:
        raise ConfigError(f"n_trials must be >= 1, got {n_trials}")
    if rng_seed < 0:
        raise ConfigError(f"seed must be >= 0, got {rng_seed}")
    pivot = functools.partial(_calibration_pivot,
                              GridConfig(radio, plan, theta_lim_rad), det_config,
                              rng_seed)
    with _trial_map(min(n_workers, n_trials)) as map_trials:
        pivots = map_trials(pivot, n_trials)
    return max(1.0, empirical_quantile(pivots, 1.0 - det_config.p_fa))


def write_sweep_outputs(summary: SweepSummary, out_dir, metadata: dict) -> tuple:
    """Write sweep.csv plus a sweep.json sidecar; returns both paths.

    sweep.json is strict JSON. The two NaN values a summary has by design,
    the x value of free placement and the azimuth RMSE of a grid with one
    angle column, which sweep.csv writes as ``nan``, are ``null`` there; any
    other value that is not finite raises ``ValueError``.
    """
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "sweep.csv")
    json_path = os.path.join(out_dir, "sweep.json")
    summary.to_csv(csv_path)
    fields = asdict(summary)
    for key in ("x_axis", "rmse_azimuth_deg"):
        fields[key] = [None if math.isnan(x) else x for x in fields[key]]
    with open(json_path, "w") as f:
        json.dump(dict(metadata, summary=fields), f, indent=2, allow_nan=False)
    return csv_path, json_path
