"""The four benchmark workloads: seeded inputs, timed operations, output checks.

Each workload is a closed loop with one client. An operation is prepared
(untimed), executed (timed) and checked (untimed). Inputs depend only on the
benchmark seed and the operation index, so a rerun of one seed repeats them.
Import this module only after ``ofdm_music`` is importable.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
from time import perf_counter

import numpy as np

import ofdm_music as om
import speed
from ofdm_music import config as om_config
from ofdm_music import harness as om_harness
from ofdm_music.presets import baseline_plan, baseline_radio

# Entropy tags of the benchmark's own seed streams.
_TRIAL_NOISE_TAG = 11
_CALIBRATION_TAG = 12
_FRAME_ORDER_TAG = 13
_FRAME_TAG = 14
_SWEEP_TAG = 15


def sub_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1, np.uint64)[0])


def finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None where it cannot be read."""
    import ctypes
    import glob
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def worker_blas_threads(_):
    return blas_threads()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _detections_ok(detections, r_max: float, theta_lim: float) -> list[str]:
    problems = []
    for d in detections:
        if not finite(d.range_m, d.azimuth_rad, d.spectrum_value):
            problems.append(f"non-finite detection {d}")
        elif not (0.0 <= d.range_m < r_max and abs(d.azimuth_rad) <= theta_lim + 1e-9):
            problems.append(f"detection outside the search domain {d}")
    return problems


class Workload:
    """Common interface; subclasses set the class attributes and methods."""

    unit = "trials"          # what units_per_op counts
    units_per_op = 1
    op_quantum = 1           # loops stop only at multiples of this many ops
    min_ops = 100            # enough for a p90 with ten samples beyond it
    quality_ops = 100        # leading ops whose outputs give the quality figures

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int):
        return i

    def execute(self, prepared):
        raise NotImplementedError

    def timed_parts(self, op_seconds: float) -> list[tuple]:
        """Latency samples of the last operation, as (seconds, reference).

        ``reference`` is the speed reference time measured around that sample,
        or None to use the samples the closed loop takes between operations.
        """
        return [(op_seconds, None)]

    def check(self, prepared, output) -> list[str]:
        raise NotImplementedError

    def fingerprint(self, output) -> str:
        """Exact text of an output, for equality between runs."""
        return repr(output)

    def quality(self, pairs) -> tuple[dict, list[str]]:
        """Quality figures and band violations over (prepared, output) pairs."""
        raise NotImplementedError

    def rerun_check(self, outputs, count: int = 2) -> list[str]:
        """Run the first ``count`` operations again; outputs must repeat exactly."""
        problems = []
        for i, output in enumerate(outputs[:count]):
            if isinstance(output, Exception):
                continue
            if self.fingerprint(self.execute(self.prepare(i))) != \
                    self.fingerprint(output):
                problems.append(f"operation {i} gave another output when run again")
        return problems

    def close(self) -> None:
        pass


class McSweep(Workload):
    """Two-target Monte Carlo on the baseline plan, one trial per operation.

    Trials alternate between range differences 0 m and 1 m; trial ``t`` of the
    seed keeps its geometry at both differences, as a sweep does.
    """

    range_diffs_m = (0.0, 1.0)

    def setup(self):
        self.radio = baseline_radio()
        self.plan = baseline_plan(self.radio)
        self.det = om.DetectorConfig(routine=om.Routine.MULTIPLE)
        self.theta_lim = om.DEFAULT_THETA_LIM_RAD
        self.spec = om.ScenarioSpec(n_trials=1, snr_db=15.0,
                                    range_diffs_m=self.range_diffs_m,
                                    base_range_max_m=22.5, rng_seed=self.seed)
        self.r_max = om.steering_params(self.radio, self.plan).r_max_m

    def prepare(self, i):
        trial, point = divmod(i, len(self.range_diffs_m))
        return trial, point

    def execute(self, prepared):
        trial, point = prepared
        scene = om.generate_trial(self.spec, self.radio, trial,
                                  self.range_diffs_m[point])
        noise_seed = sub_seed(self.seed, _TRIAL_NOISE_TAG, trial, point)
        return om.run_trial(self.radio, self.plan, self.det, scene, noise_seed,
                            self.theta_lim)

    def check(self, prepared, result):
        problems = _detections_ok(result.report.detections, self.r_max,
                                  self.theta_lim)
        errors = [e for pair in result.assigned_errors for e in pair]
        if len(errors) != 4 or not finite(*errors):
            problems.append(f"malformed errors {result.assigned_errors}")
        if not finite(result.report.threshold_used):
            problems.append("non-finite threshold")
        if any(not isinstance(m, bool) for m in result.missed):
            problems.append(f"malformed missed flags {result.missed}")
        return problems

    def fingerprint(self, result):
        dets = [(d.range_m, d.azimuth_rad, d.spectrum_value, d.iteration)
                for d in result.report.detections]
        return repr((result.assigned_errors, result.missed, dets,
                     result.report.threshold_used))

    def quality(self, pairs):
        results = [r for _, r in pairs]
        range_err = [e[0] for r in results for e in r.assigned_errors]
        angle_err = [math.degrees(e[1]) for r in results for e in r.assigned_errors]
        q = {
            "trials": len(results),
            "p_missed": float(np.mean([any(r.missed) for r in results])),
            "rmse_range_m": om.trimmed_rmse(range_err),
            "rmse_azimuth_deg": om.trimmed_rmse(angle_err),
            "median_abs_range_err_m": float(np.median(np.abs(range_err))),
            "median_abs_azimuth_err_deg": float(np.median(np.abs(angle_err))),
        }
        return q, _band(q, {"p_missed": 0.4, "median_abs_range_err_m": 0.05,
                            "median_abs_azimuth_err_deg": 1.0})


class Calibrate(Workload):
    """Noise-only CFAR calibration; one ``calibrate_kappa`` call per operation."""

    trials_per_call = 25
    units_per_op = trials_per_call

    def setup(self):
        self.radio = baseline_radio()
        self.plan = baseline_plan(self.radio)
        self.det = om.DetectorConfig()

    def execute(self, i):
        return om.calibrate_kappa(self.radio, self.plan, self.det,
                                  n_trials=self.trials_per_call,
                                  rng_seed=sub_seed(self.seed, _CALIBRATION_TAG, i),
                                  n_workers=1)

    def check(self, _, kappa):
        if not finite(kappa) or kappa < 1.0:
            return [f"kappa {kappa!r} is not a finite value >= 1"]
        return []

    def quality(self, pairs):
        kappas = [k for _, k in pairs]
        return {"calls": len(kappas), "kappa_median": float(np.median(kappas)),
                "kappa_max": float(np.max(kappas))}, []


@dataclasses.dataclass(frozen=True)
class Frame:
    path: str
    truth: tuple            # ((range_m, azimuth_rad), ...)
    snr_db: float


class EstimateFrames(Workload):
    """CSI frames with 0-4 targets through the ``estimate`` path, one per op.

    Every block of five consecutive frames holds one frame of each target
    count, in a seeded order, so the latency mix is the same on every seed.
    """

    unit = "frames"
    op_quantum = 5
    max_targets = 4
    snr_db_range = (5.0, 25.0)
    range_span_m = (1.0, 22.5)
    angle_span_deg = (-55.0, 55.0)
    noise_only_variance = 1e-4
    # A target counts as found when a detection lies this close to it.
    match_m, match_deg = 1.0, 5.0

    def __init__(self, seed, work_dir):
        super().__init__(seed)
        self.work_dir = work_dir

    def setup(self):
        self.radio = baseline_radio()
        self.plan = baseline_plan(self.radio)
        self.det = om.DetectorConfig()
        self.params = om.steering_params(self.radio, self.plan)
        self.grid_config = om.GridConfig(self.radio, self.plan)
        os.makedirs(self.work_dir, exist_ok=True)
        self.path = os.path.join(self.work_dir, f"frame-{os.getpid()}.csi")

    def prepare(self, i):
        block, slot = divmod(i, self.op_quantum)
        order = np.random.default_rng(
            sub_seed(self.seed, _FRAME_ORDER_TAG, block)).permutation(
                self.max_targets + 1)
        n_targets = int(order[slot])
        rng = np.random.default_rng(sub_seed(self.seed, _FRAME_TAG, i))
        targets = tuple(
            om.Target(range_m=float(r), azimuth_rad=math.radians(float(a)),
                      coeff=om.scene_coefficient(float(r), int(s)))
            for r, a, s in zip(rng.uniform(*self.range_span_m, n_targets),
                               rng.uniform(*self.angle_span_deg, n_targets),
                               rng.integers(0, 2**62, n_targets)))
        snr_db = float(rng.uniform(*self.snr_db_range))
        if targets:
            sigma2 = om.noise_variance_for_snr(
                om.TargetScene(targets, 0.0), self.radio, snr_db)
        else:
            sigma2 = self.noise_only_variance
        csi = om.synthesize_csi(self.radio, om.TargetScene(targets, sigma2),
                                int(rng.integers(0, 2**62)))
        csi.to_binary(self.path)
        return Frame(self.path, tuple((t.range_m, t.azimuth_rad) for t in targets),
                     snr_db)

    def execute(self, frame):
        csi = om.CsiMatrix.from_binary(frame.path, self.radio)
        subspaces = om.decompose(om.covariance(om.smooth(csi, self.plan)))
        report = om.detect(subspaces, self.params, self.grid_config, self.det)
        return report.to_json()

    def check(self, frame, text):
        try:
            doc = json.loads(text)
            dets = [(d["range_m"], d["azimuth_deg"], d["value"]) for d in
                    doc["detections"]]
            fields = (doc["gamma"], doc["spectra_computed"])
        except (ValueError, KeyError, TypeError) as exc:
            return [f"malformed report: {exc!r}"]
        problems = []
        if not finite(*fields, *(v for d in dets for v in d)):
            problems.append("non-finite value in report")
        lim_deg = math.degrees(self.grid_config.theta_lim_rad)
        if any(not (0.0 <= r < self.params.r_max_m and abs(a) <= lim_deg + 1e-6)
               for r, a, _ in dets):
            problems.append("detection outside the search domain")
        return problems

    def fingerprint(self, text):
        return text

    def quality(self, pairs):
        n_targets = found = false_alarms = empty = 0
        for frame, text in pairs:
            dets = [(d["range_m"], d["azimuth_deg"])
                    for d in json.loads(text)["detections"]]
            n_targets += len(frame.truth)
            found += sum(any(abs(r - tr) <= self.match_m
                             and abs(a - math.degrees(ta)) <= self.match_deg
                             for r, a in dets) for tr, ta in frame.truth)
            if not frame.truth:
                empty += 1
                false_alarms += len(dets)
        q = {"frames": len(pairs), "targets": n_targets,
             "p_missed": 1.0 - found / max(1, n_targets),
             "false_alarms_per_empty_frame": false_alarms / max(1, empty)}
        return q, _band(q, {"p_missed": 0.6})

    def close(self):
        if os.path.exists(self.path):
            os.remove(self.path)
        try:
            os.rmdir(self.work_dir)
        except OSError:
            pass   # another run still uses it


class _PointClock(logging.Handler):
    """Times sweep points from the progress record ``run_sweep`` logs after each.

    Between two points no pool worker runs, so the handler also takes a speed
    reference sample there; its own time is left out of the point times.
    """

    def __init__(self):
        super().__init__(logging.INFO)
        self.start()

    def start(self):
        self.reference = [speed.sample()]
        self.marks = [perf_counter()]        # end of the previous sample
        self.points = []

    def emit(self, record):
        if record.msg.startswith("sweep point"):
            now = perf_counter()
            self.points.append(now - self.marks[-1])
            self.reference.append(speed.sample())
            self.marks.append(perf_counter())


class McSweepParallel(Workload):
    """The bundled fig2_desk sweep, few trials per point, on every core.

    One operation is one ``run_sweep`` call over all sweep points; latency
    samples are the times of single sweep points, taken from the per-point
    progress records the harness logs.
    """

    trials_per_point = 4
    min_ops = 4
    quality_ops = 1

    def __init__(self, seed, n_workers=None):
        super().__init__(seed)
        self.n_workers = n_workers or nproc()

    def setup(self):
        self.cfg = om_config.build_run_config(om_config.parse_config_text(
            om_config.bundled_config_text("fig2_desk.cfg")))
        self.n_points = len(self.cfg.scenario.range_diffs_m)
        self.units_per_op = self.n_points * self.trials_per_point
        self.clock = _PointClock()
        log = logging.getLogger(om_harness.__name__)
        self._log_state = log.level, log.propagate
        log.setLevel(logging.INFO)
        log.propagate = False
        log.addHandler(self.clock)

    def scenario(self, i, range_diffs_m=None):
        return dataclasses.replace(
            self.cfg.scenario, n_trials=self.trials_per_point,
            rng_seed=sub_seed(self.seed, _SWEEP_TAG, i),
            range_diffs_m=range_diffs_m or self.cfg.scenario.range_diffs_m)

    def sweep(self, scenario, n_workers):
        cfg = self.cfg
        self.clock.start()
        return om.run_sweep(scenario, cfg.radio, cfg.plan, cfg.detector,
                            theta_lim_rad=cfg.theta_lim_rad,
                            first_target_only=cfg.first_target_only,
                            n_workers=n_workers)

    def execute(self, i):
        return self.sweep(self.scenario(i), self.n_workers)

    def timed_parts(self, op_seconds):
        clock = self.clock
        if len(clock.points) != self.n_points:
            return [(op_seconds / self.n_points, None)] * self.n_points
        return [(s, (a + b) / 2.0) for s, a, b in
                zip(clock.points, clock.reference, clock.reference[1:])]

    def check(self, _, summary):
        columns = (summary.p_missed, summary.rmse_range_m, summary.rmse_azimuth_deg)
        if len(summary.x_axis) != self.n_points or \
                any(len(c) != self.n_points for c in columns):
            return ["summary has the wrong number of sweep points"]
        if summary.n_trials != self.trials_per_point:
            return [f"summary reports {summary.n_trials} trials per point"]
        if not finite(*(v for c in columns for v in c)):
            return ["non-finite value in summary"]
        if any(not 0.0 <= p <= 1.0 for p in summary.p_missed):
            return ["p_missed outside [0, 1]"]
        return []

    def fingerprint(self, summary):
        return repr(dataclasses.astuple(summary))

    def rerun_check(self, outputs, count=1):
        """Run sweep point 0 of the first sweep again, alone.

        Trial seeds depend on the sweep index, which is 0 either way, so the
        point must repeat exactly.
        """
        if isinstance(outputs[0], Exception):
            return []
        again = self.sweep(self.scenario(0, self.cfg.scenario.range_diffs_m[:1]),
                           self.n_workers)
        first = outputs[0]
        if (again.p_missed[0], again.rmse_range_m[0], again.rmse_azimuth_deg[0]) != \
                (first.p_missed[0], first.rmse_range_m[0], first.rmse_azimuth_deg[0]):
            return ["sweep point 0 gave another result when run again"]
        return []

    def quality(self, pairs):
        summary = pairs[0][1]
        q = {"points": self.n_points, "trials_per_point": summary.n_trials,
             "p_missed": float(np.mean(summary.p_missed)),
             "rmse_range_m": float(np.sqrt(np.mean(np.square(summary.rmse_range_m)))),
             "rmse_azimuth_deg": float(np.sqrt(np.mean(np.square(
                 summary.rmse_azimuth_deg))))}
        return q, _band(q, {"p_missed": 0.6})

    def close(self):
        log = logging.getLogger(om_harness.__name__)
        log.removeHandler(self.clock)
        log.level, log.propagate = self._log_state


def _band(quality: dict, upper: dict) -> list[str]:
    return [f"{key} = {quality[key]:.4g} exceeds {limit}"
            for key, limit in upper.items() if not quality[key] <= limit]


WORKLOADS = {
    "mc-sweep": McSweep,
    "calibrate": Calibrate,
    "mc-sweep-parallel": McSweepParallel,
    "estimate-frames": EstimateFrames,
}


def make(name: str, seed: int, work_dir: str) -> Workload:
    cls = WORKLOADS[name]
    return cls(seed, work_dir) if cls is EstimateFrames else cls(seed)
