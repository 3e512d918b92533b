"""Command-line interface: single-shot estimation, Monte Carlo sweeps, CFAR
calibration and complexity reporting.

Exit codes: 0 success, 2 configuration / input-format error, 3 numerical
error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .config import RunConfig, build_run_config, parse_config_text
from .detection import Routine
from .errors import ConfigError, OfdmMusicError
from .harness import calibrate_kappa, estimate, run_sweep, write_sweep_outputs
from .music import GridConfig, flop_estimate
from .signal_model import CsiMatrix
from .smoothing import make_plan


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--out", help="output directory (config key out_dir)")
    parser.add_argument("--seed", type=int, help="scenario seed (config key seed)")
    parser.add_argument("--threads", type=int,
                        help="worker processes (default: the CPUs this process "
                             "may run on)")
    parser.add_argument("--routine", choices=[r.value for r in Routine],
                        help="peak selection routine (config key routine)")
    parser.add_argument("--snr-db", type=float, dest="snr_db",
                        help="scenario SNR in dB (config key snr_db)")
    parser.add_argument("-v", "--verbose", action="count", default=0)


def _available_cpus() -> int:
    """The number of CPUs this process may run on.

    Read from the affinity mask where the platform has one, so a process
    pinned to fewer CPUs by taskset or a cpuset does not oversubscribe them.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _effective_config(cfg: RunConfig, n_workers: int) -> dict:
    # A routine key may be spelled "Multiple"; echo its canonical name.
    raw = dict(cfg.raw, routine=cfg.detector.routine.value)
    return {"version": f"ofdm-music/{__version__}", "threads": n_workers,
            "config": raw}


def cmd_estimate(cfg: RunConfig, csi_path: str) -> int:
    csi = CsiMatrix.from_binary(csi_path, cfg.radio)
    _, report = estimate(csi, GridConfig(cfg.radio, cfg.plan, cfg.theta_lim_rad),
                         cfg.detector)
    text = report.to_json()
    print(text)
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "report.json"), "w") as f:
        f.write(text + "\n")
    return 0


def cmd_sweep(cfg: RunConfig, n_workers: int) -> int:
    summary = run_sweep(cfg.scenario, cfg.radio, cfg.plan, cfg.detector,
                        theta_lim_rad=cfg.theta_lim_rad,
                        first_target_only=cfg.first_target_only,
                        n_workers=n_workers)
    metadata = _effective_config(cfg, n_workers)
    csv_path, json_path = write_sweep_outputs(summary, cfg.out_dir, metadata)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_calibrate(cfg: RunConfig, n_workers: int, n_trials: int) -> int:
    kappa = calibrate_kappa(cfg.radio, cfg.plan, cfg.detector,
                            theta_lim_rad=cfg.theta_lim_rad, n_trials=n_trials,
                            rng_seed=cfg.scenario.rng_seed, n_workers=n_workers)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "kappa.json")
    with open(path, "w") as f:
        json.dump({"kappa": kappa, "p_fa": cfg.detector.p_fa,
                   "n_trials": n_trials, "seed": cfg.scenario.rng_seed}, f)
    print(f"kappa = {kappa:.6f} (stored in {path})")
    return 0


def cmd_complexity(cfg: RunConfig, model_order: int = 2) -> int:
    radio, plan = cfg.radio, cfg.plan
    if plan.samples_per_subarray <= model_order:
        raise ConfigError(
            f"the complexity table needs sub-arrays of more than {model_order} "
            f"samples (the model order), got M = {plan.samples_per_subarray}")
    comparator = make_plan(radio, plan.aperture_f, plan.aperture_a, 1, 1,
                           plan.stride_f, plan.stride_a)
    rows = [("configured", plan), ("no-decimation comparator", comparator)]
    print(f"{'setup':<26} {'M':>6} {'L':>6} {'FLOPs/eval':>14}")
    flops = []
    for name, p in rows:
        f = flop_estimate(p.samples_per_subarray, model_order)
        flops.append(f)
        print(f"{name:<26} {p.samples_per_subarray:>6} {p.n_subarrays:>6} {f:>14}")
    print(f"reduction factor: {flops[1] / flops[0]:.4g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofdm-music",
        description="Joint range/angle estimation from OFDM CSI via decimated "
                    "spatial smoothing and 2D MUSIC")
    sub = parser.add_subparsers(dest="command", required=True)
    est = sub.add_parser("estimate", help="detect targets in a binary CSI file")
    est.add_argument("csi", help="CSI file (u32 K, u32 N header + complex128 data)")
    _add_common(est)
    _add_common(sub.add_parser("sweep", help="run the configured Monte Carlo sweep"))
    cal = sub.add_parser("calibrate", help="calibrate the CFAR factor kappa")
    cal.add_argument("--trials", type=int, default=1000,
                     help="noise-only calibration trials")
    _add_common(cal)
    _add_common(sub.add_parser("complexity",
                               help="FLOP table vs. the no-decimation setup"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Nothing logs below INFO, so -vv means -v.
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        with open(args.config) as f:
            values = parse_config_text(f.read())
        for key, flag in (("routine", args.routine), ("seed", args.seed),
                          ("snr_db", args.snr_db), ("out_dir", args.out)):
            if flag is not None:
                values[key] = flag
        cfg = build_run_config(values)
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        n_workers = args.threads or _available_cpus()
        if args.command == "estimate":
            return cmd_estimate(cfg, args.csi)
        if args.command == "sweep":
            return cmd_sweep(cfg, n_workers)
        if args.command == "calibrate":
            return cmd_calibrate(cfg, n_workers, args.trials)
        return cmd_complexity(cfg)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, OfdmMusicError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
