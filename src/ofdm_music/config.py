"""Flat key = value run configuration with Table-1 defaults.

Keys use the parameter names of the simulation setup (N, f_c, delta_f, K, d,
c, A_f, D_f, A_a, D_a, S_f, S_a, N_start, ...). Unknown keys are rejected.
Angles are degrees in configs and outputs; the library works in radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .detection import DetectorConfig, Routine
from .errors import ConfigError
from .harness import ScenarioSpec
from .music import unambiguous_range
from .presets import BASELINE_SPEED_OF_LIGHT
from .signal_model import RadioConfig
from .smoothing import SubarrayPlan, make_plan

_DEFAULTS: dict[str, object] = {
    # OFDM numerology and array geometry
    "N": 1500,
    "f_c": 3.5e9,
    "delta_f": 60e3,
    "K": 4,
    "d": None,            # None -> half wavelength
    "c": BASELINE_SPEED_OF_LIGHT,
    # sub-array plan
    "A_f": 1401,
    "A_a": 3,
    "D_f": 100,
    "D_a": 1,
    "S_f": 1,
    "S_a": 1,
    # detector
    "N_start": 10,
    "p_fa": 0.01,
    "kappa": 1.0,
    "routine": "multiple",
    "max_iterations": 8,
    "merge_radius_r": 0.25,
    "merge_radius_theta": 0.25,
    "powell_tol": 1e-8,
    "powell_max_iter": 16,
    "theta_lim_deg": 60.0,
    # scenario
    "J": 500,
    "snr_db": 15.0,
    "range_diff_start": 0.0,
    "range_diff_stop": 2.5,
    "range_diff_step": 0.1,
    "free_placement": False,
    "angle_min_deg": -60.0,
    "angle_max_deg": 60.0,
    "min_angle_sep_deg": 0.0,
    "base_range_max_m": None,   # None -> unambiguous range
    "seed": 1,
    "first_target_only": False,
    # io
    "out_dir": "out",
    "verbosity": 0,
}

_INT_KEYS = {"N", "K", "A_f", "A_a", "D_f", "D_a", "S_f", "S_a", "N_start",
             "max_iterations", "powell_max_iter", "J", "seed", "verbosity"}
_FLOAT_KEYS = {"f_c", "delta_f", "d", "c", "p_fa", "kappa", "merge_radius_r",
               "merge_radius_theta", "powell_tol", "theta_lim_deg", "snr_db",
               "range_diff_start", "range_diff_stop", "range_diff_step",
               "angle_min_deg", "angle_max_deg", "min_angle_sep_deg",
               "base_range_max_m"}
_BOOL_KEYS = {"free_placement", "first_target_only"}


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI run needs, resolved from a config file plus overrides."""

    radio: RadioConfig
    plan: SubarrayPlan
    detector: DetectorConfig
    scenario: ScenarioSpec
    theta_lim_rad: float
    first_target_only: bool
    out_dir: str
    verbosity: int
    raw: dict


def _parse_value(key: str, raw: str, lineno: int):
    raw = raw.strip()
    try:
        if key in _BOOL_KEYS:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: key {key} got unparseable value {raw!r}")
    return raw


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines into a dict over the known keys."""
    values = dict(_DEFAULTS)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw = line.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        values[key] = _parse_value(key, raw, lineno)
    return values


def build_run_config(values: dict) -> RunConfig:
    """Materialize the typed configuration objects from parsed key values."""
    wavelength = values["c"] / values["f_c"]
    spacing = values["d"] if values["d"] is not None else wavelength / 2.0
    radio = RadioConfig(
        n_subcarriers=values["N"], subcarrier_spacing_hz=values["delta_f"],
        carrier_freq_hz=values["f_c"], n_antennas=values["K"],
        antenna_spacing_m=spacing, speed_of_light_m_s=values["c"])
    plan = make_plan(radio, values["A_f"], values["A_a"], values["D_f"],
                     values["D_a"], values["S_f"], values["S_a"])
    detector = DetectorConfig(
        n_start=values["N_start"], p_fa=values["p_fa"],
        routine=Routine.from_string(values["routine"]),
        max_iterations=values["max_iterations"],
        merge_radius=(values["merge_radius_r"], values["merge_radius_theta"]),
        powell_tol=values["powell_tol"], powell_max_iter=values["powell_max_iter"],
        kappa=values["kappa"])
    base_max = values["base_range_max_m"] if values["base_range_max_m"] is not None \
        else unambiguous_range(radio, plan)
    stop, step = values["range_diff_stop"], values["range_diff_step"]
    if step <= 0:
        raise ConfigError(f"range_diff_step must be positive, got {step}")
    diffs = tuple(np.arange(values["range_diff_start"], stop + step / 2.0, step))
    scenario = ScenarioSpec(
        n_trials=values["J"], snr_db=values["snr_db"], range_diffs_m=diffs,
        free_placement=values["free_placement"],
        angle_range_deg=(values["angle_min_deg"], values["angle_max_deg"]),
        base_range_max_m=base_max, rng_seed=values["seed"],
        min_angle_sep_deg=values["min_angle_sep_deg"])
    return RunConfig(radio=radio, plan=plan, detector=detector, scenario=scenario,
                     theta_lim_rad=math.radians(values["theta_lim_deg"]),
                     first_target_only=values["first_target_only"],
                     out_dir=values["out_dir"], verbosity=values["verbosity"],
                     raw=values)


def load_run_config(path) -> RunConfig:
    with open(path) as f:
        return build_run_config(parse_config_text(f.read()))


def bundled_config_text(name: str) -> str:
    """Text of a bundled config, e.g. ``fig2_desk.cfg``."""
    return resources.files("ofdm_music.configs").joinpath(name).read_text()
