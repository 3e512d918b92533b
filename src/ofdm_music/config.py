"""Flat key = value run configuration with Table-1 defaults.

Keys use the parameter names of the simulation setup (N, f_c, delta_f, K, d,
c, A_f, D_f, A_a, D_a, S_f, S_a, N_start, ...). Unknown keys are rejected.
The radio, plan and detector defaults are those of ``presets.baseline_radio``,
``presets.baseline_plan`` and ``DetectorConfig()``. A key's value has the type
of its default, float where the default is None.
Angles are degrees in configs and outputs; the library works in radians.
The CLI writes its key flags into the parsed table before it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .detection import DetectorConfig, Routine
from .errors import ConfigError
from .harness import BASE_RANGE_LIMITS_M, ScenarioSpec
from .music import GridConfig, unambiguous_range
from .presets import baseline_plan, baseline_radio
from .signal_model import RadioConfig
from .smoothing import SubarrayPlan, make_plan

_RADIO, _PLAN, _DETECTOR = baseline_radio(), baseline_plan(), DetectorConfig()

# Most range differences one sweep may have; the bundled sweeps have 26.
MAX_SWEEP_POINTS = 10_000

_DEFAULTS: dict[str, object] = {
    # OFDM numerology and array geometry
    "N": _RADIO.n_subcarriers,
    "f_c": _RADIO.carrier_freq_hz,
    "delta_f": _RADIO.subcarrier_spacing_hz,
    "K": _RADIO.n_antennas,
    "d": None,            # None -> half wavelength
    "c": _RADIO.speed_of_light_m_s,
    # sub-array plan
    "A_f": _PLAN.aperture_f,
    "A_a": _PLAN.aperture_a,
    "D_f": _PLAN.decim_f,
    "D_a": _PLAN.decim_a,
    "S_f": _PLAN.stride_f,
    "S_a": _PLAN.stride_a,
    # detector
    "N_start": _DETECTOR.n_start,
    "p_fa": _DETECTOR.p_fa,
    "kappa": _DETECTOR.kappa,
    "routine": _DETECTOR.routine.value,
    "max_iterations": _DETECTOR.max_iterations,
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
    "base_range_max_m": None,   # None -> r_max less the largest range difference
    "seed": 1,
    "first_target_only": False,
    # io
    "out_dir": "out",
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI run needs, resolved from one parsed key table, ``raw``."""

    radio: RadioConfig
    plan: SubarrayPlan
    detector: DetectorConfig
    scenario: ScenarioSpec
    theta_lim_rad: float
    first_target_only: bool
    out_dir: str
    raw: dict


def _parse_value(key: str, raw: str, lineno: int):
    raw = raw.strip()
    kind = type(_DEFAULTS[key]) if _DEFAULTS[key] is not None else float
    try:
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind is int:
            return int(raw)
        if kind is float:
            value = float(raw)
            if not math.isfinite(value):
                raise ConfigError(
                    f"line {lineno}: key {key} must be finite, got {raw!r}")
            return value
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
    spacing = values["d"]
    if spacing is None:
        # RadioConfig rejects a zero f_c before it reads the spacing.
        spacing = values["c"] / values["f_c"] / 2.0 if values["f_c"] else 0.0
    radio = RadioConfig(
        n_subcarriers=values["N"], subcarrier_spacing_hz=values["delta_f"],
        carrier_freq_hz=values["f_c"], n_antennas=values["K"],
        antenna_spacing_m=spacing, speed_of_light_m_s=values["c"])
    plan = make_plan(radio, values["A_f"], values["A_a"], values["D_f"],
                     values["D_a"], values["S_f"], values["S_a"])
    detector = DetectorConfig(
        n_start=values["N_start"], p_fa=values["p_fa"],
        routine=Routine.from_string(values["routine"]),
        max_iterations=values["max_iterations"], kappa=values["kappa"])
    stop, step = values["range_diff_stop"], values["range_diff_step"]
    if step <= 0:
        raise ConfigError(f"range_diff_step must be positive, got {step}")
    start = values["range_diff_start"]
    # np.arange's point count, checked before numpy sizes an array by it.
    points = (stop + step / 2.0 - start) / step
    if not points <= MAX_SWEEP_POINTS:
        raise ConfigError(
            f"the range-difference sweep has {points:.3g} points; at most "
            f"{MAX_SWEEP_POINTS} are allowed")
    diffs = tuple(np.arange(start, stop + step / 2.0, step)) if points > 0 else ()
    # The far target sits max(diffs) beyond the base range; past r_max it
    # aliases onto a near range and is scored against truth it cannot match.
    r_max = unambiguous_range(radio, plan)
    reach = 0.0 if values["free_placement"] else float(max(diffs, default=0.0))
    base_max = values["base_range_max_m"]
    if base_max is None:
        base_max = r_max - reach
        if not base_max <= BASE_RANGE_LIMITS_M[1]:
            raise ConfigError(
                f"the default base_range_max_m, the unambiguous range "
                f"c / (2 D_f delta_f) = {r_max:g} m less {reach:g} m, exceeds "
                f"{BASE_RANGE_LIMITS_M[1]:g} m; raise delta_f or D_f, or set "
                f"base_range_max_m")
    elif base_max + reach > r_max:
        raise ConfigError(
            f"base_range_max_m + max range difference = {base_max} + {reach} "
            f"exceeds the unambiguous range {r_max} m")
    scenario = ScenarioSpec(
        n_trials=values["J"], snr_db=values["snr_db"], range_diffs_m=diffs,
        free_placement=values["free_placement"],
        angle_range_deg=(values["angle_min_deg"], values["angle_max_deg"]),
        base_range_max_m=base_max, rng_seed=values["seed"],
        min_angle_sep_deg=values["min_angle_sep_deg"])
    theta_lim = math.radians(values["theta_lim_deg"])
    GridConfig(radio, plan, theta_lim)   # rejects a limit outside [0, 90] deg
    return RunConfig(radio=radio, plan=plan, detector=detector, scenario=scenario,
                     theta_lim_rad=theta_lim,
                     first_target_only=values["first_target_only"],
                     out_dir=values["out_dir"], raw=values)


def bundled_config_text(name: str) -> str:
    """Text of a bundled config, e.g. ``fig2_desk.cfg``."""
    return resources.files("ofdm_music.configs").joinpath(name).read_text()
