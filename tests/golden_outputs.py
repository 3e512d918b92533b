"""Seeded outputs of the program, kept in ``tests/golden/`` as a standing check.

The set covers what a change to the estimator must not move by accident:
  * ``sweep.csv`` of a few-trial copy of the bundled ``fig2_desk`` sweep
    (run at one and at two workers, which must agree);
  * ``kappa.json`` of ``ofdm-music calibrate`` on the baseline plan, and
    ``kappa_small.json`` on a small plan whose noise-only pivots are nonzero;
  * ``estimate.json``: the ``estimate`` report of six seeded CSI frames with
    0-4 targets under every peak selection routine;
  * ``trials.json``: 54 seeded ``run_trial`` results over the baseline,
    ``equal_m_1`` and ``range_only`` plans, as their ``repr`` and as fields.

``versions.json`` records the numpy and BLAS builds the set was made with.
``tests/test_golden.py`` regenerates the set and compares it in exact bytes
when those builds match, else at the outcome tier of :func:`outcome_problems`.

A change that moves outputs on purpose first prints how they move with
``PYTHONPATH=src python tests/golden_outputs.py --compare``, then
regenerates the set with ``PYTHONPATH=src python tests/golden_outputs.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import re
import sys
import tempfile
from typing import NamedTuple

import numpy as np

import ofdm_music as om
from ofdm_music.cli import main as cli_main
from ofdm_music.config import bundled_config_text
from ofdm_music.presets import (baseline_plan, baseline_radio, equal_m_plan,
                                range_only_plan)

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

SWEEP_TRIALS = 3
KAPPA_TRIALS = 200
FRAME_TARGETS = (0, 1, 2, 3, 4, 2)
TRIAL_PLANS = ("baseline", "equal_m_1", "range_only")
TRIALS_PER_CELL = 3
TRIAL_DIFFS_M = (0.0, 1.0)
SMALL_CONFIG = "N = 12\nK = 4\nA_f = 9\nA_a = 3\nD_f = 1\nD_a = 1\n"

# Relative tolerance of floats at the outcome tier; the absolute floor
# covers values that are zero up to rounding.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def versions() -> dict:
    """The numpy and BLAS builds that fix the last bits of the outputs."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {"numpy": np.__version__, "blas": blas_build,
            "python": platform.python_version(), "machine": platform.machine()}


def _run_cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(list(argv))
    if code != 0:
        raise RuntimeError(f"ofdm-music {' '.join(argv)} exited {code}")
    return out.getvalue()


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


def sweep_csvs(work: str) -> dict[int, str]:
    """``sweep.csv`` of the few-trial fig2_desk sweep at 1 and 2 workers."""
    texts = {}
    for threads in (1, 2):
        out = os.path.join(work, f"sweep-{threads}")
        cfg = os.path.join(work, f"sweep-{threads}.cfg")
        with open(cfg, "w") as f:
            f.write(bundled_config_text("fig2_desk.cfg")
                    + f"\nJ = {SWEEP_TRIALS}\nout_dir = {out}\n")
        _run_cli("sweep", "--config", cfg, "--threads", str(threads))
        texts[threads] = _read(os.path.join(out, "sweep.csv"))
    return texts


def kappa_jsons(work: str) -> dict[str, str]:
    """``kappa.json`` of the baseline plan and of a small plan."""
    texts = {}
    for name, extra, trials, seed in (
            ("kappa.json", "", KAPPA_TRIALS, 7),
            ("kappa_small.json", SMALL_CONFIG, 20, 4)):
        out = os.path.join(work, name + ".out")
        cfg = os.path.join(work, name + ".cfg")
        with open(cfg, "w") as f:
            f.write(bundled_config_text("fig2_desk.cfg") + "\n" + extra
                    + f"out_dir = {out}\n")
        _run_cli("calibrate", "--config", cfg, "--trials", str(trials),
                 "--seed", str(seed), "--threads", "1")
        texts[name] = _read(os.path.join(out, "kappa.json"))
    return texts


def _frame(radio: om.RadioConfig, index: int, n_targets: int) -> om.CsiMatrix:
    rng = np.random.default_rng([7_001, index])
    targets = tuple(
        om.Target(range_m=float(r), azimuth_rad=math.radians(float(a)),
                  coeff=om.scene_coefficient(float(r), int(s)))
        for r, a, s in zip(rng.uniform(1.0, 22.5, n_targets),
                           rng.uniform(-55.0, 55.0, n_targets),
                           rng.integers(0, 2**62, n_targets)))
    if targets:
        sigma2 = om.noise_variance_for_snr(om.TargetScene(targets, 0.0), radio,
                                           float(rng.uniform(5.0, 25.0)))
    else:
        sigma2 = 1e-4
    return om.synthesize_csi(radio, om.TargetScene(targets, sigma2),
                             int(rng.integers(0, 2**62)))


def estimate_reports(work: str) -> list[dict]:
    """``estimate`` reports of the seeded frames under every routine."""
    cfg = os.path.join(work, "estimate.cfg")
    with open(cfg, "w") as f:
        f.write(bundled_config_text("fig2_desk.cfg") + f"\nout_dir = {work}\n")
    radio = baseline_radio()
    reports = []
    for index, n_targets in enumerate(FRAME_TARGETS):
        path = os.path.join(work, f"frame-{index}.csi")
        _frame(radio, index, n_targets).to_binary(path)
        for routine in om.Routine:
            text = _run_cli("estimate", path, "--config", cfg,
                            "--routine", routine.value)
            reports.append({"frame": index, "targets": n_targets,
                            "routine": routine.value, "report": text.strip()})
    return reports


def _plan(name: str, radio: om.RadioConfig) -> om.SubarrayPlan:
    return {"baseline": baseline_plan, "equal_m_1": lambda r: equal_m_plan(1, r),
            "range_only": range_only_plan}[name](radio)


def trial_records() -> list[dict]:
    """Seeded ``run_trial`` results over three plans, routines and differences."""
    radio = baseline_radio()
    spec = om.ScenarioSpec(n_trials=TRIALS_PER_CELL, snr_db=15.0,
                           range_diffs_m=TRIAL_DIFFS_M, base_range_max_m=22.5,
                           rng_seed=20_221_011)
    records = []
    for plan_name in TRIAL_PLANS:
        plan = _plan(plan_name, radio)
        for routine in om.Routine:
            det = om.DetectorConfig(routine=routine)
            for trial in range(TRIALS_PER_CELL):
                for point, diff in enumerate(TRIAL_DIFFS_M):
                    scene = om.generate_trial(spec, radio, trial, diff)
                    noise_seed = 1_000 * trial + point
                    result = om.run_trial(radio, plan, det, scene, noise_seed)
                    report = result.report
                    records.append({
                        "plan": plan_name, "routine": routine.value,
                        "trial": trial, "range_diff_m": diff,
                        "detections": [[d.range_m, d.azimuth_rad,
                                        d.spectrum_value, d.iteration]
                                       for d in report.detections],
                        "threshold": report.threshold_used,
                        "spectra": report.spectra_computed,
                        "saturated": report.saturated,
                        "errors": [list(e) for e in result.assigned_errors],
                        "missed": list(result.missed),
                        "repr": repr(result)})
    return records


def generate() -> dict[str, str]:
    """Every golden file's text, keyed by file name."""
    with tempfile.TemporaryDirectory() as work:
        sweeps = sweep_csvs(work)
        if sweeps[1] != sweeps[2]:
            raise RuntimeError("sweep.csv differs between 1 and 2 workers")
        files = {"sweep.csv": sweeps[1], **kappa_jsons(work)}
        files["estimate.json"] = json.dumps(estimate_reports(work), indent=1) + "\n"
    files["trials.json"] = json.dumps(trial_records(), indent=1) + "\n"
    return files


# -- outcome tier ----------------------------------------------------------

class Difference(NamedTuple):
    """One outcome-tier difference; ``moved_float`` marks a float that
    differs by more than ``REL_TOL``, anything else is a changed outcome."""

    where: str
    golden: object
    current: object
    moved_float: bool = False


def _close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


def _match(where: str, golden, current, diffs: list[Difference]) -> None:
    """Exact on counts, flags and text; floats to ``REL_TOL`` relative.

    Dicts whose key sets differ record that and are still compared on the
    keys they share.
    """
    if isinstance(golden, dict) and isinstance(current, dict):
        if golden.keys() != current.keys():
            diffs.append(Difference(f"{where} keys", sorted(golden), sorted(current)))
        for key in golden:
            if key in current:
                _match(f"{where}.{key}", golden[key], current[key], diffs)
    elif isinstance(golden, list) and isinstance(current, list):
        if len(golden) != len(current):
            diffs.append(Difference(f"{where} entries", len(golden), len(current)))
            return
        for i, (g, c) in enumerate(zip(golden, current)):
            _match(f"{where}[{i}]", g, c, diffs)
    elif not _close(golden, current):
        diffs.append(Difference(where, golden, current,
                                isinstance(golden, float) and isinstance(current, float)))


def _csv_rows(text: str) -> list[list]:
    header, *rows = text.splitlines()
    return [header.split(",")] + [[float(v) for v in row.split(",")]
                                  for row in rows]


def outcome_differences(name: str, golden: str, current: str) -> list[Difference]:
    """Differences of one golden file at the outcome tier.

    Detection counts, iterations, miss flags, saturation and ``p_missed``
    must be exact, floats must agree to 1e-9 relative.
    """
    diffs: list[Difference] = []
    if name == "sweep.csv":
        g_rows, c_rows = _csv_rows(golden), _csv_rows(current)
        if g_rows[0] != c_rows[0] or len(g_rows) != len(c_rows):
            return [Difference(f"{name} header and row count",
                               (g_rows[0], len(g_rows)), (c_rows[0], len(c_rows)))]
        for i, (g, c) in enumerate(zip(g_rows[1:], c_rows[1:])):
            for col in (0, 1, 4):   # x_value, p_missed, n_trials
                if not (g[col] == c[col] or math.isnan(g[col]) and math.isnan(c[col])):
                    diffs.append(Difference(f"{name} row {i} {g_rows[0][col]}",
                                            g[col], c[col]))
            _match(f"{name} row {i} rmse", g[2:4], c[2:4], diffs)
        return diffs
    g_doc, c_doc = json.loads(golden), json.loads(current)
    if name == "estimate.json":
        for g, c in zip(g_doc, c_doc):
            g["report"], c["report"] = json.loads(g["report"]), json.loads(c["report"])
    if name == "trials.json":
        for g, c in zip(g_doc, c_doc):
            g.pop("repr"), c.pop("repr")
    _match(name, g_doc, c_doc, diffs)
    return diffs


def outcome_problems(name: str, golden: str, current: str) -> list[str]:
    """:func:`outcome_differences` as one line each."""
    return [f"{d.where}: {d.current!r} != golden {d.golden!r}"
            for d in outcome_differences(name, golden, current)]


def compare_lines(name: str, golden: str, current: str) -> list[str]:
    """A summary of :func:`outcome_differences` for one file.

    Moved floats are grouped by where they sit, with indices of repeated
    records read as ``[*]``, and given with their count and their largest
    absolute and relative move. Every other difference is listed in full.
    """
    diffs = outcome_differences(name, golden, current)
    moved = [d for d in diffs if d.moved_float]
    lines = [f"{name}: {len(moved)} floats moved, "
             f"{len(diffs) - len(moved)} other differences"]
    groups: dict[str, list[Difference]] = {}
    for d in moved:
        where = re.sub(r"\[\d+\](?=.)", "[*]", re.sub(r"row \d+", "row *", d.where))
        groups.setdefault(where, []).append(d)
    for where, group in groups.items():
        abs_move = max(abs(d.current - d.golden) for d in group)
        rel_move = max(abs(d.current - d.golden) / max(abs(d.golden), ABS_TOL)
                       for d in group)
        lines.append(f"  {where}: {len(group)} moved, largest {abs_move:.3g} "
                     f"absolute, {rel_move:.3g} relative")
    lines += [f"  {d.where}: {d.current!r} != golden {d.golden!r}"
              for d in diffs if not d.moved_float]
    return lines


def main(argv=None) -> int:
    """Write a fresh golden set to ``GOLDEN_DIR`` or the given directory;
    with ``--compare``, print how a fresh set differs from the recorded one
    at the outcome tier instead."""
    args = sys.argv[1:] if argv is None else argv
    files = generate()
    if args[:1] == ["--compare"]:
        for name, text in files.items():
            with open(os.path.join(GOLDEN_DIR, name)) as f:
                print("\n".join(compare_lines(name, f.read(), text)))
        return 0
    out_dir = (args or [GOLDEN_DIR])[0]
    os.makedirs(out_dir, exist_ok=True)
    files["versions.json"] = json.dumps(versions(), indent=1) + "\n"
    for name, text in files.items():
        with open(os.path.join(out_dir, name), "w") as f:
            f.write(text)
    print(f"wrote {len(files)} golden files to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
