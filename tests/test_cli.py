import json
import math
import os
import shutil
import signal
import struct
import subprocess
import sys

import numpy as np
import pytest

import ofdm_music
from ofdm_music import harness
from ofdm_music import (CsiMatrix, DetectorConfig, TargetScene, Target,
                        noise_variance_for_snr, synthesize_csi)
from ofdm_music.cli import main
from ofdm_music.config import (_DEFAULTS, bundled_config_text,
                               build_run_config, parse_config_text)
from ofdm_music.errors import ConfigError
from ofdm_music.presets import baseline_plan, baseline_radio


def _strict_json(text):
    """``json.loads`` that rejects NaN, Infinity and -Infinity, the tokens
    RFC 8259 does not have."""
    def reject(token):
        raise ValueError(f"non-standard constant {token}")
    return json.loads(text, parse_constant=reject)


@pytest.fixture
def baseline_cfg(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("c = 3e8\nseed = 5\nout_dir = %s\n" % (tmp_path / "out"))
    return path


class TestConfigParsing:
    def test_defaults_match_reference_setup(self):
        cfg = build_run_config(parse_config_text(""))
        assert cfg.radio.n_subcarriers == 1500
        assert cfg.radio.carrier_freq_hz == 3.5e9
        assert cfg.plan.aperture_f == 1401
        assert cfg.plan.samples_per_subarray == 45
        assert cfg.detector.n_start == 10
        assert cfg.scenario.n_trials == 500
        assert cfg.radio == baseline_radio()
        assert cfg.plan == baseline_plan()
        assert cfg.detector == DetectorConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("frobnicate = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="unparseable"):
            parse_config_text("N = twelve\n")

    @pytest.mark.parametrize("raw, value", [
        ("true", True), ("Yes", True), ("1", True),
        ("false", False), ("no", False), ("0", False),
    ])
    def test_bool_values(self, raw, value):
        assert parse_config_text(f"free_placement = {raw}\n")["free_placement"] \
            is value

    @pytest.mark.parametrize("line, match", [
        ("free_placement = maybe", "unparseable value 'maybe'"),
        ("N 256", "expected 'key = value'"),
    ])
    def test_malformed_line_rejected(self, line, match):
        with pytest.raises(ConfigError, match=match):
            parse_config_text(f"# header\n{line}\n")

    def test_comments_and_blanks_ignored(self):
        values = parse_config_text("# comment\n\nN = 256  # inline\n")
        assert values["N"] == 256

    def test_bundled_fig2_has_26_sweep_points(self):
        cfg = build_run_config(parse_config_text(bundled_config_text(
            "fig2_desk.cfg")))
        assert len(cfg.scenario.range_diffs_m) == 26
        assert cfg.scenario.range_diffs_m[0] == 0.0
        assert cfg.scenario.range_diffs_m[-1] == pytest.approx(2.5)
        assert cfg.scenario.n_trials == 500

    def test_default_base_range_leaves_room_for_the_largest_difference(self):
        cfg = build_run_config(parse_config_text(""))
        assert max(cfg.scenario.range_diffs_m) == pytest.approx(2.5)
        assert cfg.scenario.base_range_max_m == pytest.approx(22.5)

    def test_free_placement_base_range_defaults_to_r_max(self):
        cfg = build_run_config(parse_config_text("free_placement = true\n"))
        assert cfg.scenario.base_range_max_m == 25.0

    def test_aliasing_base_range_rejected(self):
        with pytest.raises(ConfigError, match=r"25\.0 \+ 2\.5"):
            build_run_config(parse_config_text("base_range_max_m = 25\n"))
        cfg = build_run_config(parse_config_text("base_range_max_m = 22.5\n"))
        assert cfg.scenario.base_range_max_m == 22.5

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN"])
    @pytest.mark.parametrize("key", sorted(
        key for key, value in _DEFAULTS.items()
        if value is None or isinstance(value, float)))
    def test_non_finite_float_rejected(self, key, raw):
        with pytest.raises(ConfigError, match=f"key {key} must be finite"):
            parse_config_text(f"{key} = {raw}\n")

    @pytest.mark.parametrize("deg", ["95", "-10"])
    def test_theta_limit_outside_quarter_turn_rejected(self, deg):
        with pytest.raises(ConfigError, match="theta limit"):
            build_run_config(parse_config_text(f"theta_lim_deg = {deg}\n"))

    @pytest.mark.parametrize("key", ["powell_tol", "powell_max_iter", "verbosity"])
    def test_removed_keys_rejected(self, key):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("%s = 1\n" % key)

    def test_bundled_toy_geometry_geometry(self):
        cfg = build_run_config(parse_config_text(bundled_config_text(
            "toy_geometry.cfg")))
        assert cfg.plan.samples_per_subarray == 9
        assert (cfg.plan.n_sub_f, cfg.plan.n_sub_a) == (3, 3)


class TestComplexityCommand:
    def test_baseline_reduction_factor(self, baseline_cfg, capsys):
        assert main(["complexity", "--config", str(baseline_cfg)]) == 0
        out = capsys.readouterr().out
        assert "174150" in out
        assert "148423086018" in out
        factor = float(out.strip().splitlines()[-1].split(":")[1])
        assert 8.0e5 <= factor <= 9.0e5

    def test_no_decimation_ratio_one(self, tmp_path, capsys):
        path = tmp_path / "nodecim.cfg"
        path.write_text("c = 3e8\nA_f = 15\nD_f = 1\n")
        assert main(["complexity", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        factor = float(out.strip().splitlines()[-1].split(":")[1])
        assert factor == 1.0

    def test_toy_m_nine(self, tmp_path, capsys):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(bundled_config_text("toy_geometry.cfg"))
        assert main(["complexity", "--config", str(cfg)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert any(row.split()[-3] == "9" for row in rows if "configured" in row)

    def test_sub_array_not_above_model_order_exit_2(self, tmp_path, capsys):
        # M = 2 samples per sub-array cannot hold the order-2 model: a
        # configuration error, reported before any of the table is printed.
        path = tmp_path / "m2.cfg"
        path.write_text("c = 3e8\nA_f = 2\nD_f = 1\nA_a = 1\nD_a = 1\n")
        assert main(["complexity", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "configuration error" in err and "M = 2" in err


# Finite values that used to end a run with a traceback (exit 1) or a
# numerical error (exit 3, delta_f alone), or that named a key the config
# never set (c / f_c), each with what its message names.
_FINITE_BUT_UNUSABLE = [
    ("d = 1e300", "antenna spacing d"),
    ("base_range_max_m = 1e-300", "base_range_max_m"),
    ("snr_db = 1e300", "snr_db"), ("snr_db = -1e300", "snr_db"),
    ("delta_f = 1e-300", "delta_f"), ("f_c = 0", "carrier_freq_hz"),
    ("c = 1e300\ndelta_f = 1e-300\nbase_range_max_m = 10", "delta_f"),
    ("c = 1e-300\nf_c = 1e300", "c / f_c")]


class TestEstimateCommand:
    def write_csi(self, tmp_path, targets, snr_db, seed=11):
        radio = baseline_radio()
        scene0 = TargetScene(targets, 0.0)
        sigma2 = noise_variance_for_snr(scene0, radio, snr_db) if targets else 1.0
        csi = synthesize_csi(radio, TargetScene(targets, sigma2), seed)
        path = tmp_path / "input.csi"
        csi.to_binary(path)
        return path

    def test_single_target_within_tolerance(self, baseline_cfg, tmp_path, capsys):
        target = Target(12.0, math.radians(25.0), 0.007 + 0j)
        csi_path = self.write_csi(tmp_path, (target,), 20.0)
        assert main(["estimate", str(csi_path), "--config",
                     str(baseline_cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["detections"]) == 1
        det = doc["detections"][0]
        assert det["range_m"] == pytest.approx(12.0, abs=0.1)
        assert det["azimuth_deg"] == pytest.approx(25.0, abs=1.0)

    @pytest.mark.parametrize("line, needle", [
        ("kappa = nan", "kappa"), ("delta_f = inf", "delta_f"),
        ("theta_lim_deg = 95", "theta limit"), *_FINITE_BUT_UNUSABLE])
    def test_bad_float_value_exit_2(self, baseline_cfg, tmp_path, capsys, line,
                                    needle):
        csi_path = self.write_csi(tmp_path, (), 0.0)
        baseline_cfg.write_text(baseline_cfg.read_text() + line + "\n")
        assert main(["estimate", str(csi_path), "--config",
                     str(baseline_cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert needle in captured.err

    def test_malformed_header_exit_2(self, baseline_cfg, tmp_path, capsys):
        bad = tmp_path / "bad.csi"
        bad.write_bytes(b"xy")
        assert main(["estimate", str(bad), "--config", str(baseline_cfg)]) == 2
        assert "byte offset 0" in capsys.readouterr().err

    def test_nan_sample_exit_2(self, baseline_cfg, tmp_path, capsys):
        # one NaN used to give exit 0 and a report with "gamma": NaN
        csi_path = self.write_csi(tmp_path, (Target(8.0, 0.0, 0.015 + 0j),), 20.0)
        raw = bytearray(csi_path.read_bytes())
        raw[8 + 16 * 100:8 + 16 * 101] = struct.pack("<dd", math.nan, 0.0)
        csi_path.write_bytes(bytes(raw))
        assert main(["estimate", str(csi_path), "--config",
                     str(baseline_cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    def test_noise_only_empty_report(self, baseline_cfg, tmp_path, capsys):
        csi_path = self.write_csi(tmp_path, (), 0.0, seed=21)
        assert main(["estimate", str(csi_path), "--config",
                     str(baseline_cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["detections"] == []

    def test_numerical_error_exit_3(self, baseline_cfg, tmp_path, capsys,
                                    monkeypatch):
        import ofdm_music.cli as cli_mod
        from ofdm_music.errors import NumericalError

        def boom(cov):
            raise NumericalError("eigensolver did not converge")

        monkeypatch.setattr(cli_mod, "decompose", boom)
        csi_path = self.write_csi(tmp_path, (Target(8.0, 0.0, 0.015 + 0j),), 20.0)
        assert main(["estimate", str(csi_path), "--config",
                     str(baseline_cfg)]) == 3
        assert "numerical error" in capsys.readouterr().err

    def test_report_written_to_out(self, baseline_cfg, tmp_path, capsys):
        target = Target(8.0, 0.0, 0.015 + 0j)
        csi_path = self.write_csi(tmp_path, (target,), 20.0)
        out_dir = tmp_path / "reports"
        assert main(["estimate", str(csi_path), "--config", str(baseline_cfg),
                     "--out", str(out_dir)]) == 0
        stdout_doc = json.loads(capsys.readouterr().out)
        file_doc = json.loads((out_dir / "report.json").read_text())
        assert file_doc == stdout_doc

    def test_report_written_to_configured_out_dir(self, tmp_path, capsys):
        target = Target(8.0, 0.0, 0.015 + 0j)
        csi_path = self.write_csi(tmp_path, (target,), 20.0)
        out_dir = tmp_path / "configured"
        cfg = tmp_path / "estimate.cfg"
        cfg.write_text("c = 3e8\nout_dir = %s\n" % out_dir)
        assert main(["estimate", str(csi_path), "--config", str(cfg)]) == 0
        stdout = capsys.readouterr().out
        assert (out_dir / "report.json").read_text() == stdout

    def test_report_counts_searched_spectra(self, baseline_cfg, tmp_path, capsys):
        # Both targets are canceled in the first iteration, which leaves the
        # order-2 estimate no signal columns: no flat spectrum is
        # searched after that, and nothing is left uncanceled.
        targets = (Target(7.0, math.radians(-25), 0.02 + 0j),
                   Target(14.0, math.radians(20), 0.005 + 0j))
        csi_path = self.write_csi(tmp_path, targets, 15.0, seed=3)
        out_dir = tmp_path / "reports"
        assert main(["estimate", str(csi_path), "--config", str(baseline_cfg),
                     "--out", str(out_dir)]) == 0
        doc = json.loads((out_dir / "report.json").read_text())
        assert [d["iteration"] for d in doc["detections"]] == [0, 0]
        assert doc["spectra_computed"] == 1
        assert doc["saturated"] is False


class TestSweepCommand:
    def sweep_cfg(self, tmp_path, routine="multiple", seed=13):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "c = 3e8\nJ = 2\nsnr_db = 20\nrange_diff_start = 0\n"
            "range_diff_stop = 0.2\nrange_diff_step = 0.1\n"
            "base_range_max_m = 22\nseed = %d\nroutine = %s\nout_dir = %s\n"
            % (seed, routine, tmp_path / "out"))
        return path

    def test_rows_and_determinism(self, tmp_path):
        cfg = self.sweep_cfg(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--threads", "1"]) == 0
        csv_path = tmp_path / "out" / "sweep.csv"
        first = csv_path.read_bytes()
        assert len(first.decode().strip().splitlines()) == 4   # header + 3 rows
        assert main(["sweep", "--config", str(cfg), "--threads", "2"]) == 0
        assert csv_path.read_bytes() == first

    def test_sidecar_echoes_config(self, tmp_path):
        cfg = self.sweep_cfg(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--routine", "off",
                     "--seed", "99", "--threads", "1"]) == 0
        doc = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert doc["config"]["routine"] == "off"
        assert doc["config"]["seed"] == 99
        assert doc["version"].startswith("ofdm-music/")

    @pytest.mark.parametrize("line, field", [("A_a = 1", "rmse_azimuth_deg"),
                                             ("free_placement = true", "x_axis")])
    def test_sidecar_is_strict_json(self, tmp_path, line, field):
        # A range-only plan has no azimuth RMSE and free placement no x value.
        # sweep.csv writes nan there; sweep.json used to write a bare NaN,
        # which RFC 8259 parsers reject, and now writes null.
        cfg = self.sweep_cfg(tmp_path)
        cfg.write_text(cfg.read_text() + line + "\n")
        assert main(["sweep", "--config", str(cfg), "--threads", "1"]) == 0
        doc = _strict_json((tmp_path / "out" / "sweep.json").read_text())
        assert doc["summary"][field] and \
            all(value is None for value in doc["summary"][field])
        assert "nan" in (tmp_path / "out" / "sweep.csv").read_text()

    @pytest.mark.parametrize("flags, logged", [((), False), (("-v",), True),
                                               (("-vv",), True)])
    def test_verbose_logs_sweep_points(self, tmp_path, flags, logged):
        # In a fresh process, since logging.basicConfig configures the root
        # logger once per process.
        src = os.path.dirname(os.path.dirname(ofdm_music.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "ofdm_music.cli", "sweep", "--config",
             str(self.sweep_cfg(tmp_path)), "--threads", "1", *flags],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        points = [line for line in proc.stderr.splitlines()
                  if "sweep point" in line]
        assert len(points) == (3 if logged else 0)
        assert all(line.startswith("INFO ofdm_music.harness: sweep point ")
                   for line in points)

    def test_default_workers_follow_cpu_affinity(self, tmp_path, monkeypatch):
        # Pinned to one CPU, a run without --threads starts one worker, not
        # one per CPU of the machine.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert main(["sweep", "--config", str(self.sweep_cfg(tmp_path))]) == 0
        doc = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert doc["threads"] == 1

    def test_patched_fig2_runs(self, tmp_path):
        text = bundled_config_text("fig2_desk.cfg")
        text = text.replace("J = 500", "J = 1")
        text = text.replace("out_dir = out/fig2_desk",
                            "out_dir = %s" % (tmp_path / "fig2"))
        path = tmp_path / "fig2_tiny.cfg"
        path.write_text(text)
        assert main(["sweep", "--config", str(path), "--threads", "2"]) == 0
        rows = (tmp_path / "fig2" / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 26

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense = 1\n")
        assert main(["sweep", "--config", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unreachable_angle_separation_exit_2(self, tmp_path, capsys):
        path = tmp_path / "sep.cfg"
        path.write_text("min_angle_sep_deg = 150\n")
        assert main(["sweep", "--config", str(path)]) == 2
        assert "min_angle_sep_deg" in capsys.readouterr().err

    def test_aliasing_base_range_exit_2(self, tmp_path, capsys):
        path = tmp_path / "alias.cfg"
        path.write_text("base_range_max_m = 25\n")
        assert main(["sweep", "--config", str(path)]) == 2
        assert "unambiguous range" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_flags_are_config_keys(self, tmp_path):
        # The four key flags write the same table as the keys themselves.
        out_dir = tmp_path / "d"
        cfg = self.sweep_cfg(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--seed", "99", "--routine",
                     "off", "--snr-db", "12", "--out", str(out_dir),
                     "--threads", "1"]) == 0
        by_flags = ((out_dir / "sweep.csv").read_bytes(),
                    json.loads((out_dir / "sweep.json").read_text())["config"])
        cfg.write_text(cfg.read_text() + "seed = 99\nroutine = off\nsnr_db = 12\n"
                       "out_dir = %s\n" % out_dir)
        assert main(["sweep", "--config", str(cfg), "--threads", "1"]) == 0
        by_keys = ((out_dir / "sweep.csv").read_bytes(),
                   json.loads((out_dir / "sweep.json").read_text())["config"])
        assert by_flags == by_keys
        assert by_keys[1]["seed"] == 99 and by_keys[1]["snr_db"] == 12.0

    def test_merge_radius_key_unknown_exit_2(self, tmp_path, capsys):
        path = tmp_path / "merge.cfg"
        path.write_text("merge_radius_r = 0.25\n")
        assert main(["sweep", "--config", str(path)]) == 2
        assert "unknown config key 'merge_radius_r'" in capsys.readouterr().err

    def test_sweep_without_points_exit_2(self, tmp_path, capsys):
        # it used to exit 0 with a sweep.csv of only a header
        path = tmp_path / "empty.cfg"
        path.write_text("range_diff_start = 1\nrange_diff_stop = 0.5\n"
                        "out_dir = %s\n" % (tmp_path / "out"))
        assert main(["sweep", "--config", str(path), "--threads", "1"]) == 2
        assert "at least one range difference" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, needle", _FINITE_BUT_UNUSABLE)
    def test_bad_float_value_exit_2(self, tmp_path, capsys, monkeypatch, line,
                                    needle):
        # The toy geometry, two trials per point; no trial may start.
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "generate_trial", no_trial)
        path = tmp_path / "toy.cfg"
        path.write_text(bundled_config_text("toy_geometry.cfg")
                        + "\nJ = 2\n%s\nout_dir = %s\n" % (line, tmp_path / "out"))
        assert main(["sweep", "--config", str(path), "--threads", "1"]) == 2
        assert needle in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCalibrateCommand:
    def test_writes_kappa(self, baseline_cfg, tmp_path, capsys):
        assert main(["calibrate", "--config", str(baseline_cfg), "--trials",
                     "20", "--threads", "1"]) == 0
        out_dir = json.loads((tmp_path / "out" / "kappa.json").read_text())
        assert out_dir["kappa"] >= 1.0
        assert out_dir["n_trials"] == 20

    def test_idempotent_given_seed(self, baseline_cfg, tmp_path):
        main(["calibrate", "--config", str(baseline_cfg), "--trials", "20",
              "--threads", "1"])
        first = (tmp_path / "out" / "kappa.json").read_text()
        main(["calibrate", "--config", str(baseline_cfg), "--trials", "20",
              "--threads", "2"])
        assert (tmp_path / "out" / "kappa.json").read_text() == first

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_no_trials_exit_2(self, baseline_cfg, tmp_path, capsys, trials):
        assert main(["calibrate", "--config", str(baseline_cfg), "--trials",
                     trials, "--threads", "1"]) == 2
        assert "n_trials must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out" / "kappa.json").exists()


@pytest.mark.parametrize("command", ["sweep", "calibrate"])
@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_exit_2(baseline_cfg, tmp_path, capsys, command,
                                  threads):
    assert main([command, "--config", str(baseline_cfg), "--threads",
                 threads]) == 2
    assert "--threads must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["estimate", "sweep", "calibrate",
                                     "complexity"])
@pytest.mark.parametrize("line", ["range_diff_start = 1e300",
                                  "range_diff_stop = 1e300",
                                  "range_diff_step = 1e-300"])
def test_unbounded_sweep_exit_2(tmp_path, capsys, command, line):
    # The point count is checked before any array is sized by it: numpy's
    # arange used to end these runs with exit 1 and "Maximum allowed size
    # exceeded".
    path = tmp_path / "toy.cfg"
    path.write_text(bundled_config_text("toy_geometry.cfg")
                    + "\n%s\nout_dir = %s\n" % (line, tmp_path / "out"))
    args = [command, "--config", str(path), "--threads", "1"]
    if command == "estimate":
        args.insert(1, str(tmp_path / "frame.bin"))
    assert main(args) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_oversized_matrices_exit_2(tmp_path, capsys):
    # K = A_a = 4096 on the toy geometry passes every per-key check, but gives
    # M = 6,144 samples and a 5 x 8,575 grid: a 6,144 x 42,875 complex
    # steering matrix, 3.9 GiB. The size is checked before any of it is
    # allocated. The D_f = 1 comparator of the complexity table stays inside.
    build_run_config(parse_config_text("c = 3e8\nD_f = 1\n"))
    text = bundled_config_text("toy_geometry.cfg") \
        + "\nK = 4096\nA_a = 4096\nout_dir = %s\n" % (tmp_path / "out")
    with pytest.raises(ConfigError, match="M = 6144"):
        build_run_config(parse_config_text(text))
    path = tmp_path / "big.cfg"
    path.write_text(text)
    assert main(["complexity", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "antenna spacing d" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sweep", "calibrate"])
@pytest.mark.parametrize("by_flag", [False, True])
def test_negative_seed_exit_2(baseline_cfg, tmp_path, capsys, command, by_flag):
    # numpy's SeedSequence used to end the run with exit 1 and a traceback
    args = [command, "--config", str(baseline_cfg), "--threads", "1"]
    if by_flag:
        args += ["--seed", "-1"]
    else:
        baseline_cfg.write_text(baseline_cfg.read_text() + "seed = -1\n")
    assert main(args) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_DETECT_AND_CALIBRATE = """
import sys
import ofdm_music.cli
from ofdm_music import (GridConfig, calibrate_kappa, covariance, decompose, detect,
                        generate_trial, smooth, steering_params, synthesize_csi)
from ofdm_music.config import bundled_config_text, build_run_config, parse_config_text
cfg = build_run_config(parse_config_text(bundled_config_text("toy_geometry.cfg")))
scene = generate_trial(cfg.scenario, cfg.radio, 0)
subs = decompose(covariance(smooth(synthesize_csi(cfg.radio, scene, 1), cfg.plan)))
detect(subs, steering_params(cfg.radio, cfg.plan),
       GridConfig(cfg.radio, cfg.plan, cfg.theta_lim_rad), cfg.detector)
calibrate_kappa(cfg.radio, cfg.plan, cfg.detector, cfg.theta_lim_rad, n_trials=5)
print(sorted(m for m in ("scipy", "numpy.ma") if m in sys.modules))
"""


def test_import_leaves_scipy_unloaded():
    # Neither the import nor a detect and a calibration load scipy or numpy.ma
    # (np.quantile imports numpy.ma, about 1 MiB in every process).
    src = os.path.dirname(os.path.dirname(ofdm_music.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _DETECT_AND_CALIBRATE],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Edge values of the seeded config fuzz. The large integer stresses the size
# each key sets while the toy geometry keeps every run under about 100 MB.
_FUZZ_FLOATS = (0.0, 1.0, -1.0, 1e-300, -1e-300, 1e300, -1e300)
_FUZZ_INTS = (0, 1, 4096)
# The sweep runs J = 2 trials per point: the fuzz leaves J alone, since a
# large J is a long run, not a bad input.
_FUZZ_KEYS = [key for key, value in _DEFAULTS.items()
              if key != "J" and (value is None or type(value) in (int, float))]
_FUZZ_SECONDS = 10


def _fuzz_run(args, out_dir, capsys):
    """Run ``main(args)`` under a wall-time alarm; returns the problems seen."""
    def expire(signum, frame):
        raise TimeoutError(f"no exit within {_FUZZ_SECONDS} s")

    shutil.rmtree(out_dir, ignore_errors=True)
    capsys.readouterr()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(_FUZZ_SECONDS)
    try:
        code = main(args)
    except Exception as exc:   # any escape is what the fuzz looks for
        return [f"raised {exc!r}"]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    problems = [] if code in (0, 2, 3) else [f"exit {code}"]
    texts = [capsys.readouterr().out] if args[0] == "estimate" and code == 0 \
        else []
    texts += [path.read_text() for path in sorted(out_dir.glob("*.json"))]
    for text in texts:
        try:
            _strict_json(text)
        except ValueError as exc:
            problems.append(f"not strict JSON: {exc}")
    return problems


def _toy_frame(path):
    """A fixed 5 x 16 CSI frame for the toy geometry, two targets at 15 dB."""
    cfg = build_run_config(parse_config_text(bundled_config_text(
        "toy_geometry.cfg")))
    scene = TargetScene((Target(120.0, 0.3, 1e-4 + 0j),
                         Target(300.0, -0.4, 4e-5 + 0j)), 0.0)
    sigma2 = noise_variance_for_snr(scene, cfg.radio, 15.0)
    synthesize_csi(cfg.radio, TargetScene(scene.targets, sigma2), 5).to_binary(
        path)
    return cfg.radio


def test_seeded_config_fuzz(tmp_path, capsys):
    # Every float and integer key takes each of its edge values, alone and
    # with a second key drawn at random and set to one of its edge values,
    # under every command; then estimate reads corrupted CSI files. Each run
    # exits 0, 2 or 3 before the alarm, and every JSON it prints or writes is
    # strict: no NaN or infinity.
    rng = np.random.default_rng(20_221_022)
    frame = tmp_path / "frame.csi"
    radio = _toy_frame(frame)
    out_dir = tmp_path / "out"
    # Two sweep points of J = 2 trials.
    base = bundled_config_text("toy_geometry.cfg") \
        + "\nJ = 2\nrange_diff_stop = 1\nrange_diff_step = 1\nout_dir = %s\n" \
        % out_dir

    def edges(key):
        return _FUZZ_INTS if type(_DEFAULTS[key]) is int else _FUZZ_FLOATS

    failures = []
    path = tmp_path / "fuzz.cfg"
    for key in _FUZZ_KEYS:
        for value in edges(key):
            other = _FUZZ_KEYS[int(rng.integers(len(_FUZZ_KEYS)))]
            other_value = edges(other)[int(rng.integers(len(edges(other))))]
            for lines in ([f"{key} = {value!r}"],
                          [f"{other} = {other_value!r}", f"{key} = {value!r}"]):
                path.write_text(base + "\n".join(lines) + "\n")
                for args in (["complexity"], ["calibrate", "--trials", "3"],
                             ["sweep"], ["estimate", str(frame)]):
                    args = args[:1] + ["--config", str(path), "--threads", "1"] \
                        + args[1:]
                    for problem in _fuzz_run(args, out_dir, capsys):
                        failures.append(f"{args[0]} with {lines}: {problem}")
    data = CsiMatrix.from_binary(frame, radio).data
    raw = frame.read_bytes()
    corrupted = {
        "truncated": raw[:-7],
        "bad header": raw[:4] + (99).to_bytes(4, "little") + raw[8:],
        "NaN": raw[:24] + struct.pack("<dd", math.nan, 0.0) + raw[40:],
        "+inf": raw[:24] + struct.pack("<dd", math.inf, 0.0) + raw[40:],
        "-inf": raw[:24] + struct.pack("<dd", 0.0, -math.inf) + raw[40:],
        "scaled by 1e300": raw[:8] + (data * 1e300).astype("<c16").tobytes(),
        "all zero": raw[:8] + bytes(len(raw) - 8),
    }
    path.write_text(base)
    for name, content in corrupted.items():
        bad = tmp_path / "bad.csi"
        bad.write_bytes(content)
        args = ["estimate", str(bad), "--config", str(path)]
        for problem in _fuzz_run(args, out_dir, capsys):
            failures.append(f"estimate on a {name} CSI file: {problem}")
    assert not failures, "\n".join(failures)
