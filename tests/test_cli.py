import json
import math
import struct

import pytest

from ofdm_music import TargetScene, Target, noise_variance_for_snr, synthesize_csi
from ofdm_music.cli import main
from ofdm_music.config import (bundled_config_text, build_run_config,
                               parse_config_text)
from ofdm_music.errors import ConfigError
from ofdm_music.presets import baseline_radio


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

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("frobnicate = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="unparseable"):
            parse_config_text("N = twelve\n")

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

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "nope.cfg")]) == 2


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
