import csv
import filecmp
import json

import numpy as np
import pytest

from ionchain import cli


def write_config(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_table(path):
    meta, rows = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                meta.append(line.strip())
            else:
                rows.append(line.strip())
    reader = csv.DictReader(rows)
    return meta, list(reader)


class TestConfigParsing:
    def test_values_comments_and_blanks(self, tmp_path):
        p = write_config(tmp_path, """
# a comment
n_ions = 6

omega_z_mhz = 0.9   # trailing comment
""")
        raw = cli.parse_config_file(p)
        assert raw == {"n_ions": "6", "omega_z_mhz": "0.9"}

    def test_duplicate_key_rejected(self, tmp_path):
        p = write_config(tmp_path, "n_ions = 4\nn_ions = 5\n")
        with pytest.raises(cli.ConfigError, match="duplicate"):
            cli.parse_config_file(p)

    def test_missing_equals_reports_line(self, tmp_path):
        p = write_config(tmp_path, "n_ions = 4\njust words\n")
        with pytest.raises(cli.ConfigError, match="2"):
            cli.parse_config_file(p)

    def test_unknown_key_lists_valid_ones(self, tmp_path, capsys):
        p = write_config(tmp_path, "bogus_key = 1\n")
        rc = cli.main(["chain", "--config", p, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bogus_key" in err and "n_ions" in err

    def test_bad_value_reports_key(self, tmp_path, capsys):
        p = write_config(tmp_path, "n_ions = many\n")
        rc = cli.main(["chain", "--config", p, "--out", str(tmp_path)])
        assert rc == 2
        assert "n_ions" in capsys.readouterr().err

    @pytest.mark.parametrize("command,text,message", [
        ("chain", "omega_z_mhz = 9\n", "omega_z"),
        ("leakage", "n_ions = 4\nalpha_target = 0.5\nfock_cutoff = 0\n",
         "fock_cutoff"),
        ("noise", "n_list = 8\nt2_ms = 0\n", "t2"),
    ])
    def test_value_rejected_by_library_exits_two(self, tmp_path, capsys,
                                                 command, text, message):
        p = write_config(tmp_path, text)
        rc = cli.main([command, "--config", p, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    def test_defaults_fill_in(self):
        cfg = cli.resolve_config("chain", {})
        assert cfg["n_ions"] == 10
        assert cfg["omega_z_mhz"] == "auto"


class TestChainCommand:
    def test_three_ion_positions(self, tmp_path):
        p = write_config(tmp_path, "n_ions = 3\nomega_z_mhz = 1.0\n")
        rc = cli.main(["chain", "--config", p, "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_table(tmp_path / "positions.csv")
        u = [float(r["u_dimensionless"]) for r in rows]
        assert u == pytest.approx([-1.25 ** (1 / 3), 0.0, 1.25 ** (1 / 3)],
                                  abs=1e-9)

    def test_report_is_valid_json(self, tmp_path):
        p = write_config(tmp_path, "n_ions = 4\nomega_z_mhz = 0.8\n")
        assert cli.main(["chain", "--config", p, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "chain_report.json").read_text())
        assert report["trap"]["n_ions"] == 4
        assert len(report["solution"]["mode_freqs_rad_s"]) == 4

    def test_single_ion(self, tmp_path):
        p = write_config(tmp_path, "n_ions = 1\nomega_z_mhz = 0.8\n")
        assert cli.main(["chain", "--config", p, "--out", str(tmp_path)]) == 0

    def test_unstable_axial_frequency_exits_one(self, tmp_path, capsys):
        p = write_config(tmp_path, "n_ions = 10\nomega_z_mhz = 2.0\n")
        rc = cli.main(["chain", "--config", p, "--out", str(tmp_path)])
        assert rc == 1
        assert "UnstableChain" in capsys.readouterr().err

    def test_reruns_byte_identical(self, tmp_path):
        p = write_config(tmp_path, "n_ions = 5\nomega_z_mhz = 0.9\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["chain", "--config", p, "--out", str(a)]) == 0
        assert cli.main(["chain", "--config", p, "--out", str(b)]) == 0
        for name in ("positions.csv", "chain_report.json"):
            assert filecmp.cmp(a / name, b / name, shallow=False)


class TestCouplingsCommand:
    def test_csv_table(self, tmp_path):
        p = write_config(tmp_path,
                         "n_ions = 5\nomega_z_mhz = 0.9\nalpha_target = 0.5\n")
        rc = cli.main(["couplings", "--config", p, "--out", str(tmp_path)])
        assert rc == 0
        meta, rows = read_table(tmp_path / "couplings.csv")
        assert len(rows) == 5 * 4 // 2
        assert any("config_hash" in m for m in meta)
        report = json.loads((tmp_path / "couplings_report.json").read_text())
        assert report["model"]["alpha_fit"] == pytest.approx(0.5, abs=1e-3)

    def test_json_format(self, tmp_path):
        p = write_config(tmp_path,
                         "n_ions = 4\nomega_z_mhz = 0.9\nmu_mhz = auto\n")
        rc = cli.main(["couplings", "--config", p, "--out", str(tmp_path),
                       "--format", "json"])
        assert rc == 0
        table = json.loads((tmp_path / "couplings.json").read_text())
        assert set(table) == {"meta", "columns", "rows"}
        assert len(table["rows"]) == 4 * 3 // 2


class TestAlphaScanCommand:
    def test_alpha_monotone_in_mu(self, tmp_path):
        p = write_config(tmp_path, "n_ions = 6\nomega_z_mhz = 0.9\n"
                                   "scan_points = 8\n")
        rc = cli.main(["alpha-scan", "--config", p, "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_table(tmp_path / "alpha_scan.csv")
        assert len(rows) == 8
        mu = [float(r["mu_rad_s"]) for r in rows]
        alpha = [float(r["alpha"]) for r in rows]
        assert np.all(np.diff(mu) > 0)
        assert np.all(np.diff(alpha) > 0)


class TestLeakageCommand:
    def test_small_run(self, tmp_path):
        p = write_config(tmp_path, "\n".join([
            "n_ions = 4", "omega_z_mhz = 1.0", "alpha_target = 0.5",
            "fock_cutoff = 2", "periods = 2", "n_times = 300", ""]))
        rc = cli.main(["leakage", "--config", p, "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "leakage_report.json").read_text())
        assert report["r"] > 0.999
        _, rows = read_table(tmp_path / "leakage.csv")
        assert len(rows) == 300
        assert {"t_seconds", "E_sim", "E_norm"} <= set(rows[0])

    def test_requires_working_point(self, tmp_path, capsys):
        p = write_config(tmp_path, "n_ions = 4\nomega_z_mhz = 1.0\n")
        rc = cli.main(["leakage", "--config", p, "--out", str(tmp_path)])
        assert rc == 2
        assert "alpha_target" in capsys.readouterr().err

    def test_rejects_bad_mode_count(self, tmp_path):
        p = write_config(tmp_path, "n_ions = 4\nomega_z_mhz = 1.0\n"
                                   "alpha_target = 0.5\nmodes = 3\n")
        assert cli.main(["leakage", "--config", p,
                         "--out", str(tmp_path)]) == 2


class TestTransferCommand:
    def test_idealized_sweep(self, tmp_path):
        p = write_config(tmp_path, "n_list = 8,12\noptimize = false\n"
                                   "n_times = 200\n")
        rc = cli.main(["transfer", "--config", p, "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_table(tmp_path / "transfer.csv")
        assert len(rows) == 2
        for r in rows:
            assert float(r["F_peak"]) > 0.9

    def test_empty_n_list_rejected(self, tmp_path):
        p = write_config(tmp_path, "n_list =\n")
        assert cli.main(["transfer", "--config", p,
                         "--out", str(tmp_path)]) == 2


class TestSearchCommand:
    def test_search_trace(self, tmp_path):
        p = write_config(tmp_path, "n_ions = 16\nn_times = 400\n"
                                   "t_max_factor = 2.0\n")
        rc = cli.main(["search", "--config", p, "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_table(tmp_path / "search.csv")
        probs = [float(r["marked_probability"]) for r in rows]
        assert max(probs) > 0.8


class TestNoiseCommand:
    def test_small_ensemble(self, tmp_path):
        p = write_config(tmp_path, "\n".join([
            "n_list = 8", "alpha_list = 0.3", "n_samples = 5",
            "optimize = false", "n_times = 50", "omega_z_mhz = auto", ""]))
        rc = cli.main(["noise", "--config", p, "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_table(tmp_path / "noise.csv")
        assert len(rows) == 1
        assert 0.0 < float(rows[0]["mean_F"]) <= 1.0
        report = json.loads((tmp_path / "noise_report.json").read_text())
        case = report["cases"][0]
        # 5 samples only: the mean can fluctuate slightly above noiseless
        assert case["mean_F"] == pytest.approx(case["noiseless_F"], abs=0.01)


class TestPresetsAndFlags:
    def test_preset_on_wrong_subcommand(self, tmp_path, capsys):
        rc = cli.main(["chain", "--paper-fig", "2a", "--out", str(tmp_path)])
        assert rc == 2
        assert "leakage" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["--version"])
        assert e.value.code == 0
        assert "ionchain" in capsys.readouterr().out

    def test_written_paths_printed(self, tmp_path, capsys):
        p = write_config(tmp_path, "n_ions = 3\nomega_z_mhz = 1.0\n")
        assert cli.main(["chain", "--config", p, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "positions.csv" in out and "chain_report.json" in out
