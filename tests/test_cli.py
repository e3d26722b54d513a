import csv
import dataclasses
import filecmp
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ionchain
from ionchain import chain, cli, noise, spinphonon, xy


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
        ("leakage", "n_times = 0\n", "n_times"),
        ("leakage", "n_times = 1\n", "n_times"),
        ("search", "n_times = 0\n", "n_times"),
        ("noise", "n_list = 8,2\n", "n_list"),
        ("transfer", "n_list = 8,2\n", "n_list"),
        ("noise", "n_list = 8\nbudget = 0\n", "budget"),
        ("transfer", "n_list = 8\nbudget = 0\n", "budget"),
        ("noise", "n_list = 8\nn_times = 50\n", "unknown key 'n_times'"),
        ("transfer", "n_list = 8\nn_times = 50\n", "unknown key 'n_times'"),
        ("noise", "n_list = 8\nt2_ms = nan\n", "t2"),
        ("noise", "n_list = 8\nfield_variance = -1\n", "field_variance"),
        ("noise", "n_list = 8\nfield_variance = nan\n", "field_variance"),
        ("transfer", "n_list = 8\nbox = nan\n", "box"),
        ("transfer", "n_list = 8\nbox = -0.5\n", "box"),
        ("transfer", "n_list = 8\nbox = 0\n", "box"),
        ("transfer", "n_list = 8\nbox = 1\n", "box"),
        ("transfer", "n_list = 8\nbox = 5\n", "box"),
        ("transfer", "n_list = 8\nbox = inf\n", "box"),
        # checked before the working point, which fails on this chain
        ("search", "n_ions = 10\nomega_z_mhz = 2.0\ncouplings = "
                   "experimental\nmarked = 10\n", "marked"),
    ])
    def test_value_rejected_by_library_exits_two(self, tmp_path, capsys,
                                                 command, text, message):
        p = write_config(tmp_path, text)
        rc = cli.main([command, "--config", p, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    @pytest.mark.parametrize("command,key", [("leakage", "periods"),
                                             ("search", "t_max_factor"),
                                             ("search", "gamma")])
    @pytest.mark.parametrize("value", ["inf", "nan", "-1", "0"])
    def test_time_span_must_be_finite_and_positive(self, tmp_path, capsys,
                                                   command, key, value):
        p = write_config(tmp_path, f"n_ions = 4\nalpha_target = 0.5\n"
                                   f"{key} = {value}\n")
        rc = cli.main([command, "--config", p, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        # refused before any work: nothing written
        assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]

    @pytest.mark.parametrize("command,key,value", [
        ("chain", "stability_safety", "0"),
        ("leakage", "omega_c_pin_mhz", "-1"),
        ("leakage", "omega_c_pin_mhz", "0"),
        ("alpha-scan", "scan_points", "0"),
        ("alpha-scan", "mu_max_factor", "0"),
        ("couplings", "mu_mhz", "nan"),
        ("couplings", "mu_mhz", "inf"),
        ("couplings", "mu_mhz", "-1"),
        ("couplings", "alpha_target", "nan"),
        ("couplings", "alpha_target", "inf"),
        ("noise", "alpha_list", "nan"),
        ("noise", "alpha_list", "0.2,inf"),
        ("couplings", "n_init", "-1"),
    ])
    def test_out_of_range_value_exits_two(self, tmp_path, capsys, command,
                                          key, value):
        # each used to end in a traceback, a NaN cast, an empty table,
        # numpy's message, DegenerateFit, or a run on the bad value; mu_mhz
        # is used only without an alpha_target, which takes precedence
        target = "" if key in ("mu_mhz", "alpha_target") \
            else "alpha_target = 0.5\n"
        p = write_config(tmp_path, f"n_ions = 4\n{target}{key} = {value}\n")
        rc = cli.main([command, "--config", p, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"key '{key}'" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]

    @pytest.mark.parametrize("key", ["mass_amu", "omega_x_mhz", "omega_y_mhz",
                                     "omega_z_mhz", "rabi_total_mhz",
                                     "delta_k"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_trap_key_must_be_finite_and_positive(self, tmp_path, capsys,
                                                  key, value):
        # several used to end in DegenerateFit or NoStablePoint (exit 1),
        # and rabi_total_mhz = -1 in a run on a negative Rabi frequency
        p = write_config(tmp_path, f"n_ions = 4\n{key} = {value}\n")
        rc = cli.main(["couplings", "--config", p, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"key '{key}'" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]

    @pytest.mark.parametrize("command, extra", [
        ("search", "couplings = experimental\n"),
        ("couplings", "alpha_target = 0.5\n"),
        ("leakage", "alpha_target = 0.3\n"),
        ("alpha-scan", ""),
    ], ids=["search", "couplings", "leakage", "alpha-scan"])
    def test_alpha_fit_on_two_ions_exits_two(self, tmp_path, capsys,
                                             command, extra):
        # two ions have one distance, too few for an alpha fit; each used to
        # exit 1 with "DegenerateFit: need N >= 3" after solving the chain
        p = write_config(tmp_path, f"n_ions = 2\n{extra}")
        rc = cli.main([command, "--config", p, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "n_ions >= 3" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]

    @pytest.mark.parametrize("modes", [1, 2])
    def test_leakage_on_one_ion_exits_two(self, tmp_path, capsys,
                                          monkeypatch, modes):
        # one mode used to write "J_prime_factor_mean": NaN, two the
        # unrelated "included modes must be distinct"
        def unreachable(cfg):
            raise AssertionError("chain solved")
        monkeypatch.setattr(cli, "resolve_working_point", unreachable)
        p = write_config(tmp_path, f"n_ions = 1\nmu_mhz = 6.5\n"
                                   f"n_times = 50\nmodes = {modes}\n")
        rc = cli.main(["leakage", "--config", p, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "n_ions" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]

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

    def test_inf_in_report_names_its_key_path(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr(cli, "_trap_dict",
                            lambda trap: {"freqs": [1.0, np.inf]})
        rc = cli.main(["chain", "--out", str(tmp_path)])
        assert rc == 1
        assert "chain_report.json: trap.freqs[1] is inf" \
            in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("line,below", [("", True),
                                            ("alpha_target = 0.5", False)])
    def test_mu_below_min_flagged(self, tmp_path, line, below):
        # the default mu_mhz = 0 runs as given, below mu_min; an alpha fit
        # keeps mu at or above it
        p = write_config(tmp_path, f"n_ions = 4\n{line}\n")
        assert cli.main(["couplings", "--config", p,
                         "--out", str(tmp_path)]) == 0
        point = json.loads((tmp_path / "couplings_report.json")
                           .read_text())["working_point"]
        assert point["mu_below_min"] is below
        assert (point["mu_rad_s"] < point["mu_min_rad_s"]) is below
        if below:
            assert point["mu_rad_s"] == 0.0 < point["mu_min_rad_s"]


class TestStrongDrive:
    """Omega above 3 Omega eta_com + omega_com: mu_min clamps at 0."""

    @pytest.mark.parametrize("line", ["mu_mhz = auto", "alpha_target = 0.5"])
    def test_working_point_at_zero_detuning(self, tmp_path, capsys, line):
        p = write_config(tmp_path, f"n_ions = 8\nrabi_total_mhz = 400\n"
                                   f"{line}\n")
        rc = cli.main(["couplings", "--config", p, "--out", str(tmp_path)])
        assert rc == 0, capsys.readouterr().err
        point = json.loads((tmp_path / "couplings_report.json")
                           .read_text())["working_point"]
        assert point["mu_min_rad_s"] == point["mu_rad_s"] == 0.0
        assert point["mu_below_min"] is False
        if "alpha_target" in line:
            # alpha(0) is already above the target
            assert point["alpha_target_unreachable"] is True
            assert point["alpha_achieved"] > 0.5
            assert point["detuning_steps"] == 1


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

    def test_zero_min_detuning_starts_at_zero(self, tmp_path):
        # Omega alone exceeds the detuning bound: mu_min = 0, and the grid
        # runs linearly from there
        p = write_config(tmp_path, "n_ions = 8\nrabi_total_mhz = 400\n"
                                   "scan_points = 6\n")
        rc = cli.main(["alpha-scan", "--config", p, "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "alpha_scan_report.json").read_text())
        assert report["mu_min_rad_s"] == 0.0
        _, rows = read_table(tmp_path / "alpha_scan.csv")
        mu = [float(r["mu_rad_s"]) for r in rows]
        assert len(mu) == 6 and mu[0] == 0.0
        assert np.all(np.diff(mu) > 0)
        assert np.all(np.isfinite([float(r["alpha"]) for r in rows]))


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
        # n = 4, s = 1, quanta <= 3, one mode with fock 2: 1 + 8 + 6 + 4
        # states of odd quanta, spin count 0 to 3
        assert report["block_dim"] == 19
        # a COM-only run from one basis state evolves in the 9 orbit sums
        # of its site permutations, beside mirror halves of 11 and 8
        assert report["mirror_block_dims"] == [11, 8]
        assert report["propagated_dims"] == [9]
        assert 0.0 < report["edge_population_max"] < 1e-3
        assert 0.0 <= report["norm_drift_max"] < 1e-13
        e_sim = np.array([float(row["E_sim"]) for row in rows])
        assert report["fit_residual_over_power"] == pytest.approx(
            report["fit_residual"] / np.sum(e_sim ** 2), rel=1e-12)

    def test_nan_in_report_exits_one_with_no_report(self, tmp_path, capsys,
                                                     monkeypatch):
        renormalized = cli.leakage.renormalized_couplings

        def nan_factor(*args):
            return dataclasses.replace(renormalized(*args),
                                       factor_summary=float("nan"))

        monkeypatch.setattr(cli.leakage, "renormalized_couplings",
                            nan_factor)
        p = write_config(tmp_path, "\n".join([
            "n_ions = 4", "omega_z_mhz = 1.0", "alpha_target = 0.5",
            "fock_cutoff = 2", "periods = 2", "n_times = 300", ""]))
        out = tmp_path / "out"
        rc = cli.main(["leakage", "--config", p, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "NonFiniteReport: leakage_report.json: J_prime_factor_mean " \
            "is nan" in err
        assert "config error" not in err
        assert not (out / "leakage_report.json").exists()

    @pytest.mark.parametrize("modes", [1, 2])
    def test_one_eigensystem_per_operator(self, tmp_path, monkeypatch,
                                          modes):
        # nothing is cached: the block's eigensystem is solved once, in
        # propagate, and each XY sector's once, in its model_fidelity
        calls = []
        for cls in (spinphonon.SpinPhononSystem, xy.XYSector):
            def counted(self, *args, _solve=cls.eigensystem):
                calls.append(self)
                return _solve(self, *args)

            monkeypatch.setattr(cls, "eigensystem", counted)
        p = write_config(tmp_path, "n_ions = 4\nalpha_target = 0.5\n"
                                   f"fock_cutoff = 2\nmodes = {modes}\n"
                                   "n_times = 50\n")
        assert cli.main(["leakage", "--config", p,
                         "--out", str(tmp_path)]) == 0
        systems = [c for c in calls
                   if isinstance(c, spinphonon.SpinPhononSystem)]
        sectors = [c for c in calls if isinstance(c, xy.XYSector)]
        assert len(systems) == 1
        assert len(sectors) == len({id(c) for c in sectors}) == 2

    def test_huge_periods_run_no_chebyshev_series(self, tmp_path, capsys,
                                                  monkeypatch):
        # 1e12 periods: the XY reference is spectral, so no series whose
        # length grows with the time span runs, and the run finishes
        def no_series(*args, **kwargs):
            raise AssertionError("xy.chebyshev called")

        monkeypatch.setattr(xy, "chebyshev", no_series)
        p = write_config(tmp_path, "n_ions = 4\nalpha_target = 0.3\n"
                                   "n_times = 3\nperiods = 1e12\n")
        rc = cli.main(["leakage", "--config", p, "--out", str(tmp_path)])
        assert rc == 0, capsys.readouterr().err
        _, rows = read_table(tmp_path / "leakage.csv")
        assert len(rows) == 3
        assert np.all(np.isfinite([float(row[k]) for row in rows
                                   for k in ("F_bare", "F_renormalized")]))

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

    def test_total_quanta_below_s_init_rejected(self, tmp_path, capsys):
        # the initial state would lie outside the truncated basis
        p = write_config(tmp_path, "n_ions = 4\nalpha_target = 0.5\n"
                                   "total_quanta = 1\ns_init = 2\n")
        rc = cli.main(["leakage", "--config", p, "--out", str(tmp_path)])
        assert rc == 2
        assert "total_quanta" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]

    @pytest.mark.parametrize("window", [("1.001", "1.001"),
                                        ("1.002", "0.999"), ("nan", "1.002"),
                                        ("0.999", "inf")])
    def test_fit_window_rejected_up_front(self, tmp_path, capsys,
                                          monkeypatch, window):
        def no_working_point(*args, **kwargs):
            raise AssertionError("working point resolved")

        monkeypatch.setattr(cli, "resolve_working_point", no_working_point)
        p = write_config(tmp_path, "n_ions = 4\nalpha_target = 0.5\n"
                                   f"r_lo = {window[0]}\nr_hi = {window[1]}\n")
        rc = cli.main(["leakage", "--config", p, "--out", str(tmp_path)])
        assert rc == 2
        assert "r_lo < r_hi" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]

    def test_pinned_com_frequency(self, tmp_path):
        base = "n_ions = 4\nalpha_target = 0.5\nfock_cutoff = 2\n" \
            "n_times = 50\n"
        tables = []
        for pin in ("none", "5.999"):
            out = tmp_path / pin
            p = write_config(tmp_path, base + f"omega_c_pin_mhz = {pin}\n")
            assert cli.main(["leakage", "--config", p, "--out",
                             str(out)]) == 0
            report = json.loads((out / "leakage_report.json").read_text())
            tables.append(read_table(out / "leakage.csv")[1])
        assert report["omega_c_pinned"] is True
        assert report["omega_c_rad_s"] == pytest.approx(
            2 * np.pi * 5.999e6, rel=1e-15)
        assert report["delta_c_rad_s"] == pytest.approx(
            report["trap"]["omega_eff_rad_s"] - report["omega_c_rad_s"],
            rel=1e-12)
        # the pin reaches the spin-phonon simulation
        assert [r["E_sim"] for r in tables[0]] \
            != [r["E_sim"] for r in tables[1]]

    @pytest.mark.parametrize("s_init,quanta", [(1, 3), (2, 4)])
    def test_r_converged_in_total_quanta(self, tmp_path, s_init, quanta):
        # the block holds states of one quanta parity, so the next cutoff
        # is two up; the fock_cutoff of 4 never binds below 5 quanta
        reports = []
        for q in (quanta, quanta + 2):
            p = write_config(tmp_path, f"n_ions = 8\nalpha_target = 0.2\n"
                                       f"s_init = {s_init}\n"
                                       f"total_quanta = {q}\n")
            out = tmp_path / str(q)
            assert cli.main(["leakage", "--config", p, "--out",
                             str(out)]) == 0
            reports.append(json.loads(
                (out / "leakage_report.json").read_text()))
        low, high = reports
        assert high["block_dim"] > low["block_dim"]
        assert high["r_minus_1"] == pytest.approx(low["r_minus_1"], rel=1e-8)
        assert high["edge_population_max"] < low["edge_population_max"]

    def test_basis_too_large_exits_one(self, tmp_path, capsys,
                                       monkeypatch):
        # n = 4, s = 1 with the default cutoffs: parity blocks of 12 and 20,
        # and the odd one of 20 holds the initial state
        monkeypatch.setattr(xy, "WORK_BYTES", 16 * 19 ** 2)
        p = write_config(tmp_path, "n_ions = 4\nalpha_target = 0.5\n"
                                   "n_times = 20\n")
        rc = cli.main(["leakage", "--config", p, "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "TooLarge: a dense eigh of the parity block of 20 states in " \
            "spin-phonon basis dim 32" in err
        assert f"needs {16 * 20 ** 2} bytes" in err


class TestTransferCommand:
    def test_idealized_sweep(self, tmp_path):
        p = write_config(tmp_path, "n_list = 8,12\noptimize = false\n")
        rc = cli.main(["transfer", "--config", p, "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_table(tmp_path / "transfer.csv")
        assert len(rows) == 2
        for r in rows:
            assert float(r["F_peak"]) > 0.9

    @pytest.mark.parametrize("n", [300, 600])
    def test_large_experimental_chain(self, tmp_path, n):
        # these used to end in ResonantDetuning (300) and NonConvergence
        # (600); mu_min now binds, at alpha above the 0.2 target
        p = write_config(tmp_path, f"n_list = {n}\ncouplings = experimental\n"
                                   "optimize = false\n")
        rc = cli.main(["transfer", "--config", p, "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_table(tmp_path / "transfer.csv")
        assert float(rows[0]["alpha"]) > 0.2
        assert 0.0 < float(rows[0]["F_peak"]) <= 1.0

    def test_empty_n_list_rejected(self, tmp_path):
        p = write_config(tmp_path, "n_list =\n")
        assert cli.main(["transfer", "--config", p,
                         "--out", str(tmp_path)]) == 2


class TestNormalisedWalk:
    @pytest.mark.parametrize("source", ["idealized", "experimental"])
    @pytest.mark.parametrize("n", [3, 8, 9, 52])
    def test_top_eigenvalue_is_one(self, source, n):
        # the protocols read the analytic gamma as 1 without solving the
        # walk again
        cfg = cli.resolve_config("transfer", {"couplings": source})
        walk = cli._walk_couplings(cfg, n)[0]
        assert abs(np.linalg.eigvalsh(walk)[-1] - 1.0) \
            <= 16 * np.finfo(float).eps

    def test_analytic_point_is_gamma_one(self, tmp_path):
        # the analytic point of the normalised walk is exactly gamma = 1,
        # not 1 / lambda_max solved again, so T_tilde = gamma T is T
        p = write_config(tmp_path, "n_list = 3,9,33\noptimize = false\n"
                                   "couplings = both\n")
        assert cli.main(["transfer", "--config", p,
                         "--out", str(tmp_path)]) == 0
        _, rows = read_table(tmp_path / "transfer.csv")
        assert len(rows) == 6
        for r in rows:
            assert float(r["gamma"]) == 1.0
            assert float(r["T_tilde"]) == float(r["T"])
        p = write_config(tmp_path, "n_ions = 11\ncouplings = experimental\n",
                         name="search.cfg")
        assert cli.main(["search", "--config", p,
                         "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "search_report.json").read_text())
        assert report["gamma"] == 1.0


class TestSearchCommand:
    def test_search_trace(self, tmp_path):
        p = write_config(tmp_path, "n_ions = 16\nn_times = 400\n"
                                   "t_max_factor = 2.0\n")
        rc = cli.main(["search", "--config", p, "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_table(tmp_path / "search.csv")
        probs = [float(r["marked_probability"]) for r in rows]
        assert max(probs) > 0.8

    def test_one_site_rejected(self, tmp_path, capsys):
        # a one-site walk has lambda_max = 0 and no analytic gamma
        p = write_config(tmp_path, "n_ions = 1\n")
        rc = cli.main(["search", "--config", p, "--out", str(tmp_path)])
        assert rc == 2
        assert "n_ions >= 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_table_exits_one_with_no_table(
            self, tmp_path, capsys, monkeypatch, value):
        run_search = cli.protocols.run_search

        def broken_trace(*args, **kwargs):
            times, prob = run_search(*args, **kwargs)
            prob = prob.copy()
            prob[3] = value
            return times, prob

        monkeypatch.setattr(cli.protocols, "run_search", broken_trace)
        p = write_config(tmp_path, "n_ions = 6\nn_times = 10\n")
        out = tmp_path / "out"
        rc = cli.main(["search", "--config", p, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert ("NonFiniteReport: search.csv: row 3: marked_probability is "
                f"{value}") in err
        assert not (out / "search.csv").exists()

    def test_sector_too_large_exits_one(self, tmp_path, capsys,
                                        monkeypatch):
        # the walk sector (dim 6) is refused its dense eigensystem
        monkeypatch.setattr(xy, "WORK_BYTES", 16 * 5 ** 2)
        p = write_config(tmp_path, "n_ions = 6\n")
        rc = cli.main(["search", "--config", p, "--out", str(tmp_path)])
        assert rc == 1
        assert "TooLarge: a dense eigh of a 6-site walk" \
            in capsys.readouterr().err


class TestNoiseCommand:
    def test_small_ensemble(self, tmp_path):
        p = write_config(tmp_path, "\n".join([
            "n_list = 8", "alpha_list = 0.3", "n_samples = 5",
            "optimize = false", "omega_z_mhz = auto", ""]))
        rc = cli.main(["noise", "--config", p, "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_table(tmp_path / "noise.csv")
        assert len(rows) == 1
        assert 0.0 < float(rows[0]["mean_F"]) <= 1.0
        report = json.loads((tmp_path / "noise_report.json").read_text())
        case = report["cases"][0]
        # 5 samples only: the mean can fluctuate slightly above noiseless
        assert case["mean_F"] == pytest.approx(case["noiseless_F"], abs=0.01)


    def test_huge_ensemble_refused_before_any_work(self, tmp_path, capsys,
                                                   monkeypatch):
        # 10^15 samples would need an 8 * 8 * (10^15 + 1)-byte offset block
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the size check")

        monkeypatch.setattr(cli, "solve_trap", no_work)
        monkeypatch.setattr(noise, "sample_static_fields", no_work)
        p = write_config(tmp_path, "n_list = 8\nalpha_list = 0.3\n"
                                   "n_samples = 1000000000000000\n")
        tracemalloc.start()
        try:
            rc = cli.main(["noise", "--config", p, "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        assert "TooLarge: 1000000000000000 samples at N = 8" \
            in capsys.readouterr().err
        assert peak < 2**20
        assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


class TestRefusedBeforeWork:
    """An oversized walk, or a value out of range, stops a run before the
    chain solve and the N x N eigvalsh of the analytic gamma."""

    @staticmethod
    def no_work(monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the size check")

        monkeypatch.setattr(cli, "solve_trap", no_work)
        monkeypatch.setattr(cli.protocols, "analytic_gamma", no_work)

    # a 6-site walk needs 576 bytes; the noise ensemble at N = 6 needs 144
    @pytest.mark.parametrize("command,text", [
        ("transfer", "n_list = 4,6\ncouplings = experimental\n"),
        ("search", "n_ions = 6\ncouplings = experimental\n"),
        ("noise", "n_list = 4,6\nalpha_list = 0.3\nn_samples = 1\n"),
    ])
    def test_oversized_walk_exits_one(self, tmp_path, capsys, monkeypatch,
                                      command, text):
        self.no_work(monkeypatch)
        monkeypatch.setattr(xy, "WORK_BYTES", 16 * 5 ** 2)
        p = write_config(tmp_path, text)
        out = tmp_path / "out"
        rc = cli.main([command, "--config", p, "--out", str(out)])
        assert rc == 1
        assert "TooLarge: a dense eigh of a 6-site walk needs " \
            f"{16 * 6 ** 2} bytes > WORK_BYTES = 400" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_fock_cutoff_zero_exits_two(self, tmp_path, capsys, monkeypatch):
        self.no_work(monkeypatch)
        p = write_config(tmp_path, "n_ions = 4\nalpha_target = 0.5\n"
                                   "fock_cutoff = 0\n")
        out = tmp_path / "out"
        rc = cli.main(["leakage", "--config", p, "--out", str(out)])
        assert rc == 2
        assert "fock_cutoff" in capsys.readouterr().err
        assert not out.exists()


class TestNoiseWorkingPoint:
    def test_one_bisection_per_chain_length(self, tmp_path, monkeypatch):
        text = "n_list = 8,12\nalpha_list = 0.2,0.4\nn_samples = 3\n" \
               "optimize = false\n"
        p = write_config(tmp_path, text)
        calls = []
        bisect = chain.max_stable_axial_frequency

        def counted(template, n_ions, **kwargs):
            calls.append(n_ions)
            return bisect(template, n_ions, **kwargs)

        monkeypatch.setattr(chain, "max_stable_axial_frequency", counted)
        assert cli.main(["noise", "--config", p,
                         "--out", str(tmp_path / "all")]) == 0
        assert sorted(calls) == [8, 12]
        _, rows = read_table(tmp_path / "all" / "noise.csv")
        # each case on its own resolves its own working point
        for n, alpha in ((8, 0.2), (12, 0.2), (8, 0.4), (12, 0.4)):
            one = write_config(tmp_path, f"n_list = {n}\n"
                               f"alpha_list = {alpha}\nn_samples = 3\n"
                               "optimize = false\n", name="one.cfg")
            out = tmp_path / f"{n}_{alpha}"
            assert cli.main(["noise", "--config", one, "--out",
                             str(out)]) == 0
            assert read_table(out / "noise.csv")[1] == [rows.pop(0)]


class TestThreads:
    """--threads is accepted at 1 alone, for the benchmark harness: every
    run is single-threaded."""

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_one_parses(self, command):
        assert cli.build_parser().parse_args(
            [command, "--threads", "1"]).threads == 1

    # every value but 1 is refused, above one included
    @pytest.mark.parametrize("threads", ["0", "-4", "2"])
    def test_below_one_rejected(self, tmp_path, capsys, threads):
        rc = cli.main(["noise", "--threads", threads, "--out", str(tmp_path)])
        assert rc == 2
        assert "--threads" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["noise", "transfer", "search"])
    def test_negative_seed_rejected(self, tmp_path, capsys, command):
        # noise and transfer used to stop in numpy without naming the flag,
        # search to run with seed -1 in its headers
        rc = cli.main([command, "--seed", "-1", "--out", str(tmp_path)])
        assert rc == 2
        assert "--seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestOptimizerDiagnostics:
    @pytest.mark.parametrize("command, key, extra", [
        ("noise", "cases", "n_samples = 3\n"),
        ("transfer", "results", ""),
    ], ids=["noise", "transfer"])
    @pytest.mark.parametrize("optimize", [True, False])
    def test_report_fields(self, tmp_path, command, key, extra, optimize):
        p = write_config(tmp_path, f"n_list = 8\nbudget = 25\n{extra}"
                                   f"optimize = {str(optimize).lower()}\n")
        assert cli.main([command, "--config", p,
                         "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / f"{command}_report.json")
                            .read_text())
        for case in report[key]:
            if optimize:
                assert 0 < case["n_evaluations"] <= 25
                assert 0.0 < case["seed_fidelity"] <= 1.0
            else:
                assert case["n_evaluations"] is None
                assert case["seed_fidelity"] is None


class TestRunDiagnostics:
    @pytest.mark.parametrize("command, key, extra", [
        ("noise", "cases", "n_samples = 3\n"),
        ("transfer", "results", "couplings = both\n"),
    ], ids=["noise", "transfer"])
    @pytest.mark.parametrize("optimize", [True, False])
    def test_detuning_steps_and_gamma_solves(self, tmp_path, command, key,
                                             extra, optimize):
        p = write_config(tmp_path, f"n_list = 8\nbudget = 25\n{extra}"
                                   f"optimize = {str(optimize).lower()}\n")
        assert cli.main([command, "--config", p,
                         "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / f"{command}_report.json")
                            .read_text())
        for case in report[key]:
            if case.get("source") == "idealized":
                # no trap, no bisection
                assert case["detuning_steps"] is None
            else:
                assert 2 <= case["detuning_steps"] <= 60
            if optimize:
                assert 0 < case["n_gamma_solves"] <= case["n_evaluations"]
            else:
                assert case["n_gamma_solves"] is None

    def test_reruns_in_one_process_do_not_leak(self, tmp_path):
        # seed 0, seed 1, then seed 0 again in one process: nothing cached
        # in one run reaches the next
        p = write_config(tmp_path, "n_list = 8,12\nalpha_list = 0.3\n"
                                   "n_samples = 4\nbudget = 30\n")
        for seed, out in (("0", "a"), ("1", "b"), ("0", "c")):
            assert cli.main(["noise", "--config", p, "--seed", seed,
                             "--out", str(tmp_path / out)]) == 0
        for name in ("noise.csv", "noise_report.json"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "c" / name,
                               shallow=False)
            assert not filecmp.cmp(tmp_path / "a" / name,
                                   tmp_path / "b" / name, shallow=False)


# what a fresh interpreter holds after importing ionchain.cli and running
# the arguments in sys.argv (none: the import alone): the exit code, the
# scipy modules, whether numpy.fft came in after numpy, and whether
# concurrent.futures did
MODULES_AFTER_RUN = (
    "import json, sys, numpy; fft = 'numpy.fft' in sys.modules; "
    "from ionchain import cli; "
    "rc = cli.main(sys.argv[1:]) if sys.argv[1:] else None; "
    "print(json.dumps([rc, sorted(m for m in sys.modules "
    "if m.split('.')[0] == 'scipy'), 'numpy.fft' in sys.modules and not fft, "
    "'concurrent.futures' in sys.modules]))")


def modules_after_run(tmp_path, args=(), config=None):
    src = str(Path(ionchain.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    if args:
        args = [*args, "--out", str(tmp_path / "out")]
    if config is not None:
        args += ["--config", write_config(tmp_path, config)]
    out = subprocess.run([sys.executable, "-c", MODULES_AFTER_RUN, *args],
                         env=env, capture_output=True, text=True, timeout=120,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


# runs that must load no scipy module: the import alone, a noise case (the
# noise path never reaches a sector), a transfer run (the walk weights stay
# numpy-only: scipy.linalg would add 20 MB of peak RSS), and spectral
# leakage runs, whose r refine is leakage's own and whose XY sectors stay
# dense up to xy.CSR_CROSSOVER
SCIPY_FREE_RUNS = {
    "import": ((), None),
    "noise": (["noise"], "n_list = 8\nalpha_list = 0.4\nn_samples = 3\n"),
    "transfer": (["transfer"], "n_list = 8\ncouplings = both\nbudget = 30\n"),
    "leakage_2c": (["leakage", "--paper-fig", "2c"], None),
    "leakage_2d": (["leakage", "--paper-fig", "2d"], None),
    "leakage_s3": (["leakage"], "n_ions = 10\nalpha_target = 0.3\n"
                                "modes = 1\nfock_cutoff = 4\ns_init = 3\n"
                                "n_times = 300\n"),
}


@pytest.mark.parametrize("name", SCIPY_FREE_RUNS)
def test_run_loads_no_scipy(tmp_path, name):
    # nor concurrent.futures, which no path needs; nor numpy.fft on import,
    # which only the r fit needs: numpy 2 loads it on first use, numpy 1
    # with numpy itself, so only an import that ionchain adds fails here
    args, config = SCIPY_FREE_RUNS[name]
    rc, scipy_modules, fft, futures = modules_after_run(tmp_path, args,
                                                        config)
    assert (rc, scipy_modules, futures) == (0 if args else None, [], False)
    if not args:
        assert not fft


def test_rk_leakage_loads_scipy_integrate(tmp_path):
    # the Runge-Kutta cross-check is scipy's solve_ivp
    rc, scipy_modules, _, _ = modules_after_run(
        tmp_path, ["leakage"], "n_ions = 4\nalpha_target = 0.3\n"
                               "fock_cutoff = 2\nn_times = 20\n"
                               "integrator = rk\n")
    assert rc == 0
    assert "scipy.integrate" in scipy_modules


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


class TestWriteTable:
    """write_table formats whole columns; each cell must read as
    _fmt_value gives it."""

    ROWS = [(0, 0.1, np.float64(1e-300), np.int64(7), True, "idealized", None),
            (1, np.float32(2.5), -3.0, 8, np.bool_(False), "experimental",
             0.5),
            (np.int32(2), 1e16, np.float64(5e-5), 9, False, "a b", 2)]

    def test_columns_match_cell_by_cell(self, tmp_path):
        ctx = cli.OutputContext(outdir=tmp_path, fmt="csv", seed=0)
        header = list("abcdefg")
        path = cli.write_table(ctx, "t", header, self.ROWS)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(header)
        assert lines[1:] == [",".join(cli._fmt_value(x) for x in row)
                             for row in self.ROWS]

    def test_first_non_finite_in_row_order(self, tmp_path):
        ctx = cli.OutputContext(outdir=tmp_path, fmt="csv", seed=0)
        rows = [(1.0, "nan", 1.0), (2.0, 2.0, -np.inf), (np.nan, 3.0, 3.0)]
        with pytest.raises(cli.NonFiniteReport,
                           match="^t.csv: row 1: c is -inf$"):
            cli.write_table(ctx, "t", ["a", "b", "c"], rows)
        assert list(tmp_path.iterdir()) == []
