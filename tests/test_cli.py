import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import roompol
from roompol import SPEED_OF_LIGHT, PdpTrace, db_linear_convert
from roompol import io
from roompol.cli import build_parser, main
from roompol.io import TraceFormatError, read_trace_csv, write_trace_csv

from _support import BASE, synth_traces, write_config


def parse_stdout(captured):
    values = {}
    for line in captured.splitlines():
        if "=" in line:
            key, _, rest = line.rpartition("=")
            values[key.strip()] = rest.strip()
    return values


def read_table(path):
    with open(path) as fh:
        rows = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    header = rows[0].split(",")
    cells = [row.split(",") for row in rows[1:]]
    return header, cells


class TestEval:
    def test_reports_derived_quantities(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "curves.csv"
        assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
        values = parse_stdout(capsys.readouterr().out)
        assert float(values["T"].split()[0]) == pytest.approx(7.94, abs=0.01)
        assert float(values["T_p"].split()[0]) == pytest.approx(90.9, abs=0.1)
        assert float(values["mixing constant"]) == pytest.approx(11.45, abs=0.01)
        assert values["CPR"] == "inf"  # xi = 0 leaves no cross-polar gain

    def test_output_is_byte_identical_across_runs(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["eval", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["eval", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_no_leakage_gives_empty_cross_column(self, tmp_path):
        text = BASE.replace("material: {g: 0.4, gamma: 0.04}",
                            "material: {g: 0.4, gamma: 0.0}")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "curves.csv"
        assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
        header, cells = read_table(str(out))
        cross = header.index("cross_db")
        assert all(row[cross] == "" for row in cells)
        co = header.index("co_db")
        assert all(row[co] != "" for row in cells)

    def test_reports_conditioned_quantities_with_link(self, tmp_path, capsys):
        text = BASE.replace("antennas: {xi: 0.0}", "antennas: {xi: 0.1}")
        text += "link: {distance_m: 1.8, los: true}\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "curves.csv"
        assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        values = parse_stdout(stdout)
        assert float(values["CPR(d=1.8 m, LOS)"]) == pytest.approx(112.74, abs=0.01)
        assert "direct path" in stdout

    def test_columns_are_consistent(self, tmp_path):
        text = BASE.replace("antennas: {xi: 0.0}", "antennas: {xi: 0.1}")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "curves.csv"
        assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
        header, cells = read_table(str(out))
        assert header == ["delay_ns", "co_db", "cross_db", "total_db", "asymptote_db"]
        row = cells[100]
        co, cross, total = (10 ** (float(row[i]) / 10) for i in (1, 2, 3))
        assert total == pytest.approx(co + cross, rel=1e-3)

    def test_line_of_sight_beyond_the_exponent_range_reports_inf(self, tmp_path, capsys):
        text = BASE.replace("antennas: {xi: 0.0}", "antennas: {xi: 0.1}")
        text += "link: {distance_m: 2000.0, los: true}\n"
        cfg = write_config(tmp_path, text)
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "curves.csv")]) == 0
        assert "CPR(d=2000 m, LOS) = inf" in capsys.readouterr().out.splitlines()

    def test_grid_starting_before_zero_leaves_the_asymptote_empty_there(self, tmp_path):
        cfg = write_config(tmp_path, BASE.replace("start_ns: 0.0", "start_ns: -5.0"))
        out = tmp_path / "curves.csv"
        assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
        header, cells = read_table(str(out))
        asymptote = header.index("asymptote_db")
        delays = [float(row[0]) for row in cells]
        assert delays[0] == -5.0 and 0.0 in delays
        assert all((row[asymptote] == "") == (d < 0) for d, row in zip(delays, cells))


class TestSimulate:
    SIM = BASE + "simulation: {realizations: 1500, seed: 11, bin_width_ns: 1.0, max_delay_ns: 20.0}\n"

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, self.SIM)
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        # the seed comes from the config alone; these two differ only in it
        outputs = []
        for seed in (11, 99):
            cfg = write_config(tmp_path, self.SIM.replace("seed: 11", f"seed: {seed}"),
                               name=f"run{seed}.yaml")
            out = tmp_path / f"s{seed}.csv"
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] != outputs[1]

    def test_no_leakage_leaves_cross_sim_empty(self, tmp_path):
        text = self.SIM.replace("material: {g: 0.4, gamma: 0.04}",
                                "material: {g: 0.4, gamma: 0.0}")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        header, cells = read_table(str(out))
        assert header == ["delay_ns", "co_sim_db", "cross_sim_db", "co_model_db",
                          "cross_model_db"]
        cross = header.index("cross_sim_db")
        assert all(row[cross] == "" for row in cells)

    def test_trace_prefix_round_trips(self, tmp_path):
        cfg = write_config(tmp_path, self.SIM)
        out = tmp_path / "sim.csv"
        prefix = tmp_path / "pdp"
        assert main([
            "simulate", "--config", cfg, "--out", str(out),
            "--trace-prefix", str(prefix),
        ]) == 0
        trace = read_trace_csv(str(prefix) + "_co.csv")
        assert trace.scale == "db"
        assert trace.delays.size == 20

    @pytest.mark.parametrize("link", [None, "link: {distance_m: 1.8, los: false}\n"],
                             ids=["uniform", "fixed_nlos"])
    def test_worker_count_leaves_every_output_byte_identical(self, tmp_path, link):
        # three chunks, so a reduction out of chunk order would change the bytes;
        # at a fixed NLOS distance they run the rejection sampler without the
        # direct image
        text = self.SIM.replace("realizations: 1500", "realizations: 5000")
        if link:
            text = text.replace("20.0}", "20.0, placement: fixed}") + link
        cfg = write_config(tmp_path, text)
        runs = []
        for workers in ("1", "2"):
            prefix = tmp_path / f"w{workers}"
            assert main([
                "simulate", "--config", cfg, "--out", f"{prefix}_report.csv",
                "--workers", workers, "--trace-prefix", str(prefix),
            ]) == 0
            tags = ("report", "co", "cross")
            runs.append([(tmp_path / f"w{workers}_{tag}.csv").read_bytes() for tag in tags])
        assert runs[0] == runs[1]

    def test_uniform_placement_ignores_link_but_the_model_columns_apply_it(self, tmp_path):
        # [link] does not place the antennas under uniform placement, so the
        # traces keep their bytes; only with it are the model columns gated
        # at d/c (6.0 ns at 1.8 m)
        gate_ns = 1.8 / SPEED_OF_LIGHT * 1e9
        traces, gated = {}, {}
        for tag, link in (("plain", ""), ("link", "link: {distance_m: 1.8, los: false}\n")):
            cfg = write_config(tmp_path, self.SIM + link, name=f"{tag}.yaml")
            prefix = tmp_path / tag
            assert main([
                "simulate", "--config", cfg, "--out", f"{prefix}_report.csv",
                "--trace-prefix", str(prefix),
            ]) == 0
            traces[tag] = [(tmp_path / f"{tag}_{ch}.csv").read_bytes() for ch in ("co", "cross")]
            header, cells = read_table(f"{prefix}_report.csv")
            col = header.index("co_model_db")
            # (row before d/c, co_model_db empty) pairs that occur
            gated[tag] = {(float(row[0]) < gate_ns, row[col] == "") for row in cells}
        assert traces["plain"] == traces["link"]
        assert gated["plain"] == {(True, False), (False, False)}
        assert gated["link"] == {(True, True), (False, False)}

    def test_zero_workers_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.SIM)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv"),
                     "--workers", "0"])
        assert code == 2
        assert "workers must be >= 1, got 0" in capsys.readouterr().err


class TestFit:
    def make_inputs(self, tmp_path, truth=(0.4, 0.04, 0.02, 1e-11)):
        paths = {}
        for tag, trace in zip(("co", "cross"), synth_traces(*truth)):
            path = tmp_path / f"meas_{tag}.csv"
            write_trace_csv(str(path), trace)
            paths[tag] = str(path)
        config = write_config(tmp_path, (
            "room: {lx: 3.0, ly: 4.0, lz: 3.0}\n"
            "carrier: {wavelength_m: 0.005}\n"
            "link: {distance_m: 1.8, los: false}\n"
            "pulse: {kind: boxcar, bandwidth_hz: 0.5e9}\n"
            "fit: {g0: 0.5, gamma0: 0.1, xi0: 0.05, noise0: 1.0e-10}\n"
        ), name="meas.yaml")
        return config, paths

    def test_round_trip_through_files(self, tmp_path, capsys):
        config, paths = self.make_inputs(tmp_path)
        out = tmp_path / "fitted.csv"
        code = main(["fit", "--config", config, "--co", paths["co"],
                     "--cross", paths["cross"], "--out", str(out)])
        assert code == 0
        values = parse_stdout(capsys.readouterr().out)
        assert float(values["g"]) == pytest.approx(0.4, rel=0.01)
        assert float(values["gamma"]) == pytest.approx(0.04, rel=0.01)
        assert float(values["xi"]) == pytest.approx(0.02, abs=0.005)
        assert values["converged"] == "yes"
        mixing = float(values["mixing constant"])
        t_rev = float(values["T"].split()[0])
        t_mix = float(values["T_p"].split()[0])
        assert mixing == pytest.approx(t_mix / t_rev, rel=1e-3)
        header, cells = read_table(str(out))
        assert header == ["delay_ns", "co_db", "cross_db", "total_db",
                          "asymptote_db", "co_meas_db", "cross_meas_db"]
        assert len(cells) == 600

    def test_malformed_row_is_named(self, tmp_path, capsys):
        config, paths = self.make_inputs(tmp_path)
        broken = tmp_path / "broken.csv"
        lines = Path(paths["co"]).read_text().splitlines()
        lines[10] = "not,a,row"
        broken.write_text("\n".join(lines) + "\n")
        code = main(["fit", "--config", config, "--co", str(broken),
                     "--cross", paths["cross"], "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "row 11" in capsys.readouterr().err

    def test_grid_mismatch_is_a_validation_error(self, tmp_path, capsys):
        config, paths = self.make_inputs(tmp_path)
        trace = read_trace_csv(paths["cross"])
        shifted = PdpTrace(trace.delays + 1e-9, trace.values, "db")
        write_trace_csv(paths["cross"], shifted)
        code = main(["fit", "--config", config, "--co", paths["co"],
                     "--cross", paths["cross"], "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "delay grid" in capsys.readouterr().err

    def test_traces_starting_before_zero_are_fitted(self, tmp_path, capsys):
        # pre-trigger samples: the same pair on a grid shifted by -5 ns
        config, paths = self.make_inputs(tmp_path)
        for path in paths.values():
            trace = read_trace_csv(path)
            write_trace_csv(path, PdpTrace(trace.delays - 5e-9, trace.values, "db"))
        out = tmp_path / "fitted.csv"
        code = main(["fit", "--config", config, "--co", paths["co"],
                     "--cross", paths["cross"], "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert f"wrote {out}" in captured.out
        header, cells = read_table(str(out))
        assert len(cells) == 600 and float(cells[0][0]) == -5.0

    @staticmethod
    def fit_constant_level(tmp_path, capsys, level_db):
        """`fit` on 301-sample traces at `level_db` plus 0.3 dB gaussian noise:
        the exit code, stdout's values and the report's header and cells."""
        rng = np.random.default_rng(0)
        grid = np.arange(301) * 0.5e-9
        paths = {}
        for tag in ("co", "cross"):
            paths[tag] = str(tmp_path / f"{tag}.csv")
            level = level_db + 0.3 * rng.standard_normal(301)
            write_trace_csv(paths[tag], PdpTrace(grid, level, "db"))
        config = write_config(tmp_path, (
            "room: {lx: 3.0, ly: 4.0, lz: 3.0}\n"
            "carrier: {wavelength_m: 0.005}\n"
            "pulse: {kind: boxcar, bandwidth_hz: 0.5e9}\n"
        ))
        out = tmp_path / "fitted.csv"
        code = main(["fit", "--config", config, "--co", paths["co"],
                     "--cross", paths["cross"], "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return parse_stdout(captured.out), read_table(str(out))

    def test_high_level_traces_are_fitted(self, tmp_path, capsys):
        # 1600 dB: a trial step's log noise can pass exp's range, which raised
        # an OverflowError (exit 1) before it was clamped at the largest double
        values, _ = self.fit_constant_level(tmp_path, capsys, 1600.0)
        assert values["converged"] == "yes"

    def test_traces_near_the_largest_double_are_fitted(self, tmp_path, capsys):
        # 3080 dB is 1e308: the noise floor's (lo + hi) / 2 overflowed to an
        # infinite start (exit 2 on a NaN noise), and so does co + cross,
        # whose total is then written as the empty field
        values, (header, cells) = self.fit_constant_level(tmp_path, capsys, 3080.0)
        assert values["converged"] == "yes"
        total = header.index("total_db")
        assert all(row[total] == "" for row in cells)

    def test_linear_trace_is_a_validation_error(self, tmp_path, capsys):
        # trace files hold dB only: the writer refuses a linear trace
        config, paths = self.make_inputs(tmp_path)
        linear = db_linear_convert(read_trace_csv(paths["co"]), "linear")
        path = tmp_path / "linear.csv"
        with pytest.raises(ValueError, match="trace CSVs hold dB only, got scale 'linear'"):
            write_trace_csv(str(path), linear)
        assert not path.exists()
        # and `fit` rejects a file with a linear power column, naming its row
        text = Path(paths["co"]).read_text()
        path.write_text(text.replace("delay_ns,power_db", "delay_ns,power_linear"))
        code = main(["fit", "--config", config, "--co", str(path),
                     "--cross", paths["cross"], "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "row 4: unexpected header 'delay_ns,power_linear'" in capsys.readouterr().err

    def test_pulse_too_wide_for_the_grid_is_a_validation_error(self, tmp_path, capsys):
        config, paths = self.make_inputs(tmp_path)
        text = Path(config).read_text().replace("{kind: boxcar, bandwidth_hz: 0.5e9}",
                                                "{kind: gaussian, bandwidth_hz: 1.0e-300}")
        config = write_config(tmp_path, text, name="wide.yaml")
        code = main(["fit", "--config", config, "--co", paths["co"],
                     "--cross", paths["cross"], "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "pulse bandwidth 1e-300 Hz needs more than" in capsys.readouterr().err

    def test_fit_recovers_parameters_from_eval_exported_curves(self, tmp_path, capsys):
        """Round trip through the file layer: eval curves + noise floor -> fit."""
        truth_noise = 1e-11
        eval_cfg = write_config(tmp_path, (
            "room: {lx: 3.0, ly: 4.0, lz: 3.0}\n"
            "carrier: {wavelength_m: 0.005}\n"
            "material: {g: 0.4, gamma: 0.04}\n"
            "antennas: {xi: 0.02}\n"
            "link: {distance_m: 1.8, los: false}\n"
            "grid: {start_ns: 0.0, stop_ns: 300.0, step_ns: 0.25}\n"
        ), name="gen.yaml")
        curves = tmp_path / "curves.csv"
        assert main(["eval", "--config", eval_cfg, "--out", str(curves)]) == 0
        header, cells = read_table(str(curves))
        delays = np.array([float(r[0]) for r in cells]) * 1e-9
        for tag, col in (("co", header.index("co_db")), ("cross", header.index("cross_db"))):
            db = np.array([float(r[col]) if r[col] else -math.inf for r in cells])
            with np.errstate(divide="ignore"):
                noisy = 10.0 * np.log10(10.0 ** (db / 10.0) + truth_noise)
            write_trace_csv(str(tmp_path / f"gen_{tag}.csv"),
                            PdpTrace(delays, noisy, "db"))
        fit_cfg = write_config(tmp_path, (
            "room: {lx: 3.0, ly: 4.0, lz: 3.0}\n"
            "carrier: {wavelength_m: 0.005}\n"
            "link: {distance_m: 1.8, los: false}\n"
            "pulse: {kind: boxcar, bandwidth_hz: 1.0e9}\n"
            "fit: {window_ns: [8.0, 295.0]}\n"
        ), name="fit.yaml")
        code = main(["fit", "--config", fit_cfg,
                     "--co", str(tmp_path / "gen_co.csv"),
                     "--cross", str(tmp_path / "gen_cross.csv"),
                     "--out", str(tmp_path / "refit.csv")])
        assert code == 0
        values = parse_stdout(capsys.readouterr().out)
        assert float(values["g"]) == pytest.approx(0.4, rel=0.01)
        assert float(values["gamma"]) == pytest.approx(0.04, rel=0.01)
        assert float(values["xi"]) == pytest.approx(0.02, abs=0.005)
        assert float(values["P_noise"]) == pytest.approx(truth_noise, rel=0.1)

    def test_strict_flag_reports_non_convergence(self, tmp_path, capsys):
        config, paths = self.make_inputs(tmp_path)
        text = Path(config).read_text().replace(
            "fit: {g0: 0.5, gamma0: 0.1, xi0: 0.05, noise0: 1.0e-10}",
            "fit: {g0: 0.5, gamma0: 0.1, xi0: 0.05, noise0: 1.0e-10, max_iterations: 3}",
        )
        config2 = write_config(tmp_path, text, name="strict.yaml")
        code = main(["fit", "--config", config2, "--co", paths["co"],
                     "--cross", paths["cross"], "--out", str(tmp_path / "x.csv"),
                     "--strict"])
        assert code == 4

    def test_unknown_method_is_a_validation_error(self, tmp_path, capsys):
        # the CLI fits by least squares only, so [fit] has no method key to
        # choose one, a valid library method included; every command refuses it
        config, paths = self.make_inputs(tmp_path)
        for method in ("simplex", "least_squares"):
            text = Path(config).read_text().replace("noise0: 1.0e-10}",
                                                    f"noise0: 1.0e-10, method: {method}}}")
            method_config = write_config(tmp_path, text, name=f"{method}.yaml")
            code = main(["fit", "--config", method_config, "--co", paths["co"],
                         "--cross", paths["cross"], "--out", str(tmp_path / "x.csv")])
            assert code == 2
            assert capsys.readouterr().err == "error: unknown config key 'fit.method'\n"
        config = write_config(tmp_path, BASE + "fit: {method: simplex}\n", name="eval.yaml")
        assert main(["eval", "--config", config, "--out", str(tmp_path / "x.csv")]) == 2
        assert "fit.method" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_fit_reaching_an_upper_bound_exits_cleanly(self, tmp_path, capsys):
        config, paths = self.make_inputs(tmp_path)
        text = Path(config).read_text().replace(
            "fit: {g0: 0.5, gamma0: 0.1, xi0: 0.05, noise0: 1.0e-10}",
            "fit: {bounds_gamma: [0.002, 0.02]}",
        )
        config2 = write_config(tmp_path, text, name="bounded.yaml")
        code = main(["fit", "--config", config2, "--co", paths["co"],
                     "--cross", paths["cross"], "--out", str(tmp_path / "x.csv")])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert parse_stdout(captured.out)["gamma"] == "0.02"


class TestCpr:
    CFG = (
        "room: {lx: 3.0, ly: 4.0, lz: 3.0}\n"
        "carrier: {wavelength_m: 0.005}\n"
        "material: {g: 0.4, gamma: 0.04}\n"
        "antennas: {xi: 0.1}\n"
        "cpr: {distances_m: [0.5, 1.35, 1.8, 3.3, 50.0, 500.0]}\n"
    )

    def test_sweep_columns_and_limits(self, tmp_path):
        cfg = write_config(tmp_path, self.CFG)
        out = tmp_path / "cpr.csv"
        assert main(["cpr", "--config", cfg, "--out", str(out)]) == 0
        header, cells = read_table(str(out))
        assert header == ["d_m", "cpr_nlos_db", "cpr_los_db"]
        nlos = np.array([float(r[1]) for r in cells])
        los = np.array([float(r[2]) for r in cells])
        # the direct term only adds co-polar power, so line of sight can
        # never lower the ratio; at large distance the diffuse bracket
        # settles on the antenna prefactor (the direct term instead grows,
        # so only the blocked-path column converges)
        assert np.all(los >= nlos)
        prefactor_db = 10 * math.log10(0.82 / 0.18)
        assert nlos[-1] == pytest.approx(prefactor_db, abs=0.01)
        assert np.all(np.diff(nlos) < 0)

    def test_no_leakage_writes_empty_sentinels(self, tmp_path):
        text = self.CFG.replace("material: {g: 0.4, gamma: 0.04}",
                                "material: {g: 0.4, gamma: 0.0}")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "cpr.csv"
        assert main(["cpr", "--config", cfg, "--out", str(out)]) == 0
        _, cells = read_table(str(out))
        assert all(row[1] == "" and row[2] == "" for row in cells)

    def test_line_of_sight_beyond_the_exponent_range_leaves_the_field_empty(self, tmp_path):
        text = self.CFG.replace("[0.5, 1.35, 1.8, 3.3, 50.0, 500.0]", "[1.8, 2000.0]")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "cpr.csv"
        assert main(["cpr", "--config", cfg, "--out", str(out)]) == 0
        _, cells = read_table(str(out))
        assert [row[2] == "" for row in cells] == [False, True]
        assert all(row[1] != "" for row in cells)


class TestExitCodes:
    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        code = main(["eval", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3

    def test_unwritable_eval_report_fails_after_the_derived_values(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        code = main(["eval", "--config", cfg, "--out", str(tmp_path / "no" / "x.csv")])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out.startswith("T = ") and "wrote" not in captured.out
        assert captured.err.startswith("I/O error: ")

    def test_unwritable_simulate_report_fails_after_the_traces(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TestSimulate.SIM)
        prefix = tmp_path / "pdp"
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "no" / "x.csv"),
                     "--trace-prefix", str(prefix)])
        assert code == 3
        assert capsys.readouterr().out == "simulated 1500 realizations (seed 11)\n"
        assert read_trace_csv(f"{prefix}_cross.csv").delays.size == 20


class TestRunOrRefuse:
    # Each config value a command refuses, and each extreme one it must still
    # run. Refused: a missing key or section, a value outside its range, a
    # derived grid that overflows, is too large to build or would end past its
    # stop (2.2 ns is 5.5 steps of 0.4 ns), a simulation the simulator cannot
    # run, and a squared length that is not a positive finite double: d * d
    # underflows to 0 at 1e-200 m and overflows at 1e200 m, and direct_path
    # and cpr_distance divide by d**2; the room's sides and the wavelength
    # follow the same rule. So are a power scale c lam^2 / 2V, a peak power
    # c lam^2 / V (k_co + k_cross) and a direct-path weight that overflow.
    # Run: a small leakage gamma keeps a finite ratio, and one whose ratio
    # passes the largest double (1e-310) or whose T_p overflows gives inf
    # rather than NaN. A row exits 0 with its message on stdout, or exits 2
    # with it on stderr, which starts `error: `, before it prints anything or
    # writes its report; no row warns or prints a traceback.
    CFG = (
        "room: {lx: 3.0, ly: 4.0, lz: 3.0}\n"
        "carrier: {wavelength_m: 0.005}\n"
        "material: {g: 0.4, gamma: 0.04}\n"
        "antennas: {xi: 0.1}\n"
        "grid: {start_ns: 0.0, stop_ns: 60.0, step_ns: 0.1}\n"
        "link: {distance_m: 1.8, los: false}\n"
        "pulse: {kind: boxcar, bandwidth_hz: 0.5e9}\n"
        "simulation: {realizations: 64, seed: 7, bin_width_ns: 1.0, max_delay_ns: 40.0}\n"
        "cpr: {distances_m: [0.5, 1.35, 1.8, 3.3]}\n"
    )
    FIXED = ("simulation: {realizations: 10, bin_width_ns: 1.0, max_delay_ns: 20.0, "
             "placement: fixed}")
    SHORT_LINK = "link: {distance_m: 1.0e-200, los: true}"
    LONG_LINK = "link: {distance_m: 1.0e+200, los: true}"
    SHORT = "error: [link] distance 1e-200 squared must be > 0"
    LONG = "error: [link] distance 1e+200 squared must be > 0"
    TINY_SIDE = "error: [room] room dimension lx 5e-324 squared must be > 0, got 0.0"
    HUGE_SIDE = "error: [room] room dimension lx 1e+200 squared must be > 0 and finite"
    HUGE_LAM = "error: [carrier] wavelength 1e+200 squared must be > 0 and finite"
    TINY_LAM = "error: [carrier] wavelength 1e-200 squared must be > 0, got 0.0"
    SCALE = "error: power scale c lam^2 / 2V must be > 0 and finite, got inf"
    PEAK = "error: peak power c lam^2 / V (k_co + k_cross) must be finite and >= 0, got inf"
    HUGE_GAINS = "antennas: {mu_t: [1.0e+300, 1.0], mu_r: [1.0e+300, 1.0]}"
    WIDE_LAM_GAINS = ["wavelength_m: 1.0e+100",
                      "antennas: {mu_t: [1.0e+150, 1.0], mu_r: [1.0e+150, 1.0]}"]
    NEAR_LOS = ["wavelength_m: 1.0e+100", "distance_m: 1.0e-100", "los: true"]
    DIRECT = "error: direct path weight must be finite and >= 0, got inf"

    @pytest.mark.parametrize("command, edits, code, message", [
        pytest.param("eval", ["g: 1.4"], 2, "material", id="eval-g-above-one"),
        pytest.param("eval", ["room: {lx: 3.0, ly: 4.0}"], 2,
                     "error: missing config key 'room.lz'", id="eval-room-without-lz"),
        pytest.param("simulate", ["simulation: null"], 2, "simulation",
                     id="simulate-without-simulation"),
        pytest.param("eval", ["stop_ns: .inf"], 2, "grid.stop_ns", id="eval-grid-stop-inf"),
        pytest.param("eval", ["start_ns: -1.0e+308", "stop_ns: 1.0e+308"], 2, "grid.step_ns",
                     id="eval-grid-overflow"),
        pytest.param("eval", ["stop_ns: 1.0e+7", "step_ns: 1.0e-3"], 2, "grid.step_ns",
                     id="eval-grid-too-many-samples"),
        pytest.param("eval", ["stop_ns: 2.2", "step_ns: 0.4"], 2, "grid.step_ns",
                     id="eval-grid-past-stop"),
        pytest.param("eval", ["lx: 1.0e-110", "ly: 1.0e-110", "lz: 1.0e-110"], 2,
                     "[room] room volume must be > 0, got 0.0", id="eval-room-volume-underflow"),
        pytest.param("eval", ["lx: 1.0e+103", "ly: 1.0e+103", "lz: 1.0e+103"], 2,
                     "[room] room volume must be > 0 and finite, got inf",
                     id="eval-room-volume-overflow"),
        pytest.param("eval", ["lx: 5.0e-324"], 2, TINY_SIDE, id="eval-side-tiny"),
        pytest.param("eval", ["ly: 1.0e-200"], 2,
                     "error: [room] room dimension ly 1e-200 squared must be > 0, got 0.0",
                     id="eval-side-square-underflow"),
        pytest.param("cpr", ["lx: 5.0e-324"], 2, TINY_SIDE, id="cpr-side-tiny"),
        pytest.param("simulate", ["lx: 5.0e-324"], 2, TINY_SIDE, id="simulate-side-tiny"),
        pytest.param("eval", ["lx: 1.0e+200"], 2, HUGE_SIDE, id="eval-side-huge"),
        pytest.param("simulate", ["lx: 1.0e+200"], 2, HUGE_SIDE, id="simulate-side-huge"),
        pytest.param("simulate", ["lx: 1.0e+200", "max_delay_ns: 40.0, placement: fixed"], 2,
                     HUGE_SIDE, id="simulate-fixed-side-huge"),
        pytest.param("eval", ["wavelength_m: 1.0e+200"], 2, HUGE_LAM, id="eval-wavelength-huge"),
        pytest.param("cpr", ["wavelength_m: 1.0e+200"], 2, HUGE_LAM, id="cpr-wavelength-huge"),
        pytest.param("simulate", ["wavelength_m: 1.0e+200"], 2, HUGE_LAM,
                     id="simulate-wavelength-huge"),
        pytest.param("eval", ["wavelength_m: 1.0e+152"], 2, SCALE,
                     id="eval-power-scale-overflow"),
        pytest.param("simulate", ["wavelength_m: 1.0e+150"], 2, SCALE,
                     id="simulate-power-scale-overflow"),
        pytest.param("eval", ["wavelength_m: 1.0e-200"], 2, TINY_LAM, id="eval-wavelength-tiny"),
        pytest.param("simulate", ["wavelength_m: 1.0e-200"], 2, TINY_LAM,
                     id="simulate-wavelength-tiny"),
        pytest.param("eval", [SHORT_LINK], 2, SHORT, id="eval-link-distance-tiny"),
        pytest.param("eval", [LONG_LINK], 2, LONG, id="eval-link-distance-huge"),
        pytest.param("fit", [SHORT_LINK], 2, SHORT, id="fit-link-distance-tiny"),
        pytest.param("fit", [LONG_LINK], 2, LONG, id="fit-link-distance-huge"),
        pytest.param("simulate", [SHORT_LINK, FIXED], 2, SHORT, id="simulate-link-distance-tiny"),
        pytest.param("simulate", [LONG_LINK, FIXED], 2, LONG, id="simulate-link-distance-huge"),
        pytest.param("cpr", ["cpr: {distances_m: [1.8, 1.0e-200]}"], 2,
                     "error: [cpr.distances_m] distance 1e-200 squared must be > 0",
                     id="cpr-distance-tiny"),
        pytest.param("simulate", ["link: {distance_m: 5.82}", FIXED], 2, "could not place",
                     id="simulate-unplaceable-distance"),
        pytest.param("simulate", ["link: {distance_m: 1.0e-17}", FIXED], 2,
                     "fixed distance 1e-17 m is below",
                     id="simulate-distance-below-rounding-floor"),
        pytest.param("simulate", ["simulation: {realizations: 10, bin_width_ns: 1.0, "
                                  "max_delay_ns: 1.0e+5}"], 2, "lower max_delay",
                     id="simulate-image-cube-too-large"),
        pytest.param("simulate", ["simulation: {realizations: 10, bin_width_ns: 1.0e-9, "
                                  "max_delay_ns: 20.0}"], 2,
                     "[simulation] bin_width must divide max_delay into a whole number of "
                     "steps from 2 to 10000000, got 20000000000\n", id="simulate-too-many-bins"),
        pytest.param("simulate", ["simulation: {realizations: 1000000000000, bin_width_ns: 1.0, "
                                  "max_delay_ns: 20.0}"], 2,
                     "[simulation] n_realizations must be <= 1000000000, got 1000000000000",
                     id="simulate-too-many-realizations"),
        pytest.param("eval", ["gamma: 1.0e-17"], 0, "CPR(d=1.8 m, NLOS) = 2.3772e+17\n",
                     id="eval-gamma-tiny"),
        pytest.param("cpr", ["gamma: 1.0e-17"], 0, "wrote", id="cpr-gamma-tiny"),
        pytest.param("cpr", ["gamma: 1.0e-310"], 0, "wrote", id="cpr-gamma-subnormal"),
        pytest.param("eval", ["gamma: 5.0e-324"], 0, "CPR(d=1.8 m, NLOS) = inf\n",
                     id="eval-mixing-time-overflow"),
        pytest.param("eval", [HUGE_GAINS], 2, PEAK, id="eval-peak-power-overflow"),
        pytest.param("cpr", [HUGE_GAINS], 2, PEAK, id="cpr-peak-power-overflow"),
        pytest.param("simulate", [HUGE_GAINS], 2, PEAK, id="simulate-peak-power-overflow"),
        pytest.param("cpr", WIDE_LAM_GAINS, 2, PEAK, id="cpr-wavelength-gains-overflow"),
        pytest.param("eval", NEAR_LOS, 2, DIRECT, id="eval-direct-weight-overflow"),
        pytest.param("cpr", NEAR_LOS, 0, "wrote", id="cpr-direct-weight-unused"),
        pytest.param("simulate", NEAR_LOS, 0, "wrote", id="simulate-direct-weight-unused"),
        pytest.param("eval", ["antennas: {mu_t: [0.0, 0.0], mu_r: [0.0, 0.0]}"], 0,
                     "CPR = inf\n", id="eval-zero-gains"),
    ])
    def test_command_runs_or_refuses(self, tmp_path, capsys, command, edits, code, message):
        text = self.CFG
        for edit in edits:  # "key: value" replaces the key's value, or a section's line, in CFG
            key = edit.split(":", 1)[0]
            text = re.sub(rf"(?m)^{key}: .*|\b{key}: [^,}}]+", edit, text)
        out = tmp_path / "x.csv"
        argv = [command, "--config", write_config(tmp_path, text), "--out", str(out)]
        if command == "fit":
            _, paths = TestFit().make_inputs(tmp_path)
            argv += ["--co", paths["co"], "--cross", paths["cross"]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            exit_code = main(argv)
        assert not caught, [str(w.message) for w in caught]
        captured = capsys.readouterr()
        assert exit_code == code, captured.err
        assert "Traceback" not in captured.err and "Warning" not in captured.err
        assert message in (captured.err if code else captured.out)
        if code == 2:
            assert captured.err.startswith("error: ")
            assert captured.out == ""
            assert not out.exists()


class TestTraceCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        trace = PdpTrace(
            delays=np.arange(0.0, 100e-9, 0.5e-9),
            values=rng.uniform(-120.0, 20.0, 200),
            scale="db",
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), trace)
        back = read_trace_csv(str(path))
        assert back.scale == "db"
        assert np.array_equal(back.values, trace.values)
        # delays pass through delay * 1e9 and * 1e-9, which can move one by an ulp
        assert np.all(np.abs(back.delays - trace.delays) <= np.spacing(trace.delays))

    def test_negative_infinity_round_trips_as_empty(self, tmp_path):
        trace = PdpTrace(
            delays=np.arange(3) * 1e-9,
            values=np.array([-10.0, -math.inf, -30.0]),
            scale="db",
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), trace)
        content = path.read_text()
        assert ",\n" in content  # the empty sentinel field
        back = read_trace_csv(str(path))
        assert back.values[1] == -math.inf

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheets and some editors save UTF-8 text with a leading byte-order mark
        trace = PdpTrace(delays=np.arange(4) * 0.5e-9,
                         values=np.array([-math.inf, -12.5, 3.0e-7, -31.0]), scale="db")
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), trace)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        plain, back = read_trace_csv(str(path)), read_trace_csv(str(bom))
        assert np.array_equal(back.values, trace.values)
        assert np.array_equal(back.delays, plain.delays)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_writer_rejects_power_the_reader_cannot_read_back(self, tmp_path, bad):
        # the empty field reads back as -inf, so +inf and NaN have no spelling;
        # PdpTrace refuses them when built, and the writer checks them again, as
        # here, where they were reassigned after construction
        trace = PdpTrace(delays=np.arange(2) * 1e-9, values=np.array([-10.0, -20.0]), scale="db")
        trace.values[1] = bad
        path = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match=r"trace values must not be NaN or \+inf"):
            write_trace_csv(str(path), trace)
        assert not path.exists()

    @pytest.mark.parametrize("field", ["delay", "power"])
    @pytest.mark.parametrize("literal", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_literals_are_rejected_with_the_row(self, tmp_path, field, literal):
        trace = PdpTrace(delays=np.arange(3) * 1e-9, values=np.array([-10.0, -20.0, -30.0]),
                         scale="db")
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), trace)
        lines = path.read_text().splitlines()
        delay, power = lines[-2].split(",")
        lines[-2] = f"{literal},{power}" if field == "delay" else f"{delay},{literal}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match=rf"row {len(lines) - 1}: bad {field} value"):
            read_trace_csv(str(path))

    @pytest.mark.parametrize("field", ["delay", "power"])
    def test_non_numeric_text_is_rejected_with_the_row(self, tmp_path, field):
        path = tmp_path / "trace.csv"
        row = "abc,-20" if field == "delay" else "1,abc"
        path.write_text(f"delay_ns,power_db\n0,-10\n{row}\n")
        with pytest.raises(TraceFormatError, match=f"row 3: bad {field} value 'abc'"):
            read_trace_csv(str(path))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("\ndelay_ns,power_db\n0,-10\n   \n\n1,-20\n\n")
        trace = read_trace_csv(str(path))
        npt.assert_array_equal(trace.values, [-10.0, -20.0])

    def test_scale_comment_other_than_db_is_rejected(self, tmp_path):
        trace = PdpTrace(delays=np.arange(3) * 1e-9, values=np.array([1.0, 2.0, 3.0]),
                         scale="db")
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), trace)
        assert read_trace_csv(str(path)).scale == "db"
        text = path.read_text()
        path.write_text(text.replace("# scale: db\n", "# scale: linear\n"))
        with pytest.raises(TraceFormatError, match="row 2: '# scale: linear', expected db"):
            read_trace_csv(str(path))
        # below the header too
        path.write_text(text + "# scale: linear\n")
        with pytest.raises(TraceFormatError, match="row 8: '# scale: linear', expected db"):
            read_trace_csv(str(path))

    @pytest.mark.parametrize(
        "header",
        ["delay_ns", "delay_ns,power_db,extra", "time_ns,power_db", "delay_ns,power",
         "delay_ns,power_linear"],
    )
    def test_unexpected_header_is_rejected_with_the_row(self, tmp_path, header):
        path = tmp_path / "trace.csv"
        path.write_text(f"# roompol pdp trace\n{header}\n0,-10\n1,-20\n")
        with pytest.raises(TraceFormatError, match="row 2: unexpected header"):
            read_trace_csv(str(path))

    @pytest.mark.parametrize("text", ["", "# only a comment\n", "delay_ns,power_db\n"])
    def test_file_without_rows_is_rejected(self, tmp_path, text):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        with pytest.raises(TraceFormatError, match="no trace rows found"):
            read_trace_csv(str(path))

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0,1\n", "at least two samples"),
            ("0,1\n2,1\n1,1\n", "strictly increasing"),
        ],
    )
    def test_trace_rejection_is_a_format_error_naming_the_path(self, tmp_path, rows, message):
        path = tmp_path / "trace.csv"
        path.write_text("delay_ns,power_db\n" + rows)
        with pytest.raises(TraceFormatError, match=message) as info:
            read_trace_csv(str(path))
        assert str(info.value).startswith(f"{path}: ")


class TestReportCsv:
    # a report is built whole before its file is opened, so a refused one leaves none
    def test_columns_of_unequal_length_are_refused(self, tmp_path):
        path = tmp_path / "report.csv"
        columns = [("delay_ns", np.arange(5) * 1e-9), ("co_db", np.zeros(3))]
        with pytest.raises(ValueError, match="argument 2 is shorter than argument 1"):
            io.write_report_csv(str(path), columns, [io.format_delay_ns, io.format_db])
        assert not path.exists()

    @pytest.mark.parametrize("n_formatters", [1, 3])
    def test_formatters_must_match_the_columns(self, tmp_path, n_formatters):
        path = tmp_path / "report.csv"
        columns = [("delay_ns", np.arange(3) * 1e-9), ("co_db", np.zeros(3))]
        formatters = [io.format_delay_ns] + [io.format_db] * (n_formatters - 1)
        with pytest.raises(ValueError, match="argument 2 is (shorter|longer) than argument 1"):
            io.write_report_csv(str(path), columns, formatters)
        assert not path.exists()


def fresh_env():
    """Environment of a fresh interpreter that imports the roompol this one does."""
    src = str(Path(roompol.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# Prints sys.modules last, also after a SystemExit; -X importtime would miss
# what importlib.import_module loads.
_PRINT_MODULES_AT_EXIT = (
    "import atexit, json, sys\n"
    "atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))\n"
)
# `python -m roompol.cli`, as runpy runs it
RUN_CLI = "import runpy; runpy.run_module('roompol.cli', run_name='__main__', alter_sys=True)"


def run_fresh(code, *argv):
    """Run `code` with `argv` in a fresh interpreter; the process and the modules it loaded."""
    proc = subprocess.run([sys.executable, "-c", _PRINT_MODULES_AT_EXIT + code, *argv],
                          capture_output=True, text=True, env=fresh_env(), timeout=120)
    return proc, set(json.loads(proc.stderr.splitlines()[-1]))


class TestImportGraph:
    # Runs in a fresh interpreter, since this one has loaded scipy already.
    SCRIPT = """
import json, sys
import roompol, roompol.cli

def loaded(name):
    return sorted(m for m in sys.modules if m == name or m.startswith(name + "."))

config, co, cross, out = sys.argv[1:]

def run(*argv):
    return roompol.cli.main([*argv, "--config", config, "--out", out])

seen = {"import": loaded("scipy")}
fit = ["fit", "--co", co, "--cross", cross]
for argv in (["eval"], ["cpr"], fit):
    assert run(*argv) == 0
    seen[argv[0]] = loaded("scipy")
seen["fit_numpy_ma"] = loaded("numpy.ma")
# only simulate draws placements; the three commands before it load no numpy.random
seen["eval_cpr_fit_numpy_random"] = loaded("numpy.random")
assert run("simulate", "--workers", "1") == 0
seen["simulate"] = loaded("scipy")
seen["process_pool"] = loaded("concurrent.futures.process")
# the CLI has no simplex fit; a library caller's simplex fit imports scipy.optimize
from roompol.io import read_trace_csv
problem = roompol.FitProblem(
    roompol.RoomGeometry(3.0, 4.0, 3.0), 0.005, roompol.DistanceCondition(1.8),
    roompol.PulseShape("boxcar", 0.5e9), read_trace_csv(co), read_trace_csv(cross),
    method="simplex", max_iterations=50,
)
roompol.fit(problem)
seen["simplex_loads_optimize"] = "scipy.optimize" in sys.modules
print(json.dumps(seen))
"""

    def test_no_command_loads_scipy(self, tmp_path):
        config, paths = TestFit().make_inputs(tmp_path)
        with open(config, "a") as fh:
            fh.write(
                "material: {g: 0.4, gamma: 0.04}\n"
                "antennas: {xi: 0.1}\n"
                "grid: {start_ns: 0.0, stop_ns: 60.0, step_ns: 0.1}\n"
                "cpr: {distances_m: [0.5, 1.8]}\n"
            )
            fh.write(TestSimulate.SIM.splitlines()[-1] + "\n")
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, config, paths["co"], paths["cross"],
             str(tmp_path / "out.csv")],
            capture_output=True, text=True, env=fresh_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen == {
            "import": [], "eval": [], "cpr": [], "simulate": [], "process_pool": [],
            "fit": [], "fit_numpy_ma": [], "eval_cpr_fit_numpy_random": [],
            "simplex_loads_optimize": True,
        }

    # --help and usage errors exit before a command imports numpy, yaml and the model
    @pytest.mark.parametrize(
        "args, code, absent",
        [
            (["import roompol"], 0, ("numpy", "yaml", "roompol.")),
            ([RUN_CLI, "--help"], 0, ("numpy", "yaml")),
            ([RUN_CLI, "eval"], 2, ("numpy", "yaml")),
        ],
        ids=["import", "help", "usage_error"],
    )
    def test_lean_start(self, args, code, absent):
        proc, loaded = run_fresh(*args)
        assert proc.returncode == code, proc.stderr
        assert "roompol" in loaded
        assert sorted(m for m in loaded if m.startswith(absent)) == []


class TestExports:
    def test_each_name_is_its_home_modules_object(self):
        assert len(set(roompol.__all__)) == len(roompol.__all__) == 37
        for name in roompol.__all__:
            home = sys.modules[f"roompol.{roompol._HOME[name]}"]
            value = getattr(roompol, name)
            assert value is getattr(home, name), name
            if callable(value):  # the module that defines it, not one that imports it
                assert value.__module__ == home.__name__, name

    def test_first_use_of_a_submodule_resolves_it(self):
        proc, loaded = run_fresh(
            "import roompol; m = roompol.mirror; assert m.simulate_pdp is roompol.simulate_pdp"
        )
        assert proc.returncode == 0, proc.stderr
        assert "roompol.mirror" in loaded and "roompol.cli" not in loaded

    def test_dir_lists_every_name(self):
        listed = dir(roompol)
        assert set(roompol.__all__) <= set(listed)
        assert {"cli", "commands", "config", "io", "mirror", "model", "__version__"} <= set(listed)

    def test_unknown_name_is_an_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="module 'roompol' has no attribute 'to_db'"):
            roompol.to_db  # measurement's, which roompol does not export


def test_readme_usage_lists_every_option_of_the_parser():
    """Each README usage line names its command's options as `build_parser`
    declares them: required ones bare, optional ones in brackets, and a value
    after each option that takes one."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    usage = readme.split("## CLI quickstart", 1)[1].split("Then:", 1)[1]
    block = re.search(r"```sh\n(.*?)```", usage, re.S).group(1)
    documented = {}
    for line in block.splitlines():
        _, command, rest = line.split(maxsplit=2)
        options = re.findall(r"(\[?)(--[\w-]+)( [^-\[\s][^\s\]]*)?", rest)
        documented[command] = {opt: (not bracket, bool(value)) for bracket, opt, value in options}
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    declared = {
        command: {
            action.option_strings[0]: (action.required, action.nargs != 0)
            for action in sub._actions if not isinstance(action, argparse._HelpAction)
        }
        for command, sub in subparsers.choices.items()
    }
    assert documented == declared
