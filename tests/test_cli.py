import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import roompol
from roompol import (
    DistanceCondition,
    ObservationParams,
    PdpTrace,
    PdsParams,
    PolGain,
    PulseShape,
    RoomGeometry,
    WallMaterial,
    channel_pair,
    db_linear_convert,
    observed_pds,
)
from roompol.cli import build_parser, main
from roompol.io import TraceFormatError, read_trace_csv, write_trace_csv

BASE = """\
room: {lx: 3.0, ly: 4.0, lz: 3.0}
carrier: {wavelength_m: 0.005}
material: {g: 0.4, gamma: 0.04}
antennas: {xi: 0.0}
grid: {start_ns: 0.0, stop_ns: 60.0, step_ns: 0.1}
"""


def write_config(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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

    def test_worker_count_leaves_every_output_byte_identical(self, tmp_path):
        # three chunks, so a reduction out of chunk order would change the bytes
        cfg = write_config(tmp_path, self.SIM.replace("realizations: 1500", "realizations: 5000"))
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

    def test_zero_workers_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.SIM)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv"),
                     "--workers", "0"])
        assert code == 2
        assert "workers must be >= 1, got 0" in capsys.readouterr().err


class TestFit:
    def make_inputs(self, tmp_path, truth=(0.4, 0.04, 0.02, 1e-11)):
        room = RoomGeometry(3.0, 4.0, 3.0)
        material = WallMaterial(truth[0], truth[1])
        mu = PolGain.from_split(truth[2])
        cond = DistanceCondition(1.8, los=False)
        pulse = PulseShape("boxcar", 0.5e9)
        obs = ObservationParams(pulse=pulse, noise_power=truth[3])
        grid = np.arange(0.0, 300e-9, 0.5e-9)
        paths = {}
        co = PdsParams(room=room, material=material, mu_t=mu, mu_r=mu, wavelength=5e-3)
        for tag, p in zip(("co", "cross"), channel_pair(co)):
            trace = db_linear_convert(observed_pds(grid, p, cond, obs), "db")
            path = tmp_path / f"meas_{tag}.csv"
            write_trace_csv(str(path), trace)
            paths[tag] = str(path)
        config = write_config(tmp_path, (
            "room: {lx: 3.0, ly: 4.0, lz: 3.0}\n"
            "carrier: {wavelength_m: 0.005}\n"
            "link: {distance_m: 1.8, los: false}\n"
            "pulse: {kind: boxcar, bandwidth_hz: 0.5e9}\n"
            "fit: {g0: 0.5, gamma0: 0.1, xi0: 0.05, noise0: 1.0e-10}\n"
        ))
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

    def test_invalid_config_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE.replace("g: 0.4", "g: 1.4"))
        code = main(["eval", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "material" in capsys.readouterr().err

    def test_missing_section_for_command(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)  # no [simulation]
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "simulation" in capsys.readouterr().err

    def test_non_finite_config_value_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE.replace("stop_ns: 60.0", "stop_ns: .inf"))
        code = main(["eval", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "grid.stop_ns" in capsys.readouterr().err

    # Finite values whose derived quantity overflows or is too large to build.
    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("start_ns: 0.0, stop_ns: 60.0", "start_ns: -1.0e+308, stop_ns: 1.0e+308",
             "grid.step_ns"),
            ("stop_ns: 60.0, step_ns: 0.1", "stop_ns: 1.0e+7, step_ns: 1.0e-3", "grid.step_ns"),
        ],
        ids=["grid_overflow", "grid_too_many_samples"],
    )
    def test_degenerate_derived_value_is_validation_error(self, tmp_path, capsys, old, new, key):
        cfg = write_config(tmp_path, BASE.replace(old, new))
        code = main(["eval", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert key in capsys.readouterr().err

    # Simulation settings the config accepts but the simulator cannot run.
    @pytest.mark.parametrize(
        "extra, message",
        [
            ("link: {distance_m: 5.82}\n"
             "simulation: {realizations: 10, bin_width_ns: 1.0, max_delay_ns: 20.0, "
             "placement: fixed}\n", "could not place"),
            ("simulation: {realizations: 10, bin_width_ns: 1.0, max_delay_ns: 1.0e+5}\n",
             "lower max_delay"),
        ],
        ids=["unplaceable_distance", "image_cube_too_large"],
    )
    def test_unrunnable_simulation_is_validation_error(self, tmp_path, capsys, extra, message):
        cfg = write_config(tmp_path, BASE + extra)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert message in capsys.readouterr().err


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
        npt.assert_allclose(back.delays, trace.delays, rtol=1e-12)
        npt.assert_allclose(back.values, trace.values, rtol=1e-12)

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

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_writer_rejects_power_the_reader_cannot_read_back(self, tmp_path, bad):
        # the empty field reads back as -inf, so +inf and NaN have no spelling;
        # PdpTrace refuses them, and the writer checks the values it is given
        trace = PdpTrace(delays=np.arange(2) * 1e-9, values=np.array([-10.0, -20.0]), scale="db")
        trace.values[1] = bad
        path = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match="sample 1"):
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
with open(config) as fh:
    text = fh.read()
with open(config, "w") as fh:
    fh.write(text.replace("fit: {", "fit: {method: simplex, "))
assert run(*fit) == 0
seen["simplex_loads_optimize"] = "scipy.optimize" in sys.modules
print(json.dumps(seen))
"""

    def test_only_fit_loads_scipy(self, tmp_path):
        config, paths = TestFit().make_inputs(tmp_path)
        with open(config, "a") as fh:
            fh.write(
                "material: {g: 0.4, gamma: 0.04}\n"
                "antennas: {xi: 0.1}\n"
                "grid: {start_ns: 0.0, stop_ns: 60.0, step_ns: 0.1}\n"
                "cpr: {distances_m: [0.5, 1.8]}\n"
            )
            fh.write(TestSimulate.SIM.splitlines()[-1] + "\n")
        src = str(Path(roompol.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, config, paths["co"], paths["cross"],
             str(tmp_path / "out.csv")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen == {
            "import": [], "eval": [], "cpr": [], "simulate": [], "process_pool": [],
            "fit": [], "fit_numpy_ma": [], "eval_cpr_fit_numpy_random": [],
            "simplex_loads_optimize": True,
        }


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
