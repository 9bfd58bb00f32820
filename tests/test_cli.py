"""Config parsing, command tables, rendering, determinism, and exit codes."""

import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cfcool import oracle
from cfcool.cli import (
    _COMMANDS,
    OutputTable,
    build_parser,
    cmd_design,
    cmd_oracle,
    cmd_rates,
    cmd_spectrum,
    cmd_sweep,
    main,
    parse_config,
    render_csv,
    render_json,
)
from cfcool.errors import ConfigError, UnitError

NOTCH_FLAGS = ["--topology", "notch", "--kappa", "10", "--g", "0.1", "--kappa-f", "1"]
#: A stable loop whose steady covariance is huge (resonant drive, gamma_m -> 0).
WEAKLY_DAMPED_BANDPASS = ["--topology", "bandpass", "--kappa", "1", "--delta", "0", "--g", "1",
                          "--kappa-f", "1", "--delta-f", "0", "--gamma-m", "1e-6", "--n-th", "0"]
GRID_FLAGS = ["--omega-min", "-3", "--omega-max", "3", "--points", "601"]


def spectrum_cfg(extra=()):
    return parse_config(NOTCH_FLAGS + GRID_FLAGS + list(extra))


class TestParse:
    def test_auto_detuning_resolved(self):
        cfg = parse_config(NOTCH_FLAGS + ["--delta", "auto"])
        assert cfg.delta == -3.5

    def test_default_detuning_is_conventional_optimum(self):
        cfg = parse_config(NOTCH_FLAGS)
        assert cfg.delta == -1.0
        assert cfg.delta_f == 1.0

    def test_bandpass_filter_detuning_default(self):
        cfg = parse_config(["--topology", "bandpass", "--kappa", "10", "--g", "0.1", "--kappa-f", "1"])
        assert cfg.delta_f == -1.0

    def test_auto_requires_notch(self):
        with pytest.raises(ConfigError):
            parse_config(["--topology", "bandpass", "--kappa", "10", "--g", "0.1",
                          "--kappa-f", "1", "--delta", "auto"])

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("topology=notch\nkappa=10\ng=0.1\nkappa_f=1\ndelta=-2\n")
        cfg = parse_config(["--config", str(path), "--delta", "auto"])
        assert cfg.delta == -3.5

    def test_duplicate_key_in_file_ambiguous(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("delta=auto\ndelta=-1\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("kappa=10\nbogus=3\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_kappa_f_conflicts_with_split_mirrors(self):
        with pytest.raises(ConfigError):
            parse_config(["--kappa-f", "1", "--kappa1", "1", "--kappa2", "2"])

    def test_split_mirrors_must_come_together(self):
        with pytest.raises(ConfigError):
            parse_config(["--kappa1", "1"])

    def test_non_numeric_value_names_flag(self):
        with pytest.raises(ConfigError, match="--kappa"):
            parse_config(["--kappa", "ten"])

    def test_dimensionless_units_pin_omega_m(self):
        with pytest.raises(UnitError):
            parse_config(["--kappa", "10", "--omega-m", "2"])

    def test_si_units_need_omega_m(self):
        with pytest.raises(ConfigError):
            parse_config(["--units", "si", "--kappa", "10"])
        cfg = parse_config(["--units", "si", "--kappa", "1e6", "--omega-m", "2e5"])
        assert cfg.omega_m == 2e5 and cfg.delta == -2e5

    def test_negative_exponent_value_in_both_flag_forms(self):
        # The form the metadata echoes for a small negative detuning.
        value = "-1.0000000000000001e-05"
        cfg = parse_config(NOTCH_FLAGS + ["--delta", value])
        assert cfg == parse_config(NOTCH_FLAGS + [f"--delta={value}"])
        assert cfg.delta == float(value)

    def test_bad_choice_same_message_from_flag_and_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("topology=notchy\n")
        with pytest.raises(ConfigError) as from_flag:
            parse_config(["--topology", "notchy"])
        with pytest.raises(ConfigError) as from_file:
            parse_config(path)
        assert str(from_flag.value) == str(from_file.value)

    @pytest.mark.parametrize("argv, message", [
        (["--kappa"], "--kappa: expected a value"),
        (["--kappa", "10", "--kap", "1"], "'--kap' is not a flag of cfcool"),
        (["--help"], "'--help' is not a flag of cfcool"),
    ], ids=["missing-value", "abbreviation", "help"])
    def test_flag_errors(self, argv, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(argv)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", *NOTCH_FLAGS, "--delta", "auto", *GRID_FLAGS],
            ["rates", "--topology", "bandpass", "--kappa", "10", "--g", "0.1", "--kappa-f", "1",
             "--gamma-m", "1e-5", "--n-th", "100"],
            ["rates", "--topology", "notch", "--kappa", "10", "--g", "0.1", "--kappa1", "1",
             "--kappa2", "1.2", "--kappa-loss", "0.05", "--tau", "0.3"],
            ["rates", "--topology", "none", "--kappa", "3.7", "--g", "0.02", "--delta", "-0.77"],
            ["sweep", *NOTCH_FLAGS, "--sweep-param", "delta", "--sweep-min", "-5",
             "--sweep-max", "-0.5", "--sweep-points", "11"],
            ["spectrum", "--element", "filter", "--kappa-f", "1", "--delta-f", "1", *GRID_FLAGS],
        ],
        ids=[f"flags{i}" for i in range(6)],
    )
    def test_metadata_reparses_to_equal_config(self, tmp_path, capsys, argv):
        # The README's claim: the pairs of a CSV's "# key=value ..." line, fed
        # back as a config file, reproduce the same run.
        assert main(argv) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("# ")
        path = tmp_path / "echo.cfg"
        path.write_text("".join(pair + "\n" for pair in header[2:].split(" ")))
        assert parse_config(path) == parse_config(argv[1:])


class TestSpectrumCommand:
    def test_notch_spectrum_values_and_shape(self):
        table = cmd_spectrum(spectrum_cfg())
        assert table.columns == ("omega", "Sigma", "Sigma_uncontrolled")
        assert len(table.rows) == 601
        by_omega = {row[0]: row for row in table.rows}
        assert by_omega[-1.0][1] == 0.0
        assert abs(by_omega[1.0][1] - 0.004) < 1e-15
        assert abs(by_omega[1.0][2] - 0.004) < 1e-15

    def test_stokes_notch_is_deep(self):
        table = cmd_spectrum(spectrum_cfg())
        sigmas = [row[1] for row in table.rows]
        nearest = min(table.rows, key=lambda row: abs(row[0] - (-1.0)))
        assert nearest[1] <= 1e-12 * max(sigmas)

    def test_filter_element_response(self):
        cfg = parse_config(["--element", "filter", "--kappa-f", "1", "--delta-f", "1"] + GRID_FLAGS)
        table = cmd_spectrum(cfg)
        assert table.columns == ("omega", "R2", "T2")
        for row in table.rows:
            assert abs(row[1] + row[2] - 1.0) <= 1e-12
        best = min(table.rows, key=lambda row: row[1])
        assert best[0] == -1.0 and best[1] == 0.0

    def test_singular_rows_flagged_with_full_grid(self):
        # delta = +omega_m with delta_f = +omega_m is singular exactly at
        # omega = -1; the row stays, its Sigma cell is empty, the reference
        # column survives.
        cfg = spectrum_cfg(["--delta", "1"])
        table = cmd_spectrum(cfg)
        assert len(table.rows) == 601
        flagged = [row for row in table.rows if row[1] is None]
        assert len(flagged) == 1
        assert flagged[0][0] == -1.0
        assert flagged[0][2] is not None

    def test_grid_required(self):
        with pytest.raises(ConfigError, match="--omega-min"):
            cmd_spectrum(parse_config(NOTCH_FLAGS))
        with pytest.raises(ConfigError):
            cmd_spectrum(parse_config(NOTCH_FLAGS + ["--omega-min", "-3", "--omega-max", "3", "--points", "1"]))


class TestRatesCommand:
    def test_bandpass_row(self):
        cfg = parse_config(["--topology", "bandpass", "--kappa", "10", "--g", "0.1", "--kappa-f", "1"])
        table = cmd_rates(cfg)
        row = dict(zip(table.columns, table.rows[0]))
        assert abs(row["a_plus"] - 0.1 / 509.0) < 1e-15
        assert abs(row["a_minus"] - 0.004) < 1e-15
        assert abs(row["n_min"] - 25.0 / 484.0) < 1e-12
        assert row["net_cooling"] == 1.0
        assert row["bandpass_feasible"] == 1.0

    def test_uncontrolled_row(self):
        cfg = parse_config(["--topology", "none", "--kappa", "10", "--g", "0.1"])
        row = dict(zip(cmd_rates(cfg).columns, cmd_rates(cfg).rows[0]))
        assert abs(row["n_min"] - 6.25) < 1e-9
        assert row["bandpass_feasible"] is None

    def test_notch_row(self):
        row = dict(zip(cmd_rates(parse_config(NOTCH_FLAGS)).columns,
                       cmd_rates(parse_config(NOTCH_FLAGS)).rows[0]))
        assert row["a_plus"] == 0.0 and row["n_min"] == 0.0

    def test_heating_rendered_not_raised(self):
        cfg = parse_config(["--topology", "none", "--kappa", "10", "--g", "0.1", "--delta", "2"])
        row = dict(zip(cmd_rates(cfg).columns, cmd_rates(cfg).rows[0]))
        assert row["net_cooling"] == 0.0
        assert row["n_min"] is None and row["n_steady"] is None


class TestSweepCommand:
    def test_delta_sweep_argmax(self):
        cfg = parse_config(NOTCH_FLAGS + ["--sweep-param", "delta", "--sweep-min", "-5",
                                          "--sweep-max", "0", "--sweep-points", "501"])
        table = cmd_sweep(cfg)
        best = max(table.rows, key=lambda row: row[2] if row[2] is not None else -1.0)
        assert abs(best[0] - (-3.5)) <= 0.01

    def test_kappa_f_sweep_monotone_stokes(self):
        cfg = parse_config(["--topology", "bandpass", "--kappa", "10", "--g", "0.1",
                            "--kappa-f", "1", "--sweep-param", "kappa_f",
                            "--sweep-min", "0.1", "--sweep-max", "10", "--sweep-points", "3"])
        rows = cmd_sweep(cfg).rows
        a_plus = [row[1] for row in rows]
        assert a_plus[0] < a_plus[1] < a_plus[2]

    def test_empty_grid_rejected(self):
        cfg = parse_config(NOTCH_FLAGS + ["--sweep-param", "delta", "--sweep-min", "-5",
                                          "--sweep-max", "0", "--sweep-points", "0"])
        with pytest.raises(ConfigError):
            cmd_sweep(cfg)


class TestOracleCommand:
    def test_notch_report(self):
        cfg = parse_config(NOTCH_FLAGS + ["--delta", "auto", "--g", "0.01",
                                          "--gamma-m", "1e-5", "--n-th", "100"])
        row = dict(zip(cmd_oracle(cfg).columns, cmd_oracle(cfg).rows[0]))
        assert row["stable"] == 1.0
        assert row["rel_dev"] <= 0.05

    def test_decoupled_returns_thermal(self):
        cfg = parse_config(["--topology", "none", "--kappa", "10", "--g", "0",
                            "--gamma-m", "1e-5", "--n-th", "100"])
        row = dict(zip(cmd_oracle(cfg).columns, cmd_oracle(cfg).rows[0]))
        assert abs(row["n_oracle"] - 100.0) < 1e-9

    def test_unstable_reported_with_exit_zero(self, capsys):
        argv = ["oracle", "--topology", "none", "--kappa", "10", "--g", "0.1",
                "--delta", "1", "--gamma-m", "1e-5", "--n-th", "100"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        line = out.splitlines()[-1]
        assert line.startswith("0,")  # stable=0, remaining fields empty
        assert line == "0,,,"

    def test_weakly_damped_loop_passes_backward_error_gate(self, capsys):
        # n ~ 4.7e5 with a normwise backward error of 1.2e-17: the gate must
        # scale with ||V||, not with ||D|| alone.
        assert main(["oracle", *WEAKLY_DAMPED_BANDPASS]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert row[0] == "1"
        assert math.isfinite(float(row[1])) and float(row[1]) > 0


class TestDesignCommand:
    def test_resolved_design_point(self):
        table = cmd_design(parse_config(NOTCH_FLAGS))
        row = dict(zip(table.columns, table.rows[0]))
        assert row["delta_c"] == -3.5
        assert row["delta_f"] == 1.0
        assert row["bandpass_feasible"] == 1.0


class TestRendering:
    def test_csv_layout(self):
        table = OutputTable(
            meta=(("topology", "notch"), ("kappa", "10")),
            columns=("a", "b"),
            rows=((1.0, None), (0.5, 2.0)),
        )
        text = render_csv(table)
        lines = text.split("\n")
        assert lines[0] == "# topology=notch kappa=10"
        assert lines[1] == "a,b"
        assert lines[2] == "1,"
        assert lines[3] == "0.5,2"
        assert text.endswith("\n")

    def test_json_layout(self):
        table = OutputTable(meta=(("k", "v"),), columns=("c",), rows=((None,),))
        payload = json.loads(render_json(table))
        assert payload["meta"] == {"k": "v"}
        assert payload["columns"] == ["c"]
        assert payload["rows"] == [[None]]

    def test_nan_rejected(self):
        with pytest.raises(ConfigError):
            OutputTable(meta=(), columns=("c",), rows=((math.nan,),))


class TestMain:
    def test_missing_kappa_names_flag(self, capsys):
        assert main(["rates", "--topology", "notch", "--g", "0.1", "--kappa-f", "1"]) == 1
        assert "--kappa" in capsys.readouterr().err

    def test_singular_rate_point_exits_two(self, capsys):
        # delta = +omega_m with delta_f = +omega_m puts the loop exactly on
        # resonance at the Stokes sampling frequency.
        argv = ["rates", "--topology", "notch", "--kappa", "10", "--g", "0.1",
                "--kappa-f", "1", "--delta", "1"]
        assert main(argv) == 2
        assert "omega" in capsys.readouterr().err

    def test_repeat_runs_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["spectrum"] + NOTCH_FLAGS + GRID_FLAGS + ["--delta", "auto"]
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_output_to_stdout(self, capsys):
        assert main(["rates"] + NOTCH_FLAGS + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["columns"][0] == "a_plus"

    def test_auto_and_resolved_literal_share_bytes(self, tmp_path):
        # "--delta auto" resolves to -3.5 here; the equal literal config must
        # produce the identical file.
        out1, out2 = tmp_path / "auto.csv", tmp_path / "literal.csv"
        base = ["rates"] + NOTCH_FLAGS
        assert main(base + ["--delta", "auto", "--output", str(out1)]) == 0
        assert main(base + ["--delta", "-3.5", "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_identical_config_different_paths_share_bytes(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("topology=notch\nkappa=10\ng=0.1\nkappa_f=1\n"
                            "omega_min=-3\nomega_max=3\npoints=601\n")
        out1, out2 = tmp_path / "x.csv", tmp_path / "sub" / "y.csv"
        out2.parent.mkdir()
        assert main(["spectrum", "--config", str(cfg_file), "--output", str(out1)]) == 0
        assert main(["spectrum", "--config", str(cfg_file), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rates", "--kappa", "-1", "--g", "0.1"],  # InvalidParam
            ["oracle", "--topology", "notch", "--kappa", "10", "--g", "0.01",
             "--kappa-f", "1", "--tau", "0.1"],  # UnsupportedDelay
            ["rates", *NOTCH_FLAGS, "--bogus", "1"],
            ["rates", *NOTCH_FLAGS, "--points", "5"],  # a flag rates does not take
            ["rates", *NOTCH_FLAGS, "--format", "xml"],
            ["sweep", "--topology", "notch", "--kappa", "10", "--g", "0.1", "--kappa1", "1",
             "--kappa2", "2", "--kappa-loss", "0.5", "--sweep-param", "kappa_f",
             "--sweep-min", "0.5", "--sweep-max", "2", "--sweep-points", "3"],
            ["bogus"],
            ["rates", *NOTCH_FLAGS, "--gam", "0.001"],  # flags match by exact name
            ["spectrum", *NOTCH_FLAGS, "--omega-min", "-3", "--omega-max", "3", "--poi", "3"],
        ],
    )
    def test_bad_input_exits_one_without_traceback(self, argv):
        proc = subprocess.run([sys.executable, "-m", "cfcool", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("cfcool: config error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("controller", [
        ["--kappa-f", "1", "--kappa-loss", "0.5"],
        ["--kappa1", "1", "--kappa2", "2"],
    ])
    def test_auto_detuning_rejects_non_ideal_controller(self, capsys, controller):
        # The closed-form optimum (-3.5 here) is not this loop's optimum (about
        # -3.207 for the lossy one); resolving it would describe another loop.
        argv = ["rates", "--topology", "notch", "--kappa", "10", "--g", "0.1",
                *controller, "--delta", "auto"]
        assert main(argv) == 1
        assert "needs a symmetric lossless controller" in capsys.readouterr().err

    def test_lyapunov_gate_exits_two_without_traceback(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "LYAPUNOV_RTOL", 0.0)
        assert main(["oracle", *WEAKLY_DAMPED_BANDPASS]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("cfcool: numeric failure: Lyapunov residual")
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_no_net_cooling_in_oracle_exits_two_without_traceback(self, capsys):
        # The exact drift is Hurwitz, so the oracle solves, but the rate
        # equation's denominator gamma_opt + gamma_m is -0.02.
        argv = ["oracle", "--kappa", "2", "--delta", "1", "--g", "0.5",
                "--gamma-m", "0.38", "--n-th", "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("cfcool: numeric failure: rate-equation denominator")
        assert "<= 0: no stationary occupation" in captured.err
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("topology", [["--topology", "bandpass"], []])
    def test_design_needs_notch_topology(self, topology):
        # design reports the band-blocking loop's closed-form optimum, which
        # is not the optimum of any other topology (about -1.0 for this
        # band-pass loop against -3.5).
        argv = ["design", *topology, "--kappa", "10", "--g", "0.1", "--kappa-f", "1"]
        proc = subprocess.run([sys.executable, "-m", "cfcool", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 1, proc.stdout
        assert proc.stderr.startswith("cfcool: config error:")
        assert "--topology notch" in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv", [["--help"], ["rates", "--help"]], ids=["cfcool", "rates"])
    def test_top_level_help(self, capsys, argv):
        assert main(argv) == 0
        assert "cfcool <command> --help" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv", [["rates"], ["spectrum", *GRID_FLAGS]], ids=["rates", "spectrum"]
    )
    def test_g_whose_square_overflows_exits_one(self, argv):
        # 1e200 is finite, but the rates and the spectrum scale with g * g.
        flags = ["--topology", "notch", "--kappa", "10", "--g", "1e200", "--kappa-f", "1"]
        proc = subprocess.run([sys.executable, "-m", "cfcool", *argv, *flags],
                              capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("cfcool: config error: g * g must be finite")
        assert len(proc.stderr.splitlines()) == 1
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_config_file_takes_keys_of_other_commands(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("points=5\nsweep_points=3\n")
        assert main(["rates", *NOTCH_FLAGS, "--config", str(path)]) == 0
        assert " points=5 " in capsys.readouterr().out


class TestFlagLists:
    """The per-command flag lists of ``cfcool --help`` and of the README
    command table are the flags each command's parser accepts."""

    FLAG = re.compile(r"(?<![\w-])--?[a-z][a-z0-9-]*")

    @staticmethod
    def accepted(command):
        return set(build_parser(command))

    def expected(self):
        common = set.intersection(*(self.accepted(c) for c in _COMMANDS))
        return common, {c: self.accepted(c) - common for c in _COMMANDS}

    def test_help_text(self, capsys):
        assert main(["--help"]) == 0
        text = capsys.readouterr().out
        head, body = text.split("):\n", 1)
        common = set(self.FLAG.findall(head.split("besides the common ones (", 1)[1]))
        blocks = re.split(r"^  (\w+) ", body.split("\n\n", 1)[0], flags=re.M)[1:]
        own = {name: set(self.FLAG.findall(b)) for name, b in zip(blocks[::2], blocks[1::2])}
        assert (common, own) == self.expected()

    def test_readme_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", readme, flags=re.M)
        own = {name: set(self.FLAG.findall(flags)) for name, flags in rows}
        common_text = readme.split("The common flags are ", 1)[1].split("\n\n", 1)[0]
        assert (set(self.FLAG.findall(common_text)), own) == self.expected()


class TestGoldenBytes:
    """SHA-256 of the full output of the README commands.

    Their values come from scalar float arithmetic (the sweep's stability flag
    only thresholds eigenvalues), so the bytes are the same on every platform.
    """

    @pytest.mark.parametrize(
        "command, digest",
        [
            ("spectrum --element filter --kappa-f 1 --delta-f 1 "
             "--omega-min -3 --omega-max 3 --points 601",
             "7a58c2e4c71b735e658c5df19365a511c3d267b9a00638e66395f986038e5dcf"),
            ("spectrum --topology notch --kappa 10 --g 0.1 --kappa-f 1 "
             "--omega-min -3 --omega-max 3 --points 601",
             "636cc3a252a51a8f191ae28941ba53db0ea25f6362eaa3903d6368e34275e5dd"),
            ("spectrum --topology notch --kappa 10 --g 0.1 --kappa-f 1 --delta auto "
             "--omega-min -3 --omega-max 3 --points 601",
             "f084db56cbc36fcfeac79e00b48e107999fa914a1542163e9be132943e9cf7b2"),
            ("rates --topology bandpass --kappa 10 --g 0.1 --kappa-f 1",
             "b7feafbce63483eb75dfcb64ff5d091d63626805ba5b6c71c15c729ee1837713"),
            ("sweep --topology notch --kappa 10 --g 0.1 --kappa-f 1 "
             "--sweep-param delta --sweep-min -5 --sweep-max 0 --sweep-points 501",
             "5e58b407e29539732b64ae7232558d2245c4e774466b58fe33b543d66958f93f"),
            ("design --topology notch --kappa 10 --g 0.1 --kappa-f 1",
             "cb6b1460a52c1c0987518090452bf31f3706b0bce1b3a7814a93b59778b35b8a"),
            # Asymmetric, lossy, delayed loops: the network solver and the delay line.
            ("rates --topology notch --kappa 10 --g 0.1 --kappa1 1 --kappa2 1.3 "
             "--kappa-loss 0.2 --tau 0.5",
             "4b632b95b84d1d3a9116aea1bb0f3ea063053112dd6fb8833ef91debfe160829"),
            ("spectrum --topology bandpass --kappa 10 --g 0.1 --kappa1 1 --kappa2 1.3 "
             "--kappa-loss 0.2 --tau 0.5 --omega-min -3 --omega-max 3 --points 601",
             "d86e97d1381b9e21dd4cdd68699e3cb1ab882fbabb62c80488133155e920a587"),
        ],
    )
    def test_readme_command_digest(self, capsys, command, digest):
        assert main(command.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_oracle_metadata_and_header(self, capsys):
        # Oracle values go through LAPACK and may differ in the last digits
        # between builds; the echoed parameters and the columns may not.
        argv = ("oracle --topology notch --kappa 10 --g 0.01 --kappa-f 1 --delta auto "
                "--gamma-m 1e-5 --n-th 100").split()
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "# _version=0.1.0 topology=notch units=omega_m kappa=10 omega_m=1 g=0.01 "
            "delta=-3.5 kappa1=1 kappa2=1 kappa_loss=0 delta_f=1 "
            "gamma_m=1.0000000000000001e-05 n_th=100 tau=0 format=csv"
        )
        assert lines[1] == "stable,n_oracle,n_rate,rel_dev"
