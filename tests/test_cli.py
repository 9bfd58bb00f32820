"""Config parsing, command tables, rendering, determinism, and exit codes."""

import contextlib
import errno
import hashlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

try:
    import resource
except ImportError:  # not POSIX
    resource = None

import numpy as np
import pytest

from cfcool import cli, design, oracle
from cfcool.cli import (
    _BLOCK_CELLS,
    _BLOCK_RENDER_CELLS,
    _COMMANDS,
    OutputTable,
    build_parser,
    cmd_design,
    cmd_oracle,
    cmd_rates,
    cmd_spectrum,
    cmd_sweep,
    fmt17,
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
#: A notch loop at --omega-m 1e308, outside the input domain: its sideband
#: frequency +omega_m plus delta_f = omega_m would overflow.
OVERFLOW_FLAGS = ["--topology", "notch", "--kappa", "1", "--g", "0.1", "--delta", "1",
                  "--units", "si", "--omega-m", "1e308"]
#: A symmetric notch loop for the closed-form optimum, short of --omega-m.
OPTIMUM_FLAGS = ["--topology", "notch", "--kappa", "1", "--g", "0.1", "--kappa-f", "1",
                 "--units", "si"]
#: A delayed notch loop at --omega-m 1e307, outside the input domain: its
#: phase omega_m * tau would overflow, every sum finite.
DELAYED_FLAGS = ["--topology", "notch", "--kappa", "1", "--g", "0.1", "--kappa-f", "1",
                 "--delta", "1", "--delta-f", "1", "--omega-m", "1e307", "--units", "si",
                 "--tau", "100"]


def spectrum_cfg(extra=()):
    return parse_config(NOTCH_FLAGS + GRID_FLAGS + list(extra))


def refusal(capsys, argv):
    """stderr of ``main(argv)``, which must exit 1 with no output.  Under
    pytest's ``filterwarnings = error`` a numpy warning is an exception that
    escapes ``main`` and fails the test."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def outside_domain(argv, flag):
    """The one line refusing the value ``flag`` has in ``argv`` (the last one
    given wins): a float input must be 0 or of magnitude 1e-50 to 1e50."""
    value = argv[::-1][argv[::-1].index(flag) - 1]
    return f"cfcool: config error: {flag}: must be 0 or of magnitude 1e-50 to 1e50, got {value!r}\n"


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
            # At the edge of the input domain --delta auto resolves to -3.5e49,
            # inside it.
            ["rates", "--topology", "notch", "--units", "si", "--omega-m", "1e49", "--kappa",
             "1e50", "--kappa-f", "1e49", "--g", "0.1", "--delta", "auto"],
        ],
        ids=[f"flags{i}" for i in range(7)],
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

    @pytest.mark.parametrize("extra", [
        [],
        ["--delta", "1"],  # singular at omega = -1, row 200
        ["--delta", "1", "--omega-min", "-2", "--omega-max", "0", "--points", "41"],  # row 20
        ["--element", "filter", "--delta-f", "1"],
    ], ids=["loop", "singular", "singular-last-of-block", "filter"])
    def test_blocked_table_is_one_grid_call(self, monkeypatch, extra):
        cfg = spectrum_cfg(extra)
        one_call = cmd_spectrum(cfg)
        monkeypatch.setattr(design, "GRID_BLOCK", 7)
        table = cmd_spectrum(cfg)
        assert np.array_equal(table.values.view(np.int64), one_call.values.view(np.int64))
        assert np.array_equal(table.empty, one_call.empty)
        assert table.empty[:, 1].sum() == ("--delta" in extra)

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


class TestSingularSweepGrid:
    """Sweeps of the notch loop at --delta 1 (delta = delta_f), where every row
    is singular at -omega_m: two rate calls flag all 501 rows, with the bytes
    of flagging one row per call."""

    @pytest.mark.parametrize("param, low, high, digest", [
        ("g", "0.01", "0.3", "cf26b30e85092191d010fef77189abd685c0916959a6f05035a47473c6d8b9e8"),
        ("kappa", "1", "20", "c09c9280e948fa5d945b69ee1f7d702674178f588628ee33d0f83d3fe02a4cad"),
        ("kappa_f", "0.5", "3", "eb2da8263fb35ee75c9983a8caae60cea092909610b1b6c459ddddd3f51bfe39"),
    ])
    def test_all_singular_grid_digest_in_two_calls(self, monkeypatch, capsys, param, low, high, digest):
        calls = []
        sigmas = design._sideband_sigmas

        def recording(*args):
            calls.append(args)
            return sigmas(*args)

        monkeypatch.setattr(design, "_sideband_sigmas", recording)
        argv = ["sweep", *NOTCH_FLAGS, "--delta", "1", "--sweep-param", param,
                "--sweep-min", low, "--sweep-max", high, "--sweep-points", "501"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert all(row.endswith(",1") for row in out.splitlines()[2:])
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert len(calls) == 2


class TestOracleCommand:
    def test_notch_report(self):
        cfg = parse_config(NOTCH_FLAGS + ["--delta", "auto", "--g", "0.01",
                                          "--gamma-m", "1e-5", "--n-th", "100"])
        row = dict(zip(cmd_oracle(cfg).columns, cmd_oracle(cfg).rows[0]))
        assert row["stable"] == 1.0
        assert row["rel_dev"] <= 0.05

    @pytest.mark.parametrize("command, flags", [
        (cmd_rates, []),
        (cmd_oracle, []),
        (cmd_sweep, ["--sweep-param", "delta", "--sweep-min", "-2", "--sweep-max", "1",
                     "--sweep-points", "4"]),
    ], ids=["rates", "oracle", "sweep"])
    def test_bare_cavity_ignores_the_delay(self, command, flags):
        # A bare cavity has no loop for --tau to enter: every command
        # reports as at --tau 0, the oracle and the stable flags included.
        argv = ["--topology", "none", "--kappa", "10", "--g", "0.1", "--gamma-m", "1e-5",
                "--n-th", "10", *flags]
        delayed = command(parse_config([*argv, "--tau", "1"]))
        assert delayed.rows == command(parse_config(argv)).rows
        if "stable" in delayed.columns:
            stable = delayed.columns.index("stable")
            assert all(row[stable] is not None for row in delayed.rows)

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--topology", "none", "--kappa", "1e160", "--g", "0.1", "--gamma-m", "1e-3"],
            ["--topology", "notch", "--kappa", "1e160", "--g", "0.1", "--kappa-f", "1",
             "--gamma-m", "1e-3"],
            ["--topology", "none", "--kappa", "1e160", "--g", "1e79", "--gamma-m", "1e150"],
        ],
        ids=["none", "notch", "stable"],
    )
    def test_huge_rates_do_not_overflow_the_norms(self, capsys, argv):
        # A rate of 1e160 is outside the input domain; the oracle's own
        # handling of it is TestHugeInputs in test_oracle.py.
        argv = ["oracle", *argv]
        assert refusal(capsys, argv) == outside_domain(argv, "--kappa")


class TestDesignCommand:
    def test_resolved_design_point(self):
        table = cmd_design(parse_config(NOTCH_FLAGS))
        row = dict(zip(table.columns, table.rows[0]))
        assert row["delta_c"] == -3.5
        assert row["delta_f"] == 1.0
        assert row["bandpass_feasible"] == 1.0


def per_cell_csv(table):
    """CSV rendered one ``fmt17`` call per cell."""
    lines = ["# " + " ".join(f"{k}={v}" for k, v in table.meta), ",".join(table.columns)]
    lines += [",".join("" if c is None else fmt17(c) for c in row) for row in table.rows]
    return "\n".join(lines) + "\n"


#: One value of each %g layout, k = -5 ... 17, with and without trailing zeros
#: and signs, the extremes, integers and -0.0.
LAYOUTS = [x for k in range(-5, 18) for x in (1.25 * 10.0**k, -math.pi * 10.0**k, 10.0**k)]
LAYOUTS += [-0.0, 0.0, 5e-324, 1e308, -1.7976931348623157e308, 1.0, -7.0, 123456.0, 2.0**53]


def layout_rows(cells, width):
    """``cells`` cells of LAYOUTS, ``width`` to a row: every 11th cell empty,
    and every cell of the second row."""
    flat = [None if i % 11 == 5 or width <= i < 2 * width else LAYOUTS[i % len(LAYOUTS)]
            for i in range(cells)]
    return tuple(tuple(flat[i : i + width]) for i in range(0, cells, width))


class TestRendering:
    def test_csv_layout(self):
        table = OutputTable.from_rows(
            meta=(("topology", "notch"), ("kappa", "10")),
            columns=("a", "b"),
            rows=((1.0, None), (0.5, 2.0)),
        )
        text = render_csv(table)
        lines = text.split(b"\n")
        assert lines[0] == b"# topology=notch kappa=10"
        assert lines[1] == b"a,b"
        assert lines[2] == b"1,"
        assert lines[3] == b"0.5,2"
        assert text.endswith(b"\n")

    @pytest.mark.parametrize(
        "rows",
        [
            ((1.0, None, 0.1), (None, None, 2.5e-300), (-0.0, 1.0 / 3.0, None)),
            ((math.pi, 1e308, -5e-324),),
            # Numpy floats, as the spectrum columns held them before.
            tuple((np.float64(w), np.float64(w) ** 2, None) for w in np.linspace(-1.0, 1.0, 7)),
            ((1.0, 2.0, 3.0), (None, None, None), (0.5, None, -2.0)),
            ((None, 1.0, 2.0), (None, -0.0, 3.0)),
            # Refused: an infinite cell in a row that also has empty cells.
            ((0.5, 1.0, 2.0), (None, math.inf, None)),
            # The size rule: one cell below it, at it and above it.
            layout_rows(_BLOCK_RENDER_CELLS - 1, 1),
            layout_rows(_BLOCK_RENDER_CELLS, 1),
            layout_rows(_BLOCK_RENDER_CELLS + 1, 1),
            # One cell short of a block boundary and one past it.
            layout_rows(_BLOCK_CELLS - 1, 1),
            layout_rows(_BLOCK_CELLS + 1, 1),
            # Seven columns: a block is 585 whole rows.
            layout_rows(7 * 586, 7),
        ],
        ids=["empty-cells", "one-row", "numpy-floats", "empty-row", "empty-column",
             "infinite-cell", "below-size-rule", "at-size-rule", "above-size-rule",
             "block-minus-one", "block-plus-one", "seven-columns-past-a-block"],
    )
    def test_one_pass_render_matches_per_cell_format(self, rows, monkeypatch):
        columns = tuple("abcdefg"[: len(rows[0])])
        bad = [c for row in rows for c in row if c is not None and not math.isfinite(c)]
        if bad:
            with pytest.raises(ConfigError, match=f"^non-finite cell {bad[0]!r} in output row$"):
                OutputTable.from_rows(meta=(("k", "v"),), columns=columns, rows=rows)
            return
        table = OutputTable.from_rows(meta=(("k", "v"),), columns=columns, rows=rows)
        calls, vectorized = [], cli.fmt17_rows
        monkeypatch.setattr(cli, "fmt17_rows", lambda *a: calls.append(a) or vectorized(*a))
        assert render_csv(table) == per_cell_csv(table).encode()
        assert len(calls) == (table.values.size >= _BLOCK_RENDER_CELLS)

    @pytest.mark.parametrize("shift", [-1e-9, 1e-9], ids=["low", "high"])
    def test_format17_rows_do_not_trust_log10(self, shift, monkeypatch):
        # log10 a hair off at and around the powers of ten: k is then one
        # off, and every such cell still prints as "%" prints it.
        values = []
        for k in range(-323, 309):
            x = float(f"1e{k}")
            values += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
        values = np.array(values)[:, None]
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
        text = cli.fmt17_rows(values, np.zeros(values.shape, bool))
        assert text == "".join(f"{x:.17g}\n" for x in values.ravel().tolist()).encode()

    def test_one_pass_render_of_a_sweep_table(self):
        # Seven columns; the row at delta = +1 is singular (empty rate cells).
        cfg = parse_config(NOTCH_FLAGS + ["--sweep-param", "delta", "--sweep-min", "-1",
                                          "--sweep-max", "1", "--sweep-points", "3"])
        table = cmd_sweep(cfg)
        assert len(table.columns) == 7 and None in table.rows[2]
        assert render_csv(table) == per_cell_csv(table).encode()

    def test_json_layout(self):
        table = OutputTable.from_rows(meta=(("k", "v"),), columns=("c",), rows=((None,),))
        payload = json.loads(render_json(table))
        assert payload["meta"] == {"k": "v"}
        assert payload["columns"] == ["c"]
        assert payload["rows"] == [[None]]

    def test_empty_cells_are_not_checked(self):
        # A singular sweep row holds NaN rates under its empty cells.
        table = OutputTable((), ("a", "b"), np.array([[1.0, math.nan]]), np.array([[False, True]]))
        assert render_csv(table) == b"# \na,b\n1,\n"
        assert table.rows == [[1.0, None]]

    def test_mask_of_another_shape_rejected(self):
        with pytest.raises(ConfigError, match="row width"):
            OutputTable((), ("a", "b"), np.ones((2, 2)), np.zeros((2, 1), dtype=bool))

    def test_nan_rejected(self):
        with pytest.raises(ConfigError):
            OutputTable.from_rows(meta=(), columns=("c",), rows=((math.nan,),))


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
            # An empty --config still names a file, which does not exist.
            ["rates", "--config", "", "--kappa", "10", "--g", "0.1"],
            ["rates", "--config=", "--kappa", "10", "--g", "0.1"],
            # Grids must be strictly increasing.
            ["spectrum", *NOTCH_FLAGS, "--omega-min", "1", "--omega-max", "1.0000000000000002",
             "--points", "5"],
            # Grid ends outside the input domain.
            ["spectrum", *NOTCH_FLAGS, "--omega-min", "-1e308", "--omega-max", "1e308",
             "--points", "5"],
            ["sweep", *NOTCH_FLAGS, "--sweep-param", "delta", "--sweep-min", "-1e308",
             "--sweep-max", "1e308", "--sweep-points", "5"],
        ],
    )
    def test_bad_input_exits_one_without_traceback(self, capsys, argv):
        stderr = refusal(capsys, argv)
        assert stderr.startswith("cfcool: config error:")
        assert stderr.count("\n") == 1, stderr

    @pytest.mark.parametrize(
        "argv, code, stderr",
        [
            (["rates", *NOTCH_FLAGS, "--kappa", "1e300"], 1,
             "cfcool: config error: --kappa: must be 0 or of magnitude 1e-50 to 1e50, "
             "got '1e300'\n"),
            # delta = +omega_m with delta_f = +omega_m: singular at the Stokes
            # sampling frequency.
            (["rates", *NOTCH_FLAGS, "--delta", "1"], 2,
             "cfcool: numeric failure: algebraic loop is singular at omega=-1.0\n"),
        ],
        ids=["one", "two"],
    )
    def test_process_exit_code_and_one_line(self, argv, code, stderr):
        # The other cases call main in-process; these run `python -m cfcool`.
        # As in CI, a numpy RuntimeWarning would end the run with a traceback.
        proc = subprocess.run([sys.executable, "-m", "cfcool", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"})
        assert proc.returncode == code, proc.stderr
        assert proc.stderr == stderr
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

    @pytest.mark.parametrize("argv", [
        ["rates", *NOTCH_FLAGS, "--delta", "auto", "--tau", "5"],
        ["design", *NOTCH_FLAGS, "--tau", "5"],
    ], ids=["auto", "design"])
    def test_closed_form_optimum_refuses_a_delay(self, capsys, argv):
        # At tau = 5 the closed form gives delta = -3.5 and A- = 3.2e-3, but
        # the delayed loop's own optimum is delta = -0.624 with A- = 1.04e-2.
        assert refusal(capsys, argv) == (
            "cfcool: config error: the closed-form optimum (--delta auto, design) "
            "assumes no delay, got --tau 5.0\n"
        )

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

    @pytest.mark.parametrize("argv, message", [
        (["rates", "--topology", "notch", "--kappa", "10", "--g", "0.1"],
         "missing required flag --kappa-f (or --kappa1/--kappa2)"),
        (["spectrum", *NOTCH_FLAGS, "--omega-min", "3", "--omega-max", "-3", "--points", "5"],
         "--omega-min must be below --omega-max"),
        (["sweep", *NOTCH_FLAGS, "--sweep-param", "g", "--sweep-min", "0.2", "--sweep-max", "0.1",
          "--sweep-points", "3"], "--sweep-min must be below --sweep-max"),
    ], ids=["kappa-f", "omega-grid", "sweep-grid"])
    def test_refusal_names_its_cause(self, capsys, argv, message):
        assert refusal(capsys, argv) == f"cfcool: config error: {message}\n"

    @pytest.mark.parametrize("text", ["# a comment\nkappa 10\n", "   \nkappa 10\n"],
                             ids=["comment", "blank"])
    def test_config_line_without_equals_names_the_line(self, tmp_path, capsys, text):
        # Comment and blank lines are skipped but counted.
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert refusal(capsys, ["rates", "--config", str(path)]) == (
            f"cfcool: config error: {path}:2: expected key=value, got 'kappa 10'\n"
        )

    @pytest.mark.parametrize("topology", [["--topology", "bandpass"], []])
    def test_design_needs_notch_topology(self, capsys, topology):
        # design reports the band-blocking loop's closed-form optimum, which
        # is not the optimum of any other topology (about -1.0 for this
        # band-pass loop against -3.5).
        argv = ["design", *topology, "--kappa", "10", "--g", "0.1", "--kappa-f", "1"]
        stderr = refusal(capsys, argv)
        assert stderr.startswith("cfcool: config error:")
        assert "--topology notch" in stderr
        assert len(stderr.splitlines()) == 1

    @pytest.mark.parametrize("argv", [["--help"], ["rates", "--help"]], ids=["cfcool", "rates"])
    def test_top_level_help(self, capsys, argv):
        assert main(argv) == 0
        assert "cfcool <command> --help" in capsys.readouterr().out

    # Each case below gives every flag a finite value, but one of them lies
    # outside the input domain, 0 or magnitude 1e-50 to 1e50; each test's
    # comment says what that value would break.  Each exits 1 with the one
    # line naming the first such flag.

    @pytest.mark.parametrize(
        "argv", [["rates"], ["spectrum", *GRID_FLAGS]], ids=["rates", "spectrum"]
    )
    def test_g_whose_square_overflows_exits_one(self, capsys, argv):
        # 1e200 is finite, but the rates and the spectrum scale with g * g.
        argv = [*argv, "--topology", "notch", "--kappa", "10", "--g", "1e200", "--kappa-f", "1"]
        assert refusal(capsys, argv) == outside_domain(argv, "--g")

    @pytest.mark.parametrize(
        "argv",
        [
            ["rates", "--topology", "none"],
            ["rates", "--topology", "notch", "--kappa-f", "1"],
            ["rates", "--topology", "notch", "--kappa1", "1", "--kappa2", "1.2"],
            ["spectrum", "--topology", "none", *GRID_FLAGS],
            ["spectrum", "--topology", "bandpass", "--kappa-f", "1", *GRID_FLAGS],
            ["spectrum", "--topology", "notch", "--kappa1", "1", "--kappa2", "1.2", *GRID_FLAGS],
        ],
        ids=["rates-none", "rates-closed-form", "rates-solver",
             "spectrum-none", "spectrum-closed-form", "spectrum-solver"],
    )
    def test_overflowing_sigma_names_g(self, capsys, argv):
        # g * g = 1e308 is finite, but at kappa = 0.5, delta = -1 the bare
        # cavity's |chi(omega_m)|^2 is 8, so Sigma and the rates overflow.
        argv = [*argv, "--kappa", "0.5", "--g", "1e154", "--delta", "-1"]
        assert refusal(capsys, argv) == outside_domain(argv, "--g")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["spectrum", "--topology", "none", "--kappa", "1", "--g", "0.1", "--delta", "1e308",
              "--omega-min", "1e308", "--omega-max", "1.5e308", "--points", "3"], "--delta"),
            (["spectrum", "--topology", "none", "--kappa", "1", "--g", "0.1", "--delta", "1",
              "--units", "si", "--omega-m", "1e308", "--omega-min", "-1e308",
              "--omega-max", "-1e307", "--points", "3"], "--omega-m"),
            (["spectrum", "--element", "filter", "--kappa-f", "1", "--delta-f", "1e308",
              "--omega-min", "1e308", "--omega-max", "1.5e308", "--points", "3"], "--delta-f"),
            (["rates", *OVERFLOW_FLAGS, "--kappa1", "1", "--kappa2", "2"], "--omega-m"),
            (["rates", *OVERFLOW_FLAGS, "--kappa-f", "1"], "--omega-m"),
            (["sweep", *OVERFLOW_FLAGS, "--kappa1", "1", "--kappa2", "2", "--sweep-param",
              "delta", "--sweep-min", "1", "--sweep-max", "2", "--sweep-points", "2"],
             "--omega-m"),
            (["sweep", "--topology", "none", "--kappa", "1", "--g", "0.1", "--units", "si",
              "--omega-m", "1e308", "--sweep-param", "delta", "--sweep-min", "1e307",
              "--sweep-max", "1e308", "--sweep-points", "2"], "--omega-m"),
            (["oracle", *OVERFLOW_FLAGS, "--kappa-f", "1"], "--omega-m"),
        ],
        ids=["spectrum-delta", "spectrum-reference", "spectrum-filter", "rates-solver",
             "rates-closed-form", "sweep", "sweep-delta", "oracle"],
    )
    def test_overflowing_frequency_sum_names_flags(self, capsys, argv, flag):
        # A frequency plus a detuning would overflow; the notch preset puts
        # delta_f at omega_m.
        assert refusal(capsys, argv) == outside_domain(argv, flag)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            # omega_m**2 would overflow in Python floats (an OverflowError).
            (["design", *OPTIMUM_FLAGS, "--omega-m", "1e308"], "--omega-m"),
            (["rates", *OPTIMUM_FLAGS, "--omega-m", "1e308", "--delta", "auto"], "--omega-m"),
            # Every square would be finite, but omega_m * kappa_f * kappa not.
            (["design", *OPTIMUM_FLAGS, "--omega-m", "1e154", "--kappa", "1e300"], "--kappa"),
        ],
        ids=["design", "rates-auto", "design-product"],
    )
    def test_overflowing_optimum_names_flags(self, capsys, argv, flag):
        assert refusal(capsys, argv) == outside_domain(argv, flag)

    def test_auto_detuning_outside_the_domain_names_its_inputs(self, capsys):
        # Every input is inside the domain, but the optimum they give is not,
        # and metadata echoing it could not be read back.
        argv = ["rates", *OPTIMUM_FLAGS, "--omega-m", "1e50", "--kappa", "1e50",
                "--kappa-f", "1e50", "--delta", "auto"]
        assert refusal(capsys, argv) == (
            "cfcool: config error: --delta auto: must be 0 or of magnitude 1e-50 to 1e50, "
            "got -1.25e+50 at --omega-m 1e+50, --kappa 1e+50, --kappa-f 1e+50\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["rates", *DELAYED_FLAGS],
            ["oracle", *DELAYED_FLAGS],
            ["sweep", *DELAYED_FLAGS, "--sweep-param", "g", "--sweep-min", "0.1",
             "--sweep-max", "0.2", "--sweep-points", "2"],
            ["spectrum", *DELAYED_FLAGS, "--omega-min", "1e306", "--omega-max", "1e307",
             "--points", "3"],
        ],
        ids=["rates", "oracle", "sweep", "spectrum"],
    )
    def test_overflowing_delay_phase_names_flags(self, capsys, argv):
        # Every frequency and sum is finite, but the delay line's phase
        # omega * tau is not; it would turn into NaN in exp(i omega tau).
        assert refusal(capsys, argv) == outside_domain(argv, "--omega-m")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["rates", "--topology", "notch", "--kappa", "1e308", "--g", "0.1",
              "--kappa1", "1e308", "--kappa2", "1e308"], "--kappa"),
            (["rates", "--topology", "bandpass", "--kappa", "1", "--g", "0.1",
              "--kappa1", "1e308", "--kappa2", "1", "--kappa-loss", "1e308"], "--kappa1"),
            (["rates", "--topology", "notch", "--kappa", "1", "--g", "0.1", "--kappa-f", "1e200"],
             "--kappa-f"),
            (["oracle", "--topology", "notch", "--kappa", "1e300", "--g", "0.1",
              "--kappa-f", "1e10", "--delta", "-1"], "--kappa"),
            (["oracle", "--topology", "bandpass", "--kappa", "1e300", "--g", "0.1",
              "--kappa1", "1e-10", "--kappa2", "1e10", "--delta", "-1"], "--kappa"),
            # A kappa_f sweep moves both mirror rates.
            (["sweep", "--topology", "notch", "--kappa", "1", "--g", "0.1", "--kappa-f", "1",
              "--sweep-param", "kappa_f", "--sweep-min", "1", "--sweep-max", "1e308",
              "--sweep-points", "3"], "--sweep-max"),
            (["sweep", "--topology", "bandpass", "--kappa", "1", "--g", "0.1", "--kappa-f", "1e10",
              "--sweep-param", "kappa", "--sweep-min", "1", "--sweep-max", "1e300",
              "--sweep-points", "3"], "--sweep-max"),
            (["spectrum", "--topology", "notch", "--kappa", "1", "--g", "0.1", "--kappa-f", "1e200",
              "--omega-min", "-3", "--omega-max", "3", "--points", "3"], "--kappa-f"),
        ],
        ids=["rates-linewidth", "rates-loss", "rates-mirrors", "oracle-notch", "oracle-bandpass",
             "sweep-kappa-f", "sweep-kappa", "spectrum"],
    )
    def test_overflowing_rates_name_flags(self, capsys, argv, flag):
        # A sum or product of rates the controller or the oracle forms would
        # overflow.
        assert refusal(capsys, argv) == outside_domain(argv, flag)

    @pytest.mark.parametrize(
        "command",
        [["oracle"], ["sweep", "--sweep-param", "g", "--sweep-min", "0.1", "--sweep-max", "0.2",
                      "--sweep-points", "3"]],
        ids=["oracle", "sweep"],
    )
    @pytest.mark.parametrize(
        "loop, flag",
        [(["--kappa", "1e200", "--kappa1", "1", "--kappa2", "1", "--kappa-loss", "1e200"],
          "--kappa"),
         (["--kappa", "1", "--kappa1", "1", "--kappa2", "1e200", "--delta", "-1e200"],
          "--kappa2")],
        ids=["kappa-eff", "delta-eff"],
    )
    def test_non_finite_bandpass_drift_exits_one(self, capsys, command, loop, flag):
        # The band-passing loop's effective rate or detuning would overflow;
        # the oracle's own refusal is TestHugeInputs in test_oracle.py.
        argv = [*command, "--topology", "bandpass", "--g", "0.1", *loop]
        assert refusal(capsys, argv) == outside_domain(argv, flag)

    @pytest.mark.parametrize(
        "argv, flag",
        [(["oracle", "--gamma-m", "1e10", "--n-th", "1e300"], "--n-th"),
         (["oracle", "--gamma-m", "1e300", "--n-th", "1e300"], "--gamma-m"),
         (["rates", "--gamma-m", "1e300", "--n-th", "1e300"], "--gamma-m")],
        ids=["oracle", "oracle-both-huge", "rates"],
    )
    def test_overflowing_thermal_load_names_the_bath(self, capsys, argv, flag):
        # The thermal load gamma_m*(n_th + 1/2) would overflow; the bath's own
        # refusal is tested in test_spectra.py.
        argv = [*argv, "--kappa", "10", "--g", "0.1"]
        assert refusal(capsys, argv) == outside_domain(argv, flag)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["rates", "--topology", "none", "--kappa", "5e-324", "--g", "0.1"], "--kappa"),
            (["rates", "--topology", "notch", "--kappa", "5e-324", "--g", "0.1", "--kappa-f", "1"],
             "--kappa"),
            (["rates", "--topology", "notch", "--kappa", "10", "--g", "0.1", "--kappa1", "5e-324",
              "--kappa2", "0"], "--kappa1"),
            (["oracle", "--topology", "notch", "--kappa", "5e-324", "--g", "0.1", "--kappa-f", "1"],
             "--kappa"),
            (["spectrum", "--topology", "bandpass", "--kappa", "10", "--g", "0.1", "--kappa1", "0",
              "--kappa2", "5e-324", "--omega-min", "-2", "--omega-max", "2", "--points", "3"],
             "--kappa2"),
            (["sweep", "--topology", "notch", "--kappa", "10", "--g", "0.1", "--kappa1", "5e-324",
              "--kappa2", "0", "--sweep-param", "g", "--sweep-min", "0.1", "--sweep-max", "0.2",
              "--sweep-points", "2"], "--kappa1"),
            # design never builds the cavity, so the library's check cannot
            # reach it.
            (["design", "--topology", "notch", "--kappa", "5e-324", "--g", "0.1", "--kappa-f", "1"],
             "--kappa"),
        ],
        ids=["rates-none", "rates-notch", "rates-mirror", "oracle", "spectrum-mirror",
             "sweep-mirror", "design"],
    )
    def test_underflowing_half_linewidth_names_the_field(self, capsys, argv, flag):
        # The rate is > 0, but half of it, the resonant denominator of the
        # cavity's or the controller's response, would be 0; the library's
        # own refusal is tested in test_netalg.py.
        assert refusal(capsys, argv) == outside_domain(argv, flag)

    def test_config_file_takes_keys_of_other_commands(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("points=5\nsweep_points=3\n")
        assert main(["rates", *NOTCH_FLAGS, "--config", str(path)]) == 0
        assert " points=5 " in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["1000000000000000000000", "1000001"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["spectrum", *NOTCH_FLAGS, "--omega-min", "-3", "--omega-max", "3"], "--points"),
            (["sweep", *NOTCH_FLAGS, "--sweep-param", "delta", "--sweep-min", "-2",
              "--sweep-max", "0"], "--sweep-points"),
        ],
        ids=["points", "sweep-points"],
    )
    def test_too_many_points_names_the_flag(self, capsys, argv, flag, value):
        # Refused while parsing, before any grid exists.  Never try ~10^12
        # points: a host that overcommits memory may really allocate them.
        assert refusal(capsys, [*argv, flag, value]) == (
            f"cfcool: config error: {flag}: must be at most 1000000, got {value!r}\n"
        )

    @pytest.mark.parametrize("target", ["missing-dir", "dir"])
    def test_unwritable_output_names_the_path(self, tmp_path, capsys, target):
        path, code = {
            "missing-dir": (tmp_path / "missing" / "x.csv", errno.ENOENT),
            "dir": (tmp_path, errno.EISDIR),
        }[target]
        assert refusal(capsys, ["rates", *NOTCH_FLAGS, "--output", str(path)]) == (
            f"cfcool: config error: cannot write --output {str(path)!r}: {os.strerror(code)}\n"
        )

    @pytest.mark.parametrize("flag", [["--output="], ["-o", ""]], ids=["output", "o"])
    def test_empty_output_path_exits_one(self, capsys, flag):
        assert refusal(capsys, ["rates", "--kappa", "10", "--g", "0.1", *flag]) == (
            "cfcool: config error: --output: expected a path, got ''\n"
        )

    def test_config_directory_is_a_read_error(self, tmp_path, capsys):
        # The path exists, so it is not "not found"; reading it fails.
        path = str(tmp_path)
        stderr = refusal(capsys, ["rates", "--config", path])
        assert stderr.startswith(f"cfcool: config error: cannot read config file {path!r}: ")
        assert stderr.endswith(f"Is a directory: {path!r}\n")
        assert stderr.count("\n") == 1, stderr

    def test_nul_byte_in_a_config_path_exits_one(self, tmp_path, capsys):
        # A flag cannot carry a NUL byte, but a config file can; no OS takes
        # it in a path, and opening one raised ValueError with a traceback.
        path = tmp_path / "run.cfg"
        path.write_bytes(b"topology=notch\nkappa=10\ng=0.1\nkappa_f=1\noutput=x\0y\n")
        assert refusal(capsys, ["rates", "--config", str(path)]) == (
            "cfcool: config error: --output: expected a path, got 'x\\x00y'\n"
        )

    def test_config_file_that_is_not_utf8_names_the_path(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"kappa=10\ng=0.1\n# \xff\n")
        stderr = refusal(capsys, ["rates", "--config", str(path)])
        assert stderr.startswith(f"cfcool: config error: cannot read config file {str(path)!r}: ")
        assert stderr.count("\n") == 1, stderr


class TestOutputFile:
    """``--output`` overwrites an existing file in place and cuts it to
    length: the file holds exactly the bytes the command prints to stdout."""

    RATES = ["rates", *NOTCH_FLAGS]

    @staticmethod
    def stdout_of(capsys, argv):
        assert main(argv) == 0
        return capsys.readouterr().out.encode("utf-8")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("old", ["longer", "shorter", "equal"])
    def test_overwrite_leaves_the_stdout_bytes(self, tmp_path, capsys, fmt, old):
        argv = [*self.RATES, "--format", fmt]
        expected = self.stdout_of(capsys, argv)
        size = {"longer": 3 * len(expected), "shorter": 7, "equal": len(expected)}[old]
        path = tmp_path / "out"
        path.write_bytes(b"\xff" * size)
        assert main([*argv, "--output", str(path)]) == 0
        assert capsys.readouterr() == ("", "")
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rates_over_a_spectrum_file(self, tmp_path, capsys, fmt):
        path = tmp_path / "out"
        spectrum = ["spectrum", *NOTCH_FLAGS, *GRID_FLAGS, "--format", fmt]
        rates = [*self.RATES, "--format", fmt]
        for argv in (spectrum, rates):
            assert main([*argv, "--output", str(path)]) == 0
            assert path.read_bytes() == self.stdout_of(capsys, argv)

    @pytest.mark.parametrize("argv", [RATES, ["spectrum", *NOTCH_FLAGS, *GRID_FLAGS]],
                             ids=["percent", "fmt17_rows"])
    def test_text_only_stdout_gets_the_same_text(self, capsys, argv):
        expected = self.stdout_of(capsys, argv)
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            assert main(argv) == 0
        assert text.getvalue().encode("utf-8") == expected

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    def test_new_file_mode_follows_the_umask(self, tmp_path, capsys):
        path = tmp_path / "new.csv"
        umask = os.umask(0o027)
        try:
            assert main([*self.RATES, "--output", str(path)]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~0o027

    def test_null_device_exits_zero(self, capsys):
        assert main([*self.RATES, "--output", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_exits_one(self, capsys):
        assert refusal(capsys, [*self.RATES, "--output", "/dev/full"]) == (
            "cfcool: config error: cannot write --output '/dev/full': No space left on device\n"
        )

    @pytest.mark.skipif(resource is None, reason="no RLIMIT_FSIZE")
    def test_failed_write_leaves_no_old_tail(self, tmp_path):
        # A file-size limit of 1 000 bytes makes the write of a 37 kB
        # spectrum fail partway (EFBIG; Python ignores SIGXFSZ).  No byte of
        # the longer old file may remain after the new bytes.
        path = tmp_path / "out"
        path.write_bytes(b"\xff" * 200_000)
        argv = ["spectrum", *NOTCH_FLAGS, *GRID_FLAGS, "--output", str(path)]
        limit = (1000, resource.getrlimit(resource.RLIMIT_FSIZE)[1])

        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, limit)

        proc = subprocess.run([sys.executable, "-m", "cfcool", *argv], capture_output=True,
                              text=True, preexec_fn=limit_file_size)
        assert proc.returncode == 1
        assert proc.stderr == (f"cfcool: config error: cannot write --output {str(path)!r}: "
                               f"{os.strerror(errno.EFBIG)}\n")
        assert b"\xff" not in path.read_bytes()


class TestBoundedMemory:
    """The traced peak of a 10^5-row command and its render, per row.  The
    table (8 B per cell), its empty mask and the render buffer (at most 25 B
    per cell) are whole; the evaluation holds one block of the grid."""

    ROWS = 10**5

    @pytest.mark.parametrize("argv, most_per_row", [
        (["spectrum", *NOTCH_FLAGS, "--omega-min", "-3", "--omega-max", "3",
          "--points", str(ROWS)], 160),
        (["sweep", *NOTCH_FLAGS, "--sweep-param", "delta", "--sweep-min", "-5",
          "--sweep-max", "0", "--sweep-points", str(ROWS)], 320),
    ], ids=["spectrum", "sweep"])
    def test_peak_per_row(self, argv, most_per_row):
        cfg = parse_config(argv[1:])
        tracemalloc.start()
        try:
            data = cli.render(_COMMANDS[argv[0]](cfg), cfg.format)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= most_per_row * self.ROWS
        assert bytes(data).count(b"\n") == self.ROWS + 2


#: Float values of the edge-value fuzz: 0, the domain's ends, values outside
#: it, and the overflow and underflow points of the loop's arithmetic.
FUZZ_EDGES = (0.0, 1e-50, -1e-50, 1e50, -1e50, 1e49, 1e300, -1e300, 1e154, 5e-324, 1e-160)
#: Keys whose random values take either sign; the other floats are rates,
#: frequencies and delays.
FUZZ_SIGNED = ("delta", "delta_f", "omega_min", "omega_max", "sweep_min", "sweep_max")
#: Integer values of the edge-value fuzz: below and at each grid's least
#: size, and past the 10^6 bound.  None of them allocates a grid.
FUZZ_INT_EDGES = (-1, 0, 1, 2, 10**6 + 1, 10**21)


def fuzz_argv(rng):
    """One random command: a topology, a cavity, a controller and some other
    float flags of the command, each drawn from FUZZ_EDGES (probability 1/5)
    or log-uniform over the domain, and its grid size, drawn from
    FUZZ_INT_EDGES (probability 1/5) or from a few small sizes.  About a
    third of the commands render JSON."""
    def value(key):
        if rng.random() < 0.2:
            return FUZZ_EDGES[rng.integers(len(FUZZ_EDGES))]
        sign = rng.choice([-1.0, 1.0]) if key in FUZZ_SIGNED else 1.0
        return float(sign * 10.0 ** rng.uniform(-50.0, 50.0))

    def points(low, high):
        if rng.random() < 0.2:
            return str(FUZZ_INT_EDGES[rng.integers(len(FUZZ_INT_EDGES))])
        return str(rng.integers(low, high))

    command = str(rng.choice(list(_COMMANDS)))
    argv = [command, "--topology", str(rng.choice(["none", "notch", "bandpass"]))]
    given = {"kappa": value("kappa"), "g": value("g")}
    if rng.random() < 0.5:
        given["kappa_f"] = value("kappa_f")
    else:
        given["kappa1"], given["kappa2"] = value("kappa1"), value("kappa2")
    if rng.random() < 0.5:
        argv += ["--units", "si"]
        given["omega_m"] = value("omega_m")
    for key in ("delta", "kappa_loss", "delta_f", "gamma_m", "n_th", "tau"):
        if rng.random() < 0.3 and key in build_parser(command).values():
            given[key] = value(key)
    if command == "spectrum":
        given["omega_min"], given["omega_max"] = sorted((value("omega_min"), value("omega_max")))
        argv += ["--points", points(2, 6),
                 "--element", str(rng.choice(["loop", "loop", "filter"]))]
    if command == "sweep":
        given["sweep_min"], given["sweep_max"] = sorted((value("sweep_min"), value("sweep_max")))
        argv += ["--sweep-points", points(1, 5),
                 "--sweep-param", str(rng.choice(["delta", "kappa_f", "kappa", "g"]))]
    for key, x in given.items():
        argv += ["--" + key.replace("_", "-"), repr(x)]
    if rng.random() < 0.1:
        argv += ["--delta", "auto"]
    if rng.random() < 0.3:
        argv += ["--format", "json"]
    return argv


def test_edge_value_fuzz_leaves_only_cfcool_errors(capsys):
    """Edge-value commands of all five commands and three topologies, under
    ``warnings.simplefilter("error")``: ``main`` returns 0, 1 or 2, and no
    exception or warning escapes it.  The same fuzz, run for 4 000 commands
    against the per-expression overflow checks that the input domain
    replaced, found no escape either: its float values guard the domain, not
    a known failure.  Its grid sizes guard the 10^6 bound: 10^21 points
    ended in a numpy ValueError before integer flags had one."""
    rng = np.random.default_rng(23)
    escaped, codes = [], []
    for _ in range(2000):
        argv = fuzz_argv(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                codes.append(main(argv))
            except Exception as exc:  # the escape is the finding
                escaped.append((argv, repr(exc)))
        capsys.readouterr()
    assert not escaped, escaped[:5]
    assert set(codes) <= {0, 1, 2}
    assert codes.count(0) > 100  # the fuzz reaches the commands, not only the parser


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

    def test_flag_map_is_built_once_and_read_only(self):
        assert build_parser("rates") is build_parser("rates")
        with pytest.raises(TypeError):
            build_parser("rates")["--bogus"] = "kappa"

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

    Their values come from IEEE float arithmetic in a fixed order, the network
    solver's included, and the sweep's stability flag only thresholds
    eigenvalues, so no BLAS kernel or SIMD level moves the bytes.
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
             "4907ee391f24a8d8891270a4b85aa63c43f931bcf00e562798057dba1ccff1e9"),
            # Sweeps whose empty cells come from the columns: a singular,
            # unstable last row (JSON nulls in the second), and a delayed
            # lossy loop with no stability flags and a heating row.
            ("sweep --topology notch --kappa 10 --g 0.1 --kappa-f 1 "
             "--sweep-param delta --sweep-min -3 --sweep-max 1 --sweep-points 5",
             "849f92a4e213403b4b6f8491520a785100512ab5b595ddc74c628b8d092fa9aa"),
            ("sweep --topology notch --kappa 10 --g 0.1 --kappa-f 1 "
             "--sweep-param delta --sweep-min -3 --sweep-max 1 --sweep-points 5 --format json",
             "8c9dc49e3990ed0dfabb2e17d6a0ff6d844e764fa5dd9020b19ad4dc46de128c"),
            ("sweep --topology notch --kappa 10 --g 0.1 --kappa1 1 --kappa2 1.3 "
             "--kappa-loss 0.2 --tau 6.283185307179586 --delta-f 1 "
             "--sweep-param delta --sweep-min -3 --sweep-max 1 --sweep-points 5",
             "0b37b3aed5a16b36bea23855ee5192e3f0858c4138ac3a02810d95affd454217"),
            # Empty cells of the other commands: the spectrum's singular row
            # at omega = -1 (a JSON null in the second), a heating rates row
            # and an unstable oracle row.
            ("spectrum --topology notch --kappa 10 --g 0.1 --kappa-f 1 --delta 1 "
             "--omega-min -3 --omega-max 3 --points 601",
             "d8d6aba399ac24b45358872426ed8f55c7360abd0a5115ca685d13ce41e56607"),
            ("spectrum --topology notch --kappa 10 --g 0.1 --kappa-f 1 --delta 1 "
             "--omega-min -3 --omega-max 3 --points 601 --format json",
             "22910504ddd2c6fc9652214f5d009971749ef4c4a22c77880ca2a74e742c409c"),
            ("rates --topology none --kappa 10 --g 0.1 --delta 2 --format json",
             "41a509b50702b2034d7529e69af8a4f8b33be8da41e51d722a49f3d285686312"),
            ("oracle --topology none --kappa 10 --g 0.1 --delta 1 --gamma-m 1e-5 --n-th 100 "
             "--format json",
             "9f0204220db54b2b33146a1270d748f37e1483110fd997d596287f46c4bcad69"),
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
