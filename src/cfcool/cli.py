"""Command-line front end: ``cfcool <command> [flags]``.

Commands, and the flags each takes besides the common ones (``--config``,
``--topology``, ``--units``, ``--kappa``, ``--omega-m``, ``--g``, ``--delta``,
``--kappa-f``, ``--kappa1``, ``--kappa2``, ``--kappa-loss``, ``--delta-f``,
``--tau``, ``--format``, ``--output``/``-o``):

  spectrum  Sigma(omega) or a filter response: --omega-min, --omega-max,
            --points, --element
  rates     sideband rates and cooling figures: --gamma-m, --n-th
  sweep     rates along a parameter grid: --gamma-m, --n-th, --sweep-param,
            --sweep-min, --sweep-max, --sweep-points
  oracle    Lyapunov cross-check: --gamma-m, --n-th
  design    resolved design point: none

``--sweep-param`` is ``delta``, ``kappa`` or ``g`` (a cavity field) or
``kappa_f``, which needs a symmetric lossless controller.  Both grids, of
``spectrum`` (at least 2 points) and of ``sweep`` (at least 1), must be
strictly increasing; a one-point sweep evaluates ``--sweep-min`` alone.

``cfcool <command> --help`` prints this summary.  Flags match by exact name,
as ``--flag value`` or ``--flag=value``; the last of a repeated flag wins, and
any other flag is an error.  A flat ``key=value`` config file (``--config``;
flags override it) accepts the keys of every command.  Each command emits one
deterministic CSV or JSON table.  CSV starts with a single ``# key=value ...``
metadata line carrying the fully resolved parameters; parsing it back yields an
equal RunConfig.  Floats are printed with 17 significant digits.

``--delta auto`` and ``design`` use the closed-form optimum of the band-blocking
loop, so they need ``--topology notch``, ``--kappa`` and a symmetric lossless
controller: ``--kappa-f`` and no loss.

Default units put omega_m = 1 ("units of omega_m"), which keeps emitted data
dimensionless and portable; pass ``--units si`` to work in rad/s.

Every float value, and the value ``--delta auto`` resolves to, must be 0 or
of magnitude 1e-50 to 1e50: inside that domain no sum, product or square the
commands form overflows.

Exit codes: 0 success (including a reported unstable model); 1 bad input, an
error of the ValueError family (unknown flag, bad or missing value, a value
outside the domain, parameters the physics rejects); 2 numeric failure, an
error of the ArithmeticError family (e.g. a singular loop at a frequency where
a rate is required).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__, design, netalg, oracle, spectra
from .design import SystemConfig, Topology
from .errors import (
    CfcoolError,
    ConfigError,
    NoNetCooling,
    UnitError,
    UnstableModel,
)
from .netalg import FilterCavityParams, OptoCavityParams


def _param(kind, default=None, commands=None, echo_default=True, aliases=(), **kw):
    """A RunConfig field that is also a CLI parameter.

    ``kind`` parses the value: ``float``, ``int``, ``str`` or a tuple of
    choices.  ``commands`` names the commands whose flags include it (None:
    every command); config files accept every parameter.  With
    ``echo_default`` false the default value is left out of the metadata.
    """
    meta = {"kind": kind, "commands": commands, "echo_default": echo_default, "aliases": aliases}
    return field(default=default, metadata=meta, **kw)


_BATH = ("rates", "sweep", "oracle")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters, and the table of CLI parameters.

    Field name = config key = flag (``-`` for ``_``); field order is metadata
    order.  ``delta`` is stored resolved: ``auto`` becomes the optimal
    detuning.  The output path is outside equality and never enters metadata,
    so identical configurations written to different places are
    byte-identical.
    """

    topology: str = _param(("notch", "bandpass", "none"), "none")
    units: str = _param(("omega_m", "si"), "omega_m")
    kappa: float | None = _param(float)
    omega_m: float = _param(float, 1.0)
    g: float | None = _param(float)
    delta: float | None = _param(float)
    kappa1: float | None = _param(float)
    kappa2: float | None = _param(float)
    kappa_loss: float = _param(float, 0.0)
    delta_f: float | None = _param(float)
    gamma_m: float = _param(float, 0.0, _BATH)
    n_th: float = _param(float, 0.0, _BATH)
    tau: float = _param(float, 0.0)
    omega_min: float | None = _param(float, commands=("spectrum",))
    omega_max: float | None = _param(float, commands=("spectrum",))
    points: int | None = _param(int, commands=("spectrum",))
    element: str = _param(("loop", "filter"), "loop", ("spectrum",), echo_default=False)
    sweep_param: str | None = _param(design.SWEEP_PARAMETERS, commands=("sweep",))
    sweep_min: float | None = _param(float, commands=("sweep",))
    sweep_max: float | None = _param(float, commands=("sweep",))
    sweep_points: int | None = _param(int, commands=("sweep",))
    format: str = _param(("csv", "json"), "csv")
    output: str | None = _param(str, aliases=("-o",), compare=False)


#: Parameter key -> parse metadata.  ``kappa_f`` is input-only: it resolves
#: into equal ``kappa1``/``kappa2``.
_PARAMS = {f.name: f.metadata for f in fields(RunConfig) if f.metadata}
_PARAMS["kappa_f"] = _param(float).metadata


def fmt17(x: float) -> str:
    """17-significant-digit float formatting (exact float64 round trip)."""
    return f"{x:.17g}"


@dataclass(frozen=True)
class OutputTable:
    """Columns and rows plus the metadata echoed into every output file.

    ``None`` cells mark values undefined at that row (a flagged singular point
    or an undefined occupation); they render as empty CSV fields / JSON nulls.
    NaN or infinite cells are rejected outright.
    """

    meta: tuple[tuple[str, str], ...]
    columns: tuple[str, ...]
    rows: tuple[tuple[float | None, ...], ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ConfigError("row width does not match column count")
            for cell in row:
                if cell is not None and not math.isfinite(cell):
                    raise ConfigError(f"non-finite cell {cell!r} in output row")


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _read_config_file(path: str | Path) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {str(path)!r}")
    raw: dict[str, str] = {}
    for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{p}:{lineno}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip().replace("-", "_")
        if key.startswith("_"):
            continue  # informational keys (the version)
        if key in raw:
            raise ConfigError(f"{p}:{lineno}: duplicate key {key!r} (ambiguous)")
        raw[key] = value.strip()
    return raw


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


#: Magnitudes of a nonzero float input: far beyond any run's rates and delays
#: (omega_m ~ 1e6-1e10 rad/s, tau ~ 1e-9 s in SI units), and far enough inside
#: the float range that products of three inputs stay finite and normal.
_LEAST, _MOST = 1e-50, 1e50


def _check_domain(name: str, x: float, shown: str) -> None:
    """Refuse a float ``x`` that is not 0 or of magnitude _LEAST to _MOST
    (NaN and infinities included), naming ``name``."""
    if not (x == 0 or _LEAST <= abs(x) <= _MOST):
        raise ConfigError(f"{name}: must be 0 or of magnitude 1e-50 to 1e50, got {shown}")


def _parse_value(key: str, value: str):
    kind = _PARAMS[key]["kind"]
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{_flag(key)}: must be one of {kind}, got {value!r}")
        return value
    try:
        out = kind(value)
    except ValueError:
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(f"{_flag(key)}: expected {noun}, got {value!r}") from None
    if kind is float:
        _check_domain(_flag(key), out, repr(value))
    return out


def resolve_config(raw: dict[str, str]) -> RunConfig:
    """Validate and resolve a merged key->string mapping into a RunConfig."""
    unknown = set(raw) - set(_PARAMS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    auto = raw.get("delta") == "auto"
    vals = {
        key: _parse_value(key, value)
        for key, value in raw.items()
        if not (auto and key == "delta")
    }

    if vals.get("units", "omega_m") == "omega_m":
        if vals.setdefault("omega_m", 1.0) != 1.0:
            raise UnitError(
                "in omega_m units the mechanical frequency is 1 by definition; "
                "pass --units si to use a dimensionful --omega-m"
            )
    elif "omega_m" not in vals:
        raise ConfigError("--units si requires an explicit --omega-m")
    elif vals["omega_m"] <= 0:
        raise ConfigError(f"--omega-m must be > 0, got {vals['omega_m']}")
    omega_m = vals["omega_m"]

    if "kappa_f" in vals:
        if "kappa1" in vals or "kappa2" in vals:
            raise ConfigError("give either --kappa-f or --kappa1/--kappa2, not both")
        vals["kappa1"] = vals["kappa2"] = vals.pop("kappa_f")
    elif ("kappa1" in vals) != ("kappa2" in vals):
        raise ConfigError("--kappa1 and --kappa2 must be given together")

    topology = Topology(vals.get("topology", "none"))
    delta, delta_f = design.preset_detunings(topology, omega_m)
    if delta_f is not None:
        vals.setdefault("delta_f", delta_f)
    cfg = RunConfig(**{"delta": delta, **vals})
    if not auto:
        return cfg
    delta = _closed_form_optimum(cfg)
    _check_domain("--delta auto", delta, f"{delta!r} at --omega-m {cfg.omega_m!r}, "
                  f"--kappa {cfg.kappa!r}, --kappa-f {cfg.kappa1!r}")
    return replace(cfg, delta=delta)


def parse_config(source: str | Path | Sequence[str]) -> RunConfig:
    """Build a RunConfig from a config-file path or an argv-style flag list.

    A flag list may hold the flags of any command.
    """
    if isinstance(source, (str, Path)):
        return resolve_config(_read_config_file(source))
    return resolve_config(_read_flags(source))


def metadata_pairs(cfg: RunConfig) -> tuple[tuple[str, str], ...]:
    """Resolved parameter set as ordered (key, value) string pairs.

    Keys starting with underscore are informational and ignored on re-parse.
    """
    pairs: list[tuple[str, str]] = [("_version", __version__)]
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if not f.compare or value is None:
            continue
        if value == f.default and not f.metadata["echo_default"]:
            continue
        pairs.append((f.name, fmt17(value) if f.metadata["kind"] is float else str(value)))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# Model construction from a RunConfig
# ---------------------------------------------------------------------------


def _require(cfg: RunConfig, *keys: str) -> None:
    for key in keys:
        if getattr(cfg, key) is None:
            raise ConfigError(f"missing required flag {_flag(key)}")


def _filter_from(cfg: RunConfig) -> FilterCavityParams:
    if cfg.kappa1 is None or cfg.kappa2 is None:
        raise ConfigError("missing required flag --kappa-f (or --kappa1/--kappa2)")
    _require(cfg, "delta_f")
    return FilterCavityParams(
        kappa1=cfg.kappa1,
        kappa2=cfg.kappa2,
        kappa_loss=cfg.kappa_loss,
        delta_f=cfg.delta_f,
    )


def _closed_form_optimum(cfg: RunConfig) -> float:
    """The band-blocking loop's closed-form optimal detuning, behind ``--delta
    auto`` and ``design``: it needs the notch topology, ``--kappa`` and a
    symmetric lossless controller."""
    if cfg.topology != Topology.NOTCH.value:
        raise ConfigError(
            "the closed-form optimum (--delta auto, design) needs --topology notch"
        )
    _require(cfg, "kappa")
    return design.optimal_detuning(cfg.omega_m, cfg.kappa, _filter_from(cfg).kappa_f)


def system_config(cfg: RunConfig) -> SystemConfig:
    """Materialize the physics objects behind a RunConfig."""
    _require(cfg, "kappa", "g", "delta")
    cav = OptoCavityParams(kappa=cfg.kappa, delta=cfg.delta, g=cfg.g, omega_m=cfg.omega_m)
    topology = Topology(cfg.topology)
    filt = _filter_from(cfg) if topology is not Topology.NONE else None
    return SystemConfig(cav=cav, filt=filt, topology=topology, delay=cfg.tau)


def _grid(cfg: RunConfig, lo: str, hi: str, n: str, fewest: int) -> np.ndarray:
    """The grid of ``n`` points from ``lo`` to ``hi`` (keys of ``cfg``): at
    least ``fewest`` points, strictly increasing."""
    _require(cfg, lo, hi, n)
    start, stop, points = getattr(cfg, lo), getattr(cfg, hi), getattr(cfg, n)
    if points < fewest:
        raise ConfigError(f"{_flag(n)} must be >= {fewest}")
    if points > 1 and not start < stop:
        raise ConfigError(f"{_flag(lo)} must be below {_flag(hi)}")
    grid = np.linspace(start, stop, points)
    if not np.all(np.diff(grid) > 0):
        raise ConfigError(
            f"the grid of {_flag(n)} {points} from {_flag(lo)} to {_flag(hi)} repeats a value"
        )
    return grid


def _bath(cfg: RunConfig) -> spectra.MechanicalBath:
    return spectra.MechanicalBath(gamma_m=cfg.gamma_m, n_th=cfg.n_th)


_RATE_COLUMNS = ("a_plus", "a_minus", "gamma_opt", "n_min")
_rate_values = attrgetter(*_RATE_COLUMNS)


def _rate_cells(rates: spectra.RateResult | None) -> tuple[float | None, ...]:
    """The ``_RATE_COLUMNS`` cells of one row; all None for a singular row."""
    return (None,) * len(_RATE_COLUMNS) if rates is None else _rate_values(rates)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_spectrum(cfg: RunConfig) -> OutputTable:
    """Shaped spectrum vs the bare-cavity reference, or the filter response."""
    grid = _grid(cfg, "omega_min", "omega_max", "points", fewest=2)
    if cfg.element == "filter":
        s = netalg.scattering(_filter_from(cfg), grid)
        columns = ("omega", "R2", "T2")
        cells = [netalg.abs2(s[0, 0]).tolist(), netalg.abs2(s[1, 0]).tolist()]
    else:
        config = system_config(cfg)
        # Reference curve: the same cavity without feedback at the preset
        # detuning, the baseline the shaped spectra are judged by.
        bare = replace(config.cav, delta=design.preset_detunings(Topology.NONE, cfg.omega_m)[0])
        response, singular = design.response_on_grid(config, grid)
        sigma = spectra.sigma(cfg.g, response).tolist()
        for i in np.flatnonzero(singular).tolist():
            sigma[i] = None  # flagged row: frequency kept, value left empty
        columns = ("omega", "Sigma", "Sigma_uncontrolled")
        cells = [sigma, spectra.sigma(cfg.g, netalg.chi(bare, grid)).tolist()]
    return OutputTable(meta=metadata_pairs(cfg), columns=columns, rows=tuple(zip(grid.tolist(), *cells)))


def cmd_rates(cfg: RunConfig) -> OutputTable:
    """One-row table of the sideband rates and cooling figures."""
    config, bath = system_config(cfg), _bath(cfg)
    rates = design.loop_rates(config)
    try:
        n_steady = spectra.steady_phonon(rates, bath)
    except NoNetCooling:
        n_steady = None
    feasible = None
    if config.topology is Topology.BANDPASS and config.filt.is_symmetric_ideal:
        feasible = float(
            design.bandpass_ground_state_feasible(
                cfg.kappa, config.filt.kappa_f, cfg.omega_m
            )
        )
    row = (*_rate_cells(rates), n_steady, float(rates.gamma_opt > 0), feasible)
    return OutputTable(
        meta=metadata_pairs(cfg),
        columns=(*_RATE_COLUMNS, "n_steady", "net_cooling", "bandpass_feasible"),
        rows=(row,),
    )


def cmd_sweep(cfg: RunConfig) -> OutputTable:
    """Rates and stability along a parameter grid."""
    _require(cfg, "sweep_param")
    grid = _grid(cfg, "sweep_min", "sweep_max", "sweep_points", fewest=1)
    config = system_config(cfg)
    table = design.sweep(config, cfg.sweep_param, grid, bath=_bath(cfg))
    # RateResult's gamma_opt and n_min, the same IEEE operations per row; an
    # n_min that overflows is refused below as a non-finite cell.
    gamma_opt = table.a_minus - table.a_plus
    cooling = gamma_opt > 0
    with np.errstate(over="ignore"):
        n_min = np.divide(table.a_plus, gamma_opt, out=np.zeros_like(gamma_opt), where=cooling)
    rates = [
        np.where(table.singular, None, column).tolist()
        for column in (table.a_plus, table.a_minus, gamma_opt)
    ]
    stable = [None] * grid.size if table.stable is None else table.stable.astype(float).tolist()
    return OutputTable(
        meta=metadata_pairs(cfg),
        columns=(cfg.sweep_param, *_RATE_COLUMNS, "stable", "singular"),
        rows=tuple(zip(
            table.value.tolist(),
            *rates,
            np.where(cooling, n_min, None).tolist(),
            stable,
            table.singular.astype(float).tolist(),
        )),
    )


def cmd_oracle(cfg: RunConfig) -> OutputTable:
    """Lyapunov cross-check of the rate-equation occupation."""
    config = system_config(cfg)
    bath = _bath(cfg)
    try:
        report = oracle.consistency_check(config, bath)
        row = (1.0, report.n_oracle, report.n_rate, report.rel_dev)
    except UnstableModel:
        row = (0.0, None, None, None)  # reported, not fatal
    return OutputTable(
        meta=metadata_pairs(cfg),
        columns=("stable", "n_oracle", "n_rate", "rel_dev"),
        rows=(row,),
    )


def cmd_design(cfg: RunConfig) -> OutputTable:
    """Resolved optimal detuning, controller detuning, and feasibility."""
    delta_c = _closed_form_optimum(cfg)
    kappa_f = _filter_from(cfg).kappa_f
    feasible = design.bandpass_ground_state_feasible(cfg.kappa, kappa_f, cfg.omega_m)
    row = (delta_c, cfg.delta_f, cfg.delta, float(feasible))
    return OutputTable(
        meta=metadata_pairs(cfg),
        columns=("delta_c", "delta_f", "delta", "bandpass_feasible"),
        rows=(row,),
    )


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "rates": cmd_rates,
    "sweep": cmd_sweep,
    "oracle": cmd_oracle,
    "design": cmd_design,
}


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_csv(table: OutputTable) -> str:
    """The metadata line, the header, then every cell in one ``%`` operation:
    each row's template holds a "%.17g" field (:func:`fmt17`) per cell and
    nothing for an empty one."""
    full = ",".join(["%.17g"] * len(table.columns)) + "\n"
    templates, cells = [], []
    for row in table.rows:
        if None in row:
            templates.append(",".join("" if c is None else "%.17g" for c in row) + "\n")
            cells += [c for c in row if c is not None]
        else:
            templates.append(full)
            cells += row
    head = "# " + " ".join(f"{k}={v}" for k, v in table.meta) + "\n" + ",".join(table.columns)
    return head + "\n" + "".join(templates) % tuple(cells)


def render_json(table: OutputTable) -> str:
    payload = {
        "meta": dict(table.meta),
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def render(table: OutputTable, fmt: str) -> str:
    return render_csv(table) if fmt == "csv" else render_json(table)


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


def build_parser(command: str | None = None) -> dict[str, str]:
    """Flag -> key map of ``cfcool <command>``; with no command, every flag."""
    flags = {"--config": "config"}
    for key, spec in _PARAMS.items():
        if command is None or spec["commands"] is None or command in spec["commands"]:
            flags.update(dict.fromkeys((_flag(key), *spec["aliases"]), key))
    return flags


def _read_flags(tokens: Sequence[str], command: str | None = None) -> dict[str, str] | None:
    """Key -> string map of ``cfcool <command>`` flag tokens over the keys of
    its ``--config`` file, or None if a command's tokens ask for ``--help``.
    Values pass through unchecked: ``_parse_value`` alone checks them."""
    flags, given = build_parser(command), {}
    tokens = iter(tokens)
    for token in tokens:
        if command and token in ("-h", "--help"):
            return None
        flag, eq, value = token.partition("=")
        if flag not in flags:
            raise ConfigError(f"{token!r} is not a flag of {command or 'cfcool'}")
        if not eq and (value := next(tokens, None)) is None:
            raise ConfigError(f"{flag}: expected a value")
        given[flags[flag]] = value
    config = given.pop("config", None)
    return {**(_read_config_file(config) if config is not None else {}), **given}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv else None
    try:
        if command not in _COMMANDS and command not in ("-h", "--help"):
            raise ConfigError(f"expected a command: one of {', '.join(_COMMANDS)}")
        raw = _read_flags(argv[1:], command) if command in _COMMANDS else None
        if raw is None:
            sys.stdout.write(__doc__)
            return 0
        cfg = resolve_config(raw)
        table = _COMMANDS[command](cfg)
        text = render(table, cfg.format)
        if cfg.output:
            Path(cfg.output).write_text(text, encoding="utf-8", newline="")
        else:
            sys.stdout.write(text)
    except CfcoolError as exc:
        numeric = isinstance(exc, ArithmeticError)
        kind = "numeric failure" if numeric else "config error"
        print(f"cfcool: {kind}: {exc}", file=sys.stderr)
        return 2 if numeric else 1
    return 0
