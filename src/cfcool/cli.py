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
``kappa_f``, which needs a symmetric lossless controller; its own flag may
be left out, since the grid sets it on every row.  Both grids, of
``spectrum`` (at least 2 points) and of ``sweep`` (at least 1), must be
strictly increasing; a one-point sweep evaluates ``--sweep-min`` alone.

``cfcool <command> --help`` prints this summary.  Flags match by exact name,
as ``--flag value`` or ``--flag=value``; the last of a repeated flag wins, and
any other flag is an error.  A flat ``key=value`` config file (``--config``;
flags override it) accepts the keys of every command.  Each command emits one
deterministic CSV or JSON table, to stdout or into ``--output``, which is
overwritten in place and cut to length (not atomic; no fsync).  CSV starts with
a single ``# key=value ...`` metadata line carrying the fully resolved
parameters; parsing it back yields an equal RunConfig.  Floats are printed with
17 significant digits.

``--delta auto`` and ``design`` use the closed-form optimum of the band-blocking
loop, so they need ``--topology notch``, ``--kappa``, a symmetric lossless
controller (``--kappa-f`` and no loss) and no delay (``--tau`` 0).

Default units put omega_m = 1 ("units of omega_m"), which keeps emitted data
dimensionless and portable; pass ``--units si`` to work in rad/s.

Every float value, and the value ``--delta auto`` resolves to, must be 0 or
of magnitude 1e-50 to 1e50: inside that domain no sum, product or square the
commands form overflows.  Every integer value (``--points``,
``--sweep-points``) must be at most 10^6.

Exit codes: 0 success (including a reported unstable model); 1 bad input, an
error of the ValueError family (unknown flag, bad or missing value, a value
outside the domain, parameters the physics rejects, a ``--config`` file that
is not readable UTF-8 text, an ``--output`` path that is empty, holds a NUL
byte or cannot be written); 2 numeric failure, an error of the ArithmeticError
family (e.g. a singular loop at a frequency where a rate is required).
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field, fields, replace
from functools import cache
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

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


#: Decimal scales 10^s of :func:`_digits17`: s = 16 - k for every decimal
#: exponent k of a finite nonzero float, from 5e-324 (k = -324) to 1.8e308.
_LEAST_SCALE, _MOST_SCALE = -292, 340

#: Cells per block of :func:`fmt17_rows`, whose scratch then stays in cache.
_BLOCK_CELLS = 4096

#: The least table that :func:`render_csv` renders with :func:`fmt17_rows`.
_BLOCK_RENDER_CELLS = 700


@cache
def _fmt17_tables() -> tuple[np.ndarray, ...]:
    """Read-only tables of :func:`fmt17_rows`, built on its first call.

    Each 10^s is (H + L)·2^J: H, the top 53 bits, as its Veltkamp halves, and
    L the correctly rounded rest, which is 0 exactly for s in [0, 22].  Then
    the four ASCII digits of each of 0..9999 as one uint32 and its count of
    trailing zeros; and C's exponent suffix ``e±dd`` or ``e±ddd`` of each k in
    [-324, 308], NUL-padded to 5 bytes, and its length.
    """
    high, low, shift = [], [], []
    for s in range(_LEAST_SCALE, _MOST_SCALE + 1):
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        # The t that puts 10^s·2^t in [2^52, 2^53): 53 - bits(10^s) for s >= 0,
        # and 52 + bits(den) for s < 0, where den = 10^-s is no power of two.
        t = 53 - num.bit_length() + den.bit_length() - (s >= 0)
        h, rest = divmod(num << max(t, 0), den << max(-t, 0))
        high.append(h)
        low.append(rest / (den << max(-t, 0)))
        shift.append(-t)
    h = np.array(high, float)
    c = 134217729.0 * h  # Veltkamp split at 2^27 + 1
    hh = c - (c - h)
    four = np.arange(10000)
    ascii4 = (four[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8)
    zeros4 = sum((four % 10**j == 0) for j in range(1, 5)).astype(np.int8)
    suffix = np.zeros((633, 5), np.uint8)
    for k in range(-324, 309):
        text = b"e%+03d" % k
        suffix[k + 324, : len(text)] = list(text)
    tables = (hh, h - hh, np.array(low), np.array(shift, np.int32),
              ascii4.view(np.uint32).ravel(), zeros4, suffix, (suffix != 0).sum(1).astype(np.int8))
    for table in tables:
        table.flags.writeable = False
    return tables


def _digits17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, k, bad): each positive finite ``a`` rounded to 17 significant digits
    is N·10^(k-16), N in [10^16, 10^17), except where ``bad``.

    k comes from log10 and N from the exact product of the frexp mantissa and
    10^(16-k)'s H (Dekker's TwoProduct), plus mantissa·L, rounded half to even;
    with L = 0 that is exact, ties included.  ``bad`` marks the cells this
    cannot settle: an integer part outside [10^16, 10^17) or a rounding up to
    10^17 (log10 missed k), and an inexact remainder within 2^-30 of 1/2.
    """
    hh_t, hl_t, low_t, shift_t = _fmt17_tables()[:4]
    m, e = np.frexp(a)
    k = np.floor(np.log10(a)).astype(np.intp)
    i = 16 - _LEAST_SCALE - k
    hh, hl, low = hh_t[i], hl_t[i], low_t[i]
    p = m * (hh + hl)
    c = 134217729.0 * m  # Veltkamp split of m at 2^27 + 1
    mh = c - (c - m)
    ml = m - mh
    err = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl  # m·H = p + err exactly
    scale = e + shift_t[i]
    high = np.ldexp(p, scale).astype(np.int64)  # an even integer: at least 2^53
    rest = np.ldexp(err + m * low, scale)
    floor = np.floor(rest)
    n = high + np.rint(rest).astype(np.int64)  # high is even: rint's ties are N's
    whole = high + floor.astype(np.int64)
    bad = ((whole - 10**16).view(np.uint64) >= 9 * 10**16) | (n == 10**17)
    bad |= (np.abs(rest - floor - 0.5) < 2.0**-30) & (low != 0)
    return n, k, bad


def fmt17_rows(values: np.ndarray, empty: np.ndarray, head: bytes = b"") -> memoryview:
    """``head``, then the CSV rows of ``values`` (rows, columns), each cell as
    :func:`fmt17` prints it and nothing where ``empty``, byte for byte, as a
    view of the one uint8 buffer they are written into.

    Block by block, :func:`_digits17` gives each cell its digits and exponent
    (the scalar ``"%.16e"`` the few it marks bad), and C's ``%g`` layout is a
    (slot, cell) uint8 matrix with a keep mask.  A cell's 30 slots: the sign;
    ``0.000``, whose first 1 - k are kept in fixed notation below 1; the 17
    digits with the point inserted after the integer ones (one in exponent
    notation), cut after the last nonzero digit; the exponent suffix; and the
    separator.  Fixed notation holds for -4 <= k < 17.
    """
    ascii4, zeros4, suffix, suffix_len = _fmt17_tables()[4:]
    rows, cols = values.shape
    per_block = min(max(_BLOCK_CELLS // max(cols, 1), 1), rows) * cols
    # The matrix and mask of one block; a block is whole rows.
    chars = np.zeros((30, per_block), np.uint8)
    chars[0] = ord("-")
    chars[1:6] = np.frombuffer(b"0.000", np.uint8)[:, None]
    chars[29] = ord(",")
    chars[29, cols - 1 :: cols] = ord("\n")
    keep = np.ones((30, per_block), bool)
    digits = np.zeros((19, per_block), np.uint8)  # d0..d16 in rows 1..17
    slot5, slot18 = np.arange(5, dtype=np.int8)[:, None], np.arange(18, dtype=np.int8)[:, None]
    flat, blank = values.ravel(), empty.ravel()
    end = len(head)
    out = np.empty(end + 25 * flat.size, np.uint8)  # no cell takes more than 25 bytes
    out[:end] = np.frombuffer(head, np.uint8)
    for start in range(0, flat.size, per_block):
        v, void = flat[start : start + per_block], blank[start : start + per_block]
        size = v.size
        a = np.abs(v)
        zero = void | (a == 0)  # an empty cell may hold NaN
        a[zero] = 1.0
        n, k, bad = _digits17(a)
        for i in np.flatnonzero(bad).tolist():
            text = "%.16e" % a[i]
            n[i], k[i] = int(text[0] + text[2:18]), int(text[19:])
        n[zero] = 0
        k[zero] = 0
        # The digits as four 4-digit groups after d0, and the trailing zeros
        # (x % u as x - (x // u)*u for n >= 0: int64 // has the fast loop).
        d0, top = n // 10**16, n // 10**8
        high, low = top - d0 * 10**8, n - top * 10**8
        groups = np.array([high // 10**4, high, low // 10**4, low])
        groups[1::2] -= groups[0::2] * 10**4
        d = digits[:, :size]
        d[1] = d0 + ord("0")
        d[2:18].reshape(4, 4, size)[...] = (
            ascii4[groups].view(np.uint8).reshape(4, size, 4).transpose(0, 2, 1))
        tz, z = zeros4[groups], groups == 0
        nd = 17 - (tz[3] + z[3] * (tz[2] + z[2] * (tz[1] + z[1] * tz[0])))  # 1 for 0
        # p: digits before the point, 17 (none) below 1 in fixed notation.
        fixed = (k >= -4) & (k < 17)
        frac = fixed & (k < 0)
        p = (1 + (fixed & ~frac) * k + frac * 16).astype(np.int8)
        c, kp = chars[:, :size], keep[:, :size]
        body = c[6:24]
        np.subtract(d[1:19], d[0:18], out=body)  # d[j] before the point, d[j-1] after
        body *= (slot18 < p).view(np.uint8)
        body += d[0:18]
        point = (slot18 == p).view(np.uint8)
        point *= ord(".") - body
        body += point
        kp[0] = np.signbit(v)
        kp[1:6] = slot5 < (frac * (1 - k)).astype(np.int8)
        kp[6:24] = slot18 < np.where(frac, nd, np.maximum(nd, p) + (nd > p))
        if fixed.all():
            kp[24:29] = False
        else:
            c[24:29] = suffix[k + 324].T
            kp[24:29] = slot5 < suffix_len[k + 324] * ~fixed
        if void.any():
            kp[:29, void] = False
        text = c.T[kp.T]
        out[end : end + text.size] = text
        end += text.size
    return memoryview(out)[:end]


@dataclass(frozen=True, eq=False)
class OutputTable:
    """Named float columns plus the metadata echoed into every output file.

    ``values`` is a (rows, columns) float array.  ``empty``, a bool mask of
    the same shape, marks cells undefined at their row (a flagged singular
    point, an undefined occupation, a missing stability flag); they render
    as empty CSV fields / JSON nulls.  NaN or infinite cells that are not
    empty are rejected outright.
    """

    meta: tuple[tuple[str, str], ...]
    columns: tuple[str, ...]
    values: np.ndarray
    empty: np.ndarray

    def __post_init__(self):
        if self.values.shape[1:] != (len(self.columns),) or self.empty.shape != self.values.shape:
            raise ConfigError("row width does not match column count")
        bad = self.values[~(self.empty | np.isfinite(self.values))]
        if bad.size:
            raise ConfigError(f"non-finite cell {bad[0].item()!r} in output row")

    @classmethod
    def from_rows(cls, meta, columns, rows: Sequence[Sequence[float | None]]) -> OutputTable:
        """The table of ``rows``, sequences of cells where None is empty."""
        empty = np.array([[cell is None for cell in row] for row in rows])
        values = np.array([[0.0 if cell is None else cell for cell in row] for row in rows], float)
        return cls(meta, columns, values, empty)

    @property
    def rows(self) -> list[list[float | None]]:
        """The cells row by row, None where empty."""
        return np.where(self.empty, None, self.values).tolist()


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _read_config_file(path: str | Path) -> dict[str, str]:
    p = Path(path)
    if not os.path.exists(path):  # not Path: Path("") is the working directory
        raise ConfigError(f"config file not found: {str(path)!r}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"cannot read config file {str(path)!r}: {exc}") from None
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
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

#: Most points of a grid: 50 times the largest README or benchmark grid
#: (20 001).  Far larger grids end in numpy allocation errors, not results.
_MOST_POINTS = 10**6


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
    elif kind is int and out > _MOST_POINTS:
        raise ConfigError(f"{_flag(key)}: must be at most {_MOST_POINTS}, got {value!r}")
    elif kind is str and (not out or "\0" in out):  # "\0": no OS takes it in a path
        raise ConfigError(f"{_flag(key)}: expected a path, got {value!r}")
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
    auto`` and ``design``: it needs the notch topology, ``--kappa``, a
    symmetric lossless controller and no delay, which moves the optimum."""
    if cfg.topology != Topology.NOTCH.value:
        raise ConfigError(
            "the closed-form optimum (--delta auto, design) needs --topology notch"
        )
    _require(cfg, "kappa")
    kappa_f = _filter_from(cfg).kappa_f
    if cfg.tau > 0:
        raise ConfigError(
            f"the closed-form optimum (--delta auto, design) assumes no delay, got --tau {cfg.tau!r}"
        )
    return design.optimal_detuning(cfg.omega_m, cfg.kappa, kappa_f)


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


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_spectrum(cfg: RunConfig) -> OutputTable:
    """Shaped spectrum vs the bare-cavity reference, or the filter response."""
    grid = _grid(cfg, "omega_min", "omega_max", "points", fewest=2)
    values = np.zeros((grid.size, 3))  # filled block by block by design.fill_rows
    values[:, 0] = grid
    empty = np.zeros((grid.size, 3), dtype=bool)
    if cfg.element == "filter":
        filt = _filter_from(cfg)
        columns = ("omega", "R2", "T2")
        design.fill_rows(
            lambda w: netalg.abs2(netalg.scattering(filt, w)[:, 0].T), grid, values[:, 1:]
        )
    else:
        config = system_config(cfg)
        # Sigma, empty on singular rows, and the same cavity without feedback
        # at the preset detuning: the baseline the shaped spectra are judged by.
        delta = design.preset_detunings(Topology.NONE, cfg.omega_m)[0]
        bare = SystemConfig(replace(config.cav, delta=delta), None, Topology.NONE)
        columns = ("omega", "Sigma", "Sigma_uncontrolled")
        empty[:, 1] = design.fill_rows(design.loop_sigma(config), grid, values[:, 1])
        design.fill_rows(design.loop_sigma(bare), grid, values[:, 2])
    return OutputTable(metadata_pairs(cfg), columns, values, empty)


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
    row = (*_rate_values(rates), n_steady, float(rates.gamma_opt > 0), feasible)
    columns = (*_RATE_COLUMNS, "n_steady", "net_cooling", "bandpass_feasible")
    return OutputTable.from_rows(metadata_pairs(cfg), columns, [row])


def cmd_sweep(cfg: RunConfig) -> OutputTable:
    """Rates and stability along a parameter grid."""
    _require(cfg, "sweep_param")
    grid = _grid(cfg, "sweep_min", "sweep_max", "sweep_points", fewest=1)
    keys = ("kappa1", "kappa2") if cfg.sweep_param == "kappa_f" else (cfg.sweep_param,)
    unset = {key: grid[0] for key in keys if getattr(cfg, key) is None}  # set on every row
    config = system_config(replace(cfg, **unset))
    table = design.sweep(config, cfg.sweep_param, grid, bath=_bath(cfg))
    stable = np.zeros(grid.size) if table.stable is None else table.stable
    empty = np.zeros((grid.size, 7), dtype=bool)
    empty[:, 1:4] = table.singular[:, None]  # the rates of a singular row
    empty[:, 4] = np.isnan(table.rates.n_min)  # undefined without net cooling
    empty[:, 5] = table.stable is None  # no flags without a state space
    values = (table.value, *_rate_values(table.rates), stable, table.singular)
    columns = (cfg.sweep_param, *_RATE_COLUMNS, "stable", "singular")
    return OutputTable(metadata_pairs(cfg), columns, np.column_stack(values), empty)


def cmd_oracle(cfg: RunConfig) -> OutputTable:
    """Lyapunov cross-check of the rate-equation occupation."""
    config = system_config(cfg)
    bath = _bath(cfg)
    try:
        report = oracle.consistency_check(config, bath)
        row = (1.0, report.n_oracle, report.n_rate, report.rel_dev)
    except UnstableModel:
        row = (0.0, None, None, None)  # reported, not fatal
    return OutputTable.from_rows(
        metadata_pairs(cfg), ("stable", "n_oracle", "n_rate", "rel_dev"), [row]
    )


def cmd_design(cfg: RunConfig) -> OutputTable:
    """Resolved optimal detuning, controller detuning, and feasibility."""
    delta_c = _closed_form_optimum(cfg)
    kappa_f = _filter_from(cfg).kappa_f
    feasible = design.bandpass_ground_state_feasible(cfg.kappa, kappa_f, cfg.omega_m)
    row = (delta_c, cfg.delta_f, cfg.delta, float(feasible))
    return OutputTable.from_rows(
        metadata_pairs(cfg), ("delta_c", "delta_f", "delta", "bandpass_feasible"), [row]
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


def render_csv(table: OutputTable) -> bytes | memoryview:
    """The metadata line, the header, then the cells: :func:`fmt17_rows`,
    whose buffer is returned as it is, for a table of at least
    _BLOCK_RENDER_CELLS cells, else one ``%`` operation whose row templates
    hold a "%.17g" field (:func:`fmt17`) per cell and nothing for an empty
    one (rows with no empty cell share one template).  Both give the same
    bytes; each is the faster on its side of the size rule, where numpy's
    fixed cost meets ``%``'s cost per cell."""
    head = "# " + " ".join(f"{k}={v}" for k, v in table.meta) + "\n" + ",".join(table.columns) + "\n"
    if table.values.size >= _BLOCK_RENDER_CELLS:
        return fmt17_rows(table.values, table.empty, head.encode())
    templates = [",".join(["%.17g"] * len(table.columns)) + "\n"] * len(table.values)
    for i in np.flatnonzero(table.empty.any(axis=1)).tolist():
        templates[i] = ",".join("" if e else "%.17g" for e in table.empty[i].tolist()) + "\n"
    return (head + "".join(templates) % tuple(table.values[~table.empty].tolist())).encode()


def render_json(table: OutputTable) -> bytes:
    payload = {"meta": dict(table.meta), "columns": list(table.columns), "rows": table.rows}
    return (json.dumps(payload, indent=2, sort_keys=False) + "\n").encode()


def render(table: OutputTable, fmt: str) -> bytes | memoryview:
    """The bytes of ``table`` in format ``fmt``, ``csv`` or ``json``."""
    return render_csv(table) if fmt == "csv" else render_json(table)


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


@cache
def build_parser(command: str | None = None) -> Mapping[str, str]:
    """Read-only flag -> key map of ``cfcool <command>``; with no command, every flag."""
    flags = {"--config": "config"}
    for key, spec in _PARAMS.items():
        if command is None or spec["commands"] is None or command in spec["commands"]:
            flags.update(dict.fromkeys((_flag(key), *spec["aliases"]), key))
    return MappingProxyType(flags)


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


def _write_output(path: str, data: bytes | memoryview) -> None:
    """Overwrite ``path`` with ``data`` in place, cutting a longer old file: on ext4
    an O_TRUNC open waits for the writeback that the last truncate and close started."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666),
              "wb", buffering=0) as f:
        keep = 0  # the length to leave: all of data once written, else nothing
        try:
            view = memoryview(data)
            while view:  # a write may be short
                view = view[f.write(view):]
            keep = len(data)
        finally:
            if os.fstat(f.fileno()).st_size > keep:  # never a device or a pipe
                f.truncate(keep)


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
        data = render(table, cfg.format)
        if cfg.output:
            try:
                _write_output(cfg.output, data)
            except OSError as exc:
                raise ConfigError(f"cannot write --output {cfg.output!r}: {exc.strerror}") from None
        elif (stream := getattr(sys.stdout, "buffer", None)) is None:
            sys.stdout.write(str(data, "utf-8"))  # a text-only stdout, such as a StringIO
        else:
            sys.stdout.flush()  # text written before goes first
            stream.write(data)
    except CfcoolError as exc:
        numeric = isinstance(exc, ArithmeticError)
        kind = "numeric failure" if numeric else "config error"
        print(f"cfcool: {kind}: {exc}", file=sys.stderr)
        return 2 if numeric else 1
    return 0
