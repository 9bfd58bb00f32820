"""Loop-shaping design helpers: preset construction, optimal detuning, the
band-pass feasibility test, and parameter sweeps.

Presets pin the controller detuning from the topology (band-blocking puts the
controller zero on the Stokes side, delta_f = +omega_m; band-passing puts its
transmission window on the anti-Stokes side, delta_f = -omega_m) and default
the cavity detuning to the conventional optimum delta = -omega_m unless
overridden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable

import numpy as np

from . import netalg
from .errors import (
    BracketError,
    ClosedFormInapplicable,
    InvalidParam,
    SingularLoop,
    UnsupportedDelay,
)
from .netalg import FilterCavityParams, OptoCavityParams
from .spectra import MechanicalBath, RateResult, ResponseFn, scattering_rates


class Topology(Enum):
    NONE = "none"
    NOTCH = "notch"
    BANDPASS = "bandpass"


@dataclass(frozen=True)
class SystemConfig:
    """A cavity, an optional controller, the wiring topology, and a loop delay."""

    cav: OptoCavityParams
    filt: FilterCavityParams | None
    topology: Topology
    delay: float = 0.0

    def __post_init__(self):
        if self.topology is not Topology.NONE and self.filt is None:
            raise InvalidParam(f"topology {self.topology.value} requires filter parameters")
        if not (math.isfinite(self.delay) and self.delay >= 0):
            raise InvalidParam(f"delay must be finite and >= 0, got {self.delay!r}")


def _preset(kappa, omega_m, g, kappa_f, delta_override, topology):
    if kappa <= 0 or omega_m <= 0 or kappa_f <= 0:
        raise InvalidParam("kappa, omega_m and kappa_f must all be > 0")
    delta = -omega_m if delta_override is None else delta_override
    delta_f = omega_m if topology is Topology.NOTCH else -omega_m
    return SystemConfig(
        cav=OptoCavityParams(kappa=kappa, delta=delta, g=g, omega_m=omega_m),
        filt=FilterCavityParams.symmetric(kappa_f=kappa_f, delta_f=delta_f),
        topology=topology,
    )


def make_notch(kappa, omega_m, g, kappa_f, delta_override=None) -> SystemConfig:
    """Band-blocking preset: delta_f = +omega_m, delta = delta_override or -omega_m."""
    return _preset(kappa, omega_m, g, kappa_f, delta_override, Topology.NOTCH)


def make_bandpass(kappa, omega_m, g, kappa_f, delta_override=None) -> SystemConfig:
    """Band-passing preset: delta_f = -omega_m, delta = delta_override or -omega_m."""
    return _preset(kappa, omega_m, g, kappa_f, delta_override, Topology.BANDPASS)


def network_for(config: SystemConfig) -> netalg.NetworkSpec:
    """Signal-flow graph realizing the configured loop."""
    if config.topology is Topology.NONE:
        return netalg.single_cavity_network(config.cav)
    if config.topology is Topology.NOTCH:
        return netalg.notch_network(config.cav, config.filt, tau=config.delay)
    return netalg.bandpass_network(config.cav, config.filt, tau=config.delay)


def closed_loop_response(config: SystemConfig, method: str = "auto") -> ResponseFn:
    """Return chi_cl(omega) for the configured loop.

    ``method`` is "auto" (closed form when applicable, otherwise the network
    solver), "closed_form", or "solver".  The closed forms require a symmetric
    lossless controller and zero delay.
    """
    if method not in ("auto", "closed_form", "solver"):
        raise InvalidParam(f"unknown method {method!r}")
    if config.topology is Topology.NONE:
        cav = config.cav
        return lambda omega: netalg.chi(cav, omega)

    closed_ok = config.filt.is_symmetric_ideal and config.delay == 0.0
    if method == "closed_form" or (method == "auto" and closed_ok):
        if not closed_ok:
            raise ClosedFormInapplicable(
                "closed forms need a symmetric lossless controller and zero delay"
            )
        form = (
            netalg.closed_form_notch
            if config.topology is Topology.NOTCH
            else netalg.closed_form_bandpass
        )
        cav, filt = config.cav, config.filt
        return lambda omega: form(cav, filt, omega)

    net = network_for(config)
    return lambda omega: netalg.solve_network(net, omega)


def optimal_detuning(omega_m: float, kappa: float, kappa_f: float) -> float:
    """Cavity detuning maximizing the anti-Stokes rate of the band-blocking loop:

        delta_c = -omega_m - omega_m*kappa_f*kappa / (2*(omega_m^2 + kappa_f^2)).

    At this detuning the anti-Stokes rate gains the factor 1 + (kappa_f/omega_m)^2
    over its value at delta = -omega_m while the Stokes rate stays zero.
    """
    if omega_m <= 0 or kappa <= 0 or kappa_f <= 0:
        raise InvalidParam("omega_m, kappa and kappa_f must all be > 0")
    return -omega_m - omega_m * kappa_f * kappa / (2.0 * (omega_m**2 + kappa_f**2))


def default_detuning_bracket(config: SystemConfig) -> tuple[float, float]:
    """Bracket [-omega_m - kappa*kappa_f, -1e-3*omega_m] containing the optimum."""
    cav = config.cav
    kf = config.filt.kappa1 if config.filt is not None else cav.kappa
    return (-cav.omega_m - cav.kappa * kf, -1e-3 * cav.omega_m)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_COARSE_POINTS = 65


def argmax_detuning_numeric(
    config: SystemConfig,
    bracket: tuple[float, float] | None = None,
    tol: float = 1e-6,
) -> float:
    """Maximize the anti-Stokes rate over the cavity detuning by bracketed search.

    A coarse scan localizes the maximum (raising :class:`BracketError` when the
    objective is flat or monotone over the bracket, e.g. g = 0), then a
    golden-section refinement narrows it to width ``tol``.
    """
    if tol <= 0:
        raise InvalidParam(f"tol must be > 0, got {tol}")
    lo, hi = bracket if bracket is not None else default_detuning_bracket(config)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidParam(f"bad bracket {(lo, hi)!r}")

    def objective(delta):
        cfg = replace(config, cav=replace(config.cav, delta=delta))
        return scattering_rates(
            closed_loop_response(cfg), cfg.cav.g, cfg.cav.omega_m
        ).a_minus

    xs = np.linspace(lo, hi, _COARSE_POINTS)
    ys = np.array([objective(x) for x in xs])
    best = int(np.argmax(ys))
    if ys.max() == ys.min():
        raise BracketError("objective is flat over the bracket (zero coupling?)")
    if best in (0, len(xs) - 1):
        raise BracketError(
            f"anti-Stokes rate is monotone over bracket {(lo, hi)!r}; no interior maximum"
        )

    # Unimodality puts the true maximum inside the neighbouring scan interval.
    a, b = xs[best - 1], xs[best + 1]
    c = b - (b - a) * _INV_PHI
    d = a + (b - a) * _INV_PHI
    fc, fd = objective(c), objective(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INV_PHI
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INV_PHI
            fd = objective(d)
    return 0.5 * (a + b)


def bandpass_ground_state_feasible(kappa: float, kappa_f: float, omega_m: float) -> bool:
    """True when kappa*kappa_f / (4*(kappa + kappa_f)) < omega_m.

    The left side is half the band-passing loop's effective linewidth, so the
    inequality is the resolved-sideband condition of the effective cavity.
    """
    if kappa <= 0 or kappa_f <= 0 or omega_m <= 0:
        raise InvalidParam("kappa, kappa_f and omega_m must all be > 0")
    return kappa * kappa_f / (4.0 * (kappa + kappa_f)) < omega_m


class SweepParameter(Enum):
    DELTA = "delta"
    KAPPA_F = "kappa_f"
    KAPPA = "kappa"
    G = "g"


@dataclass(frozen=True)
class SweepRow:
    """One grid point: the swept value, its rates (None when the loop was
    singular there), a strict-Hurwitz stability flag (None when no state-space
    model exists, e.g. nonzero delay), and the singular marker."""

    value: float
    rates: RateResult | None
    stable: bool | None
    singular: bool


@dataclass(frozen=True)
class SweepTable:
    parameter: str
    rows: tuple[SweepRow, ...]

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(row.value for row in self.rows)


def _with_parameter(config: SystemConfig, parameter: SweepParameter, value: float) -> SystemConfig:
    if parameter is SweepParameter.DELTA:
        return replace(config, cav=replace(config.cav, delta=value))
    if parameter is SweepParameter.KAPPA:
        return replace(config, cav=replace(config.cav, kappa=value))
    if parameter is SweepParameter.G:
        return replace(config, cav=replace(config.cav, g=value))
    if config.filt is None:
        raise InvalidParam("cannot sweep kappa_f without a controller")
    if not config.filt.is_symmetric_ideal:
        raise InvalidParam("sweeping kappa_f needs a symmetric lossless controller")
    return replace(
        config,
        filt=FilterCavityParams.symmetric(kappa_f=value, delta_f=config.filt.delta_f),
    )


def sweep(
    config: SystemConfig,
    parameter: SweepParameter | str,
    grid: Iterable[float],
    bath: MechanicalBath | None = None,
) -> SweepTable:
    """Evaluate scattering rates and stability along a parameter grid.

    Rows come back in grid order; singular-loop points are flagged rather than
    dropped or propagated.  ``bath`` (default: no mechanical damping) enters
    only the stability flag.
    """
    try:
        parameter = SweepParameter(parameter)
    except ValueError:
        raise InvalidParam(f"unknown sweep parameter {parameter!r}") from None
    values = [float(v) for v in grid]
    if not values:
        raise InvalidParam("sweep grid must be nonempty")
    diffs = np.diff(values)
    if len(values) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise InvalidParam("sweep grid must be strictly monotone")
    if bath is None:
        bath = MechanicalBath(gamma_m=0.0, n_th=0.0)

    from . import oracle  # deferred: oracle depends on this module's types

    rows = []
    for value in values:
        cfg = _with_parameter(config, parameter, value)
        try:
            rates = scattering_rates(
                closed_loop_response(cfg), cfg.cav.g, cfg.cav.omega_m
            )
            singular = False
        except SingularLoop:
            rates, singular = None, True
        try:
            stable = oracle.is_stable(oracle.build_state_space(cfg, bath))
        except UnsupportedDelay:
            # Nonzero delay has no finite-dimensional state space; record the
            # flag as unknown instead of failing the whole table.
            stable = None
        rows.append(SweepRow(value=value, rates=rates, stable=stable, singular=singular))
    return SweepTable(parameter=parameter.value, rows=tuple(rows))
