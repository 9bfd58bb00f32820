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
from functools import cached_property
from typing import Iterable

import numpy as np

from . import netalg, spectra
from .errors import (
    BracketError,
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
    """A cavity, a controller (None exactly under Topology.NONE), the wiring
    topology, and a loop delay."""

    cav: OptoCavityParams
    filt: FilterCavityParams | None
    topology: Topology
    delay: float = 0.0

    def __post_init__(self):
        if self.topology is not Topology.NONE and self.filt is None:
            raise InvalidParam(f"topology {self.topology.value} requires filter parameters")
        if self.topology is Topology.NONE and self.filt is not None:
            raise InvalidParam("topology none takes no filter parameters")
        netalg._check_tau(self.delay)


def preset_detunings(topology: Topology, omega_m: float) -> tuple[float, float | None]:
    """Preset (delta, delta_f) of a topology; delta_f is None without a controller."""
    delta_f = {Topology.NOTCH: omega_m, Topology.BANDPASS: -omega_m}.get(topology)
    return -omega_m, delta_f


def _preset(kappa, omega_m, g, kappa_f, delta_override, topology):
    delta, delta_f = preset_detunings(topology, omega_m)
    delta = delta if delta_override is None else delta_override
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
    """Signal-flow graph realizing the configured loop: the cavity "sys"
    alone, or controller "ctrl" driven from outside at port 0, whose reflected
    (notch) or transmitted (band-pass) output drives the cavity, whose output
    returns into controller port 1, through "lag" if the delay is nonzero."""
    cavity = ("sys", netalg.CavityReflection(config.cav))
    if config.topology is Topology.NONE:
        return netalg.NetworkSpec(elements=(cavity,), wiring=())
    feed = 0 if config.topology is Topology.NOTCH else 1
    elements = [("ctrl", netalg.FilterTwoPort(config.filt)), cavity]
    wiring = [(("ctrl", feed), ("sys", 0))]
    if config.delay != 0.0:
        elements.append(("lag", netalg.DelayLine(config.delay)))
        wiring += [(("sys", 0), ("lag", 0)), (("lag", 0), ("ctrl", 1))]
    else:
        wiring.append((("sys", 0), ("ctrl", 1)))
    return netalg.NetworkSpec(elements=tuple(elements), wiring=tuple(wiring))


def closed_loop_response(config: SystemConfig, method: str = "auto") -> ResponseFn:
    """Return chi_cl(omega) for the configured loop.

    ``method`` is "auto" (the closed form when it applies, otherwise the
    network solver) or "solver".  The closed forms apply to a symmetric
    lossless controller at zero delay.
    """
    if method not in ("auto", "solver"):
        raise InvalidParam(f"unknown method {method!r}")
    if config.topology is Topology.NONE:
        cav = config.cav
        return lambda omega: netalg.chi(cav, omega)

    if method == "auto" and config.filt.is_symmetric_ideal and config.delay == 0.0:
        form = (
            netalg.closed_form_notch
            if config.topology is Topology.NOTCH
            else netalg.closed_form_bandpass
        )
        cav, filt = config.cav, config.filt
        return lambda omega: form(cav, filt, omega)

    net = network_for(config)
    return lambda omega: netalg.solve_network(net, omega)


#: Points or rows per block of :func:`fill_rows`: a block's temporaries are
#: small enough for the allocator to reuse from block to block and from call
#: to call.  Each kernel works per point or per row, so any split of a grid
#: gives the same bits.
GRID_BLOCK = 8192


def fill_rows(evaluate, values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with ``evaluate`` of ``values``, row for row, one call per
    block of ``GRID_BLOCK`` rows.  Where a call raises :class:`SingularLoop`,
    each row of the block holding a point of the exception's mask is flagged
    and keeps its value in ``out``, and the rest of the block is evaluated
    again, so a block costs at most two calls.  Returns the mask of the
    singular rows."""
    singular = np.zeros(len(values), dtype=bool)
    for start in range(0, len(values), GRID_BLOCK):
        block = slice(start, start + GRID_BLOCK)
        rows, flagged = values[block], singular[block]
        try:
            out[block] = evaluate(rows)
            continue
        except SingularLoop as exc:
            flagged[:] = exc.singular.reshape(len(rows), -1).any(axis=1)
        out[block][~flagged] = evaluate(rows[~flagged])
    return singular


def response_on_grid(config: SystemConfig, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """chi_cl at every point of a frequency grid, and a mask of the points
    where the loop is singular (their values are 0).

    The flat grid is evaluated in blocks of ``GRID_BLOCK`` points, one array
    call each, which gives every value the bits of the call at that point;
    where a call raises, the points of the exception's mask are flagged and
    the rest of the block evaluated again, so a block costs at most two
    calls.  Both arrays have the grid's shape.
    """
    chi_cl = closed_loop_response(config)
    values = np.zeros(grid.size, dtype=complex)
    singular = fill_rows(chi_cl, grid.ravel(), values)
    return values.reshape(grid.shape), singular.reshape(grid.shape)


def loop_rates(config: SystemConfig) -> RateResult:
    """Sideband rates of the configured loop at its own g and omega_m."""
    return scattering_rates(closed_loop_response(config), config.cav.g, config.cav.omega_m)


def _sideband_sigmas(config: SystemConfig, name: str, values: np.ndarray) -> np.ndarray:
    """Sigma at (-omega_m, +omega_m) of the loop at each value of parameter
    ``name``, a (rows, 2) array from one array call: the parameter holds the
    values as a column, and the frequencies are the full (rows, 2) grid.
    Each value has the bits of :func:`loop_rates` (a_plus, a_minus) of that
    row's float config.  Raises :class:`SingularLoop` with the mask of the
    singular points."""
    cfg = _with_parameter(config, name, values[:, None])
    omega_m = cfg.cav.omega_m
    omegas = np.tile([-omega_m, +omega_m], (values.size, 1))
    return spectra.sigma(cfg.cav.g, closed_loop_response(cfg)(omegas))


def optimal_detuning(omega_m: float, kappa: float, kappa_f: float) -> float:
    """Cavity detuning maximizing the anti-Stokes rate of the band-blocking loop:

        delta_c = -omega_m - omega_m*kappa_f*kappa / (2*(omega_m^2 + kappa_f^2)).

    At this detuning the anti-Stokes rate gains the factor 1 + (kappa_f/omega_m)^2
    over its value at delta = -omega_m while the Stokes rate stays zero.
    """
    if not omega_m > 0 or not kappa > 0 or not kappa_f > 0:
        raise InvalidParam("omega_m, kappa and kappa_f must all be > 0")
    return -omega_m - omega_m * kappa_f * kappa / (2.0 * (omega_m**2 + kappa_f**2))


def default_detuning_bracket(config: SystemConfig) -> tuple[float, float]:
    """Bracket [-omega_m - kappa*kf, -1e-3*omega_m] containing the optimum, where kf
    is the controller linewidth kappa_total/2 (kappa_f if symmetric lossless)."""
    cav = config.cav
    kf = config.filt.kappa_total / 2.0 if config.filt is not None else cav.kappa
    return (-cav.omega_m - cav.kappa * kf, -1e-3 * cav.omega_m)


#: Golden-section fraction 1 - 1/phi of Brent's fallback step.
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_COARSE_POINTS = 65


def argmax_detuning_numeric(
    config: SystemConfig,
    bracket: tuple[float, float] | None = None,
    tol: float = 1e-6,
) -> float:
    """Maximize the anti-Stokes rate over the cavity detuning by bracketed search.

    A coarse scan, one array call over 65 detunings, localizes the maximum
    (raising :class:`BracketError` when the objective is flat or monotone
    over the bracket, e.g. g = 0).  Brent's method (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 5) then refines it inside
    the two scan intervals around the best point, with parabolic steps and a
    golden-section step as the fallback, until the maximizer lies in a
    bracket of width ``tol``.  A ``tol`` below the float spacing of the
    detuning is raised to eight units in the last place.

    The bracket holds the maximum of the computed objective, which is the
    true maximizer only to within the plateau where rounding flattens the
    peak: where that plateau is wider than ``tol``, the search stops
    somewhere on it.  On a delayed lossy band-pass loop whose objective
    scatters by 4.4e-15 of its peak value, the search at tol = 1e-7 stopped
    2.2e-6 from the maximizer of a quadratic fit.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise InvalidParam(f"tol must be finite and > 0, got {tol}")
    lo, hi = bracket if bracket is not None else default_detuning_bracket(config)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidParam(f"bad bracket {(lo, hi)!r}")

    def objective(delta):
        return loop_rates(_with_parameter(config, "delta", delta)).a_minus

    xs = np.linspace(lo, hi, _COARSE_POINTS)
    ys = _sideband_sigmas(config, "delta", xs)[:, 1]
    best = int(np.argmax(ys))
    if ys.max() == ys.min():
        raise BracketError("objective is flat over the bracket (zero coupling?)")
    if best in (0, len(xs) - 1):
        raise BracketError(
            f"anti-Stokes rate is monotone over bracket {(lo, hi)!r}; no interior maximum"
        )

    # Unimodality puts the true maximum inside the neighbouring scan intervals.
    # x is the best point so far, w the second best and v the previous w; a
    # parabola through them proposes the next point u, kept only inside
    # [a, b] and shorter than half the step before last, else a golden
    # section of the larger side is taken.  No step is shorter than tol / 4.
    # The scan's samples have the bits of the objective, so its best point
    # starts as x and the bracket ends as v and w; a first step before last
    # of the bracket width lets the parabola through those three go first.
    # Only a strict rise moves x: a tie, common where rounding flattens the
    # peak (subnormal rates), says nothing of the side the maximum is on, so
    # it only shrinks the bracket from u's side.
    a, b = float(xs[best - 1]), float(xs[best + 1])
    tol = max(tol, 8.0 * math.ulp(max(abs(a), abs(b))))
    step_min = 0.25 * tol
    x, v, w = float(xs[best]), a, b
    fv, fx, fw = ys[best - 1 : best + 2].tolist()
    d = e = b - a
    while max(x - a, b - x) > 0.5 * tol:
        toward_b = x < 0.5 * (a + b)
        parabolic = False
        if abs(e) > step_min:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0:
                p = -p
            q = abs(q)
            before_last, e = e, d
            parabolic = abs(p) < abs(0.5 * q * before_last) and q * (a - x) < p < q * (b - x)
        if parabolic:
            d = p / q
            if x + d - a < 0.5 * tol or b - x - d < 0.5 * tol:
                d = step_min if toward_b else -step_min
        else:
            e = b - x if toward_b else a - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= step_min else math.copysign(step_min, d))
        fu = objective(u)
        if fu > fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v in (x, w):
                v, fv = u, fu
    return x


def bandpass_ground_state_feasible(kappa: float, kappa_f: float, omega_m: float) -> bool:
    """True when kappa*kappa_f / (4*(kappa + kappa_f)) < omega_m.

    The left side is half the band-passing loop's effective linewidth, so the
    inequality is the resolved-sideband condition of the effective cavity.
    """
    if not kappa > 0 or not kappa_f > 0 or not omega_m > 0:
        raise InvalidParam("kappa, kappa_f and omega_m must all be > 0")
    return kappa * kappa_f / (4.0 * (kappa + kappa_f)) < omega_m


#: Names ``sweep`` accepts: ``kappa_f`` (a symmetric lossless controller's
#: linewidth) or a field of the cavity.
SWEEP_PARAMETERS = ("delta", "kappa_f", "kappa", "g")


@dataclass(frozen=True)
class SweepRow:
    """One grid point: the swept value, its rates (None when the loop was
    singular there), a strict-Hurwitz stability flag (None when no state-space
    model exists, e.g. nonzero loop delay), and the singular marker."""

    value: float
    rates: RateResult | None
    stable: bool | None
    singular: bool


@dataclass(frozen=True, eq=False)
class SweepTable:
    """A sweep as columns, one entry per grid point in grid order: the swept
    ``value``, the column :class:`RateResult` ``rates`` (0 where the loop was
    singular), the strict-Hurwitz flags ``stable`` (None without a state
    space: a delayed loop) and the ``singular`` mask.  ``rows`` is the same
    table as :class:`SweepRow` objects, built on first access."""

    value: np.ndarray
    rates: RateResult
    stable: np.ndarray | None
    singular: np.ndarray

    @cached_property
    def rows(self) -> tuple[SweepRow, ...]:
        flags = [None] * self.value.size if self.stable is None else self.stable.tolist()
        return tuple(
            SweepRow(
                value=value,
                rates=None if flagged else RateResult(a_plus, a_minus),
                stable=stable,
                singular=flagged,
            )
            for value, a_plus, a_minus, stable, flagged in zip(
                self.value.tolist(), self.rates.a_plus.tolist(), self.rates.a_minus.tolist(),
                flags, self.singular.tolist(),
            )
        )


def _with_parameter(config: SystemConfig, name: str, value: float | np.ndarray) -> SystemConfig:
    if name != "kappa_f":
        return replace(config, cav=replace(config.cav, **{name: value}))
    if config.filt is None or not config.filt.is_symmetric_ideal:
        raise InvalidParam("sweeping kappa_f needs a symmetric lossless controller")
    return replace(
        config,
        filt=FilterCavityParams.symmetric(kappa_f=value, delta_f=config.filt.delta_f),
    )


def sweep(
    config: SystemConfig,
    parameter: str,
    grid: Iterable[float],
    bath: MechanicalBath | None = None,
) -> SweepTable:
    """Evaluate scattering rates and stability along a parameter grid.

    The :class:`SweepTable` columns come back in grid order; singular-loop
    points are flagged rather than dropped or propagated, with rates of 0.
    The grid goes in blocks of ``GRID_BLOCK`` rows, each one config whose
    swept field holds the block: its rates come from one array call at
    (-omega_m, +omega_m) per row (plus one more on the regular rows if any
    is singular), each with the bits of :func:`loop_rates` on that row's
    config, and one column :class:`RateResult` checks them all.  ``bath``
    (default: no mechanical damping) enters only the stability flag: a
    block's drift matrices, one stack from :func:`oracle.drift_matrix`, are
    tested by one :func:`oracle.is_hurwitz` call, the same rule as
    :func:`oracle.is_stable` on each row's model.  A loop with a nonzero
    delay has a ``stable`` column of None: the drift assembly refuses before
    building anything.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise InvalidParam(f"unknown sweep parameter {parameter!r}")
    values = np.fromiter(grid, float)
    if not values.size:
        raise InvalidParam("sweep grid must be nonempty")
    diffs = np.diff(values)
    if values.size > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise InvalidParam("sweep grid must be strictly monotone")
    if bath is None:
        bath = MechanicalBath(gamma_m=0.0, n_th=0.0)

    from . import oracle  # deferred: oracle depends on this module's types

    def stable(rows: np.ndarray) -> np.ndarray:
        drifts = oracle.drift_matrix(_with_parameter(config, parameter, rows), bath)
        return oracle.is_hurwitz(drifts)

    flags = np.zeros(values.size, dtype=bool)
    try:
        fill_rows(stable, values, flags)
    except UnsupportedDelay:
        # Nonzero delay has no finite-dimensional state space; record the
        # flags as unknown instead of failing the whole table.
        flags = None
    sigmas = np.zeros((values.size, 2))
    singular = fill_rows(lambda rows: _sideband_sigmas(config, parameter, rows), values, sigmas)
    return SweepTable(values, RateResult(*sigmas.T), flags, singular)
