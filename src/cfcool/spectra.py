"""Normalized radiation-pressure noise spectra and sideband scattering rates.

The working quantity is the rate spectrum Sigma(omega) = g^2 |chi_cl(omega)|^2
referred to the loop's external vacuum input; the zero-point amplitude and
hbar cancel against the rate normalization and never appear.  Phonon-creating
(Stokes) scattering samples Sigma at -omega_m, phonon-annihilating
(anti-Stokes) scattering at +omega_m.  The optical input is vacuum with unit
flat spectral density; thermal or squeezed drives are out of scope.

Known limitation: a lossy controller's loss port is a vacuum input too, and
its noise is not counted, so a lossy loop's Sigma, rates and n_min are too low.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import netalg
from .errors import InvalidParam, NoNetCooling

#: chi_cl(omega): a float omega gives a complex scalar, an ndarray grid an
#: array of its shape (as every response in :mod:`cfcool.netalg` does).
ResponseFn = Callable[[float | np.ndarray], complex | np.ndarray]


def _check_rate(name, value):
    # The rule of a rate or an occupation: finite and >= 0, at every value.
    accepted = (value >= 0) & (value < math.inf)
    if accepted is not True:  # format a message only for a value it may refuse
        netalg._check(accepted, value, f"{name} must be finite and >= 0, got {{!r}}")


@dataclass(frozen=True)
class MechanicalBath:
    """Intrinsic mechanical damping gamma_m >= 0 and thermal occupation n_th >= 0."""

    gamma_m: float
    n_th: float

    def __post_init__(self):
        _check_rate("gamma_m", self.gamma_m)
        _check_rate("n_th", self.n_th)
        # The thermal load of the oracle's diffusion and of steady_phonon.
        if not math.isfinite(self.gamma_m * (self.n_th + 0.5)):
            raise InvalidParam(
                f"gamma_m * (n_th + 0.5) overflows at gamma_m = {self.gamma_m!r}, "
                f"n_th = {self.n_th!r}"
            )


@dataclass(frozen=True)
class Spectrum:
    """Rate spectrum Sigma(omega) sampled on a monotone frequency grid."""

    omegas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        omegas = np.asarray(self.omegas, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if omegas.ndim != 1 or omegas.shape != values.shape:
            raise InvalidParam("omegas and values must be 1-d arrays of equal length")
        diffs = np.diff(omegas)
        if omegas.size > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise InvalidParam("frequency grid must be strictly monotone")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise InvalidParam("spectrum values must be finite and >= 0")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class RateResult:
    """Stokes/anti-Stokes rate pair and the cooling figures derived from it.

    In the Lindblad picture ``a_minus`` multiplies the dissipator D[b] and
    ``a_plus`` multiplies D[b^dag].  ``gamma_opt = a_minus - a_plus`` is the
    optically induced damping (may be negative, meaning net heating);
    ``n_min = a_plus / gamma_opt`` is the occupation floor in the
    vanishing-mechanical-damping limit, defined only when gamma_opt > 0
    (``None`` otherwise) and below 2^53: a positive gamma_opt is at least one
    ulp of a_plus.  The rates may be float columns, one value per row, checked
    at every value; each row has the float result's bits, NaN for a None n_min.
    """

    a_plus: float
    a_minus: float
    gamma_opt: float = field(init=False)
    n_min: float | None = field(init=False)

    def __post_init__(self):
        a_plus, a_minus = self.a_plus, self.a_minus
        _check_rate("a_plus", a_plus)
        _check_rate("a_minus", a_minus)
        gamma_opt = a_minus - a_plus
        if isinstance(gamma_opt, np.ndarray):
            n_min = np.full_like(gamma_opt, math.nan)
            np.divide(a_plus, gamma_opt, out=n_min, where=gamma_opt > 0)
        else:
            n_min = a_plus / gamma_opt if gamma_opt > 0 else None
        object.__setattr__(self, "gamma_opt", gamma_opt)
        object.__setattr__(self, "n_min", n_min)


def rate_spectrum(chi_cl: ResponseFn, g: float, grid: Sequence[float] | np.ndarray) -> Spectrum:
    """Evaluate Sigma(omega) = g^2 |chi_cl(omega)|^2 on a frequency grid.

    ``chi_cl`` is called once, on the whole grid as a float ndarray, and must
    return an array of its shape; :func:`sigma` squares it, so each value has
    the bits of the per-point Sigma.  ``chi_cl`` may raise
    :class:`~cfcool.errors.SingularLoop`; the exception (carrying the first
    singular grid frequency and the mask of all) propagates unchanged.
    """
    omegas = np.asarray(grid, dtype=float)
    return Spectrum(omegas=omegas, values=sigma(g, chi_cl(omegas)))


def sigma(g: float | np.ndarray, response: complex | np.ndarray) -> float | np.ndarray:
    """Sigma = g^2 |chi_cl|^2 of one response value or an array of them; an
    array g (one value per row) broadcasts against the array.

    Each value has the bits of the scalar ``g * g * abs(chi_cl) ** 2`` (see
    :func:`netalg.abs2`).  Raises :class:`InvalidParam` for g < 0 and,
    naming the g of the first overflowing value, where Sigma overflows.
    """
    # A NaN g is not refused: its Sigma is NaN.
    netalg._check((g >= 0) | (g != g), g, "g must be >= 0, got {}")
    if isinstance(response, np.ndarray):
        with np.errstate(over="ignore"):
            values = g * g * netalg.abs2(response)
    else:
        try:
            values = g * g * netalg.abs2(response)
        except OverflowError:  # |chi_cl|^2 itself
            values = math.inf
    netalg._check(values != math.inf, g, "Sigma = g * g * |chi_cl|^2 overflows at g = {!r}")
    return values


def scattering_rates(chi_cl: ResponseFn, g: float, omega_m: float) -> RateResult:
    """Sideband rates from the loop response.

    The phonon-creating rate samples the spectrum at -omega_m and the
    phonon-annihilating rate at +omega_m; the sign crossing is deliberate and
    locked by tests, since swapping it turns cooling into heating.
    """
    # An omega_m column (one value per row) gives a column RateResult.
    netalg._check((omega_m > 0) | (omega_m != omega_m), omega_m, "omega_m must be > 0, got {}")
    return RateResult(a_plus=sigma(g, chi_cl(-omega_m)), a_minus=sigma(g, chi_cl(+omega_m)))


def steady_phonon(r: RateResult, bath: MechanicalBath) -> float:
    """Stationary occupation (a_plus + gamma_m n_th) / (gamma_opt + gamma_m).

    Standard rate-equation balance of optical scattering against the
    mechanical bath; reduces to :attr:`RateResult.n_min` as gamma_m -> 0.
    """
    den = r.gamma_opt + bath.gamma_m
    if den <= 0:
        raise NoNetCooling(
            f"rate-equation denominator {den!r} <= 0: no stationary occupation"
        )
    return (r.a_plus + bath.gamma_m * bath.n_th) / den
