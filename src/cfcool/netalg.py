"""Frequency-domain elements and interconnection algebra for coherent-feedback
loops around a driven cavity.

Everything is evaluated at real frequencies in the rotating frame of the
drive laser, one float omega or a whole ndarray grid through the same code: a
float call returns a scalar, an array call an array over omega's shape, and an
element's S-matrix leads with its port axes, (n_out, n_in, *omega.shape).  The
frequency-domain convention is

    x(omega) = integral x(t) exp(+i omega t) dt,   i.e.  d/dt -> -i omega,

so a mode obeying  adot = (i*delta - kappa/2) a - sqrt(kappa) a_in  has the
intracavity response  sqrt(kappa) / (i (delta + omega) - kappa/2),  and a
propagation delay tau multiplies a signal by exp(+i omega tau)
(``DELAY_PHASE_SIGN``).  Frequencies map to the lab frame as
omega_lab = omega_L + omega; a cavity resonant at omega_f sits at
omega = -delta_f on this axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Union

import numpy as np

from .errors import ClosedFormInapplicable, InvalidParam, SingularLoop

#: Sign s in the delay phase exp(s * 1j * omega * tau) implied by the
#: d/dt -> -i*omega convention above.  A single constant keeps every element
#: on the same Fourier convention.
DELAY_PHASE_SIGN = +1.0

#: A loop is singular where its return difference |det(I - M(omega))| falls
#: below this threshold (an algebraic loop sitting on resonance); it then
#: raises :class:`SingularLoop` instead of returning a huge, meaningless gain.
#: For the preset loops det(I - M) is the closed forms' loop denominator
#: 1 - r_sys*S_fb, so both paths apply one rule to one quantity.
DEN_SINGULAR = 1e-13


def _check_finite(obj, names):
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise InvalidParam(f"{type(obj).__name__}.{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class OptoCavityParams:
    """Drive-referenced one-port optomechanical cavity.

    Attributes
    ----------
    kappa : float
        Decay rate through the coupling mirror (rad/s, > 0).
    delta : float
        Drive detuning omega_L - omega_c (rad/s).
    g : float
        Linearized optomechanical coupling g0 * x_zpf (rad/s, >= 0).
    omega_m : float
        Mechanical frequency (rad/s, > 0).
    """

    kappa: float
    delta: float
    g: float
    omega_m: float

    def __post_init__(self):
        _check_finite(self, ("kappa", "delta", "g", "omega_m"))
        if self.kappa <= 0:
            raise InvalidParam(f"kappa must be > 0, got {self.kappa}")
        if self.omega_m <= 0:
            raise InvalidParam(f"omega_m must be > 0, got {self.omega_m}")
        if self.g < 0:
            raise InvalidParam(f"g must be >= 0, got {self.g}")
        if not math.isfinite(float(self.g) * float(self.g)):  # Python floats: no overflow warning
            raise InvalidParam(f"g * g must be finite, got g = {self.g!r}")


@dataclass(frozen=True)
class FilterCavityParams:
    """Two-sided controller cavity with optional internal loss.

    ``kappa1`` and ``kappa2`` are the per-mirror coupling rates, ``kappa_loss``
    an internal loss rate, and ``delta_f = omega_L - omega_f`` the detuning of
    the controller resonance from the drive.  The symmetric lossless case
    (kappa1 == kappa2, kappa_loss == 0) is the ideal two-sided cavity with
    per-mirror rate ``kappa_f`` and total linewidth 2*kappa_f.
    """

    kappa1: float
    kappa2: float
    kappa_loss: float = 0.0
    delta_f: float = 0.0

    def __post_init__(self):
        _check_finite(self, ("kappa1", "kappa2", "kappa_loss", "delta_f"))
        if self.kappa1 < 0 or self.kappa2 < 0 or self.kappa_loss < 0:
            raise InvalidParam("mirror and loss rates must be >= 0")
        if self.kappa1 + self.kappa2 <= 0:
            raise InvalidParam("at least one mirror must couple (kappa1 + kappa2 > 0)")

    @classmethod
    def symmetric(cls, kappa_f: float, delta_f: float) -> "FilterCavityParams":
        """Ideal two-sided cavity with identical mirror rates and no loss."""
        return cls(kappa1=kappa_f, kappa2=kappa_f, kappa_loss=0.0, delta_f=delta_f)

    @property
    def kappa_total(self) -> float:
        return self.kappa1 + self.kappa2 + self.kappa_loss

    @property
    def is_symmetric_ideal(self) -> bool:
        return self.kappa1 == self.kappa2 and self.kappa_loss == 0.0

    @property
    def kappa_f(self) -> float:
        """Per-mirror rate of the symmetric-ideal case."""
        if not self.is_symmetric_ideal:
            raise InvalidParam(
                "kappa_f needs a symmetric lossless controller (kappa1 == kappa2, no loss)"
            )
        return self.kappa1


def chi(cav: OptoCavityParams, omega: float | np.ndarray) -> complex | np.ndarray:
    """Intracavity response sqrt(kappa) / (i*(delta + omega) - kappa/2).

    ``omega`` is a float (the result is a complex scalar) or an ndarray (an
    array of omega's shape).

    Transfer gain from the field incident on the coupling mirror to the
    intracavity field (units rad^-1/2 s^1/2); its squared modulus is the
    Lorentzian kappa / ((delta + omega)^2 + kappa^2/4).
    """
    return math.sqrt(cav.kappa) / (1j * (cav.delta + omega) - cav.kappa / 2.0)


def reflection_sys(cav: OptoCavityParams, omega: float | np.ndarray) -> complex | np.ndarray:
    """Reflection off the cavity coupling mirror, 1 + sqrt(kappa)*chi(omega);
    scalar for a float omega, an array of omega's shape for an array.

    The one-port cavity is lossless, so this has unit modulus at every real
    frequency; only the phase winds through resonance.
    """
    return 1.0 + math.sqrt(cav.kappa) * chi(cav, omega)


def delay_response(tau: float, omega: float | np.ndarray) -> complex | np.ndarray:
    """Phase factor of a propagation delay tau >= 0 (unit modulus); scalar for
    a float omega, an array of omega's shape for an array."""
    if not math.isfinite(tau) or tau < 0:
        raise InvalidParam(f"tau must be finite and >= 0, got {tau!r}")
    return np.exp(DELAY_PHASE_SIGN * 1j * omega * tau)


def scattering(f: FilterCavityParams, omega: float | np.ndarray) -> np.ndarray:
    """2x2 port scattering [[R11, T12], [T21, R22]] of the controller cavity.

    The result has shape (2, 2, *omega.shape): (2, 2) for a float omega, whose
    entries are then complex scalars.

    With d(omega) = i*(omega + delta_f) - kappa_total/2:

        R11 = 1 + kappa1/d,  R22 = 1 + kappa2/d,  T12 = T21 = sqrt(kappa1*kappa2)/d.

    In the symmetric lossless case this reduces to
    R = i*(omega + delta_f) / (i*(omega + delta_f) - kappa_f) and
    T = kappa_f / (i*(omega + delta_f) - kappa_f), with |R|^2 + |T|^2 = 1.
    The internal-loss channel enters only through kappa_total; its vacuum
    input and outgoing field are not part of the 2x2 block.
    """
    d = 1j * (omega + f.delta_f) - f.kappa_total / 2.0
    t = math.sqrt(f.kappa1 * f.kappa2) / d
    return np.array(
        [[1.0 + f.kappa1 / d, t], [t, 1.0 + f.kappa2 / d]], dtype=complex
    )


def _raise_if_singular(omega, den):
    # The one singularity rule of both loop evaluators; den is a numpy scalar
    # for a float omega, an array for a grid.  The scalar case keeps a plain
    # truth test: np.bool_.any() costs ~3 us, 20x the whole check.
    small = abs(den) < DEN_SINGULAR
    if small.ndim:
        if small.any():
            raise SingularLoop(float(omega[small][0]))
    elif small:
        raise SingularLoop(omega)


def _closed_loop(cav, f, omega, wiring, fwd, fb):
    # The loop equation chi*S_fwd / (1 - r_sys*S_fb) shared by both wirings;
    # fwd and fb pick the controller entries [R, T] on the feed and feedback paths.
    if not f.is_symmetric_ideal:
        raise ClosedFormInapplicable(
            f"the {wiring} closed form assumes kappa1 == kappa2 and no loss"
        )
    s = scattering(f, omega)
    den = 1.0 - reflection_sys(cav, omega) * s[0, fb]
    _raise_if_singular(omega, den)
    return chi(cav, omega) * s[0, fwd] / den


def closed_form_notch(
    cav: OptoCavityParams, f: FilterCavityParams, omega: float | np.ndarray
) -> complex | np.ndarray:
    """Loop response chi*R / (1 - (sqrt(kappa)*chi + 1)*T) of the band-blocking wiring.

    Valid for symmetric lossless controllers; the controller reflection feeds
    the cavity, so the response has an exact zero at omega = -delta_f.
    """
    return _closed_loop(cav, f, omega, "band-blocking", 0, 1)


def closed_form_bandpass(
    cav: OptoCavityParams, f: FilterCavityParams, omega: float | np.ndarray
) -> complex | np.ndarray:
    """Loop response chi*T / (1 - (sqrt(kappa)*chi + 1)*R) of the band-passing wiring.

    Valid for symmetric lossless controllers; only the band transmitted by the
    controller (centred at omega = -delta_f) reaches the cavity.
    """
    return _closed_loop(cav, f, omega, "band-passing", 1, 0)


# ---------------------------------------------------------------------------
# Generic interconnection solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CavityReflection:
    """One-port cavity element; the network taps its intracavity field."""

    cav: OptoCavityParams
    n_inputs: ClassVar[int] = 1
    n_outputs: ClassVar[int] = 1

    def s_matrix(self, omega: float | np.ndarray) -> np.ndarray:
        """[[r_sys]], shape (1, 1, *omega.shape); (1, 1) for a float omega."""
        return np.array([[reflection_sys(self.cav, omega)]], dtype=complex)

    def tap_gain(self, omega: float | np.ndarray) -> complex | np.ndarray:
        return chi(self.cav, omega)


@dataclass(frozen=True)
class FilterTwoPort:
    """Two-sided controller cavity as a 2x2 scattering element."""

    filt: FilterCavityParams
    n_inputs: ClassVar[int] = 2
    n_outputs: ClassVar[int] = 2

    def s_matrix(self, omega: float | np.ndarray) -> np.ndarray:
        """:func:`scattering`, shape (2, 2, *omega.shape); (2, 2) for a float omega."""
        return scattering(self.filt, omega)


@dataclass(frozen=True)
class DelayLine:
    """Pure propagation delay."""

    tau: float
    n_inputs: ClassVar[int] = 1
    n_outputs: ClassVar[int] = 1

    def s_matrix(self, omega: float | np.ndarray) -> np.ndarray:
        """[[e^{i omega tau}]], shape (1, 1, *omega.shape); (1, 1) for a float omega."""
        return np.array([[delay_response(self.tau, omega)]], dtype=complex)


Element = Union[CavityReflection, FilterTwoPort, DelayLine]
Port = tuple[str, int]
Edge = tuple[Port, Port]


@dataclass(frozen=True)
class NetworkSpec:
    """Directed signal-flow graph with one external input and one tapped cavity.

    ``elements`` is an ordered (name, element) tuple; ``wiring`` directs each
    edge from an element output port to an element input port.  Every element
    input port must be driven exactly once, either by an edge or by being the
    designated external ``input_port``.  ``tap`` names the
    :class:`CavityReflection` whose intracavity field the solver reports.
    """

    elements: tuple[tuple[str, Element], ...]
    wiring: tuple[Edge, ...]
    input_port: Port
    tap: str
    #: Row of each element input port in the solver's signal vector x.
    index: dict[Port, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [name for name, _ in self.elements]
        if len(set(names)) != len(names):
            raise InvalidParam(f"duplicate element names in {names}")
        by_name = dict(self.elements)

        def check_port(port, is_output):
            name, idx = port
            if name not in by_name:
                raise InvalidParam(f"unknown element {name!r} in port {port!r}")
            count = by_name[name].n_outputs if is_output else by_name[name].n_inputs
            if not 0 <= idx < count:
                raise InvalidParam(f"port index out of range: {port!r}")

        driven: dict[Port, int] = {}
        for src, dst in self.wiring:
            check_port(src, is_output=True)
            check_port(dst, is_output=False)
            driven[dst] = driven.get(dst, 0) + 1

        check_port(self.input_port, is_output=False)
        if self.input_port in driven:
            raise InvalidParam(f"external input port {self.input_port!r} is also edge-driven")
        index: dict[Port, int] = {}
        for name, el in self.elements:
            for k in range(el.n_inputs):
                port = (name, k)
                n_drivers = driven.get(port, 0) + (1 if port == self.input_port else 0)
                if n_drivers != 1:
                    raise InvalidParam(
                        f"input port {port!r} must have exactly one driver, has {n_drivers}"
                    )
                index[port] = len(index)
        if self.tap not in by_name or not isinstance(by_name[self.tap], CavityReflection):
            raise InvalidParam(f"tap {self.tap!r} must name a CavityReflection element")
        object.__setattr__(self, "index", index)


def solve_network(net: NetworkSpec, omega: float | np.ndarray) -> complex | np.ndarray:
    """Response of the tapped intracavity field to a unit-amplitude external input.

    Stacks all element input signals into x, assembles x = M(omega) x + e_in,
    solves the linear system, and applies the tap cavity's internal gain
    chi(omega) to its port signal.  A float omega returns a Python complex;
    an ndarray grid is solved as one (*omega.shape, n, n) stack with one
    batched det and one batched solve, and returns an array of omega's shape.
    Raises :class:`SingularLoop` where the loop is singular,
    |det(I - M)| < ``DEN_SINGULAR`` (see there), carrying the first such grid
    frequency.
    """
    index = net.index
    n = len(index)

    M = np.zeros((n, n, *np.shape(omega)), dtype=complex)
    smats = {name: el.s_matrix(omega) for name, el in net.elements}
    for (src, p_out), dst_port in net.wiring:
        row = index[dst_port]
        s = smats[src]
        for j in range(s.shape[1]):
            M[row, index[(src, j)]] += s[p_out, j]

    # b is one (n, 1) column per grid point, so A and b have the same ndim and
    # every numpy >= 1.23 reads it as the matrix right-hand side; a 1-d b
    # against a stacked A is a vector per point only on numpy >= 2.0.
    b = np.zeros((*np.shape(omega), n, 1), dtype=complex)
    b[..., index[net.input_port], 0] = 1.0

    A = np.eye(n, dtype=complex) - np.moveaxis(M, (0, 1), (-2, -1))
    _raise_if_singular(omega, np.linalg.det(A))
    x = np.linalg.solve(A, b)[..., 0]
    tap_gain = dict(net.elements)[net.tap].tap_gain(omega)
    # [()] turns the 0-d result of a float call into a scalar, keeping 0-d
    # arrays (and their SIMD ufunc loops) out of the scalar arithmetic.
    out = tap_gain * x[..., index[(net.tap, 0)]][()]
    return out if isinstance(out, np.ndarray) else complex(out)


# ---------------------------------------------------------------------------
# Preset networks
# ---------------------------------------------------------------------------


def single_cavity_network(cav: OptoCavityParams) -> NetworkSpec:
    """The driven cavity alone; the solver then reproduces chi(omega)."""
    return NetworkSpec(
        elements=(("sys", CavityReflection(cav)),),
        wiring=(),
        input_port=("sys", 0),
        tap="sys",
    )


def _loop_network(cav, filt, tau, feed_output):
    # feed_output selects which controller output drives the cavity:
    # port 0 (reflection side) blocks the band at -delta_f, port 1
    # (transmission side) passes only that band.
    elements = [("ctrl", FilterTwoPort(filt)), ("sys", CavityReflection(cav))]
    wiring = [(("ctrl", feed_output), ("sys", 0))]
    if tau > 0:
        elements.append(("lag", DelayLine(tau)))
        wiring += [(("sys", 0), ("lag", 0)), (("lag", 0), ("ctrl", 1))]
    else:
        wiring.append((("sys", 0), ("ctrl", 1)))
    return NetworkSpec(
        elements=tuple(elements),
        wiring=tuple(wiring),
        input_port=("ctrl", 0),
        tap="sys",
    )


def notch_network(cav: OptoCavityParams, filt: FilterCavityParams, tau: float = 0.0) -> NetworkSpec:
    """Band-blocking loop: input -> controller port 1; the reflected output
    drives the cavity; the cavity output returns into controller port 2
    (through an optional delay) and leaves through the far side."""
    return _loop_network(cav, filt, tau, feed_output=0)


def bandpass_network(cav: OptoCavityParams, filt: FilterCavityParams, tau: float = 0.0) -> NetworkSpec:
    """Band-passing loop: as the band-blocking wiring but the transmitted
    output of the controller drives the cavity."""
    return _loop_network(cav, filt, tau, feed_output=1)
