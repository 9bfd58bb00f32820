"""Frequency-domain elements and interconnection algebra for coherent-feedback
loops around a driven cavity.

Everything is evaluated at real frequencies in the rotating frame of the
drive laser, at one float omega or on a whole ndarray grid: a float call
returns a scalar, an array call an array over omega's shape, and an element's
S-matrix leads with its port axes, (n_out, n_in, *omega.shape).  A parameter
field may hold an ndarray too, one value per grid point: it broadcasts
against omega, and the result has the broadcast shape; a float omega against
such a field is an array call too.  Every array call,
the solver's included, gives each grid point the bits of the float call at
that point (see "Array kernels" below).  The frequency-domain convention is

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

from .errors import InvalidParam, SingularLoop

#: Sign s in the delay phase exp(s * 1j * omega * tau) implied by the
#: d/dt -> -i*omega convention above.  A single constant keeps every element
#: on the same Fourier convention.
DELAY_PHASE_SIGN = +1.0

#: A loop is singular where its return difference |det(I - M(omega))| falls
#: below this threshold (an algebraic loop sitting on resonance) or is NaN
#: (a NaN frequency): ``not |det| >= DEN_SINGULAR`` on both paths.  It then
#: raises :class:`SingularLoop` instead of returning a huge, meaningless gain.
#: For the preset loops det(I - M) is the closed forms' loop denominator
#: 1 - r_sys*e^{i omega tau}*S[feed, 1], so both paths apply one rule to one
#: quantity.
DEN_SINGULAR = 1e-13


def _check(accepted, value, message):
    """Raise :class:`InvalidParam` unless ``accepted`` holds at every value.

    A parameter rule is written once, as an expression that is a bool for
    float fields and a mask for ndarray fields.  ``message`` is formatted
    with ``value``, or with the first value the mask refuses, as a Python
    number.
    """
    if accepted is True:  # a float field's rule holds, the common case
        return
    if isinstance(accepted, np.ndarray):
        if accepted.all():
            return
        value = np.broadcast_to(value, accepted.shape)[~accepted][0]
    elif accepted:
        return
    if isinstance(value, (np.ndarray, np.generic)):  # a 0-d or numpy scalar field
        value = value.item()
    raise InvalidParam(message.format(value))


def _check_finite(obj, names):
    # Also sets ``has_columns`` where a field holds an ndarray, which makes
    # its finiteness test an array; a float-only object keeps the class's False.
    for name in names:
        value = getattr(obj, name)
        finite = abs(value) < math.inf
        if finite is not True:  # format a message only for a field it may refuse
            _check(finite, value, f"{type(obj).__name__}.{name} must be finite, got {{!r}}")
            if isinstance(finite, np.ndarray):
                object.__setattr__(obj, "has_columns", True)


def _all(truth) -> bool:
    # A comparison of float fields, or of ndarray fields at every value.
    return truth if isinstance(truth, bool) else bool(np.all(truth))


@dataclass(frozen=True)
class OptoCavityParams:
    """Drive-referenced one-port optomechanical cavity.

    Attributes
    ----------
    Each field is a float, or an ndarray of values (see the module docstring),
    checked at every value.

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
    #: Whether a field holds an ndarray, so that every call is an array call.
    has_columns = False

    def __post_init__(self):
        kappa, g, omega_m = self.kappa, self.g, self.omega_m
        _check_finite(self, ("kappa", "delta", "g", "omega_m"))
        _check(kappa > 0, kappa, "kappa must be > 0, got {}")
        # the cavity's response divides by kappa/2 on resonance
        _check(kappa / 2.0 != 0.0, kappa, "kappa / 2 underflows to 0 at kappa = {!r}")
        _check(omega_m > 0, omega_m, "omega_m must be > 0, got {}")
        _check(g >= 0, g, "g must be >= 0, got {}")
        # for g >= 0, g * g is finite exactly where g < 2**512
        _check(g < 2.0**512, g, "g * g must be finite, got g = {!r}")


@dataclass(frozen=True)
class FilterCavityParams:
    """Two-sided controller cavity with optional internal loss.

    ``kappa1`` and ``kappa2`` are the per-mirror coupling rates, ``kappa_loss``
    an internal loss rate, and ``delta_f = omega_L - omega_f`` the detuning of
    the controller resonance from the drive.  The symmetric lossless case
    (kappa1 == kappa2, kappa_loss == 0) is the ideal two-sided cavity with
    per-mirror rate ``kappa_f`` and total linewidth 2*kappa_f.  Like the
    cavity's, each field may hold an ndarray of values.
    """

    kappa1: float
    kappa2: float
    kappa_loss: float = 0.0
    delta_f: float = 0.0
    #: Whether a field holds an ndarray, so that every call is an array call.
    has_columns = False

    def __post_init__(self):
        k1, k2, loss = self.kappa1, self.kappa2, self.kappa_loss
        _check_finite(self, ("kappa1", "kappa2", "kappa_loss", "delta_f"))
        _check((k1 >= 0) & (k2 >= 0) & (loss >= 0), k1, "mirror and loss rates must be >= 0")
        _check((k1 > 0) | (k2 > 0), k1, "at least one mirror must couple (kappa1 + kappa2 > 0)")
        with np.errstate(over="ignore"):  # a sum of huge rates is not refused
            total = self.kappa_total
        # the controller's response divides by kappa_total/2 on resonance
        _check(total / 2.0 != 0.0, total,
               "kappa_total / 2 underflows to 0 at kappa_total = {!r}")

    @classmethod
    def symmetric(cls, kappa_f: float, delta_f: float) -> "FilterCavityParams":
        """Ideal two-sided cavity with identical mirror rates and no loss."""
        return cls(kappa1=kappa_f, kappa2=kappa_f, kappa_loss=0.0, delta_f=delta_f)

    @property
    def kappa_total(self) -> float:
        return self.kappa1 + self.kappa2 + self.kappa_loss

    @property
    def is_symmetric_ideal(self) -> bool:
        """kappa1 == kappa2 and no loss, at every value of an array field."""
        return _all(self.kappa1 == self.kappa2) and _all(self.kappa_loss == 0.0)

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
    array of omega's shape), or either against parameter columns (an array
    of the broadcast shape).

    Transfer gain from the field incident on the coupling mirror to the
    intracavity field (units rad^-1/2 s^1/2); its squared modulus is the
    Lorentzian kappa / ((delta + omega)^2 + kappa^2/4).
    """
    if isinstance(omega, np.ndarray) or cav.has_columns:
        return _complex(*_py_quot(np.sqrt(cav.kappa), *_detuned(cav.delta + omega, cav.kappa)))
    return math.sqrt(cav.kappa) / (1j * (cav.delta + omega) - cav.kappa / 2.0)


def reflection_sys(cav: OptoCavityParams, omega: float | np.ndarray) -> complex | np.ndarray:
    """Reflection off the cavity coupling mirror, 1 + sqrt(kappa)*chi(omega);
    scalar for a float omega, an array of omega's shape for an array.

    The one-port cavity is lossless, so this has unit modulus at every real
    frequency; only the phase winds through resonance.
    """
    grid = isinstance(omega, np.ndarray) or cav.has_columns
    root = np.sqrt(cav.kappa) if grid else math.sqrt(cav.kappa)
    return 1.0 + root * chi(cav, omega)


def delay_response(tau: float, omega: float | np.ndarray) -> complex | np.ndarray:
    """Phase factor of a propagation delay tau >= 0 (unit modulus); scalar for
    a float omega, an array of omega's shape for an array."""
    _check_tau(tau)
    return np.exp(DELAY_PHASE_SIGN * 1j * omega * tau)


def _check_tau(tau):
    _check((tau >= 0) & (tau < math.inf), tau, "tau must be finite and >= 0, got {!r}")


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
    input and outgoing field are not part of the 2x2 block.  An array call divides
    by d in one :func:`_controller_quot`, which a closed form calls for S[feed, 0] and S[feed, 1] only.
    """
    if isinstance(omega, np.ndarray) or f.has_columns:
        q = _complex(*_controller_quot(f, omega, f.kappa1, np.sqrt(f.kappa1 * f.kappa2), f.kappa2))
        return np.array([[1.0 + q[0], q[1]], [q[1], 1.0 + q[2]]])
    d = 1j * (omega + f.delta_f) - f.kappa_total / 2.0
    t = math.sqrt(f.kappa1 * f.kappa2) / d
    return np.array(
        [[1.0 + f.kappa1 / d, t], [t, 1.0 + f.kappa2 / d]], dtype=complex
    )


# ---------------------------------------------------------------------------
# Array kernels
#
# An array call of chi, scattering, a closed form or the solver gives, at every
# grid point, the bits of the call at that point.  A float call runs on Python
# complex and numpy complex128 scalars; the array branch repeats that
# arithmetic on float arrays of real and imaginary parts, one IEEE operation
# per ufunc call and in the scalar code's order, so neither complex SIMD loops
# nor fused multiply-adds can round differently.  A closed form reads only
# S[feed, 0] and S[feed, 1] of scattering's quotient (``_controller_quot``).
# The solver runs one code on Python floats or on such arrays, so no BLAS
# kernel decides its bits; both test |det(I - M)| by ``_regular``.  The two
# complex divisions differ: ``float / complex`` is CPython's, ``complex128 /
# complex128`` numpy's.  A field holding one value per grid row enters the
# same elementwise operations (``np.sqrt`` for ``math.sqrt``, both correctly
# rounded), so each point has the bits of its row's float call.
# ---------------------------------------------------------------------------


def _complex(re, im):
    z = np.empty(np.broadcast(re, im).shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def _detuned(x, kappa):
    # (re, im) of 1j*x - kappa/2: 1j*x is complex(0*x - 0, 0 + x).
    return 0.0 * x - kappa / 2.0, 0.0 + x


def _py_quot(a, br, bi):
    """CPython's ``a / complex(br, bi)`` for a real a, elementwise: Smith's
    method with true divisions (``_Py_c_quot``), with the terms of a.imag = 0
    written out so that even the signs of zeros match.  Returns the (re, im)
    arrays."""
    m = abs(br) >= abs(bi)
    big, small = np.where(m, br, bi), np.where(m, bi, br)
    ratio = small / big
    denom = big + small * ratio
    q, z = a * ratio, 0.0 * ratio
    re = np.where(m, a + z, q + 0.0)
    im = np.where(m, 0.0 - q, z - a)
    return re / denom, im / denom


def _controller_quot(f, omega, *numerators):
    """(re, im) of each numerator / d, d = i*(omega + delta_f) - kappa_total/2, stacked
    on a leading axis by one :func:`_py_quot`: scattering entries, reflections less 1."""
    d = _detuned(omega + f.delta_f, f.kappa_total)
    shape = np.broadcast(*numerators).shape  # aligned from the right against d's axes
    a = np.empty((len(numerators),) + (1,) * (np.broadcast(*d, *numerators).ndim - len(shape)) + shape)
    for i, x in enumerate(numerators):
        a[i] = x
    return _py_quot(a, *d)


def _regular(re, im):
    """``np.hypot(re, im) >= DEN_SINGULAR`` on floats or arrays.  hypot runs only where its
    faithful lower bound max(|re|, |im|), NaN if either is, leaves a verdict open."""
    regular = np.maximum(abs(re), abs(im)) >= DEN_SINGULAR
    return regular if regular.all() else np.hypot(re, im) >= DEN_SINGULAR


def _np_quot(ar, ai, br, bi):
    """numpy's complex128 division (ar + i*ai) / (br + i*bi), elementwise:
    Smith's method with a reciprocal scale (``CDOUBLE_divide``).  Returns the
    (re, im) arrays; the caller keeps br = bi = 0 out."""
    m = abs(br) >= abs(bi)
    big, small = np.where(m, br, bi), np.where(m, bi, br)
    p, q = np.where(m, ar, ai), np.where(m, ai, ar)
    ratio = small / big
    scale = 1.0 / (big + small * ratio)
    pr = p * ratio
    return (p + q * ratio) * scale, np.where(m, q - pr, pr - q) * scale


def _refuse_singular(omega, regular):
    # SingularLoop unless ``regular`` holds everywhere; its mask is flat, or 0-d without grid axes.
    if not regular.all():
        small = ~np.asarray(regular)
        singular = small.ravel() if small.ndim else small
        raise SingularLoop(np.broadcast_to(omega, small.shape).flat[singular.argmax()].item(), singular)


def _mul(ar, ai, br, bi):
    # (re, im) of the complex product (ar + i*ai)*(br + i*bi), as both CPython
    # and numpy form it; each sum accumulates in its first product's array.
    re = ar * br
    re -= ai * bi
    im = ar * bi
    im += ai * br
    return re, im


def abs2(z: complex | np.ndarray) -> float | np.ndarray:
    """|z|^2 as the scalar ``abs(z) ** 2`` computes it: hypot(re, im), then
    libm ``pow(|z|, 2.0)``.  An array takes one ``np.float_power`` call,
    which calls libm ``pow`` per element at every SIMD level; an array's
    ``** 2`` squares by multiplication and ``np.power`` has its own vector
    loop, and either moves the last bit of some values.  Where the scalar
    raises ``OverflowError``, an array value is inf with numpy's overflow
    warning."""
    if isinstance(z, np.ndarray):
        return np.float_power(np.hypot(z.real, z.imag), 2.0)
    return math.pow(abs(z), 2.0)


def _closed_loop(cav, f, omega, tau, feed):
    # The loop equation chi*S[feed, 0] / (1 - r_sys*e^{i omega tau}*S[feed, 1])
    # of both wirings: controller output ``feed`` drives the cavity, whose
    # output returns into controller input 1.  tau == 0 takes no phase factor.
    if isinstance(omega, np.ndarray) or cav.has_columns or f.has_columns:
        if isinstance(omega, np.ndarray) or f.has_columns:  # S[feed, feed] = 1 + kappa_feed/d
            (qr, tr), (qi, ti) = _controller_quot(
                f, omega, f.kappa2 if feed else f.kappa1, np.sqrt(f.kappa1 * f.kappa2))
            s = [(1.0 + qr, 0.0 + qi), (tr, ti)][::-1 if feed else 1]
        else:  # a float controller at a float omega, against cavity columns
            s = [(z.real, z.imag) for z in scattering(f, omega)[feed]]
        root = np.sqrt(cav.kappa)
        cr, ci = _py_quot(root, *_detuned(cav.delta + omega, cav.kappa))  # chi
        rr, ri = 1.0 + root * cr, 0.0 + root * ci  # reflection_sys
        if tau:
            e = delay_response(tau, omega)
            rr, ri = _mul(rr, ri, e.real, e.imag)
        loop_r, loop_i = _mul(rr, ri, *s[1])
        den_r, den_i = 1.0 - loop_r, 0.0 - loop_i
        _refuse_singular(omega, _regular(den_r, den_i))
        return _complex(*_np_quot(*_mul(cr, ci, *s[0]), den_r, den_i))
    s = scattering(f, omega)
    r_sys = reflection_sys(cav, omega)
    if tau:
        r_sys = r_sys * delay_response(tau, omega)
    den = 1.0 - r_sys * s[feed, 1]
    if not abs(den) >= DEN_SINGULAR:
        _refuse_singular(omega, np.False_)
    return chi(cav, omega) * s[feed, 0] / den


def closed_form_notch(
    cav: OptoCavityParams, f: FilterCavityParams, omega: float | np.ndarray, tau: float = 0.0
) -> complex | np.ndarray:
    """Loop response chi*R11 / (1 - r_sys*e^{i omega tau}*T12) of the band-blocking wiring,
    with r_sys = sqrt(kappa)*chi + 1 and a loop delay tau >= 0.

    Holds for any controller; the controller reflection feeds the cavity, so
    the response vanishes where R11 does: exactly at omega = -delta_f for a
    symmetric lossless controller.
    """
    return _closed_loop(cav, f, omega, tau, 0)


def closed_form_bandpass(
    cav: OptoCavityParams, f: FilterCavityParams, omega: float | np.ndarray, tau: float = 0.0
) -> complex | np.ndarray:
    """Loop response chi*T21 / (1 - r_sys*e^{i omega tau}*R22) of the band-passing wiring,
    with r_sys = sqrt(kappa)*chi + 1 and a loop delay tau >= 0.

    Holds for any controller; only the band transmitted by the controller
    (centred at omega = -delta_f) reaches the cavity.
    """
    return _closed_loop(cav, f, omega, tau, 1)


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

    def __post_init__(self):
        _check_tau(self.tau)

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
    edge from an element output port to an element input port.  Each input
    port has at most one driving edge, and the one input port with none is
    the external ``input_port``.  The one :class:`CavityReflection` is the
    ``tap``, whose intracavity field the solver reports.
    """

    elements: tuple[tuple[str, Element], ...]
    wiring: tuple[Edge, ...]
    input_port: Port = field(init=False, repr=False, compare=False)
    tap: str = field(init=False, repr=False, compare=False)
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

        drivers: dict[Port, Port] = {}
        for src, dst in self.wiring:
            check_port(src, is_output=True)
            check_port(dst, is_output=False)
            if dst in drivers:
                raise InvalidParam(f"input port {dst!r} is driven by {drivers[dst]!r} and {src!r}")
            drivers[dst] = src

        ports = [(name, k) for name, el in self.elements for k in range(el.n_inputs)]
        undriven = [port for port in ports if port not in drivers]
        if len(undriven) != 1:
            raise InvalidParam(f"exactly one input port must be undriven, found {undriven}")
        taps = [name for name, el in self.elements if isinstance(el, CavityReflection)]
        if len(taps) != 1:
            raise InvalidParam(f"exactly one element must be a CavityReflection, found {taps}")
        object.__setattr__(self, "input_port", undriven[0])
        object.__setattr__(self, "tap", taps[0])
        object.__setattr__(self, "index", {port: row for row, port in enumerate(ports)})


#: The (re, im) of an entry that no edge wires, where arithmetic needs a value.
_ZERO = (0.0, 0.0)


def solve_network(net: NetworkSpec, omega: float | np.ndarray) -> complex | np.ndarray:
    """Response of the tapped intracavity field to a unit-amplitude external input.

    Stacks all element input signals into x, assembles x = M(omega) x + e_in
    and solves (I - M) x = e_in by one Gaussian elimination with partial
    pivoting (:func:`_eliminate`), which also yields det(I - M).  The tap
    cavity's internal gain chi(omega) is applied to its port signal.  A float
    omega runs on Python floats and returns a Python complex; an ndarray grid,
    or a float omega against parameter columns, runs the same code on arrays
    and returns an array of the broadcast shape of omega and the columns
    whose every value has the bits of the float call at that point.  Raises
    :class:`SingularLoop` where |det(I - M)| < ``DEN_SINGULAR`` or is NaN (see
    there), carrying the first such grid point's frequency and the mask of
    every such point.  A grid solve holds only the values a later
    step reads: the elements' S-matrices are freed once I - M is assembled,
    and the elimination drops each entry after its last use.
    """
    with np.errstate(all="ignore"):  # a grid's singular points, refused below
        rows, grid = _system(net, omega)
        try:
            det, [(xr, xi)] = _eliminate(rows, net.index[(net.tap, 0)])
        except ZeroDivisionError:  # an exactly zero pivot of a float call: det is 0
            det = _ZERO
        _refuse_singular(omega, _regular(*det))
    gain = dict(net.elements)[net.tap].tap_gain(omega)
    # _mul, not a complex multiply, whose SIMD loops may fuse or reorder on a grid.
    out = _mul(gain.real, gain.imag, xr, xi)
    return _complex(*out) if grid else complex(*out)


def _system(net, omega):
    """(I - M | e_in) of ``net`` at omega, as :func:`_eliminate`'s rows, and
    whether it is a grid call: an ndarray omega, or an S-matrix with grid
    axes (a float omega against parameter columns).  Row i is the
    identity's, minus the S-matrix row of the output that drives port i; the
    input port has no driver, so its row is e_in's.  None marks an entry that
    no edge wires.  Each entry keeps its element's grid shape, which differs
    between elements for a parameter column against a shorter omega; numpy
    broadcasting resolves the shapes as the elimination combines entries.
    Every entry is a new value, so the elements' S-matrices are free once
    this returns."""
    index = net.index
    n = len(index)
    mats = {name: el.s_matrix(omega) for name, el in net.elements}
    grid = isinstance(omega, np.ndarray) or any(s.ndim > 2 for s in mats.values())
    parts = {name: (s.real, s.imag) if grid else (s.real.tolist(), s.imag.tolist())
             for name, s in mats.items()}
    rows = [[(1.0, 0.0) if j == i else None for j in range(n + 1)] for i in range(n)]
    rows[index[net.input_port]][n] = (1.0, 0.0)
    for (src, p_out), dst in net.wiring:
        row = rows[index[dst]]
        re, im = parts[src]
        for j in range(len(re[p_out])):
            col = index[(src, j)]
            ar, ai = row[col] or _ZERO
            row[col] = (ar - re[p_out][j], ai - im[p_out][j])
    return rows, grid


def _pick(mask, a, b):
    """``a`` where ``mask`` holds, else ``b``: every per-point choice of
    :func:`_eliminate`.  A float call's mask is a Python bool, so it picks
    one Python value; a grid's mask is an array, picked from elementwise."""
    if isinstance(mask, np.ndarray):
        return np.where(mask, a, b)
    return a if mask else b


def _abs1(z):
    # LAPACK's pivot size |re| + |im| (izamax).
    return abs(z[0]) + abs(z[1])


def _reciprocal(br, bi):
    # (re, im) of 1 / (br + i*bi) by Smith's method; on Python floats a zero
    # pivot raises ZeroDivisionError.
    m = abs(br) >= abs(bi)
    big, small = _pick(m, br, bi), _pick(m, bi, br)
    ratio = small / big
    denom = big + small * ratio
    return _pick(m, 1.0, ratio) / denom, _pick(m, -ratio, -1.0) / denom


def _reduce(row, upper, k, r):
    # Replace row by row - (row[k] * r) * upper, entry by entry, and drop
    # row[k]; r is the reciprocal of the pivot upper[k].
    lr, li = _mul(*row[k], *r)
    row[k] = None
    for j in range(k + 1, len(row)):
        if upper[j] is not None:
            tr, ti = _mul(lr, li, *upper[j])
            ar, ai = row[j] or _ZERO
            row[j] = (ar - tr, ai - ti)


def _eliminate(rows, t):
    """Gaussian elimination with partial pivoting on ``rows``, an n x n matrix
    followed by right-hand-side columns, whose entries are (re, im) pairs of
    floats or grid arrays, or None where structurally zero.

    Returns (re, im) of the product of the pivots, which is det up to the
    sign the row swaps give (only |det| is read), and a list with entry
    ``t`` of the solution for each right-hand-side column.  Pivots follow
    LAPACK's rule: the largest |re| + |im| in the column, the first maximum
    winning, chosen per grid point.

    ``rows`` is consumed, so that a grid solve holds only what a later step
    reads.  Step k drops the pivot, which det and its reciprocal then hold,
    and each entry it eliminates once its multiplier is formed; for k < t it
    also drops row k and its reciprocal, since back substitution reads only
    rows t..n-1.  A pivot swap or a row update makes new entries, each of
    the grid shape numpy broadcasts its operands to, and never writes into
    an array it was given; on Python floats the same statements run the
    same arithmetic.
    """
    n, width = len(rows), len(rows[0])
    det, reciprocals = None, []
    for k in range(n):
        below = [i for i in range(k + 1, n) if rows[i][k] is not None]
        p, best = k, _abs1(rows[k][k])
        for i in below:
            size = _abs1(rows[i][k])
            more = size > best
            p, best = _pick(more, i, p), _pick(more, size, best)
        for i in below:
            swap = p == i
            for j in range(k, width):
                a, b = rows[k][j], rows[i][j]
                if a is not None or b is not None:
                    (ar, ai), (br, bi) = a or _ZERO, b or _ZERO
                    rows[k][j] = (_pick(swap, br, ar), _pick(swap, bi, ai))
                    rows[i][j] = (_pick(swap, ar, br), _pick(swap, ai, bi))

        det = rows[k][k] if det is None else _mul(*det, *rows[k][k])
        reciprocals.append(_reciprocal(*rows[k][k]))
        rows[k][k] = None  # det holds the pivot from here
        for i in below:
            _reduce(rows[i], rows[k], k, reciprocals[k])
        if k < t:  # back substitution reads only rows t..n-1
            rows[k] = reciprocals[k] = None

    solutions = []
    for c in range(n, width):
        x = {}
        for j in range(n - 1, t - 1, -1):
            sr, si = rows[j][c] or _ZERO
            for m in range(j + 1, n):
                if rows[j][m] is not None:
                    tr, ti = _mul(*rows[j][m], *x[m])
                    sr, si = sr - tr, si - ti
            x[j] = _mul(sr, si, *reciprocals[j])
        solutions.append(x[t])
    return det, solutions
