"""Independent state-space verification of the rate-equation predictions.

The full linearized quantum Langevin model (mechanics, driven cavity, and the
controller cavity where present) is assembled over quadratures

    X = (a^dag + a)/sqrt(2),   P = i (a^dag - a)/sqrt(2),   [X, P] = i,

ordered (X_m, P_m, X_c, P_c, X_f, P_f).  The optomechanical coupling enters
without a rotating-wave approximation, as the full -2 g X_c X_m interaction
(both beam-splitter and two-mode-squeezing terms), so this model does not
inherit the sideband approximations of the rate picture it checks.

Loop wiring is the zero-delay unidirectional cascade along the single vacuum
field line.  For the band-blocking loop the line visits controller port 1,
then the cavity, then controller port 2, giving the drift terms

    adot_c += -sqrt(kappa*kappa1) a_f
    adot_f += -(sqrt(kappa1*kappa2)) a_f - sqrt(kappa*kappa2) a_c

with the shared vacuum entering all three couplings coherently.  For the
band-passing loop the two optical modes face each other through the same
mirror; at zero delay that interconnection collapses exactly (pole-zero
cancellation of the loop transfer function) to one effective optical mode with

    kappa_eff = kappa*(kappa1 + kappa_loss)/(kappa + kappa2),
    delta_eff = (kappa2*delta + kappa*delta_f)/(kappa + kappa2),

which is what gets assembled.  The loop equation there forces
sqrt(kappa)*a_c + sqrt(kappa2)*a_f = 0, so the cavity field is only the part
a_c = alpha*c of the effective mode c, alpha = sqrt(kappa2/(kappa + kappa2)),
and the mechanics couples to c with g*alpha.  Vacuum diffusion is normalized
so that every optical mode relaxes to covariance I/2 at g = 0; the mechanical
bath contributes gamma_m*(n_th + 1/2) per quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import SystemConfig, Topology, loop_rates
from .errors import (
    InvalidParam,
    LyapunovResidual,
    NegativeOccupation,
    UnstableModel,
    UnsupportedDelay,
)
from .spectra import MechanicalBath, steady_phonon

#: Stability margin: every drift eigenvalue must satisfy Re < -margin*||A||_2.
STABILITY_MARGIN = 1e-12

#: Routh-Hurwitz certification shift tau: a stack row is stable without
#: ``eigvals`` when its eigenvalues all lie tau*max|a_ij| left of the axis.
CERTIFICATION_SHIFT = 1e-6

#: Accepted Lyapunov backward error: residual relative to 2||A|| ||V|| + ||D||.
LYAPUNOV_RTOL = 1e-10


def _frobenius(x: np.ndarray) -> float:
    """||x||_F with x scaled before squaring by the power of two at or below
    max|x_ij|, so that no square overflows; a power of two keeps the bits of
    ``np.linalg.norm(x)`` wherever that is finite."""
    top = float(np.abs(x).max())
    if top == 0.0:
        return 0.0
    power = math.ldexp(1.0, math.frexp(top)[1] - 1)
    return power * float(np.linalg.norm(x / power))


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """Drift A and diffusion D of d<x>/dt = A<x>, dV/dt = AV + VA^T + D."""

    drift: np.ndarray
    diffusion: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.drift, dtype=float)
        d = np.asarray(self.diffusion, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidParam("drift must be a square matrix")
        n = a.shape[0]
        if n % 2 or d.shape != (n, n):
            raise InvalidParam("diffusion must match the (even-sized) drift")
        if not np.allclose(d, d.T):
            raise InvalidParam("diffusion matrix must be symmetric")
        if np.linalg.eigvalsh(0.5 * (d + d.T)).min() < -1e-12 * max(_frobenius(d), 1.0):
            raise InvalidParam("diffusion matrix must be positive semidefinite")
        object.__setattr__(self, "drift", a)
        object.__setattr__(self, "diffusion", d)


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one Lyapunov-vs-rate-equation comparison."""

    n_oracle: float
    n_rate: float
    rel_dev: float


def _mode_block(A, k, detuning, decay):
    # adot = (i*detuning - decay/2) a  in quadratures, in rows and columns k, k+1.
    A[..., k, k] = A[..., k + 1, k + 1] = -decay / 2.0
    A[..., k, k + 1] = -detuning
    A[..., k + 1, k] = detuning


def _optics(config: SystemConfig, A: np.ndarray):
    """Fill the optical drift block A[..., 2:, 2:]; return the vacuum inputs,
    one tuple per independent vacuum of its coefficient on each optical mode,
    and the share alpha of the cavity field in the first optical mode: the
    only part of the model the topology changes."""
    cav = config.cav
    if config.topology is Topology.NOTCH:
        f = config.filt
        _mode_block(A, 2, cav.delta, cav.kappa)
        # Cascade widens the controller linewidth by the mirror-to-mirror
        # feedthrough 2*sqrt(kappa1*kappa2) and couples the optical modes
        # one-way in each direction with distinct rates.
        _mode_block(A, 4, f.delta_f, f.kappa_total + 2.0 * np.sqrt(f.kappa1 * f.kappa2))
        A[..., 2, 4] = A[..., 3, 5] = -np.sqrt(cav.kappa * f.kappa1)
        A[..., 4, 2] = A[..., 5, 3] = -np.sqrt(cav.kappa * f.kappa2)
        # One shared vacuum drives cavity and controller coherently; the loss
        # port brings its own independent vacuum.
        shared = (-np.sqrt(cav.kappa), -(np.sqrt(f.kappa1) + np.sqrt(f.kappa2)))
        return (shared, (0.0, -np.sqrt(f.kappa_loss))), 1.0
    alpha = 1.0
    if config.topology is Topology.BANDPASS:
        f = config.filt
        kappa_eff = cav.kappa * (f.kappa1 + f.kappa_loss) / (cav.kappa + f.kappa2)
        delta_eff = (f.kappa2 * cav.delta + cav.kappa * f.delta_f) / (cav.kappa + f.kappa2)
        alpha = np.sqrt(f.kappa2 / (cav.kappa + f.kappa2))
    else:
        kappa_eff, delta_eff = cav.kappa, cav.delta
    _mode_block(A, 2, delta_eff, kappa_eff)
    return ((-np.sqrt(kappa_eff),),), alpha


def _assemble(config: SystemConfig, bath: MechanicalBath):
    # Drift and optical vacuum inputs from one _optics call; see drift_matrix.
    # A bare cavity has no loop, so a delay enters nothing.
    if config.delay > 0 and config.topology is not Topology.NONE:
        raise UnsupportedDelay("state-space oracle supports zero loop delay only")
    cav = config.cav
    # One drift per value of the fields that hold ndarrays.
    fields = [*vars(cav).values(), *(vars(config.filt).values() if config.filt else ())]
    n = 6 if config.topology is Topology.NOTCH else 4
    A = np.zeros((*np.broadcast(*fields).shape, n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        _mode_block(A, 0, -cav.omega_m, bath.gamma_m)
        inputs, alpha = _optics(config, A)
        # The full -2g X_c X_m interaction, beam-splitter and squeezing terms alike.
        A[..., 1, 2] += 2.0 * cav.g * alpha
        A[..., 3, 0] += 2.0 * cav.g * alpha
    # The band-passing loop's effective rate and detuning are products of the
    # inputs, which can overflow where every input is finite.
    if not np.isfinite(A).all():
        raise InvalidParam(
            "the state-space drift is not finite: a product of the loop's rates "
            "or detunings overflows"
        )
    return A, inputs


def drift_matrix(config: SystemConfig, bath: MechanicalBath) -> np.ndarray:
    """Drift A of the configured loop at zero delay: the one assembly of the
    mechanics block, the optics and the -2 g X_c X_m coupling (g*alpha to
    the band-passing loop's effective mode).

    A config whose fields hold ndarrays of one shape gives the stack of its
    drifts, (*shape, n, n), with the bits of each row's float config.
    Raises :class:`UnsupportedDelay` for config.delay > 0 on a notch or
    band-pass loop: a delay line is infinite-dimensional and has no exact
    realization here.  A bare cavity has no loop for the delay to enter, so
    its drift is the same at any delay.
    """
    return _assemble(config, bath)[0]


def build_state_space(config: SystemConfig, bath: MechanicalBath) -> StateSpaceModel:
    """Drift (:func:`drift_matrix`) plus vacuum and thermal diffusion of the
    configured loop, validated as a :class:`StateSpaceModel`."""
    A, inputs = _assemble(config, bath)
    n = A.shape[0]
    D = np.zeros((n, n))
    eye = np.eye(2)
    for coefficients in inputs:
        b = np.vstack([c * eye for c in coefficients])
        D[2:, 2:] += 0.5 * b @ b.T
    b_mech = -math.sqrt(bath.gamma_m) * np.eye(2)
    D[0:2, 0:2] = (bath.n_th + 0.5) * b_mech @ b_mech.T

    return StateSpaceModel(drift=A, diffusion=D)


def _certified_stable(drift: np.ndarray) -> np.ndarray:
    # Rows of a stack (k, n, n) that B + tau*I Hurwitz proves stable; see
    # is_hurwitz.
    k, n = drift.shape[0], drift.shape[-1]
    scale = np.abs(drift).reshape(k, n * n).max(axis=-1, initial=0.0)
    rows = np.isfinite(scale) & (scale > 0)
    # A power of two scales exactly: B = A / 2^e has max|b_ij| in [1/2, 1).
    b = np.ldexp(drift[rows], -np.frexp(scale[rows])[1][:, None, None])
    # Power sums p_k = tr(B^k) from B, ..., B^h, h = ceil(n/2): the traces,
    # then tr(B^h B^j) = sum(B^h o (B^j)^T) for j = 1, ..., n - h.
    powers = [b]
    while 2 * len(powers) < n:
        powers.append(powers[-1] @ b)
    sums = np.array(
        [np.einsum("kii->k", p) for p in powers]
        + [np.einsum("kij,kji->k", powers[-1], p) for p in powers[: n - len(powers)]]
    )
    # Newton's identities: det(xI - B) = sum_k c_k x^(n-k), c_0 = 1.
    c = np.ones((n + 1, b.shape[0]))
    for j in range(1, n + 1):
        c[j] = np.einsum("ik,ik->k", c[j - 1 :: -1], sums[:j]) / -j
    # Taylor shift to p(x - tau), the polynomial of B + tau*I: n(n+1)/2
    # multiply-adds.
    for i in range(n):
        for j in range(1, n - i + 1):
            c[j] -= CERTIFICATION_SHIFT * c[j - 1]
    # Routh array: the polynomial is Hurwitz iff the first column of its
    # Routh array is positive; an entry that is not finite proves nothing.
    hurwitz = np.ones(b.shape[0], dtype=bool)
    upper, lower = list(c[0::2]), list(c[1::2])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(n):
            hurwitz &= (lower[0] > 0) & (lower[0] < np.inf)
            ratio = upper[0] / lower[0]
            upper, lower = lower, [u - ratio * v for u, v in zip(upper[1:], lower[1:] + [0.0])]
    stable = np.zeros(k, dtype=bool)
    stable[rows] = hurwitz
    return stable


def is_hurwitz(drift: np.ndarray) -> np.ndarray:
    """Strict Hurwitz test over a stack of drift matrices (..., n, n): one flag
    per matrix, True when every eigenvalue has Re < -STABILITY_MARGIN*||A||_2.

    This is the one stability rule.  One ``eigvals`` call gives each matrix
    its largest real part w.  The bounds M <= ||A||_2 <= n*M, M = max|a_ij|
    (Golub & Van Loan, Matrix Computations, 2.3), each widened twofold so
    that the rounding of a computed ||A||_2 cannot matter, settle
    w < -m*2n*M (stable) and w >= -m*M/2 (unstable), m = STABILITY_MARGIN,
    without a norm; only the matrices in between take ||A||_2, one SVD each.

    A stack first passes a Routh-Hurwitz certification (Gantmacher, The
    Theory of Matrices, vol. 2, ch. XV), which needs no eigen-decomposition.
    With B = A/2^e, 2^(e-1) <= M < 2^e, the characteristic polynomial of B
    comes from the power sums tr(B^k) by Newton's identities, and a Taylor
    shift gives that of B + tau*I, tau = CERTIFICATION_SHIFT.  If its Routh
    array proves it Hurwitz, w < -tau*2^e < -tau*M, far below the rule's
    band: tau exceeds m*2n some 10^4-10^6 times.  Coefficient rounding moves
    a simple root by far less than tau*M.  It spreads a cluster of m roots
    by about (1e-16)^(1/m)*M, which exceeds tau*M for m >= 3, but keeps the
    cluster's mean: some root of the spread cluster lies at or right of the
    mean, so a cluster at or right of the axis never looks stable.  The same
    spread can make a stable cluster look unstable, so instability is not
    certified.  Only the rows left open (not certified, not finite, or all
    zero) reach ``eigvals`` and the rule.  A single 2-D drift skips the
    certification, which costs more than the rule for one matrix.  At a
    defective cluster of three or more eigenvalues within about 1e-5*M of
    the axis, ``eigvals`` itself moves the roots past the axis, and a
    certified stable row can be one that a 2-D call calls unstable.
    """
    drift = np.asarray(drift)
    if drift.ndim == 2:
        return _margin_rule(drift)
    n = drift.shape[-1]
    flat = drift.reshape(-1, n, n)
    stable = _certified_stable(flat)
    open_rows = ~stable
    if open_rows.any():
        stable[open_rows] = _margin_rule(flat[open_rows])
    return stable.reshape(drift.shape[:-2])


def _margin_rule(drift: np.ndarray) -> np.ndarray:
    # The rule of is_hurwitz itself, from eigvals and max|a_ij| bounds.
    n = drift.shape[-1]
    w = np.asarray(np.linalg.eigvals(drift).real.max(axis=-1))
    scale = np.abs(drift).max(axis=(-2, -1))
    stable = np.asarray(w < -(STABILITY_MARGIN * 2 * n) * scale)
    band = ~stable & (w < -(STABILITY_MARGIN / 2) * scale)
    if band.any():
        margin = STABILITY_MARGIN * np.linalg.norm(drift[band], 2, axis=(-2, -1))
        stable[band] = w[band] < -margin
    return stable


def is_stable(m: StateSpaceModel) -> bool:
    """:func:`is_hurwitz` of one model's drift."""
    return bool(is_hurwitz(m.drift))


def steady_covariance(m: StateSpaceModel) -> np.ndarray:
    """Solve A V + V A^T + D = 0 by the dense vectorized linear system.

    Sizes here never exceed 8x8, so the Kronecker solve is exact enough and
    needs no tuning.  The solve is accepted when its normwise backward error
    is small: residual <= ``LYAPUNOV_RTOL``*(2||A|| ||V|| + ||D||), which
    scales with the solution, so the huge covariance of a weakly damped,
    strongly driven loop passes when it is accurate.  Raises
    :class:`LyapunovResidual` otherwise.
    """
    if not is_stable(m):
        raise UnstableModel("drift is not Hurwitz; no stationary covariance")
    A, D = m.drift, m.diffusion
    n = A.shape[0]
    eye = np.eye(n)
    K = eye[:, None, :, None] * A[None, :, None, :] + A[:, None, :, None] * eye[None, :, None, :]
    v = np.linalg.solve(K.reshape(n * n, n * n), -D.flatten(order="F"))  # kron(I,A)+kron(A,I)
    V = v.reshape((n, n), order="F")
    V = 0.5 * (V + V.T)
    residual = _frobenius(A @ V + V @ A.T + D)
    scale = 2.0 * _frobenius(A) * _frobenius(V) + _frobenius(D)
    if residual > LYAPUNOV_RTOL * scale:
        raise LyapunovResidual(
            f"Lyapunov residual {residual:.3e} exceeds {LYAPUNOV_RTOL:g}*{scale:.3e}; "
            "ill-conditioned drift?"
        )
    return V


def phonon_number(V: np.ndarray) -> float:
    """Mechanical occupation (V_XX + V_PP - 1)/2 of a covariance matrix; the
    mechanics is the first mode block (X_m, P_m) of the quadrature order."""
    n = 0.5 * (V[0, 0] + V[1, 1] - 1.0)
    if n < -1e-9:
        raise NegativeOccupation(
            f"phonon number {n!r} < -1e-9; covariance or convention is broken"
        )
    return max(n, 0.0)


def heisenberg_defect(V: np.ndarray) -> float:
    """Most negative eigenvalue of V + (i/2)*Omega; >= -tol for physical states.

    Omega is the symplectic form: [[0, 1], [-1, 0]] per mode in (X, P) order.
    """
    omega = np.kron(np.eye(V.shape[0] // 2), [[0.0, 1.0], [-1.0, 0.0]])
    H = V + 0.5j * omega
    return float(np.linalg.eigvalsh(H).min())


def consistency_check(config: SystemConfig, bath: MechanicalBath) -> OracleReport:
    """Compare the Lyapunov phonon number against the rate-equation prediction.

    The report carries the relative deviation ``rel_dev``; the caller judges
    it.  A small deviation (a few percent) is expected only in the
    weak-coupling regime (g <= kappa/100 or so), where the rate picture holds.
    Raises :class:`UnstableModel` when the closed loop has no stationary
    state.
    """
    V = steady_covariance(build_state_space(config, bath))
    n_oracle = phonon_number(V)
    n_rate = steady_phonon(loop_rates(config), bath)
    rel_dev = abs(n_oracle - n_rate) / max(n_rate, 1e-12)
    return OracleReport(n_oracle=n_oracle, n_rate=n_rate, rel_dev=rel_dev)
