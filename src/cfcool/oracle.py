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

which is what gets assembled.  Vacuum diffusion is normalized so that every
optical mode relaxes to covariance I/2 at g = 0; the mechanical bath
contributes gamma_m*(n_th + 1/2) per quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import SystemConfig, Topology, closed_loop_response
from .errors import (
    InvalidParam,
    NegativeOccupation,
    UnstableModel,
    UnsupportedDelay,
)
from .spectra import MechanicalBath, scattering_rates, steady_phonon

#: Stability margin: every drift eigenvalue must satisfy Re < -margin*||A||.
STABILITY_MARGIN = 1e-12

#: Accepted Lyapunov residual, relative to ||D||.
LYAPUNOV_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """Drift A and diffusion D of d<x>/dt = A<x>, dV/dt = AV + VA^T + D."""

    drift: np.ndarray
    diffusion: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        a = np.asarray(self.drift, dtype=float)
        d = np.asarray(self.diffusion, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidParam("drift must be a square matrix")
        n = a.shape[0]
        if n % 2 or d.shape != (n, n):
            raise InvalidParam("diffusion must match the (even-sized) drift")
        if len(self.labels) != n:
            raise InvalidParam("one label per quadrature required")
        if not np.allclose(d, d.T):
            raise InvalidParam("diffusion matrix must be symmetric")
        if np.linalg.eigvalsh(0.5 * (d + d.T)).min() < -1e-12 * max(np.linalg.norm(d), 1.0):
            raise InvalidParam("diffusion matrix must be positive semidefinite")
        object.__setattr__(self, "drift", a)
        object.__setattr__(self, "diffusion", d)


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one Lyapunov-vs-rate-equation comparison."""

    stable: bool
    n_oracle: float
    n_rate: float
    rel_dev: float
    within_tol: bool


def _mode_block(detuning: float, decay: float) -> np.ndarray:
    # adot = (i*detuning - decay/2) a  in quadratures.
    return np.array([[-decay / 2.0, -detuning], [detuning, -decay / 2.0]])


def build_state_space(config: SystemConfig, bath: MechanicalBath) -> StateSpaceModel:
    """Assemble drift and diffusion for the configured loop at zero delay.

    Raises :class:`UnsupportedDelay` for config.delay > 0: a delay line is
    infinite-dimensional and has no exact realization here.
    """
    if config.delay > 0:
        raise UnsupportedDelay("state-space oracle supports zero loop delay only")
    cav = config.cav
    two_g = 2.0 * cav.g

    if config.topology is Topology.NOTCH:
        f = config.filt
        n = 6
        labels = ("X_m", "P_m", "X_c", "P_c", "X_f", "P_f")
        A = np.zeros((n, n))
        A[0:2, 0:2] = _mode_block(-cav.omega_m, bath.gamma_m)
        A[2:4, 2:4] = _mode_block(cav.delta, cav.kappa)
        # Cascade widens the controller linewidth by the mirror-to-mirror
        # feedthrough 2*sqrt(kappa1*kappa2) and couples the optical modes
        # one-way in each direction with distinct rates.
        A[4:6, 4:6] = _mode_block(f.delta_f, f.kappa_total + 2.0 * math.sqrt(f.kappa1 * f.kappa2))
        A[2:4, 4:6] += -math.sqrt(cav.kappa * f.kappa1) * np.eye(2)
        A[4:6, 2:4] += -math.sqrt(cav.kappa * f.kappa2) * np.eye(2)
        A[1, 2] += two_g
        A[3, 0] += two_g

        # One shared vacuum drives cavity and controller coherently; the loss
        # port brings its own independent vacuum.
        b_main = np.zeros((n, 2))
        b_main[2:4, :] = -math.sqrt(cav.kappa) * np.eye(2)
        b_main[4:6, :] = -(math.sqrt(f.kappa1) + math.sqrt(f.kappa2)) * np.eye(2)
        D = 0.5 * b_main @ b_main.T
        if f.kappa_loss > 0:
            b_loss = np.zeros((n, 2))
            b_loss[4:6, :] = -math.sqrt(f.kappa_loss) * np.eye(2)
            D += 0.5 * b_loss @ b_loss.T
    else:
        n = 4
        labels = ("X_m", "P_m", "X_c", "P_c")
        if config.topology is Topology.BANDPASS:
            f = config.filt
            kappa_eff = cav.kappa * (f.kappa1 + f.kappa_loss) / (cav.kappa + f.kappa2)
            delta_eff = (f.kappa2 * cav.delta + cav.kappa * f.delta_f) / (cav.kappa + f.kappa2)
        else:
            kappa_eff, delta_eff = cav.kappa, cav.delta
        A = np.zeros((n, n))
        A[0:2, 0:2] = _mode_block(-cav.omega_m, bath.gamma_m)
        A[2:4, 2:4] = _mode_block(delta_eff, kappa_eff)
        A[1, 2] += two_g
        A[3, 0] += two_g
        b_main = np.zeros((n, 2))
        b_main[2:4, :] = -math.sqrt(kappa_eff) * np.eye(2)
        D = 0.5 * b_main @ b_main.T

    b_mech = np.zeros((n, 2))
    b_mech[0:2, :] = -math.sqrt(bath.gamma_m) * np.eye(2)
    D = D + (bath.n_th + 0.5) * b_mech @ b_mech.T

    return StateSpaceModel(drift=A, diffusion=D, labels=labels)


def is_stable(m: StateSpaceModel) -> bool:
    """Strict Hurwitz test: every eigenvalue real part below -margin*||A||."""
    eigs = np.linalg.eigvals(m.drift)
    return bool(np.all(eigs.real < -STABILITY_MARGIN * np.linalg.norm(m.drift, 2)))


def steady_covariance(m: StateSpaceModel) -> np.ndarray:
    """Solve A V + V A^T + D = 0 by the dense vectorized linear system.

    Sizes here never exceed 8x8, so the Kronecker solve is exact enough and
    needs no tuning; the residual is checked against ``LYAPUNOV_RTOL``.
    """
    if not is_stable(m):
        raise UnstableModel("drift is not Hurwitz; no stationary covariance")
    A, D = m.drift, m.diffusion
    n = A.shape[0]
    eye = np.eye(n)
    K = np.kron(eye, A) + np.kron(A, eye)
    v = np.linalg.solve(K, -D.flatten(order="F"))
    V = v.reshape((n, n), order="F")
    V = 0.5 * (V + V.T)
    residual = np.linalg.norm(A @ V + V @ A.T + D)
    if residual > LYAPUNOV_RTOL * np.linalg.norm(D):
        raise ArithmeticError(
            f"Lyapunov residual {residual:.3e} exceeds tolerance; ill-conditioned drift?"
        )
    return V


def phonon_number(V: np.ndarray, mech_block_index: int = 0) -> float:
    """Occupation (V_XX + V_PP - 1)/2 of one mode block of a covariance matrix."""
    i = 2 * mech_block_index
    n = 0.5 * (V[i, i] + V[i + 1, i + 1] - 1.0)
    if n < -1e-9:
        raise NegativeOccupation(
            f"phonon number {n!r} < -1e-9; covariance or convention is broken"
        )
    return max(n, 0.0)


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal [[0, 1], [-1, 0]] per mode in (X, P) ordering."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def heisenberg_defect(V: np.ndarray) -> float:
    """Most negative eigenvalue of V + (i/2)*Omega; >= -tol for physical states."""
    n_modes = V.shape[0] // 2
    H = V + 0.5j * symplectic_form(n_modes)
    return float(np.linalg.eigvalsh(H).min())


def consistency_check(
    config: SystemConfig,
    bath: MechanicalBath,
    rel_dev_tol: float = 0.05,
) -> OracleReport:
    """Compare the Lyapunov phonon number against the rate-equation prediction.

    The default 5% gate is meaningful in the weak-coupling regime
    (g <= kappa/100 or so) where the rate picture is expected to hold; the
    caller owns the threshold.  Raises :class:`UnstableModel` when the closed
    loop has no stationary state.
    """
    if rel_dev_tol <= 0:
        raise InvalidParam(f"rel_dev_tol must be > 0, got {rel_dev_tol}")
    V = steady_covariance(build_state_space(config, bath))
    n_oracle = phonon_number(V)
    rates = scattering_rates(
        closed_loop_response(config), config.cav.g, config.cav.omega_m
    )
    n_rate = steady_phonon(rates, bath)
    rel_dev = abs(n_oracle - n_rate) / max(n_rate, 1e-12)
    return OracleReport(
        stable=True,
        n_oracle=n_oracle,
        n_rate=n_rate,
        rel_dev=rel_dev,
        within_tol=rel_dev <= rel_dev_tol,
    )
