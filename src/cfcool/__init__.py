"""Coherent-feedback loop shaping for cavity optomechanical cooling.

Frequency-domain loop transfer functions (``netalg``), shaped radiation-
pressure spectra and sideband rates (``spectra``), controller design helpers
(``design``), an independent Lyapunov state-space cross-check (``oracle``),
and a deterministic data-emitting CLI (``cli``).
"""

__version__ = "0.1.0"

from .design import (
    SweepTable,
    SystemConfig,
    Topology,
    argmax_detuning_numeric,
    bandpass_ground_state_feasible,
    closed_loop_response,
    make_bandpass,
    make_notch,
    optimal_detuning,
    sweep,
)
from .errors import (
    BracketError,
    CfcoolError,
    ConfigError,
    InvalidParam,
    LyapunovResidual,
    NegativeOccupation,
    NoNetCooling,
    SingularLoop,
    UnitError,
    UnstableModel,
    UnsupportedDelay,
)
from .netalg import (
    DELAY_PHASE_SIGN,
    FilterCavityParams,
    NetworkSpec,
    OptoCavityParams,
    chi,
    closed_form_bandpass,
    closed_form_notch,
    delay_response,
    reflection_sys,
    scattering,
    solve_network,
)
from .oracle import (
    OracleReport,
    StateSpaceModel,
    build_state_space,
    consistency_check,
    drift_matrix,
    heisenberg_defect,
    is_hurwitz,
    is_stable,
    phonon_number,
    steady_covariance,
)
from .spectra import (
    MechanicalBath,
    RateResult,
    Spectrum,
    rate_spectrum,
    scattering_rates,
    steady_phonon,
)

__all__ = [name for name in dir() if not name.startswith("_")]
