"""Property tests over random loops: closed forms, solver, path selection,
controller unitarity, the physicality of the state-space oracle, the batched
stability rule and the rate floor at weak coupling."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cfcool import (
    ClosedFormInapplicable,
    FilterCavityParams,
    MechanicalBath,
    OptoCavityParams,
    SingularLoop,
    SystemConfig,
    Topology,
    build_state_space,
    closed_form_bandpass,
    closed_form_notch,
    closed_loop_response,
    consistency_check,
    drift_matrix,
    heisenberg_defect,
    is_hurwitz,
    is_stable,
    make_notch,
    optimal_detuning,
    phonon_number,
    reflection_sys,
    scattering,
    scattering_rates,
    solve_network,
    steady_covariance,
)
from cfcool.design import network_for
from cfcool.netalg import DEN_SINGULAR

# Derandomized: the same examples on every run, and no deadline, because
# timing on a shared host is too noisy to gate on.
SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)

FORMS = {Topology.NOTCH: closed_form_notch, Topology.BANDPASS: closed_form_bandpass}
#: Controller entry [R, T] on each wiring's feedback path.
FEEDBACK = {Topology.NOTCH: 1, Topology.BANDPASS: 0}
LOOPS = st.sampled_from(sorted(FORMS, key=lambda t: t.value))
TOPOLOGIES = st.sampled_from(sorted(Topology, key=lambda t: t.value))


def rates(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def cavities():
    return st.builds(
        OptoCavityParams,
        kappa=rates(0.1, 100.0), delta=rates(-20.0, 20.0), g=rates(0.0, 1.0), omega_m=st.just(1.0),
    )


def ideal_controllers():
    return st.builds(FilterCavityParams.symmetric, kappa_f=rates(0.01, 100.0), delta_f=rates(-20.0, 20.0))


def any_controllers(loss=st.just(0.0) | rates(1e-3, 10.0)):
    """Symmetric or imbalanced, lossless or lossy: each case drawn often."""
    return st.builds(
        lambda k1, k2, loss, delta_f: FilterCavityParams(k1, k1 if k2 is None else k2, loss, delta_f),
        rates(0.01, 100.0),
        st.none() | rates(0.01, 100.0),
        loss,
        rates(-20.0, 20.0),
    )


def baths():
    return st.builds(MechanicalBath, gamma_m=rates(1e-6, 0.1), n_th=rates(0.0, 1e3))


def outcome(response, omega):
    """The response value, or the SingularLoop marker."""
    try:
        return response(omega)
    except SingularLoop:
        return SingularLoop


def rel_err(a, b):
    m = max(abs(a), abs(b))
    return abs(a - b) / m if m > 0 else 0.0


@SETTINGS
@given(loop=LOOPS, cav=cavities(), filt=ideal_controllers(), omega=rates(-50.0, 50.0))
def test_solver_matches_closed_form(loop, cav, filt, omega):
    cfg = SystemConfig(cav, filt, loop)
    closed = outcome(lambda w: FORMS[loop](cav, filt, w), omega)
    solved = outcome(lambda w: solve_network(network_for(cfg), w), omega)
    den = abs(1.0 - reflection_sys(cav, omega) * scattering(filt, omega)[0, FEEDBACK[loop]])
    if (closed is SingularLoop) != (solved is SingularLoop):
        # Both paths threshold the same quantity against DEN_SINGULAR (the
        # solver computes den as det(I - M)), so their verdicts may differ
        # only where rounding straddles the threshold.
        assert abs(den - DEN_SINGULAR) <= 1e-15
    elif closed is not SingularLoop:
        # 1e-10 wherever |den| >= 1e-4; nearer a singular point the solver is
        # limited by the conditioning of I - M (measured: error*|den| < 1e-15).
        assert rel_err(solved, closed) <= max(1e-10, 1e-14 / den)


@SETTINGS
@given(
    kappa=rates(0.1, 100.0),
    omega_m=rates(0.1, 10.0),
    g=rates(0.0, 1.0),
    kappa_f=rates(0.01, 100.0),
    delta=rates(-20.0, 0.0),
)
def test_notch_stokes_rate_is_exactly_zero(kappa, omega_m, g, kappa_f, delta):
    cfg = make_notch(kappa, omega_m, g, kappa_f, delta_override=delta)
    assert scattering_rates(closed_loop_response(cfg), g, omega_m).a_plus == 0.0


@SETTINGS
@given(
    loop=LOOPS,
    cav=cavities(),
    filt=any_controllers(),
    tau=st.just(0.0) | rates(1e-3, 1.0),
    omega=rates(-50.0, 50.0),
)
def test_closed_form_chosen_exactly_for_ideal_undelayed_loops(loop, cav, filt, tau, omega):
    cfg = SystemConfig(cav, filt, loop, delay=tau)
    got = outcome(closed_loop_response(cfg), omega)
    if filt.is_symmetric_ideal and tau == 0.0:
        assert got == outcome(lambda w: FORMS[loop](cav, filt, w), omega)
        return
    assert got == outcome(lambda w: solve_network(network_for(cfg), w), omega)
    with pytest.raises(ClosedFormInapplicable):
        closed_loop_response(cfg, method="closed_form")
    if not filt.is_symmetric_ideal:
        with pytest.raises(ClosedFormInapplicable):
            FORMS[loop](cav, filt, omega)


@SETTINGS
@given(cav=cavities(), filt=any_controllers(loss=st.just(0.0)), omega=rates(-50.0, 50.0))
def test_lossless_elements_are_unitary(cav, filt, omega):
    s = scattering(filt, omega)
    for column in (0, 1):
        assert abs(abs(s[0, column]) ** 2 + abs(s[1, column]) ** 2 - 1.0) <= 1e-12
    assert abs(abs(reflection_sys(cav, omega)) - 1.0) <= 1e-12


@SETTINGS
@given(
    topology=TOPOLOGIES,
    cav=cavities(),
    filt=any_controllers(),
    bath=baths(),
)
# A resonant, barely damped loop: n ~ 4.7e5 with a backward error of 1.2e-17,
# so the Lyapunov gate must scale with ||V||, not with ||D|| alone.
@example(
    topology=Topology.BANDPASS,
    cav=OptoCavityParams(kappa=1.0, delta=0.0, g=1.0, omega_m=1.0),
    filt=FilterCavityParams.symmetric(kappa_f=1.0, delta_f=0.0),
    bath=MechanicalBath(gamma_m=1e-6, n_th=0.0),
)
def test_oracle_state_is_physical(topology, cav, filt, bath):
    model = build_state_space(SystemConfig(cav, filt, topology), bath)
    assume(is_stable(model))
    V = steady_covariance(model)
    phonon_number(V)  # raises NegativeOccupation below -1e-9
    assert heisenberg_defect(V) >= -1e-9


@SETTINGS
@given(
    topology=TOPOLOGIES,
    rows=st.lists(
        st.tuples(
            # Strong coupling and either detuning sign: many draws are unstable.
            st.builds(OptoCavityParams, kappa=rates(0.1, 100.0), delta=rates(-20.0, 20.0),
                      g=rates(0.0, 5.0), omega_m=rates(0.1, 10.0)),
            any_controllers(),
            baths(),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_batched_hurwitz_matches_per_row_oracle(topology, rows):
    configs = [(SystemConfig(cav, filt, topology), bath) for cav, filt, bath in rows]
    flags = is_hurwitz(np.stack([drift_matrix(cfg, bath) for cfg, bath in configs]))
    assert flags.tolist() == [is_stable(build_state_space(cfg, bath)) for cfg, bath in configs]


@SETTINGS
@given(
    kappa=rates(1.0, 20.0),
    kappa_f=rates(0.25, 4.0),
    g_over_kappa=rates(0.0005, 0.0025),
)
def test_rate_floor_reproduced_at_weak_coupling(kappa, kappa_f, g_over_kappa):
    # Criterion 8's bath, at the notch loop's optimal detuning.
    delta = optimal_detuning(1.0, kappa, kappa_f)
    cfg = make_notch(kappa, 1.0, g_over_kappa * kappa, kappa_f, delta_override=delta)
    assert consistency_check(cfg, MechanicalBath(gamma_m=1e-5, n_th=100.0)).rel_dev <= 0.05
