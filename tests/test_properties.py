"""Property tests over random loops: closed forms, solver and path selection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcool import (
    ClosedFormInapplicable,
    FilterCavityParams,
    OptoCavityParams,
    SingularLoop,
    SystemConfig,
    Topology,
    closed_form_bandpass,
    closed_form_notch,
    closed_loop_response,
    make_notch,
    reflection_sys,
    scattering,
    scattering_rates,
    solve_network,
)
from cfcool.design import network_for

# Derandomized: the same examples on every run, and no deadline, because
# timing on a shared host is too noisy to gate on.
SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)

FORMS = {Topology.NOTCH: closed_form_notch, Topology.BANDPASS: closed_form_bandpass}
#: Controller entry [R, T] on each wiring's feedback path.
FEEDBACK = {Topology.NOTCH: 1, Topology.BANDPASS: 0}
LOOPS = st.sampled_from(sorted(FORMS, key=lambda t: t.value))


def rates(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def cavities():
    return st.builds(
        OptoCavityParams,
        kappa=rates(0.1, 100.0), delta=rates(-20.0, 20.0), g=rates(0.0, 1.0), omega_m=st.just(1.0),
    )


def ideal_controllers():
    return st.builds(FilterCavityParams.symmetric, kappa_f=rates(0.01, 100.0), delta_f=rates(-20.0, 20.0))


def any_controllers():
    """Symmetric or imbalanced, lossless or lossy: each case drawn often."""
    return st.builds(
        lambda k1, k2, loss, delta_f: FilterCavityParams(k1, k1 if k2 is None else k2, loss, delta_f),
        rates(0.01, 100.0),
        st.none() | rates(0.01, 100.0),
        st.just(0.0) | rates(1e-3, 10.0),
        rates(-20.0, 20.0),
    )


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
        # The closed forms threshold |den| and the solver the rcond of I - M,
        # so the two may disagree, but only right at the 1e-13 threshold.
        assert den < 1e-12
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
