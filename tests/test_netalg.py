"""Element responses, closed forms, and the interconnection solver."""

import math

import numpy as np
import pytest

from cfcool import (
    ClosedFormInapplicable,
    DELAY_PHASE_SIGN,
    FilterCavityParams,
    InvalidParam,
    NetworkSpec,
    OptoCavityParams,
    SingularLoop,
    bandpass_network,
    chi,
    closed_form_bandpass,
    closed_form_notch,
    delay_response,
    notch_network,
    reflection_sys,
    scattering,
    single_cavity_network,
    solve_network,
)
from cfcool.netalg import CavityReflection, FilterTwoPort

CAV = OptoCavityParams(kappa=10.0, delta=-1.0, g=0.1, omega_m=1.0)
FILT = FilterCavityParams.symmetric(kappa_f=1.0, delta_f=1.0)
FILT_BP = FilterCavityParams.symmetric(kappa_f=1.0, delta_f=-1.0)


def rel_err(a, b):
    m = max(abs(a), abs(b))
    return abs(a - b) / m if m > 0 else 0.0


class TestParams:
    def test_validation(self):
        with pytest.raises(InvalidParam):
            OptoCavityParams(kappa=0.0, delta=0.0, g=0.1, omega_m=1.0)
        with pytest.raises(InvalidParam):
            OptoCavityParams(kappa=1.0, delta=0.0, g=-0.1, omega_m=1.0)
        with pytest.raises(InvalidParam):
            OptoCavityParams(kappa=1.0, delta=0.0, g=0.1, omega_m=0.0)
        with pytest.raises(InvalidParam):
            FilterCavityParams(kappa1=0.0, kappa2=0.0, kappa_loss=1.0, delta_f=0.0)
        with pytest.raises(InvalidParam):
            FilterCavityParams(kappa1=-1.0, kappa2=2.0, delta_f=0.0)

    def test_sideband_resolution_classifier(self):
        assert not CAV.is_sideband_resolved  # kappa = 10 > omega_m = 1
        assert OptoCavityParams(0.1, -1.0, 0.1, 1.0).is_sideband_resolved

    def test_symmetric_ideal_predicate(self):
        assert FILT.is_symmetric_ideal
        assert FILT.kappa_f == 1.0
        lossy = FilterCavityParams(1.0, 1.0, kappa_loss=0.1, delta_f=1.0)
        assert not lossy.is_symmetric_ideal
        with pytest.raises(InvalidParam):
            _ = lossy.kappa_f


class TestChi:
    def test_lorentzian_peak_values(self):
        # kappa=10, delta=-1: |chi|^2 = 10/((delta+omega)^2 + 25)
        assert rel_err(abs(chi(CAV, 1.0)) ** 2, 0.4) < 1e-15
        assert rel_err(abs(chi(CAV, -1.0)) ** 2, 10.0 / 29.0) < 1e-15

    def test_on_resonance_real_value(self):
        c = chi(OptoCavityParams(10.0, 0.0, 0.1, 1.0), 0.0)
        assert abs(c.imag) == 0.0
        assert rel_err(c.real, -math.sqrt(10.0) / 5.0) < 1e-15
        assert rel_err(abs(c) ** 2, 4.0 / 10.0) < 1e-15

    def test_symmetry_point(self):
        # omega = delta mirrors omega = -delta through the Lorentzian centre
        assert rel_err(abs(chi(CAV, -1.0)) ** 2, 10.0 / (0.0 + 25.0 + 4.0)) < 1e-15


class TestReflectionSys:
    def test_on_resonance_phase_flip(self):
        assert abs(reflection_sys(CAV, 1.0) - (-1.0)) < 1e-15

    def test_far_detuned_transparent(self):
        assert abs(reflection_sys(CAV, 1e9) - 1.0) < 1e-6

    def test_unit_modulus_everywhere(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            cav = OptoCavityParams(
                kappa=rng.uniform(0.1, 100.0),
                delta=rng.uniform(-20.0, 20.0),
                g=0.1,
                omega_m=1.0,
            )
            w = rng.uniform(-50.0, 50.0)
            assert abs(abs(reflection_sys(cav, w)) - 1.0) <= 1e-12


class TestDelay:
    def test_zero_delay_identity(self):
        for w in (-3.0, 0.0, 7.5):
            assert delay_response(0.0, w) == 1.0

    def test_half_period_phase_flip(self):
        w0 = 2.0
        assert abs(delay_response(math.pi / w0, w0) - (-1.0)) < 1e-12

    def test_unit_modulus_and_sign(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            tau, w = rng.uniform(0.0, 10.0), rng.uniform(-20.0, 20.0)
            z = delay_response(tau, w)
            assert abs(abs(z) - 1.0) < 1e-12
        z = delay_response(0.25, 1.0)
        assert math.copysign(1.0, z.imag) == DELAY_PHASE_SIGN

    def test_negative_delay_rejected(self):
        with pytest.raises(InvalidParam):
            delay_response(-1.0, 1.0)


class TestScattering:
    def test_reflection_zero_on_filter_resonance(self):
        s = scattering(FILT, -1.0)  # omega + delta_f = 0
        assert s[0, 0] == 0.0
        assert abs(abs(s[0, 1]) - 1.0) < 1e-15

    def test_far_detuned_full_reflection(self):
        s = scattering(FilterCavityParams.symmetric(1.0, 0.0), 1e8)
        assert abs(abs(s[0, 0]) ** 2 - 1.0) < 1e-8
        assert abs(s[0, 1]) ** 2 < 1e-8

    def test_generalized_asymmetric_values(self):
        s = scattering(FilterCavityParams(1.0, 2.0, 0.0, 0.0), 0.0)
        assert rel_err(s[0, 0].real, 1.0 / 3.0) < 1e-15
        assert abs(s[0, 0].imag) == 0.0
        assert rel_err(s[0, 1].real, -math.sqrt(2.0) / 1.5) < 1e-15
        assert s[0, 1] == s[1, 0]

    def test_unitarity_symmetric_ideal(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            f = FilterCavityParams.symmetric(rng.uniform(0.01, 100.0), rng.uniform(-20.0, 20.0))
            s = scattering(f, rng.uniform(-50.0, 50.0))
            assert abs(abs(s[0, 0]) ** 2 + abs(s[0, 1]) ** 2 - 1.0) <= 1e-12

    def test_loss_breaks_unitarity_strictly(self):
        f = FilterCavityParams(1.0, 1.0, kappa_loss=0.3, delta_f=0.5)
        for w in np.linspace(-10.0, 10.0, 41):
            s = scattering(f, w)
            assert abs(s[0, 0]) ** 2 + abs(s[0, 1]) ** 2 < 1.0

    def test_half_reflection_at_linewidth_offsets(self):
        # |R|^2 = x^2/(x^2 + kappa_f^2) = 1/2 at x = +-kappa_f
        for kf in (0.25, 1.0, 7.0):
            f = FilterCavityParams.symmetric(kf, 0.7)
            for sign in (+1.0, -1.0):
                s = scattering(f, sign * kf - 0.7)
                assert abs(abs(s[0, 0]) ** 2 - 0.5) < 1e-15


class TestClosedForms:
    def test_notch_zero_at_stokes_sideband(self):
        assert closed_form_notch(CAV, FILT, -1.0) == 0.0

    def test_notch_anti_stokes_unchanged(self):
        # |chi_n(+omega_m)|^2 = 4/kappa at delta = -omega_m
        assert rel_err(abs(closed_form_notch(CAV, FILT, 1.0)) ** 2, 0.4) < 1e-12

    def test_notch_zero_tracks_filter_detuning(self):
        for df in (-2.0, 0.3, 4.0):
            f = FilterCavityParams.symmetric(0.7, df)
            assert closed_form_notch(CAV, f, -df) == 0.0

    def test_bandpass_anti_stokes_unchanged(self):
        assert rel_err(abs(closed_form_bandpass(CAV, FILT_BP, 1.0)) ** 2, 0.4) < 1e-12

    def test_bandpass_stokes_partial_suppression(self):
        # kappa/((kappa/2)^2 + 4*(kappa/kappa_f + 1)^2) = 10/509
        got = abs(closed_form_bandpass(CAV, FILT_BP, -1.0)) ** 2
        assert rel_err(got, 10.0 / 509.0) < 1e-12

    def test_bandpass_wide_filter_recovers_uncontrolled(self):
        f = FilterCavityParams.symmetric(1e6, -1.0)
        got = abs(closed_form_bandpass(CAV, f, -1.0)) ** 2
        assert rel_err(got, 10.0 / 29.0) < 1e-4

    def test_inapplicable_for_asymmetric_or_lossy(self):
        asym = FilterCavityParams(1.0, 1.2, 0.0, 1.0)
        lossy = FilterCavityParams(1.0, 1.0, 0.1, 1.0)
        for f in (asym, lossy):
            with pytest.raises(ClosedFormInapplicable):
                closed_form_notch(CAV, f, 0.3)
            with pytest.raises(ClosedFormInapplicable):
                closed_form_bandpass(CAV, f, 0.3)

    def test_singular_loop_detected(self):
        # Blue-detuned cavity with delta == delta_f puts the loop on resonance
        # at omega = -delta_f: the return phase hits +1 exactly.
        blue = OptoCavityParams(10.0, +1.0, 0.1, 1.0)
        with pytest.raises(SingularLoop) as exc:
            closed_form_notch(blue, FILT, -1.0)
        assert exc.value.omega == -1.0


class TestSolver:
    def test_trivial_network_equals_chi(self):
        net = single_cavity_network(CAV)
        for w in (-2.3, 0.0, 1.0, 17.0):
            assert rel_err(solve_network(net, w), chi(CAV, w)) < 1e-14

    def test_notch_preset_matches_closed_form(self):
        net = notch_network(CAV, FILT)
        for w in (0.3, -1.0, 2.2):
            assert rel_err(solve_network(net, w), closed_form_notch(CAV, FILT, w)) <= 1e-10

    def test_bandpass_preset_matches_closed_form(self):
        net = bandpass_network(CAV, FILT_BP)
        for w in (1.0, -1.0, 0.45):
            assert rel_err(solve_network(net, w), closed_form_bandpass(CAV, FILT_BP, w)) <= 1e-10

    def test_wide_filter_limit_consistency(self):
        f = FilterCavityParams.symmetric(1e6, 1.0)
        got = solve_network(notch_network(CAV, f), 0.5)
        assert rel_err(got, closed_form_notch(CAV, f, 0.5)) <= 1e-10

    def test_random_draw_equivalence(self):
        rng = np.random.default_rng(42)
        singular = 0
        for _ in range(200):
            cav = OptoCavityParams(
                kappa=rng.uniform(0.1, 100.0), delta=rng.uniform(-20.0, 20.0),
                g=0.1, omega_m=1.0,
            )
            f = FilterCavityParams.symmetric(rng.uniform(0.01, 100.0), rng.uniform(-20.0, 20.0))
            w = rng.uniform(-50.0, 50.0)
            for build, form in (
                (notch_network, closed_form_notch),
                (bandpass_network, closed_form_bandpass),
            ):
                try:
                    got = solve_network(build(cav, f), w)
                    ref = form(cav, f, w)
                except SingularLoop:
                    singular += 1
                    continue
                assert rel_err(got, ref) <= 1e-10
        assert singular == 0

    def test_solver_reports_singular_frequency(self):
        blue = OptoCavityParams(10.0, +1.0, 0.1, 1.0)
        with pytest.raises(SingularLoop) as exc:
            solve_network(notch_network(blue, FILT), -1.0)
        assert exc.value.omega == -1.0

    def test_near_singular_point_finite_on_both_paths(self):
        # |den| ~ 2e-13 sits above DEN_SINGULAR: both paths return a value,
        # because the solver thresholds det(I - M), which is that denominator.
        blue = OptoCavityParams(1.0, +1.0, 0.1, 1.0)
        f = FilterCavityParams.symmetric(1.0, 1.0)
        w = -1.0 + 4e-14
        den = abs(1.0 - reflection_sys(blue, w) * scattering(f, w)[0, 1])
        assert 1.5e-13 < den < 2.5e-13
        closed = closed_form_notch(blue, f, w)
        assert abs(abs(closed) - 0.4) < 1e-12
        assert rel_err(solve_network(notch_network(blue, f), w), closed) <= 1e-14 / den

    def test_loop_delay_changes_response(self):
        base = abs(solve_network(notch_network(CAV, FILT, tau=0.0), 0.5))
        lagged = abs(solve_network(notch_network(CAV, FILT, tau=1.0), 0.5))
        assert abs(base - lagged) > 1e-6

    def test_asymmetric_filter_supported_by_solver(self):
        asym = FilterCavityParams(1.0, 1.2, 0.0, 1.0)
        got = solve_network(notch_network(CAV, asym), -1.0)
        assert abs(got) > 0.0  # imbalance leaks the blocked sideband


class TestNetworkValidation:
    def test_duplicate_drive_rejected(self):
        with pytest.raises(InvalidParam):
            NetworkSpec(
                elements=(("ctrl", FilterTwoPort(FILT)), ("sys", CavityReflection(CAV))),
                wiring=(
                    (("ctrl", 0), ("sys", 0)),
                    (("ctrl", 1), ("sys", 0)),
                    (("sys", 0), ("ctrl", 1)),
                ),
                input_port=("ctrl", 0),
                tap="sys",
            )

    def test_undriven_port_rejected(self):
        with pytest.raises(InvalidParam):
            NetworkSpec(
                elements=(("ctrl", FilterTwoPort(FILT)), ("sys", CavityReflection(CAV))),
                wiring=((("ctrl", 0), ("sys", 0)),),
                input_port=("ctrl", 0),
                tap="sys",
            )

    def test_tap_must_be_cavity(self):
        with pytest.raises(InvalidParam):
            NetworkSpec(
                elements=(("sys", CavityReflection(CAV)),),
                wiring=(),
                input_port=("sys", 0),
                tap="nope",
            )


@pytest.mark.xfail(
    strict=True,
    reason="at the optimal detuning the loop's auxiliary resonance tops the "
    "anti-Stokes peak for kappa_f below roughly 2*omega_m, so the shaped "
    "response exceeds the anti-Stokes bound on part of this grid",
)
def test_loop_gain_bounded_by_enhanced_anti_stokes_value():
    from cfcool import closed_loop_response, make_notch, optimal_detuning

    for kf in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
        dc = optimal_detuning(1.0, 10.0, kf)
        cfg = make_notch(10.0, 1.0, 0.1, kf, delta_override=dc)
        chi_cl = closed_loop_response(cfg)
        bound = 4.0 / 10.0 * (1.0 + kf**2) * 1.01
        for w in np.linspace(-3.0, 3.0, 601):
            assert abs(chi_cl(w)) ** 2 <= bound
