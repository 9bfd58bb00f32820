"""Preset construction, optimal detuning, feasibility, and sweeps."""

import numpy as np
import pytest

from cfcool import (
    BracketError,
    FilterCavityParams,
    InvalidParam,
    MechanicalBath,
    OptoCavityParams,
    SystemConfig,
    Topology,
    argmax_detuning_numeric,
    bandpass_ground_state_feasible,
    closed_loop_response,
    make_bandpass,
    make_notch,
    optimal_detuning,
    scattering_rates,
    sweep,
)


class TestPresets:
    def test_notch_defaults(self):
        cfg = make_notch(10.0, 1.0, 0.1, 1.0)
        assert cfg.cav.delta == -1.0
        assert cfg.filt.delta_f == +1.0
        assert cfg.topology is Topology.NOTCH

    def test_notch_with_optimal_override(self):
        dc = optimal_detuning(1.0, 10.0, 1.0)
        cfg = make_notch(10.0, 1.0, 0.1, 1.0, delta_override=dc)
        assert cfg.cav.delta == -3.5
        assert cfg.filt.delta_f == +1.0  # override moves delta only

    def test_zero_coupling_is_valid(self):
        cfg = make_notch(10.0, 1.0, 0.0, 1.0)
        rates = scattering_rates(closed_loop_response(cfg), 0.0, 1.0)
        assert rates.a_plus == 0.0 and rates.a_minus == 0.0

    def test_bandpass_defaults_and_override(self):
        cfg = make_bandpass(10.0, 1.0, 0.1, 1.0)
        assert (cfg.cav.delta, cfg.filt.delta_f) == (-1.0, -1.0)
        cfg2 = make_bandpass(10.0, 1.0, 0.1, 1.0, delta_override=-2.0)
        assert cfg2.cav.delta == -2.0

    def test_bandpass_wide_filter_matches_uncontrolled(self):
        wide = make_bandpass(10.0, 1.0, 0.1, 1e6)
        bare = SystemConfig(OptoCavityParams(10.0, -1.0, 0.1, 1.0), None, Topology.NONE)
        r_wide = scattering_rates(closed_loop_response(wide), 0.1, 1.0)
        r_bare = scattering_rates(closed_loop_response(bare), 0.1, 1.0)
        assert abs(r_wide.a_plus - r_bare.a_plus) / r_bare.a_plus < 1e-4
        assert abs(r_wide.a_minus - r_bare.a_minus) / r_bare.a_minus < 1e-4

    def test_nonpositive_rates_rejected(self):
        with pytest.raises(InvalidParam):
            make_notch(0.0, 1.0, 0.1, 1.0)
        with pytest.raises(InvalidParam):
            make_bandpass(10.0, 1.0, 0.1, 0.0)

    def test_topology_requires_filter(self):
        with pytest.raises(InvalidParam):
            SystemConfig(OptoCavityParams(10.0, -1.0, 0.1, 1.0), None, Topology.NOTCH)


class TestOptimalDetuning:
    def test_reference_value(self):
        assert abs(optimal_detuning(1.0, 10.0, 1.0) - (-3.5)) < 1e-15

    def test_weak_cavity_limit(self):
        assert abs(optimal_detuning(1.0, 1e-9, 1.0) - (-1.0)) < 1e-9

    def test_wide_filter_limit(self):
        assert abs(optimal_detuning(1.0, 10.0, 1e9) - (-1.0)) < 1e-8


class TestArgmaxNumeric:
    def test_matches_closed_form_reference(self):
        cfg = make_notch(10.0, 1.0, 0.1, 1.0)
        got = argmax_detuning_numeric(cfg, (-10.0, -1e-3), tol=1e-6)
        assert abs(got - (-3.5)) <= 1e-6

    def test_matches_closed_form_on_grid(self):
        for kappa in (1.0, 3.0, 10.0, 30.0):
            for kf in (0.25, 1.0, 4.0):
                cfg = make_notch(kappa, 1.0, 0.1, kf)
                dc = optimal_detuning(1.0, kappa, kf)
                got = argmax_detuning_numeric(cfg, (-1.0 - kappa * kf, -1e-3), tol=1e-7)
                assert abs(got - dc) <= 1e-6, (kappa, kf)

    def test_moderate_filter_value(self):
        # kappa=10, kappa_f=5: -1 - 50/52
        cfg = make_notch(10.0, 1.0, 0.1, 5.0)
        dc = optimal_detuning(1.0, 10.0, 5.0)
        assert abs(dc - (-1.0 - 50.0 / 52.0)) < 1e-15
        got = argmax_detuning_numeric(cfg, (-51.0, -1e-3), tol=1e-7)
        assert abs(got - dc) <= 1e-6

    def test_flat_objective_raises(self):
        cfg = make_notch(10.0, 1.0, 0.0, 1.0)
        with pytest.raises(BracketError):
            argmax_detuning_numeric(cfg, (-10.0, -1e-3), tol=1e-6)

    def test_monotone_bracket_raises(self):
        cfg = make_notch(10.0, 1.0, 0.1, 1.0)
        with pytest.raises(BracketError):
            argmax_detuning_numeric(cfg, (-100.0, -50.0), tol=1e-6)


class TestEnhancementFactor:
    def test_anti_stokes_gain_at_optimum(self):
        for kf in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
            dc = optimal_detuning(1.0, 10.0, kf)
            cfg = make_notch(10.0, 1.0, 0.1, kf, delta_override=dc)
            r = scattering_rates(closed_loop_response(cfg), 0.1, 1.0)
            gain = r.a_minus / (4.0 * 0.1**2 / 10.0)
            assert abs(gain - (1.0 + kf**2)) / (1.0 + kf**2) <= 1e-9
            assert r.a_plus == 0.0


class TestFeasibility:
    def test_reference_true(self):
        assert bandpass_ground_state_feasible(10.0, 1.0, 1.0)  # 10/44 < 1

    def test_wide_filter_false(self):
        assert not bandpass_ground_state_feasible(10.0, 1e9, 1.0)  # -> kappa/4 = 2.5

    def test_deeply_resolved_true(self):
        assert bandpass_ground_state_feasible(0.1, 0.1, 1.0)


class TestSweep:
    def test_delta_sweep_peaks_at_optimum(self):
        cfg = make_notch(10.0, 1.0, 0.1, 1.0)
        table = sweep(cfg, "delta", np.linspace(-5.0, 0.0, 501))
        a_minus = [row.rates.a_minus for row in table.rows]
        best = table.rows[int(np.argmax(a_minus))]
        assert abs(best.value - (-3.5)) <= 0.01  # one grid step
        assert not any(row.singular for row in table.rows)

    def test_singleton_grid_matches_direct_call(self):
        cfg = make_bandpass(10.0, 1.0, 0.1, 1.0)
        table = sweep(cfg, "kappa_f", [1.0])
        direct = scattering_rates(closed_loop_response(cfg), 0.1, 1.0)
        assert table.rows[0].rates.a_plus == direct.a_plus
        assert table.rows[0].rates.a_minus == direct.a_minus

    def test_bandpass_stokes_grows_with_filter_linewidth(self):
        cfg = make_bandpass(10.0, 1.0, 0.1, 1.0)
        table = sweep(cfg, "kappa_f", [0.1, 1.0, 10.0])
        a_plus = [row.rates.a_plus for row in table.rows]
        assert a_plus[0] < a_plus[1] < a_plus[2]

    def test_bandpass_stokes_strictly_monotone_dense(self):
        cfg = make_bandpass(10.0, 1.0, 0.1, 1.0)
        table = sweep(cfg, "kappa_f", np.geomspace(0.05, 1e3, 50))
        a_plus = np.array([row.rates.a_plus for row in table.rows])
        assert np.all(np.diff(a_plus) > 0)

    def test_singular_point_flagged_not_thrown(self):
        # Sweeping the detuning through delta = +delta_f hits the loop
        # resonance exactly at the Stokes sampling frequency.
        cfg = make_notch(10.0, 1.0, 0.1, 1.0)
        table = sweep(cfg, "delta", [-1.0, 0.0, 1.0])
        assert [row.singular for row in table.rows] == [False, False, True]
        assert table.rows[2].rates is None
        assert table.rows[0].rates is not None

    def test_stability_flag_present(self):
        cfg = make_notch(10.0, 1.0, 0.1, 1.0)
        table = sweep(cfg, "delta", [-3.5, -1.0], bath=MechanicalBath(1e-5, 10.0))
        assert all(row.stable is True for row in table.rows)

    def test_grid_validation(self):
        cfg = make_notch(10.0, 1.0, 0.1, 1.0)
        with pytest.raises(InvalidParam):
            sweep(cfg, "delta", [])
        with pytest.raises(InvalidParam):
            sweep(cfg, "delta", [0.0, 1.0, 0.5])
        with pytest.raises(InvalidParam):
            sweep(cfg, "not_a_parameter", [0.0, 1.0])

    @pytest.mark.parametrize("filt", [
        FilterCavityParams(kappa1=1.0, kappa2=2.0, kappa_loss=0.0, delta_f=1.0),
        FilterCavityParams(kappa1=1.0, kappa2=1.0, kappa_loss=0.5, delta_f=1.0),
    ])
    def test_kappa_f_sweep_rejects_asymmetric_or_lossy_controller(self, filt):
        # kappa_f alone cannot describe these controllers; sweeping it must not
        # silently substitute a symmetric lossless one.
        cfg = SystemConfig(OptoCavityParams(10.0, -1.0, 0.1, 1.0), filt, Topology.NOTCH)
        with pytest.raises(InvalidParam, match="symmetric lossless"):
            sweep(cfg, "kappa_f", [0.5, 1.0])


class TestImbalance:
    def test_mirror_imbalance_leaks_stokes(self):
        cav = OptoCavityParams(10.0, -1.0, 0.1, 1.0)
        asym = FilterCavityParams(kappa1=1.0, kappa2=1.2, kappa_loss=0.0, delta_f=1.0)
        cfg = SystemConfig(cav, asym, Topology.NOTCH)
        rates = scattering_rates(closed_loop_response(cfg), 0.1, 1.0)
        assert rates.a_plus > 0.0

    def test_stokes_leak_vanishes_continuously(self):
        cav = OptoCavityParams(10.0, -1.0, 0.1, 1.0)
        previous = None
        for ratio in (1.2, 1.1, 1.05, 1.01, 1.001):
            filt = FilterCavityParams(1.0, ratio, 0.0, 1.0)
            cfg = SystemConfig(cav, filt, Topology.NOTCH)
            a_plus = scattering_rates(closed_loop_response(cfg), 0.1, 1.0).a_plus
            assert a_plus > 0.0
            if previous is not None:
                assert a_plus < previous
            previous = a_plus
        assert previous < 1e-6
