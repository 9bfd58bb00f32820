"""Rate spectra, scattering rates, cooling limits, and the dissipator map."""

import warnings

import numpy as np
import pytest

from cfcool import (
    FilterCavityParams,
    InvalidParam,
    MechanicalBath,
    NoNetCooling,
    OptoCavityParams,
    RateResult,
    Spectrum,
    SystemConfig,
    Topology,
    chi,
    closed_form_bandpass,
    closed_form_notch,
    closed_loop_response,
    rate_spectrum,
    scattering_rates,
    steady_phonon,
)
from cfcool.cli import cmd_spectrum, parse_config, system_config
from cfcool.spectra import sigma

CAV = OptoCavityParams(kappa=10.0, delta=-1.0, g=0.1, omega_m=1.0)
FILT = FilterCavityParams.symmetric(kappa_f=1.0, delta_f=1.0)
FILT_BP = FilterCavityParams.symmetric(kappa_f=1.0, delta_f=-1.0)


def chi_unc(w):
    return chi(CAV, w)


def chi_notch(w):
    return closed_form_notch(CAV, FILT, w)


def chi_bp(w):
    return closed_form_bandpass(CAV, FILT_BP, w)


class TestRateSpectrum:
    def test_uncontrolled_point_value(self):
        spec = rate_spectrum(chi_unc, 0.1, [1.0])
        assert abs(spec.values[0] - 0.004) < 1e-15

    def test_zero_coupling_zero_spectrum(self):
        spec = rate_spectrum(chi_unc, 0.0, np.linspace(-3, 3, 21))
        assert np.all(spec.values == 0.0)

    def test_zero_detuning_even_spectrum(self):
        cav0 = OptoCavityParams(10.0, 0.0, 0.1, 1.0)
        grid = np.linspace(-5.0, 5.0, 51)
        spec = rate_spectrum(lambda w: chi(cav0, w), 0.1, grid)
        assert np.allclose(spec.values, spec.values[::-1], rtol=1e-13)

    def test_grid_must_be_monotone(self):
        with pytest.raises(InvalidParam):
            Spectrum(omegas=np.array([0.0, 2.0, 1.0]), values=np.zeros(3))

    # "auto" takes the closed form for this symmetric lossless, undelayed loop.
    @pytest.mark.parametrize("method", [pytest.param("auto", id="closed_form"), "solver"])
    def test_singular_point_propagates_with_frequency(self, method):
        from cfcool import SingularLoop

        blue = OptoCavityParams(10.0, +1.0, 0.1, 1.0)
        chi_singular = closed_loop_response(SystemConfig(blue, FILT, Topology.NOTCH), method=method)
        with pytest.raises(SingularLoop) as exc:
            rate_spectrum(chi_singular, 0.1, [-2.0, -1.0, 0.0])
        assert exc.value.omega == -1.0

    def test_grid_values_are_the_per_point_sigma_and_the_spectrum_column(self):
        # A lossy, imbalanced, delayed band-pass loop: the network solver.
        argv = ["--topology", "bandpass", "--kappa", "10", "--g", "0.1", "--kappa1", "1",
                "--kappa2", "1.3", "--kappa-loss", "0.2", "--tau", "0.5",
                "--omega-min", "-3", "--omega-max", "3", "--points", "601"]
        cfg = parse_config(argv)
        config = system_config(cfg)
        chi_cl = closed_loop_response(config)
        grid = np.linspace(-3.0, 3.0, 601)
        values = rate_spectrum(chi_cl, cfg.g, grid).values
        points = [sigma(cfg.g, chi_cl(w)) for w in grid.tolist()]
        column = [row[1] for row in cmd_spectrum(cfg).rows]
        assert np.array_equal(values.view(np.int64), np.array(points).view(np.int64))
        assert np.array_equal(values.view(np.int64), np.array(column).view(np.int64))

    def test_overflowing_sigma_names_g(self):
        # g * g = 1e308 is finite, but |chi|^2 reaches 8 on this grid.
        cav = OptoCavityParams(kappa=0.5, delta=-1.0, g=0.1, omega_m=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidParam, match=r"overflows at g = 1e\+154"):
                rate_spectrum(lambda w: chi(cav, w), 1e154, np.linspace(-2.0, 2.0, 5))


class TestScatteringRates:
    def test_uncontrolled_baseline(self):
        r = scattering_rates(chi_unc, 0.1, 1.0)
        assert abs(r.a_minus - 0.004) < 1e-15
        assert abs(r.a_plus - 0.1 / 29.0) < 1e-15

    def test_notch_kills_stokes_only(self):
        r = scattering_rates(chi_notch, 0.1, 1.0)
        assert r.a_plus == 0.0
        assert abs(r.a_minus - 0.004) < 1e-15

    def test_bandpass_partial_stokes(self):
        r = scattering_rates(chi_bp, 0.1, 1.0)
        assert abs(r.a_plus - 0.1 / 509.0) < 1e-15
        assert abs(r.a_minus - 0.004) < 1e-15

    def test_sign_convention_lock(self):
        # Swapping the sampling sides must break the Stokes-suppression
        # signature: the zero would land on the anti-Stokes rate instead.
        swapped = RateResult(
            a_plus=0.01 * abs(chi_notch(+1.0)) ** 2,
            a_minus=0.01 * abs(chi_notch(-1.0)) ** 2,
        )
        correct = scattering_rates(chi_notch, 0.1, 1.0)
        assert correct.a_plus == 0.0 and correct.a_minus > 0.0
        assert not (swapped.a_plus == 0.0 and swapped.a_minus > 0.0)

    def test_rates_nonnegative_validation(self):
        with pytest.raises(InvalidParam):
            RateResult(a_plus=-1e-3, a_minus=0.0)


class TestNMin:
    def test_uncontrolled_value(self):
        r = scattering_rates(chi_unc, 0.1, 1.0)
        # (kappa / (4 omega_m))^2 at delta = -omega_m
        assert abs(r.n_min - 6.25) < 1e-9

    def test_notch_reaches_ground_state(self):
        assert scattering_rates(chi_notch, 0.1, 1.0).n_min == 0.0

    def test_bandpass_value(self):
        got = scattering_rates(chi_bp, 0.1, 1.0).n_min
        assert abs(got - 25.0 / 484.0) < 1e-12  # ~0.05165

    def test_no_net_cooling_raises(self):
        # Net heating has no floor.
        assert RateResult(a_plus=0.2, a_minus=0.1).n_min is None

    def test_detailed_balance_bound(self):
        # Any passive red-or-blue configuration yields n_min >= 0 when defined.
        rng = np.random.default_rng(23)
        for _ in range(200):
            cav = OptoCavityParams(
                kappa=rng.uniform(0.1, 50.0), delta=rng.uniform(-10.0, 10.0),
                g=rng.uniform(0.0, 0.5), omega_m=1.0,
            )
            r = scattering_rates(lambda w: chi(cav, w), cav.g, 1.0)
            if r.gamma_opt > 0:
                assert r.n_min >= 0.0


class TestSteadyPhonon:
    def test_zero_damping_reduces_to_n_min(self):
        r = scattering_rates(chi_unc, 0.1, 1.0)
        bath = MechanicalBath(gamma_m=0.0, n_th=50.0)
        assert steady_phonon(r, bath) == r.n_min

    def test_decoupled_returns_thermal_occupation(self):
        r = RateResult(a_plus=0.0, a_minus=0.0)
        assert steady_phonon(r, MechanicalBath(1e-3, 17.5)) == 17.5

    def test_notch_with_bath_value(self):
        r = scattering_rates(chi_notch, 0.1, 1.0)
        got = steady_phonon(r, MechanicalBath(1e-5, 100.0))
        assert abs(got - 1e-3 / 4.01e-3) < 1e-12  # ~0.2494

    def test_monotone_convergence_to_n_min(self):
        r = scattering_rates(chi_notch, 0.1, 1.0)
        floor = r.n_min
        previous = None
        for gm in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
            value = steady_phonon(r, MechanicalBath(gm, 100.0))
            assert value >= floor
            if previous is not None:
                assert value < previous
            previous = value
        assert abs(previous - floor) < 1e-2

    def test_denominator_guard(self):
        with pytest.raises(NoNetCooling):
            steady_phonon(RateResult(0.2, 0.1), MechanicalBath(0.05, 1.0))


class TestLindblad:
    def test_notch_mapping(self):
        # a_minus multiplies D[b], a_plus multiplies D[b^dag].
        rates = scattering_rates(chi_notch, 0.1, 1.0)
        assert rates.a_plus == 0.0
        assert abs(rates.a_minus - 0.004) < 1e-15

    def test_symmetric_rates_infinite_temperature(self):
        rates = RateResult(0.3, 0.3)
        assert rates.a_minus == rates.a_plus

    def test_uncontrolled_ratio(self):
        rates = scattering_rates(chi_unc, 0.1, 1.0)
        assert abs(rates.a_minus / rates.a_plus - 29.0 / 25.0) < 1e-12


class TestBathValidation:
    def test_negative_values_rejected(self):
        with pytest.raises(InvalidParam):
            MechanicalBath(gamma_m=-1e-3, n_th=0.0)
        with pytest.raises(InvalidParam):
            MechanicalBath(gamma_m=0.0, n_th=-1.0)

    @pytest.mark.parametrize("gamma_m, n_th", [(1e10, 1e300), (1e300, 1e300)])
    def test_overflowing_thermal_load_names_the_bath(self, gamma_m, n_th):
        # gamma_m and n_th are finite, but the thermal load gamma_m*(n_th + 1/2)
        # of the oracle's diffusion and of the rate-equation occupation is not.
        with pytest.raises(InvalidParam) as exc:
            MechanicalBath(gamma_m=gamma_m, n_th=n_th)
        assert str(exc.value) == (
            f"gamma_m * (n_th + 0.5) overflows at gamma_m = {gamma_m!r}, n_th = {n_th!r}"
        )
