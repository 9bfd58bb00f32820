"""Rate spectra, scattering rates, cooling limits, the dissipator map, and
the spectral-weight sum rule."""

import math
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
from cfcool.design import loop_sigma
from cfcool.netalg import _closed_loop
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
        # The Sigma column adds the share of the controller's loss port.
        loss = rate_spectrum(lambda w: _closed_loop(config.cav, config.filt, w, 0.5, 1, port=2),
                             cfg.g, grid).values
        assert np.array_equal((values + loss).view(np.int64), np.array(column).view(np.int64))

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


@pytest.mark.parametrize("call, message", [
    # |chi_cl|^2 itself overflows, so the scalar path has no product to test.
    (lambda: sigma(1.0, complex(1e200, 0.0)), "Sigma = g * g * |chi_cl|^2 overflows at g = 1.0"),
    (lambda: scattering_rates(chi_unc, 0.1, 0.0), "omega_m must be > 0, got 0.0"),
    (lambda: Spectrum(np.zeros(3), np.zeros(2)),
     "omegas and values must be 1-d arrays of equal length"),
    (lambda: Spectrum(np.zeros((2, 2)), np.zeros((2, 2))),
     "omegas and values must be 1-d arrays of equal length"),
    (lambda: Spectrum(np.zeros(1), np.array([-1.0])), "spectrum values must be finite and >= 0"),
    (lambda: Spectrum(np.zeros(1), np.array([np.nan])), "spectrum values must be finite and >= 0"),
], ids=["sigma", "scattering-rates", "spectrum-length", "spectrum-2d", "spectrum-negative",
        "spectrum-nan"])
def test_refusal_names_the_rule(call, message):
    with pytest.raises(InvalidParam) as exc:
        call()
    assert str(exc.value) == message


#: 16-point Gauss-Legendre nodes and weights on [-1, 1].
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def panel_integrals(config, lo, hi):
    """Gauss-Legendre integrals of Sigma/g^2 over the panels [lo, hi], one
    grid call for all of them, Sigma computed as `cfcool spectrum` does."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    g = config.cav.g
    return loop_sigma(config)(mid[:, None] + half[:, None] * GL_NODES) / (g * g) @ GL_WEIGHTS * half


def spectral_weight(config, half_width=2000.0, tol=1e-10):
    """The integral of Sigma/g^2, the sum of |chi_k|^2 over the loop's inputs, over d(omega)/2pi.

    Unit panels cover |omega| <= half_width; a panel whose two halves differ
    from it by more than tol is replaced by them, until every panel agrees,
    so the loop's sharp resonances get fine panels and the rest none.  Past
    half_width the loop gain has decayed and |chi_cl|^2 is the bare cavity's
    Lorentzian, whose tails are added in closed form.
    """
    lo = np.arange(-half_width, half_width)
    hi = lo + 1.0
    whole = panel_integrals(config, lo, hi)
    total = 0.0
    for _ in range(40):
        if not lo.size:
            break
        mid = 0.5 * (lo + hi)
        left, right = np.split(panel_integrals(config, np.r_[lo, mid], np.r_[mid, hi]), 2)
        split = abs(left + right - whole) > tol
        total += (left + right)[~split].sum()
        lo, hi = np.r_[lo[split], mid[split]], np.r_[mid[split], hi[split]]
        whole = np.r_[left[split], right[split]]
    assert not lo.size, "panels still split after 40 halvings"
    kappa, delta = config.cav.kappa, config.cav.delta
    tails = 2.0 * (
        math.pi - math.atan(2.0 * (half_width + delta) / kappa) - math.atan(2.0 * (half_width - delta) / kappa)
    )
    return (total + tails) / (2.0 * math.pi)


class TestLossPort:
    def test_shares_that_overflow_only_in_their_sum_name_g(self):
        # At omega = +omega_m the external share of Sigma is 1.5e308 and the
        # loss port's 3.6e307: each is finite, their sum is not.
        cav = OptoCavityParams(kappa=0.01, delta=-1.0, g=6.2e152, omega_m=1.0)
        filt = FilterCavityParams(1.0, 1.0, 1.0, 1.0)
        for omega in (1.0, np.array([0.5, 1.0])):
            for port in (0, 2):
                assert np.all(np.isfinite(sigma(cav.g, _closed_loop(cav, filt, omega, 0.0, 0, port))))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(InvalidParam, match=r"overflows at g = 6\.2e\+152$"):
                    loop_sigma(SystemConfig(cav, filt, Topology.NOTCH))(omega)


class TestSumRule:
    """A passive loop only moves force-noise weight in frequency: with every
    input in vacuum, the external one and a lossy controller's loss port,
    [a, a^dag] = 1 makes the integral of Sigma/g^2 over d(omega)/2pi equal 1.
    Only the notch loop's gain vanishes at high frequency, so the rule gates
    notch loops."""

    def test_bare_cavity(self):
        assert abs(spectral_weight(SystemConfig(CAV, None, Topology.NONE)) - 1.0) <= 1e-12

    def test_lossless_notch_loops(self):
        # Mirror rates at least 1.5 apart keep |T| <= 0.98, away from the
        # near-singular loops of an almost symmetric controller.
        rng = np.random.default_rng(12)
        for _ in range(6):
            kappa1 = rng.uniform(0.5, 2.0)
            kappa2 = kappa1 * rng.uniform(1.5, 3.0) ** rng.choice([-1.0, 1.0])
            cav = OptoCavityParams(10.0, rng.uniform(-3.0, -0.5), 0.1, 1.0)
            filt = FilterCavityParams(kappa1, kappa2, 0.0, rng.uniform(-2.0, 2.0))
            config = SystemConfig(cav, filt, Topology.NOTCH, delay=rng.uniform(0.0, 5.0))
            assert abs(spectral_weight(config) - 1.0) <= 1e-6, config

    def test_lossy_notch_loops(self):
        weights = [
            spectral_weight(SystemConfig(CAV, FilterCavityParams(1.0, 1.0, 0.1, 1.0), Topology.NOTCH)),
            spectral_weight(SystemConfig(CAV, FilterCavityParams(1.0, 1.3, 0.5, 1.0), Topology.NOTCH, delay=2.0)),
        ]
        assert max(abs(w - 1.0) for w in weights) <= 1e-6
