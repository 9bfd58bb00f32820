"""Element responses, closed forms, and the interconnection solver."""

import itertools
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from cfcool import (
    DELAY_PHASE_SIGN,
    FilterCavityParams,
    InvalidParam,
    NetworkSpec,
    OptoCavityParams,
    SingularLoop,
    SystemConfig,
    Topology,
    chi,
    closed_form_bandpass,
    closed_form_notch,
    delay_response,
    reflection_sys,
    scattering,
    solve_network,
)
from cfcool.design import network_for
from cfcool.netalg import DEN_SINGULAR, CavityReflection, DelayLine, FilterTwoPort, _regular
from cfcool.spectra import RateResult, sigma

CAV = OptoCavityParams(kappa=10.0, delta=-1.0, g=0.1, omega_m=1.0)
FILT = FilterCavityParams.symmetric(kappa_f=1.0, delta_f=1.0)
FILT_BP = FilterCavityParams.symmetric(kappa_f=1.0, delta_f=-1.0)


def notch_loop(cav, filt, tau=0.0):
    return network_for(SystemConfig(cav, filt, Topology.NOTCH, delay=tau))


def bandpass_loop(cav, filt, tau=0.0):
    return network_for(SystemConfig(cav, filt, Topology.BANDPASS, delay=tau))


def rel_err(a, b):
    m = max(abs(a), abs(b))
    return abs(a - b) / m if m > 0 else 0.0


def cbits(values):
    """The bits of complex values, real and imaginary parts alike."""
    return np.ascontiguousarray(values, complex).view(np.int64)


def per_row(call, values):
    """``call(value)`` at each value, None where it raises SingularLoop."""
    rows = []
    for value in values:
        try:
            rows.append(call(value))
        except SingularLoop:
            rows.append(None)
    return rows


def assert_per_row(call, rows, omega):
    """``call()``, one call at a float omega against parameter columns, gives
    each row of ``per_row`` bit for bit, or raises SingularLoop at omega
    flagging exactly the rows that are None there."""
    singular = [row is None for row in rows]
    if not any(singular):
        assert np.array_equal(cbits(call()), cbits(rows))
        return
    with pytest.raises(SingularLoop) as exc:
        call()
    assert exc.value.singular.tolist() == singular
    assert exc.value.omega == omega


def columns_of(rows):
    """Each field of ``rows`` as an ndarray column where its rows differ,
    else as their one float."""
    return [np.array(c) if len(set(c)) > 1 else c[0] for c in zip(*rows)]


def sigma_of(g):
    """Sigma of g against responses with |chi_cl|^2 = 4: a complex scalar for
    a float g, an array of g's shape for an array g."""
    return sigma(g, np.full(g.shape, 2.0 + 0j) if isinstance(g, np.ndarray) else 2.0 + 0j)


OPTO = dict(kappa=10.0, delta=-1.0, g=0.1, omega_m=1.0)
FILTER = dict(kappa1=1.0, kappa2=1.0, kappa_loss=0.0, delta_f=1.0)
#: (constructor, accepted keyword arguments, refused ones, message): every
#: rule of OptoCavityParams, FilterCavityParams, spectra.sigma and
#: RateResult.
PARAM_RULES = [
    *[(OptoCavityParams, OPTO, {name: value}, f"OptoCavityParams.{name} must be finite, got {value!r}")
      for name, value in [("kappa", math.nan), ("delta", math.inf), ("g", -math.inf), ("omega_m", math.nan)]],
    (OptoCavityParams, OPTO, {"kappa": -1.0}, "kappa must be > 0, got -1.0"),
    (OptoCavityParams, OPTO, {"kappa": 0.0}, "kappa must be > 0, got 0.0"),
    (OptoCavityParams, OPTO, {"kappa": 5e-324}, "kappa / 2 underflows to 0 at kappa = 5e-324"),
    (OptoCavityParams, OPTO, {"omega_m": 0.0}, "omega_m must be > 0, got 0.0"),
    (OptoCavityParams, OPTO, {"g": -0.5}, "g must be >= 0, got -0.5"),
    (OptoCavityParams, OPTO, {"g": 2.0**512},
     "g * g must be finite, got g = 1.3407807929942597e+154"),
    *[(FilterCavityParams, FILTER, {name: value}, f"FilterCavityParams.{name} must be finite, got {value!r}")
      for name, value in [("kappa1", math.nan), ("kappa2", math.inf), ("kappa_loss", math.nan),
                          ("delta_f", -math.inf)]],
    *[(FilterCavityParams, FILTER, {name: -1.0}, "mirror and loss rates must be >= 0")
      for name in ("kappa1", "kappa2", "kappa_loss")],
    (FilterCavityParams, FILTER, {"kappa1": 0.0, "kappa2": 0.0},
     "at least one mirror must couple (kappa1 + kappa2 > 0)"),
    (FilterCavityParams, FILTER, {"kappa1": 0.0, "kappa2": 5e-324},
     "kappa_total / 2 underflows to 0 at kappa_total = 5e-324"),
    (sigma_of, {"g": 0.1}, {"g": -0.5}, "g must be >= 0, got -0.5"),
    (sigma_of, {"g": 0.1}, {"g": 1e154}, "Sigma = g * g * |chi_cl|^2 overflows at g = 1e+154"),
    *[(RateResult, {"a_plus": 0.0, "a_minus": 0.004}, {name: value},
       f"{name} must be finite and >= 0, got {value!r}")
      for name, value in [("a_plus", -1e-3), ("a_minus", -1.0), ("a_plus", math.inf),
                          ("a_minus", math.nan)]],
]
RULE_IDS = [build.__name__ + "".join(f"-{name}={value!r}" for name, value in refused.items())
            for build, _, refused, _ in PARAM_RULES]


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

    @pytest.mark.parametrize("column", [False, True], ids=["float", "array"])
    def test_underflowing_half_linewidth_refused(self, column):
        # 5e-324 / 2 rounds to 0, the resonant denominator of chi and of the
        # controller's scattering; 1e-323 / 2 does not.
        def value(x):
            return np.array([1.0, x]) if column else x

        cases = [
            (lambda: OptoCavityParams(value(5e-324), 0.0, 0.1, 1.0), "kappa"),
            (lambda: FilterCavityParams(value(5e-324), 0.0), "kappa_total"),
        ]
        for build, field in cases:
            with pytest.raises(InvalidParam) as exc:
                build()
            assert str(exc.value) == f"{field} / 2 underflows to 0 at {field} = 5e-324"
        OptoCavityParams(value(1e-323), 0.0, 0.1, 1.0)
        FilterCavityParams(value(5e-324), 0.0, value(5e-324))

    @pytest.mark.parametrize("column", [False, True], ids=["float", "array"])
    def test_g_whose_square_overflows_refused(self, column):
        # 1e200 is finite, but the rates and the spectrum scale with g * g.
        g = np.array([0.1, 1e200]) if column else 1e200
        with pytest.raises(InvalidParam) as exc:
            OptoCavityParams(kappa=10.0, delta=-1.0, g=g, omega_m=1.0)
        assert str(exc.value) == "g * g must be finite, got g = 1e+200"

    @pytest.mark.parametrize("build, base, refused, message", PARAM_RULES, ids=RULE_IDS)
    def test_each_rule_refuses_float_and_array_fields_alike(self, build, base, refused, message):
        # The refused values as float fields, as ndarray columns whose index
        # 0 holds the accepted base value and index 1 the refused one, and
        # as 0-d arrays.
        column = {name: np.array([base[name], value]) for name, value in refused.items()}
        zero_d = {name: np.array(value) for name, value in refused.items()}
        for fields in (refused, column, zero_d):
            with pytest.raises(InvalidParam) as exc:
                build(**{**base, **fields})
            assert str(exc.value) == message

    def test_numpy_scalar_field_is_named_as_a_python_number(self):
        # The same text whichever numpy version formats np.float64.
        with pytest.raises(InvalidParam) as exc:
            OptoCavityParams(np.float64(math.nan), 0.0, 0.1, 1.0)
        assert str(exc.value) == "OptoCavityParams.kappa must be finite, got nan"

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

    def test_float_omega_against_a_column_is_the_per_row_calls(self):
        kappas = [10.0, 5.0, 1e-3]
        rows = per_row(lambda kappa: chi(OptoCavityParams(kappa, -1.0, 0.1, 1.0), 0.3), kappas)
        assert_per_row(lambda: chi(OptoCavityParams(np.array(kappas), -1.0, 0.1, 1.0), 0.3), rows, 0.3)


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

    @pytest.mark.parametrize("tau", [-0.5, math.nan, -math.inf, math.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda tau: notch_loop(CAV, FILT, tau=tau),
            lambda tau: bandpass_loop(CAV, FILT_BP, tau=tau),
            DelayLine,
        ],
        ids=["notch_loop", "bandpass_loop", "DelayLine"],
    )
    def test_bad_delay_refused_at_construction(self, build, tau):
        with pytest.raises(InvalidParam, match=r"tau must be finite and >= 0"):
            build(tau)


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

    @pytest.mark.parametrize("fields", [
        # Imbalanced, lossy and symmetric controllers in one column each.
        [(1.0, 1.0, 0.0, 1.0), (0.5, 2.0, 0.0, 1.0), (1.0, 1.3, 0.2, 1.0)],
        # A delta_f or kappa_loss column alone: sqrt(kappa1*kappa2) is one
        # value, and only the detuning carries the rows.
        [(1.0, 1.0, 0.0, 0.5), (1.0, 1.0, 0.0, 1.0), (1.0, 1.0, 0.0, 2.0)],
        [(1.0, 1.3, 0.0, 1.0), (1.0, 1.3, 0.1, 1.0), (1.0, 1.3, 0.2, 1.0)],
    ], ids=["rates", "delta_f", "kappa_loss"])
    def test_float_omega_against_columns_is_the_per_row_calls(self, fields):
        rows = per_row(lambda f: scattering(FilterCavityParams(*f), 0.3), fields)
        columns = FilterCavityParams(*columns_of(fields))
        assert_per_row(lambda: np.moveaxis(scattering(columns, 0.3), -1, 0), rows, 0.3)

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

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_imbalanced_lossy_bandpass_matches_the_solver(self, tau):
        # The band-pass loop feeds T21 to the cavity and returns through R22,
        # which differs from R11 once kappa2 != kappa1.
        filt = FilterCavityParams(1.0, 1.3, 0.2, -1.0)
        net = bandpass_loop(CAV, filt, tau)
        grid = np.linspace(-3.0, 3.0, 61)
        closed = closed_form_bandpass(CAV, filt, grid, tau)
        for w, value in zip(grid.tolist(), closed.tolist()):
            assert rel_err(value, solve_network(net, w)) <= 1e-10
            assert value == closed_form_bandpass(CAV, filt, w, tau)

    def test_singular_loop_detected(self):
        # Blue-detuned cavity with delta == delta_f puts the loop on resonance
        # at omega = -delta_f: the return phase hits +1 exactly.
        blue = OptoCavityParams(10.0, +1.0, 0.1, 1.0)
        with pytest.raises(SingularLoop) as exc:
            closed_form_notch(blue, FILT, -1.0)
        assert exc.value.omega == -1.0


    @pytest.mark.parametrize(
        "closed_form, network, filt",
        [(closed_form_notch, notch_loop, FILT), (closed_form_bandpass, bandpass_loop, FILT_BP)],
        ids=["notch", "bandpass"],
    )
    def test_nan_frequency_is_singular_as_in_the_solver(self, closed_form, network, filt):
        # |den| >= DEN_SINGULAR fails for a NaN den, so both paths refuse a
        # NaN frequency: as a float call, and at index 1 of a grid.
        for omega in (math.nan, np.array([0.5, math.nan, 1.5])):
            with pytest.raises(SingularLoop) as closed:
                closed_form(CAV, filt, omega)
            with pytest.raises(SingularLoop) as solved:
                solve_network(network(CAV, filt), omega)
            assert math.isnan(closed.value.omega) and math.isnan(solved.value.omega)
            if isinstance(omega, np.ndarray):
                assert closed.value.singular.argmax() == solved.value.singular.argmax() == 1
                assert closed.value.singular.tolist() == [False, True, False]
                assert solved.value.singular.tolist() == [False, True, False]
            else:  # a 0-d mask: the verdict of a call without grid axes
                assert closed.value.singular.shape == solved.value.singular.shape == ()
                assert closed.value.singular and solved.value.singular

    @pytest.mark.parametrize("wiring, filt, delta, tau, at", [
        # delta = delta_f gives r_sys = T12 = -1 at omega = -delta_f, so the
        # delayed notch loop is singular there where e^{i omega tau} = 1.
        ("notch", FILT, 1.0, 2.0 * np.pi, -1.0),
        ("notch", FilterCavityParams.symmetric(0.5, 2.0), 2.0, np.pi, -2.0),
        ("notch", FilterCavityParams.symmetric(3.0, 0.5), 0.5, 4.0 * np.pi, -0.5),
        # |T12| < 1 and |R22| < 1 keep an imbalanced or lossy loop regular at
        # every real frequency: only a NaN one is singular.
        ("notch", FilterCavityParams(1.0, 1.3, 0.2, 1.0), 1.0, 0.5, math.nan),
        ("bandpass", FilterCavityParams(1.0, 1.3, 0.2, -1.0), -1.0, 0.5, math.nan),
        ("bandpass", FilterCavityParams(0.5, 0.7, 0.0, -1.0), -1.0, 0.0, math.nan),
    ], ids=["tau-2pi", "tau-pi", "tau-4pi", "lossy-notch", "lossy-bandpass", "imbalanced-bandpass"])
    def test_singular_grid_gives_one_mask_on_both_paths(self, wiring, filt, delta, tau, at):
        # The singular frequency at three places of a grid: both paths flag
        # exactly those points, and refuse it as a float call.
        cav = OptoCavityParams(10.0, delta, 0.1, 1.0)
        form, build = {"notch": (closed_form_notch, notch_loop),
                       "bandpass": (closed_form_bandpass, bandpass_loop)}[wiring]
        grid = np.linspace(-2.9, 3.1, 25)  # off the singular frequencies
        grid[[0, 7, 24]] = at
        expected = [False] * grid.size
        expected[0] = expected[7] = expected[24] = True
        for call in (lambda w: form(cav, filt, w, tau), lambda w: solve_network(build(cav, filt, tau), w)):
            with pytest.raises(SingularLoop) as exc:
                call(grid)
            assert exc.value.singular.tolist() == expected
            with pytest.raises(SingularLoop) as exc:
                call(at)
            assert exc.value.singular.shape == ()

    @pytest.mark.parametrize("column", ["delta", "delta_f"])
    @pytest.mark.parametrize("zero_d", [False, True], ids=["float-omega", "0d-omega"])
    @pytest.mark.parametrize("omega", [-1.0, 0.3])
    def test_singular_grid_of_a_parameter_column_past_omega(self, omega, zero_d, column):
        # A delta or a delta_f column broadcasts omega to three points; at
        # omega = -1 the last, delta = delta_f = 1, is singular.  Each row has
        # the float call's bits.
        def notch(value, at):
            if column == "delta":
                return closed_form_notch(OptoCavityParams(10.0, value, 0.1, 1.0), FILT, at)
            filt = FilterCavityParams.symmetric(1.0, value)
            return closed_form_notch(OptoCavityParams(10.0, 1.0, 0.1, 1.0), filt, at)

        values = [-1.0, 0.5, 1.0]
        rows = per_row(lambda value: notch(value, omega), values)
        assert [row is None for row in rows] == [False, False, omega == -1.0]
        at = np.array(omega) if zero_d else omega
        assert_per_row(lambda: notch(np.array(values), at), rows, omega)


class TestSolver:
    def test_trivial_network_equals_chi(self):
        net = network_for(SystemConfig(CAV, None, Topology.NONE))
        for w in (-2.3, 0.0, 1.0, 17.0):
            assert rel_err(solve_network(net, w), chi(CAV, w)) < 1e-14

    def test_notch_preset_matches_closed_form(self):
        net = notch_loop(CAV, FILT)
        for w in (0.3, -1.0, 2.2):
            assert rel_err(solve_network(net, w), closed_form_notch(CAV, FILT, w)) <= 1e-10

    def test_bandpass_preset_matches_closed_form(self):
        net = bandpass_loop(CAV, FILT_BP)
        for w in (1.0, -1.0, 0.45):
            assert rel_err(solve_network(net, w), closed_form_bandpass(CAV, FILT_BP, w)) <= 1e-10

    def test_wide_filter_limit_consistency(self):
        f = FilterCavityParams.symmetric(1e6, 1.0)
        got = solve_network(notch_loop(CAV, f), 0.5)
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
                (notch_loop, closed_form_notch),
                (bandpass_loop, closed_form_bandpass),
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
            solve_network(notch_loop(blue, FILT), -1.0)
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
        assert rel_err(solve_network(notch_loop(blue, f), w), closed) <= 1e-14 / den

    def test_loop_delay_changes_response(self):
        base = abs(solve_network(notch_loop(CAV, FILT, tau=0.0), 0.5))
        lagged = abs(solve_network(notch_loop(CAV, FILT, tau=1.0), 0.5))
        assert abs(base - lagged) > 1e-6

    def test_asymmetric_filter_supported_by_solver(self):
        asym = FilterCavityParams(1.0, 1.2, 0.0, 1.0)
        got = solve_network(notch_loop(CAV, asym), -1.0)
        assert abs(got) > 0.0  # imbalance leaks the blocked sideband

    @pytest.mark.parametrize("cav, filt, omega", [
        (OptoCavityParams(10.0, np.array([-1.0, -0.5, -2.0]), 0.1, 1.0), FILT, np.array([0.3])),
        # delta = delta_f: the notch loop is singular at omega = -delta_f.
        (OptoCavityParams(10.0, np.array([-1.0, 1.0, -2.0]), 0.1, 1.0), FILT, np.array(-1.0)),
        (CAV, FilterCavityParams.symmetric(np.array([0.5, 1.0, 2.0]), 1.0), np.array([0.3])),
        (OptoCavityParams(10.0, np.array([[-1.0], [1.0]]), 0.1, 1.0),
         FilterCavityParams.symmetric(np.array([0.5, 1.0, 2.0]), 1.0), np.array([-1.0])),
    ], ids=["cavity", "cavity-singular", "controller", "both-2d"])
    @pytest.mark.parametrize(
        "build, form", [(notch_loop, closed_form_notch), (bandpass_loop, closed_form_bandpass)],
        ids=["notch", "bandpass"],
    )
    def test_parameter_columns_broadcast_past_the_grid(self, cav, filt, omega, build, form):
        # Parameter columns against a shorter omega: the solver gives the
        # closed form's values, or flags the same singular points.
        try:
            expected = form(cav, filt, omega)
        except SingularLoop as exc:
            with pytest.raises(SingularLoop) as solved:
                solve_network(build(cav, filt), omega)
            assert solved.value.singular.tolist() == exc.singular.tolist()
            assert solved.value.omega == exc.omega
            return
        got = solve_network(build(cav, filt), omega)
        shape = np.broadcast_shapes(np.shape(cav.delta), np.shape(filt.kappa1), omega.shape)
        assert got.shape == expected.shape == shape
        for g, e in zip(got.ravel(), expected.ravel()):
            assert rel_err(g, e) <= 1e-10

    @pytest.mark.parametrize("filt, tau, omega", [
        (FilterCavityParams(np.array([1.0, 0.5, 2.0]), 1.3, 0.2, 1.0), 0.5, 0.3),
        # A delta_f or kappa_loss column alone, against the cavity's delta column.
        (FilterCavityParams(1.0, 1.3, 0.2, np.array([0.5, 1.0, 2.0])), 0.5, 0.3),
        (FilterCavityParams(1.0, 1.3, np.array([0.0, 0.1, 0.2]), 1.0), 0.0, 0.3),
        # e^{i omega tau} = 1 at omega = -1: the row with delta = delta_f = 1
        # is singular there, as its closed form is.
        (FILT, 2.0 * np.pi, -1.0),
    ], ids=["delayed-lossy", "delta_f", "kappa_loss", "singular-row"])
    def test_float_omega_against_columns_is_the_per_row_solves(self, filt, tau, omega):
        deltas = [-1.0, 1.0, -2.0]
        fields = [np.broadcast_to(v, 3).tolist()
                  for v in (filt.kappa1, filt.kappa2, filt.kappa_loss, filt.delta_f)]
        row_filts = [FilterCavityParams(*row) for row in zip(*fields)]
        rows = per_row(lambda i: solve_network(
            notch_loop(OptoCavityParams(10.0, deltas[i], 0.1, 1.0), row_filts[i], tau), omega), range(3))
        net = notch_loop(OptoCavityParams(10.0, np.array(deltas), 0.1, 1.0), filt, tau)
        assert_per_row(lambda: solve_network(net, omega), rows, omega)

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    @pytest.mark.parametrize(
        "build, delta_f", [(notch_loop, 1.0), (bandpass_loop, -1.0)], ids=["notch", "bandpass"]
    )
    def test_grid_solve_memory_per_point(self, build, delta_f, tau):
        # A grid solve holds only the values a later step reads, so its traced
        # peak, the result included, stays within 400 B (50 float64 values)
        # per grid point.
        net = build(CAV, FilterCavityParams(1.0, 1.3, 0.2, delta_f), tau=tau)
        grid = np.linspace(-3.0, 3.0, 5001)
        solve_network(net, grid)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solve_network(net, grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 400 * grid.size, peak / grid.size

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    @pytest.mark.parametrize(
        "build, delta_f", [(notch_loop, 1.0), (bandpass_loop, -1.0)], ids=["notch", "bandpass"]
    )
    def test_column_solve_memory_per_point(self, build, delta_f, tau):
        # Each entry of I - M keeps its own grid shape: the controller's and
        # the delay's stay one row of omega against a 64-row cavity column,
        # so the traced peak stays within 215 B per output point.
        cav = OptoCavityParams(10.0, np.linspace(-2.0, 2.0, 64).reshape(64, 1), 0.1, 1.0)
        net = build(cav, FilterCavityParams(1.0, 1.3, 0.2, delta_f), tau=tau)
        grid = np.linspace(-3.0, 3.0, 501)
        size = solve_network(net, grid).size
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solve_network(net, grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert size == 64 * grid.size
        assert peak <= 215 * size, peak / size


@dataclass(frozen=True)
class Constant:
    """An element with a frequency-independent S-matrix (rows: outputs).  It
    need not be passive, so it can put an exact zero on the diagonal of I - M."""

    s: tuple

    @property
    def n_inputs(self):
        return len(self.s[0])

    @property
    def n_outputs(self):
        return len(self.s)

    def s_matrix(self, omega):
        s = np.array(self.s, dtype=complex)
        return s if np.ndim(omega) == 0 else s[..., None] * np.ones_like(omega)


@dataclass(frozen=True, eq=False)
class Stored:
    """An element whose s_matrix returns one stored array on every call."""

    s: np.ndarray

    @property
    def n_inputs(self):
        return self.s.shape[1]

    @property
    def n_outputs(self):
        return self.s.shape[0]

    def s_matrix(self, omega):
        return self.s


def bits(values):
    """The IEEE bit patterns of complex values, one int64 per part."""
    return np.ascontiguousarray(values).view(np.int64)


def assert_float_bits(net, grid):
    """One grid solve has, at every point, the bits of the float solve there."""
    values = solve_network(net, grid)
    assert np.array_equal(bits(values), bits([solve_network(net, float(w)) for w in grid]))


def zero_pivot_network():
    """amp's output 0 drives its own input 0 with gain 1, so the first pivot
    of I - M is 0 and elimination must swap in the row of the cavity, which
    amp's output 1 drives."""
    amp = Constant(((1.0, 0.5j, 0.2), (0.7, 0.1 - 0.3j, 0.4j)))
    return NetworkSpec(
        elements=(("amp", amp), ("sys", CavityReflection(CAV))),
        wiring=(
            (("amp", 0), ("amp", 0)),
            (("sys", 0), ("amp", 1)),
            (("amp", 1), ("sys", 0)),
        ),
    )


def dense_system(net, omega):
    """I - M and the input column of ``net`` at a float omega, as dense arrays."""
    n = len(net.index)
    a, b = np.eye(n, dtype=complex), np.zeros(n, dtype=complex)
    elements = dict(net.elements)
    for (src, p_out), dst in net.wiring:
        s = elements[src].s_matrix(omega)
        for j in range(s.shape[1]):
            a[net.index[dst], net.index[(src, j)]] -= s[p_out, j]
    b[net.index[net.input_port]] = 1.0
    return a, b


def dense_response(net, omega):
    """The tap response by np.linalg.solve on the dense system."""
    a, b = dense_system(net, omega)
    x = np.linalg.solve(a, b)[net.index[(net.tap, 0)]]
    return dict(net.elements)[net.tap].tap_gain(omega) * x


def series_network(rng):
    """Two random lossy controllers in series, a cavity, a delay back to the
    first controller, and a feed-forward branch from the first controller's
    second output into the second's second input, in a shuffled port order."""
    def controller():
        return FilterTwoPort(FilterCavityParams(
            rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0), rng.uniform(0.0, 1.0), rng.uniform(-3.0, 3.0)
        ))

    cav = OptoCavityParams(rng.uniform(1.0, 20.0), rng.uniform(-5.0, 5.0), 0.1, 1.0)
    elements = [
        ("c1", controller()), ("c2", controller()),
        ("sys", CavityReflection(cav)), ("lag", DelayLine(rng.uniform(0.01, 3.0))),
    ]
    return NetworkSpec(
        elements=tuple(elements[i] for i in rng.permutation(len(elements))),
        wiring=(
            (("c1", 0), ("c2", 0)),
            (("c2", 0), ("sys", 0)),
            (("sys", 0), ("lag", 0)),
            (("lag", 0), ("c1", 1)),
            (("c1", 1), ("c2", 1)),
        ),
    )


class TestSolverKernel:
    def test_zero_first_pivot_swaps_rows(self):
        # amp's output 0 drives its own input 0 with gain 1, so the first
        # pivot of I - M is 0; elimination must swap in the row of the
        # cavity, which amp's output 1 drives.
        amp = Constant(((1.0, 0.5j, 0.2), (0.7, 0.1 - 0.3j, 0.4j)))
        net = NetworkSpec(
            elements=(("amp", amp), ("sys", CavityReflection(CAV))),
            wiring=(
                (("amp", 0), ("amp", 0)),
                (("sys", 0), ("amp", 1)),
                (("amp", 1), ("sys", 0)),
            ),
        )
        grid = np.linspace(-3.0, 3.0, 7)
        a, _ = dense_system(net, 0.0)
        assert a[0, 0] == 0.0 and a[3, 0] == -0.7
        values = solve_network(net, grid)
        for w, value in zip(grid, values):
            ref = dense_response(net, w)
            assert rel_err(solve_network(net, float(w)), ref) <= 1e-12
            assert rel_err(value, ref) <= 1e-12

    def test_random_networks_match_dense_solve(self):
        rng = np.random.default_rng(18)
        grid = np.linspace(-6.0, 6.0, 97)
        checked = 0
        for _ in range(40):
            net = series_network(rng)
            assert type(solve_network(net, 0.3)) is complex
            values = solve_network(net, grid)
            for w, value in zip(grid, values):
                a, _ = dense_system(net, w)
                if abs(np.linalg.det(a)) >= 1e-4:
                    assert rel_err(value, dense_response(net, w)) <= 1e-12
                    checked += 1
        assert checked > 3000

    def test_series_networks_give_the_float_bits(self):
        # The shuffled element order puts the tap row t at every index, so the
        # rows dropped above it, the entries updated below it and the rows a
        # pivot swap displaces differ from draw to draw.
        rng = np.random.default_rng(22)
        grid = np.linspace(-6.0, 6.0, 49)
        taps = set()
        for _ in range(40):
            net = series_network(rng)
            taps.add(net.index[(net.tap, 0)])
            assert_float_bits(net, grid)
        assert taps == set(range(6))

    def test_zero_first_pivot_gives_the_float_bits(self):
        net = zero_pivot_network()
        assert dense_system(net, 0.0)[0][0, 0] == 0.0
        assert_float_bits(net, np.linspace(-3.0, 3.0, 7))

    def test_stored_s_matrix_is_left_unchanged(self):
        # The solver makes new entries and never writes into an element's.
        grid = np.linspace(-4.0, 4.0, 201)
        filt = FilterCavityParams(1.0, 1.3, 0.2, 1.0)
        s = scattering(filt, grid)
        kept = s.copy()
        stored = notch_loop(CAV, filt, tau=0.5)
        stored = NetworkSpec(
            elements=tuple((name, Stored(s) if name == "ctrl" else el) for name, el in stored.elements),
            wiring=stored.wiring,
        )
        first, second = solve_network(stored, grid), solve_network(stored, grid)
        assert np.array_equal(bits(s), bits(kept))
        assert np.array_equal(bits(first), bits(second))
        assert np.array_equal(bits(first), bits(solve_network(notch_loop(CAV, filt, tau=0.5), grid)))

    def test_singular_verdict_is_the_dense_determinants(self):
        # Blue-detuned notch loops, with and without a delay of 2*pi, whose
        # loop hits +1 at omega = -delta_f; points approach it from both
        # sides, so |det| sweeps through DEN_SINGULAR.
        # The random networks add regular points.
        rng = np.random.default_rng(180)
        cases = [(series_network(rng), 0.5) for _ in range(4)]
        for kappa_f, delta_f in ((1.0, 1.0), (0.3, -1.0), (2.0, 1.0)):
            blue = OptoCavityParams(10.0, delta_f, 0.1, 1.0)
            f = FilterCavityParams.symmetric(kappa_f, delta_f)
            for tau in (0.0, 2.0 * math.pi):
                cases.append((notch_loop(blue, f, tau=tau), -delta_f))
        offsets = np.concatenate([[0.0], np.logspace(-16.0, -8.0, 33)])
        verdicts = {True: 0, False: 0}
        for net, w0 in cases:
            for w in np.concatenate([w0 - offsets, w0 + offsets]):
                a, _ = dense_system(net, w)
                det = abs(np.linalg.det(a))
                if 0.5e-13 <= det <= 2e-13:
                    continue
                try:
                    solve_network(net, float(w))
                    singular = False
                except SingularLoop as exc:
                    assert exc.omega == w
                    singular = True
                assert singular == (det < DEN_SINGULAR), (w, det)
                verdicts[singular] += 1
        assert min(verdicts.values()) >= 20


class TestRegular:
    # The threshold, one ulp either side of it, signed zeros, the least
    # subnormal, NaN and the infinities: every pair of them as (re, im).
    PARTS = [DEN_SINGULAR, np.nextafter(DEN_SINGULAR, 0.0), np.nextafter(DEN_SINGULAR, 1.0),
             0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf]
    PAIRS = list(itertools.product(PARTS, repeat=2))

    def test_is_the_hypot_threshold_on_arrays_0d_values_and_floats(self):
        re, im = np.array(self.PAIRS).T
        expected = np.hypot(re, im) >= DEN_SINGULAR
        assert expected.any() and not expected.all()
        got = _regular(re, im)
        assert isinstance(got, np.ndarray) and np.array_equal(got, expected)
        for (r, i), want in zip(self.PAIRS, expected.tolist()):
            # Alone, each pair takes the bound's verdict where it settles
            # one, and the hypot otherwise.
            assert _regular(np.array([r]), np.array([i])).tolist() == [want], (r, i)
            assert bool(_regular(np.array(r), np.array(i))) is want, (r, i)
            assert bool(_regular(r, i)) is want, (r, i)
        regular = expected.nonzero()[0]  # a grid that the bound settles whole
        assert _regular(re[regular], im[regular]).all()


class TestNetworkValidation:
    @pytest.mark.parametrize("topology, filt", [
        (Topology.NONE, None), (Topology.NOTCH, FILT), (Topology.BANDPASS, FILT_BP),
    ], ids=["none", "notch", "bandpass"])
    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_network_for_derives_input_and_tap(self, topology, filt, tau):
        # The external input is the one undriven port, the tap the one cavity;
        # the ports keep their element order.
        net = network_for(SystemConfig(CAV, filt, topology, delay=tau))
        assert net.tap == "sys"
        if topology is Topology.NONE:
            assert (net.input_port, net.index) == (("sys", 0), {("sys", 0): 0})
            return
        ports = [("ctrl", 0), ("ctrl", 1), ("sys", 0)] + [("lag", 0)] * (tau > 0)
        assert net.input_port == ("ctrl", 0)
        assert net.index == {port: row for row, port in enumerate(ports)}

    def test_duplicate_drive_rejected(self):
        with pytest.raises(InvalidParam) as exc:
            NetworkSpec(
                elements=(("ctrl", FilterTwoPort(FILT)), ("sys", CavityReflection(CAV))),
                wiring=(
                    (("ctrl", 0), ("sys", 0)),
                    (("ctrl", 1), ("sys", 0)),
                    (("sys", 0), ("ctrl", 1)),
                ),
            )
        assert str(exc.value) == "input port ('sys', 0) is driven by ('ctrl', 0) and ('ctrl', 1)"

    @pytest.mark.parametrize("wiring, undriven", [
        # An edge into the loop's external input leaves no port undriven.
        (((("ctrl", 0), ("sys", 0)), (("sys", 0), ("ctrl", 1)), (("ctrl", 1), ("ctrl", 0))), "[]"),
        (((("ctrl", 0), ("sys", 0)),), "[('ctrl', 0), ('ctrl', 1)]"),
    ], ids=["none-undriven", "two-undriven"])
    def test_exactly_one_undriven_port(self, wiring, undriven):
        with pytest.raises(InvalidParam) as exc:
            NetworkSpec(
                elements=(("ctrl", FilterTwoPort(FILT)), ("sys", CavityReflection(CAV))),
                wiring=wiring,
            )
        assert str(exc.value) == f"exactly one input port must be undriven, found {undriven}"

    @pytest.mark.parametrize("elements, wiring, message", [
        ((("sys", CavityReflection(CAV)), ("sys", DelayLine(1.0))), (),
         "duplicate element names in ['sys', 'sys']"),
        ((("sys", CavityReflection(CAV)),), ((("lag", 0), ("sys", 0)),),
         "unknown element 'lag' in port ('lag', 0)"),
        ((("sys", CavityReflection(CAV)), ("lag", DelayLine(1.0))), ((("sys", 1), ("lag", 0)),),
         "port index out of range: ('sys', 1)"),
    ], ids=["duplicate-name", "unknown-element", "port-index"])
    def test_names_and_ports_checked(self, elements, wiring, message):
        with pytest.raises(InvalidParam) as exc:
            NetworkSpec(elements=elements, wiring=wiring)
        assert str(exc.value) == message

    @pytest.mark.parametrize("elements, wiring, taps", [
        ((("lag", DelayLine(1.0)),), (), "[]"),
        ((("sys", CavityReflection(CAV)), ("aux", CavityReflection(CAV))),
         ((("sys", 0), ("aux", 0)),), "['sys', 'aux']"),
    ], ids=["no-cavity", "two-cavities"])
    def test_exactly_one_cavity_is_the_tap(self, elements, wiring, taps):
        with pytest.raises(InvalidParam) as exc:
            NetworkSpec(elements=elements, wiring=wiring)
        assert str(exc.value) == f"exactly one element must be a CavityReflection, found {taps}"


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
