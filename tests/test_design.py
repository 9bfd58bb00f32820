"""Preset construction, optimal detuning, feasibility, and sweeps."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from cfcool import (
    BracketError,
    FilterCavityParams,
    InvalidParam,
    MechanicalBath,
    OptoCavityParams,
    SingularLoop,
    SystemConfig,
    Topology,
    argmax_detuning_numeric,
    bandpass_ground_state_feasible,
    build_state_space,
    closed_loop_response,
    is_stable,
    make_bandpass,
    make_notch,
    optimal_detuning,
    scattering_rates,
    sweep,
)
from cfcool import design, oracle

NAN = float("nan")


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

    def test_bare_cavity_takes_no_filter(self):
        # No loop reads a bare cavity's controller, so a value there could only
        # move the argmax's default bracket or feed a kappa_f sweep of
        # identical rows; the config refuses it, and a kappa_f sweep of the
        # bare cavity, which has no controller to sweep, is refused as
        # `cfcool sweep` refuses it (exit 1).
        cav = OptoCavityParams(10.0, -1.0, 0.1, 1.0)
        with pytest.raises(InvalidParam) as exc:
            SystemConfig(cav, FilterCavityParams.symmetric(0.01, 1.0), Topology.NONE)
        assert str(exc.value) == "topology none takes no filter parameters"
        with pytest.raises(InvalidParam) as exc:
            sweep(SystemConfig(cav, None, Topology.NONE), "kappa_f", [1.0, 2.0, 3.0])
        assert str(exc.value) == "topology none has no controller to sweep kappa_f"


class TestOptimalDetuning:
    def test_reference_value(self):
        assert abs(optimal_detuning(1.0, 10.0, 1.0) - (-3.5)) < 1e-15

    def test_weak_cavity_limit(self):
        assert abs(optimal_detuning(1.0, 1e-9, 1.0) - (-1.0)) < 1e-9

    def test_wide_filter_limit(self):
        assert abs(optimal_detuning(1.0, 10.0, 1e9) - (-1.0)) < 1e-8

    @pytest.mark.parametrize("args", [(NAN, 10.0, 1.0), (1.0, NAN, 1.0), (1.0, 10.0, NAN)])
    def test_nan_refused(self, args):
        with pytest.raises(InvalidParam):
            optimal_detuning(*args)


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

    def test_ties_do_not_move_the_maximum(self):
        # At g ~ 1e-158 the rates are subnormal (~9e-316) and their coarse
        # rounding ties nearby detunings.  Moving the incumbent on a tie walked
        # the bracket off the peak at -1.5332031 and ended 4.1e-4 from it;
        # keeping it stays on the peak to the objective's resolution (4e-6).
        cav = OptoCavityParams(1.3125, 0.0, 8.610040440996311e-159, 1.0)
        filt = FilterCavityParams(kappa1=1.0, kappa2=4.0, kappa_loss=0.0, delta_f=0.625)
        got = argmax_detuning_numeric(SystemConfig(cav, filt, Topology.BANDPASS), tol=1e-7)
        assert abs(got - (-1.5332031)) <= 1e-5

    def test_default_bracket_uses_controller_linewidth(self):
        # The linewidth of an imbalanced controller is kappa_total/2; a bracket
        # from kappa1 = 0.05 alone ends at -1.5 and misses the maximum near -1.88.
        cav = OptoCavityParams(10.0, -1.0, 0.1, 1.0)
        filt = FilterCavityParams(kappa1=0.05, kappa2=4.0, kappa_loss=0.0, delta_f=1.0)
        cfg = SystemConfig(cav, filt, Topology.NOTCH)
        wide = argmax_detuning_numeric(cfg, (-81.0, -1e-3))
        assert abs(argmax_detuning_numeric(cfg) - wide) <= 1e-6

    @pytest.mark.parametrize("call, message", [
        (lambda cfg: closed_loop_response(cfg, method="x"), "unknown method 'x'"),
        (lambda cfg: argmax_detuning_numeric(cfg, bracket=(1.0, 0.0)), "bad bracket (1.0, 0.0)"),
    ], ids=["method", "bracket"])
    def test_bad_argument_refused(self, call, message):
        with pytest.raises(InvalidParam) as exc:
            call(make_notch(10.0, 1.0, 0.1, 1.0))
        assert str(exc.value) == message

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-7])
    def test_tol_not_finite_and_positive_refused(self, tol):
        # A NaN tol fails every comparison, so a `tol <= 0` check lets it
        # through to a stopping test that it then decides wrongly.
        with pytest.raises(InvalidParam, match="tol"):
            argmax_detuning_numeric(make_notch(7.3, 1.0, 0.01, 1.7), tol=tol)

    def test_tol_below_float_spacing_ends(self):
        # Below the spacing of floats near -3.5 (4.4e-16) no bracket can
        # narrow to tol; the search stops at a few units in the last place.
        cfg = make_notch(10.0, 1.0, 0.1, 1.0)
        for tol in (1e-16, 1e-300):
            assert abs(argmax_detuning_numeric(cfg, (-10.0, -1e-3), tol=tol) - (-3.5)) <= 1e-6

    def test_refinement_evaluations_on_criterion_3_grid(self, monkeypatch):
        # Brent's method needs 5-10 objective evaluations per argmax here,
        # where a golden-section search needs 29-39.  An evaluation is a
        # call of loop_sigma's Sigma at a float detuning (the scan's column
        # is not one).
        calls = []
        loop_sigma = design.loop_sigma

        def counting(cfg):
            sigma_at = loop_sigma(cfg)

            def call(omega):
                if isinstance(cfg.cav.delta, float):
                    calls.append(omega)
                return sigma_at(omega)

            return call

        monkeypatch.setattr(design, "loop_sigma", counting)
        for kappa in (1.0, 3.0, 10.0, 30.0):
            for kf in (0.25, 1.0, 4.0):
                calls.clear()
                argmax_detuning_numeric(make_notch(kappa, 1.0, 0.1, kf), (-1.0 - kappa * kf, -1e-3), tol=1e-7)
                assert 1 <= len(calls) <= 20, (kappa, kf, len(calls))

    def test_one_objective(self, monkeypatch):
        # The scan and every Brent step evaluate loop_sigma at +omega_m:
        # neither the sweep's sideband pairs nor a RateResult is built.
        def refused(*args):
            raise AssertionError("the argmax evaluates only loop_sigma")

        monkeypatch.setattr(design, "loop_rates", refused)
        monkeypatch.setattr(design, "_sideband_sigmas", refused)
        got = argmax_detuning_numeric(make_notch(10.0, 1.0, 0.1, 1.0), tol=1e-7)
        assert repr(got) == "-3.5000000499907125"

    @pytest.mark.parametrize("route, digest", [
        ("closed-form", "4154c33938c8ae133dea0ee2101b267bc231bc6ee0dd4dc054db3baacb276b0a"),
        # Imbalanced, lossy and delayed loops on the network solver.
        ("solver", "7743fb3a6f2fe2eddfe54ac684f491a8640b9c92881a6ca223b9747682f4e8e3"),
    ])
    def test_golden_bits(self, request, route, digest):
        # No command calls the argmax, so these reprs pin its bits: notch,
        # band-pass and bare loops, symmetric, imbalanced and lossy
        # controllers, with and without delay, at two tolerances.
        if route == "solver":
            request.getfixturevalue("solver_for_nonideal_loops")
        notch, bandpass, bare = Topology.NOTCH, Topology.BANDPASS, Topology.NONE
        cases = [
            (OptoCavityParams(10.0, -1.0, 0.1, 1.0), (1.0, 1.0, 0.0, 1.0), notch, 0.0, 1e-7),
            (OptoCavityParams(10.0, -1.0, 0.1, 1.0), (1.0, 1.0, 0.0, 1.0), notch, 0.0, 1e-9),
            (OptoCavityParams(10.0, -1.0, 0.1, 1.0), (1.0, 1.3, 0.2, 1.0), notch, 0.5, 1e-7),
            (OptoCavityParams(3.0, -1.0, 0.05, 1.0), (0.4, 0.9, 0.0, 1.0), notch, 0.0, 1e-9),
            (OptoCavityParams(20.0, -1.0, 0.3, 1.0), (2.0, 2.0, 0.3, 1.0), notch, 1.7, 1e-9),
            (OptoCavityParams(10.0, -1.0, 0.1, 1.0), (1.0, 1.0, 0.0, -1.0), bandpass, 0.0, 1e-7),
            (OptoCavityParams(10.0, -1.0, 0.1, 1.0), (1.0, 1.3, 0.2, -1.0), bandpass, 0.5, 1e-7),
            (OptoCavityParams(3.0, -1.0, 0.02, 1.0), (0.5, 0.65, 0.0, -1.0), bandpass, 0.3, 1e-9),
            (OptoCavityParams(5.0, -1.0, 0.1, 1.0), (1.5, 1.5, 0.1, -1.0), bandpass, 0.0, 1e-9),
            (OptoCavityParams(10.0, -1.0, 0.1, 1.0), None, bare, 0.0, 1e-7),
            (OptoCavityParams(0.5, -1.0, 0.01, 1.0), None, bare, 0.0, 1e-9),
            (OptoCavityParams(2.0, -1.0, 0.04, 1.0), None, bare, 0.0, 1e-7),
        ]
        reprs = [
            repr(argmax_detuning_numeric(
                SystemConfig(cav, filt if filt is None else FilterCavityParams(*filt), topology, delay=tau),
                tol=tol,
            ))
            for cav, filt, topology, tau, tol in cases
        ]
        assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == digest, reprs


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

    @pytest.mark.parametrize("args", [(NAN, 1.0, 1.0), (10.0, NAN, 1.0), (10.0, 1.0, NAN)])
    def test_nan_refused(self, args):
        with pytest.raises(InvalidParam):
            bandpass_ground_state_feasible(*args)


def bits(values):
    return np.ascontiguousarray(values).view(np.int64)


class TestLoopRates:
    @pytest.mark.parametrize("name, values", [
        # delta = delta_f = omega_m: singular at the Stokes sideband -omega_m.
        ("delta", [-1.0, 1.0, -2.0]),
        ("delta", [-1.0, -0.5, -2.0]),
        ("g", [0.0, 0.1, 0.5]),
        ("omega_m", [0.5, 1.0, 2.0]),
        # Controller columns, lossless and lossy.
        ("delta_f", [0.5, 1.0, 2.0]),
        ("kappa_loss", [0.1, 0.2, 0.3]),
    ])
    def test_column_config_gives_the_per_row_rates(self, name, values):
        def config(value):
            cav = OptoCavityParams(10.0, -1.0, 0.1, 1.0)
            filt = FilterCavityParams.symmetric(1.0, 1.0)
            if hasattr(cav, name):
                cav = replace(cav, **{name: value})
            else:
                filt = replace(filt, **{name: value})
            return SystemConfig(cav, filt, Topology.NOTCH)

        rows = []
        for value in values:
            try:
                rows.append(design.loop_rates(config(value)))
            except SingularLoop:
                rows.append(None)
        config = config(np.array(values))
        if None in rows:
            with pytest.raises(SingularLoop) as exc:
                design.loop_rates(config)
            assert exc.value.singular.tolist() == [row is None for row in rows]
            return
        rates = design.loop_rates(config)
        for field in ("a_plus", "a_minus", "gamma_opt", "n_min"):
            expected = [NAN if getattr(row, field) is None else getattr(row, field) for row in rows]
            assert np.array_equal(bits(getattr(rates, field)), bits(expected))


class TestLoopSigmaOnGrid:
    # A symmetric notch loop with delta = delta_f = 1 is singular at
    # omega = -1: the controller reflection vanishes there and T = r_sys = -1.
    CAV = OptoCavityParams(kappa=10.0, delta=1.0, g=0.1, omega_m=1.0)
    FILT = FilterCavityParams.symmetric(kappa_f=1.0, delta_f=1.0)
    GRID = np.array(sorted({*np.linspace(-3.0, 3.0, 61).tolist(), -1.0,
                            np.nextafter(-1.0, -2.0), np.nextafter(-1.0, 0.0),
                            -1.0 - 4e-14, -1.0 + 4e-14}))

    @pytest.mark.parametrize("tau, grid", [
        pytest.param(0.0, GRID, id="closed-form"),
        # e^{i omega tau} = 1 at omega = -1: |det(I - M)| is about 2.4e-16 there.
        pytest.param(2.0 * np.pi, GRID, id="delayed"),
        pytest.param(0.0, np.array([-1.0]), id="only-point-singular"),
    ])
    def test_singular_points_flagged_and_the_rest_per_point(self, monkeypatch, tau, grid):
        config = SystemConfig(self.CAV, self.FILT, Topology.NOTCH, delay=tau)
        sigma_at = design.loop_sigma(config)
        points = []
        for w in grid.tolist():
            try:
                points.append(sigma_at(w))
            except SingularLoop:
                points.append(None)
        expected = np.array([p is None for p in points])
        assert expected[grid == -1.0].all()

        calls = []

        def recording(cfg):
            response = closed_loop_response(cfg)

            def call(omega):
                calls.append(omega)
                return response(omega)

            return call

        monkeypatch.setattr(design, "closed_loop_response", recording)
        values = np.zeros(grid.size)
        singular = design.fill_rows(design.loop_sigma(config), grid, values)
        assert np.array_equal(singular, expected)
        assert np.all(values[singular] == 0.0)
        assert np.array_equal(bits(values[~singular]), bits([p for p in points if p is not None]))
        # One array call, plus one more on the regular points if any is singular.
        assert all(isinstance(omega, np.ndarray) for omega in calls)
        assert len(calls) == 1 + expected.any()

    @pytest.mark.parametrize("omega", [-1.0, 0.3])
    def test_g_column_at_a_float_omega(self, omega):
        # g enters no response, so a g column at a float omega is a response
        # call without grid axes: at the singular omega = -1 its 0-d verdict
        # flags every row, which keeps its value; elsewhere each row has the
        # bits of its float config.
        config = SystemConfig(self.CAV, self.FILT, Topology.NOTCH)
        g = np.linspace(0.01, 0.3, 5)
        values = np.full(g.size, 7.0)
        singular = design.fill_rows(
            lambda rows: design.loop_sigma(design._with_parameter(config, "g", rows))(omega), g, values
        )
        if omega == -1.0:
            assert singular.all() and np.all(values == 7.0)
            return
        assert not singular.any()
        rows = [design.loop_sigma(design._with_parameter(config, "g", x))(omega) for x in g.tolist()]
        assert np.array_equal(bits(values), bits(rows))

    @pytest.mark.parametrize("rows", [3, 2])
    def test_g_column_against_an_omega_grid(self, rows):
        # g enters no response, so the response's mask covers the omega
        # grid only: broadcast against each row, it flags every row, which
        # keeps its value, and the block takes no second call.  Two rows
        # against two frequencies is the case a per-row reading would take.
        config = SystemConfig(self.CAV, self.FILT, Topology.NOTCH)
        calls = []

        def evaluate(g):
            calls.append(g)
            return design.loop_sigma(design._with_parameter(config, "g", g[:, None]))(
                np.array([-1.0, 0.5]))

        values = np.full((rows, 2), 7.0)
        singular = design.fill_rows(evaluate, np.linspace(0.01, 0.3, rows), values)
        assert singular.all() and np.all(values == 7.0)
        assert len(calls) == 1

    def test_2d_grid_keeps_its_shape(self):
        # Row-major order: the values of the flat grid's call, and on a
        # singular grid the flat call's mask.
        config = SystemConfig(self.CAV, self.FILT, Topology.NOTCH)
        sigma_at = design.loop_sigma(config)
        grid = np.array([[-2.0, 0.0], [1.0, 2.0]])
        values = sigma_at(grid)
        assert values.shape == grid.shape
        assert np.array_equal(bits(values.ravel()), bits(sigma_at(grid.ravel())))
        with pytest.raises(SingularLoop) as exc:
            sigma_at(np.array([[-1.0, 0.0], [1.0, 2.0]]))
        assert exc.value.singular.tolist() == [True, False, False, False]


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

    @pytest.mark.parametrize("cfg", [
        # Blue detuning antidamps the mechanics faster than gamma_m damps it,
        # except near delta = 0, where the bath decides the flag.
        SystemConfig(OptoCavityParams(1.0, -1.0, 0.05, 1.0), None, Topology.NONE),
        # Strong coupling near the controller resonance destabilizes the loop.
        make_notch(10.0, 1.0, 0.1, 1.0),
    ])
    def test_stability_flags_cross_the_boundary(self, cfg):
        # Each batched flag must be the per-row oracle's verdict.
        bath = MechanicalBath(1e-3, 10.0)
        table = sweep(cfg, "delta", np.linspace(-3.0, 3.0, 41), bath=bath)
        flags = [row.stable for row in table.rows]
        assert True in flags and False in flags
        for row in table.rows:
            row_cfg = SystemConfig(replace(cfg.cav, delta=row.value), cfg.filt, cfg.topology)
            assert row.stable is is_stable(build_state_space(row_cfg, bath))

    def test_delayed_loop_flags_are_unknown(self, monkeypatch):
        def fail(*args):
            raise AssertionError("stability tested for a delayed loop")

        monkeypatch.setattr(oracle, "is_hurwitz", fail)
        cfg = replace(make_notch(10.0, 1.0, 0.1, 1.0), delay=0.1)
        table = sweep(cfg, "delta", [-3.5, -1.0, 0.5])
        assert [row.stable for row in table.rows] == [None, None, None]
        assert all(row.rates is not None for row in table.rows)

    @pytest.mark.parametrize("name, grid", [
        ("delta", [-3.0, -1.0, 0.5]),
        ("kappa_f", [0.5, 1.0, 4.0]),
        ("kappa", [0.5, 2.0, 10.0]),
        ("g", [0.01, 0.1, 0.5]),
    ])
    def test_rows_are_the_loops_with_that_value(self, name, grid):
        cfg = make_notch(10.0, 1.0, 0.1, 1.0)
        bath = MechanicalBath(1e-3, 10.0)
        table = sweep(cfg, name, grid, bath=bath)
        for value, row in zip(grid, table.rows):
            if name == "kappa_f":
                row_cfg = replace(cfg, filt=FilterCavityParams.symmetric(value, cfg.filt.delta_f))
            else:
                row_cfg = replace(cfg, cav=replace(cfg.cav, **{name: value}))
            assert row.value == value
            assert row.rates == design.loop_rates(row_cfg)
            assert row.stable is is_stable(build_state_space(row_cfg, bath))

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
