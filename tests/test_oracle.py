"""State-space assembly, stability, Lyapunov covariance, and the cross-check."""

import numpy as np
import pytest
import scipy.linalg

from cfcool import design, oracle
from cfcool import (
    FilterCavityParams,
    InvalidParam,
    MechanicalBath,
    NegativeOccupation,
    OptoCavityParams,
    SystemConfig,
    Topology,
    UnstableModel,
    UnsupportedDelay,
    build_state_space,
    consistency_check,
    drift_matrix,
    heisenberg_defect,
    is_hurwitz,
    is_stable,
    make_bandpass,
    make_notch,
    optimal_detuning,
    phonon_number,
    steady_covariance,
)

BATH = MechanicalBath(gamma_m=1e-5, n_th=100.0)
COLD = MechanicalBath(gamma_m=0.0, n_th=0.0)


def uncontrolled(delta=-1.0, g=0.1, kappa=10.0):
    return SystemConfig(OptoCavityParams(kappa, delta, g, 1.0), None, Topology.NONE)


class TestBuild:
    def test_decoupled_blocks_and_mechanical_eigenvalues(self):
        gm = 0.02
        m = build_state_space(uncontrolled(g=0.0), MechanicalBath(gm, 0.0))
        assert np.all(m.drift[0:2, 2:4] == 0.0) and np.all(m.drift[2:4, 0:2] == 0.0)
        eigs = np.linalg.eigvals(m.drift[0:2, 0:2])
        expected = np.array([-gm / 2 + 1j, -gm / 2 - 1j])
        assert np.allclose(sorted(eigs, key=lambda z: z.imag), sorted(expected, key=lambda z: z.imag))

    def test_notch_is_six_by_six_and_hurwitz(self):
        m = build_state_space(make_notch(10.0, 1.0, 0.1, 1.0), BATH)
        assert m.drift.shape == (6, 6)
        assert np.all(np.linalg.eigvals(m.drift).real < 0)

    def test_zero_mech_bath_diffusion_blocks(self):
        m = build_state_space(make_notch(10.0, 1.0, 0.1, 1.0), COLD)
        assert np.all(m.diffusion[0:2, 0:2] == 0.0)
        # Optical diffusion follows the vacuum normalization, here kappa/2 on
        # the cavity block and the coherent cross terms of the shared vacuum.
        assert np.allclose(np.diag(m.diffusion)[2:4], 10.0 / 2.0)
        assert np.allclose(m.diffusion[2, 4], np.sqrt(10.0) * np.sqrt(1.0))

    def test_bandpass_collapses_to_effective_mode(self):
        m = build_state_space(make_bandpass(10.0, 1.0, 0.0, 1.0), COLD)
        assert m.drift.shape == (4, 4)
        eigs = np.linalg.eigvals(m.drift[2:4, 2:4])
        kappa_eff = 10.0 * 1.0 / 11.0
        delta_eff = -1.0
        assert np.allclose(sorted(eigs.real), [-kappa_eff / 2] * 2)
        assert np.allclose(sorted(eigs.imag), sorted([delta_eff, -delta_eff]))

    def test_delay_unsupported(self):
        cfg = make_notch(10.0, 1.0, 0.1, 1.0)
        cfg = SystemConfig(cfg.cav, cfg.filt, cfg.topology, delay=0.5)
        with pytest.raises(UnsupportedDelay):
            build_state_space(cfg, BATH)


class TestStability:
    def test_damped_oscillator_stable(self):
        assert is_stable(build_state_space(uncontrolled(g=0.0), MechanicalBath(0.01, 0.0)))

    def test_notch_at_optimum_stable(self):
        dc = optimal_detuning(1.0, 10.0, 1.0)
        assert is_stable(build_state_space(make_notch(10.0, 1.0, 0.1, 1.0, dc), BATH))

    def test_blue_detuned_heating_unstable(self):
        # At delta = +omega_m the Stokes rate beats the anti-Stokes rate by
        # far more than gamma_m for g = 0.1, so the closed loop runs away.
        m = build_state_space(uncontrolled(delta=+1.0), BATH)
        assert not is_stable(m)
        with pytest.raises(UnstableModel):
            consistency_check(uncontrolled(delta=+1.0), BATH)

    def test_passive_presets_stable_under_red_detuning(self):
        # The working configurations: kappa = 10, the controller-linewidth
        # ladder, conventional and optimal detunings, weak-to-moderate
        # coupling.  (Stronger coupling near zero detuning can buckle the
        # mechanical spring through the loop's large static response, so an
        # unrestricted red-detuning claim would be false.)
        for kf in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
            deltas = (-1.0, optimal_detuning(1.0, 10.0, kf))
            for delta in deltas:
                for g in (0.01, 0.1):
                    for make in (make_notch, make_bandpass):
                        cfg = make(10.0, 1.0, g, kf, delta_override=delta)
                        assert is_stable(build_state_space(cfg, BATH)), (kf, delta, g, make)

    def test_hurwitz_margin_is_per_matrix(self):
        # A stack-wide margin (the largest norm) would call the slow but
        # stable second matrix unstable.
        stack = np.stack([np.diag([-1e6, -1e6]), np.diag([-1e-9, -1.0])])
        flags = is_hurwitz(stack)
        assert flags.tolist() == [True, True]
        assert flags.tolist() == [bool(is_hurwitz(a)) for a in stack]


def two_norm_rule(stack):
    """The strict Hurwitz rule, matrix by matrix, with ||A||_2 itself."""
    return [
        bool(np.all(np.linalg.eigvals(a).real < -oracle.STABILITY_MARGIN * np.linalg.norm(a, 2)))
        for a in stack
    ]


class TestHurwitz:
    # The first four 4x4 matrices have M = max|a_ij| = 1, so the bounds
    # settle w = max Re(eig) < -8e-12 (stable) and w >= -5e-13 (unstable);
    # in between ||A||_2 = 1 decides, where ||A||_F = sqrt(3) would not.
    STACK = np.stack([
        np.diag([-1.0, -2.0, -0.5, -1.0]),           # proven stable
        np.diag([1e-3, -1.0, -1.0, -1.0]),           # proven unstable
        np.diag([-1.4e-12, -1.0, -1.0, -1.0]),       # in band, stable by ||A||_2
        np.diag([-0.7e-12, -1.0, -1.0, -1.0]),       # in band, unstable
        np.diag([-1e200] * 4),                       # ||A||_F overflows
        np.zeros((4, 4)),                            # w = 0 and M = 0
    ])

    def test_flags_are_the_two_norm_rule(self, monkeypatch):
        norms = []

        def spy(x, *args, **kwargs):
            norms.append((np.array(x), args, kwargs))
            return norm(x, *args, **kwargs)

        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", spy)
        flags = is_hurwitz(self.STACK)
        monkeypatch.undo()
        assert flags.tolist() == two_norm_rule(self.STACK)
        assert flags.tolist() == [True, False, True, False, True, False]
        # ||A||_2 was taken once, for the two in-band matrices only.
        [(band, args, kwargs)] = norms
        assert np.array_equal(band, self.STACK[2:4])
        assert args == (2,) and kwargs == {"axis": (-2, -1)}

    def test_empty_stack_and_single_matrix(self):
        assert is_hurwitz(np.zeros((0, 4, 4))).tolist() == []
        for a in self.STACK:
            assert bool(is_hurwitz(a)) == two_norm_rule([a])[0]

    @staticmethod
    def defective_pair(rng, n, w0):
        # A Jordan block of the complex pair w0 +- ib, the rest well damped,
        # rotated: its computed coefficients keep only about half their digits.
        a = np.zeros((n, n))
        a[0:2, 0:2] = a[2:4, 2:4] = [[w0, -0.5], [0.5, w0]]
        a[0:2, 2:4] = np.eye(2)
        a[range(4, n), range(4, n)] = -rng.uniform(0.1, 1.0, n - 4)
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        return q @ a @ q.T

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_certified_stacks_are_the_two_norm_rule(self, n):
        rng = np.random.default_rng(19 + n)
        stack = rng.normal(size=(300, n, n)) * 10.0 ** rng.uniform(-300, 300, (300, 1, 1))
        # Shift the diagonal by [-3, 1] times max|a_ij|: about a third unstable.
        stack -= np.eye(n) * np.abs(stack).max(axis=(1, 2))[:, None, None] * rng.uniform(
            -1.0, 3.0, (300, 1, 1))
        extra = [np.diag([-1e200] * n), np.zeros((n, n)), 1e-300 * rng.normal(size=(n, n))]
        if n >= 4:
            extra += [self.defective_pair(rng, n, w0) for w0 in (-1e-4, -1e-6, -1e-7, 1e-7, 1e-6)]
            # A stable triple root 1e-9 left of the axis: coefficient rounding
            # spreads it by about 5e-6, so a test of B - tau*I for instability
            # would often call it unstable.
            for _ in range(5):
                q = np.linalg.qr(rng.normal(size=(n, n)))[0]
                extra.append(q @ np.diag([-1e-9] * 3 + [-1.0] * (n - 3)) @ q.T)
        stack = np.concatenate([stack, extra])
        flags = is_hurwitz(stack)
        assert flags.tolist() == two_norm_rule(stack)
        assert 50 < np.count_nonzero(~flags) < 250

    def test_only_rows_near_the_axis_reach_eigvals(self, monkeypatch):
        # A notch g sweep from g = 0 at gamma_m = 0: the optical damping grows
        # as g^2, so the first rows lie within CERTIFICATION_SHIFT*M of the axis.
        grid = np.linspace(0.0, 0.05, 501)
        drifts = np.stack([
            drift_matrix(make_notch(10.0, 1.0, g, 1.0), COLD) for g in grid
        ])
        w = np.linalg.eigvals(drifts).real.max(axis=-1) / np.abs(drifts).max(axis=(1, 2))
        calls = []

        def spy(a):
            calls.append(np.array(a))
            return eigvals(a)

        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", spy)
        table = design.sweep(make_notch(10.0, 1.0, 0.0, 1.0), "g", grid)
        [reached] = calls
        calls.clear()
        is_hurwitz(drifts[0])
        [single] = calls
        monkeypatch.undo()
        assert table.stable.tolist() == two_norm_rule(drifts)
        assert single.shape == (6, 6) and np.array_equal(single, drifts[0])
        rows = [int(np.flatnonzero((drifts == a).all(axis=(1, 2)))[0]) for a in reached]
        tau = oracle.CERTIFICATION_SHIFT
        # Every row with w >= -tau*M/2 reaches eigvals, and no row with
        # w < -2*tau*M (the shift is tau*2^e, M < 2^e <= 2M).
        assert set(np.flatnonzero(w >= -tau / 2)) <= set(rows)
        assert np.all(w[rows] >= -2 * tau * (1 + 1e-3))
        assert 0 < len(rows) < 100

    def test_non_finite_row_still_raises(self):
        stack = np.stack([-np.eye(4), np.full((4, 4), np.nan)])
        with pytest.raises(np.linalg.LinAlgError):
            is_hurwitz(stack)


class TestCovariance:
    def test_thermal_equilibrium(self):
        m = build_state_space(uncontrolled(g=0.0), MechanicalBath(0.01, 3.0))
        V = steady_covariance(m)
        assert np.allclose(V[0:2, 0:2], 3.5 * np.eye(2), atol=1e-12)

    def test_vacuum_optical_blocks_with_zero_coupling(self):
        m = build_state_space(make_notch(10.0, 1.0, 0.0, 1.0), MechanicalBath(0.01, 0.0))
        V = steady_covariance(m)
        assert np.allclose(V[2:, 2:], 0.5 * np.eye(4), atol=1e-12)

    def test_residual_is_tiny(self):
        m = build_state_space(make_notch(10.0, 1.0, 0.1, 1.0, -3.5), BATH)
        V = steady_covariance(m)
        residual = np.linalg.norm(m.drift @ V + V @ m.drift.T + m.diffusion)
        assert residual <= 1e-10 * np.linalg.norm(m.diffusion)

    def test_matches_scipy_solver(self):
        for cfg in (
            uncontrolled(),
            make_notch(10.0, 1.0, 0.1, 1.0, -3.5),
            make_bandpass(10.0, 1.0, 0.1, 1.0),
        ):
            m = build_state_space(cfg, BATH)
            V = steady_covariance(m)
            V_ref = scipy.linalg.solve_continuous_lyapunov(m.drift, -m.diffusion)
            assert np.allclose(V, V_ref, rtol=1e-8, atol=1e-12)

    def test_unstable_model_rejected(self):
        m = build_state_space(uncontrolled(delta=+1.0), BATH)
        with pytest.raises(UnstableModel):
            steady_covariance(m)

    def test_heisenberg_bound_on_random_stable_configs(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 40:
            kappa = rng.uniform(0.5, 30.0)
            kf = rng.uniform(0.1, 20.0)
            g = rng.uniform(0.0, 0.3)
            delta = rng.uniform(-8.0, 0.0)
            kind = rng.integers(0, 3)
            if kind == 0:
                cfg = make_notch(kappa, 1.0, g, kf, delta_override=delta)
            elif kind == 1:
                cfg = make_bandpass(kappa, 1.0, g, kf, delta_override=delta)
            else:
                cfg = uncontrolled(delta=delta, g=g, kappa=kappa)
            bath = MechanicalBath(rng.uniform(1e-6, 1e-3), rng.uniform(0.0, 50.0))
            m = build_state_space(cfg, bath)
            if not is_stable(m):
                continue
            assert heisenberg_defect(steady_covariance(m)) >= -1e-9
            checked += 1


class TestPhononNumber:
    def test_ground_state(self):
        assert phonon_number(0.5 * np.eye(4)) == 0.0

    def test_thermal_state(self):
        assert abs(phonon_number(7.5 * np.eye(4)) - 7.0) < 1e-12

    def test_small_negative_clamped(self):
        V = 0.5 * np.eye(4)
        V[0, 0] = V[1, 1] = 0.5 - 2e-10
        assert phonon_number(V) == 0.0

    def test_large_negative_raises(self):
        V = 0.5 * np.eye(4)
        V[0, 0] = V[1, 1] = 0.4
        with pytest.raises(NegativeOccupation):
            phonon_number(V)

    def test_notch_weak_coupling_agrees_with_rate_balance(self):
        # g = 0.01 at delta = -omega_m: anti-Stokes rate 4e-5 against a
        # thermal load 1e-3 gives a rate-balance occupation of 20.0.
        cfg = make_notch(10.0, 1.0, 0.01, 1.0)
        V = steady_covariance(build_state_space(cfg, BATH))
        assert abs(phonon_number(V) - 20.0) / 20.0 < 0.05


class TestConsistency:
    def test_uncontrolled_weak_coupling(self):
        report = consistency_check(uncontrolled(g=0.01), BATH)
        assert report.rel_dev <= 0.05

    def test_notch_at_optimum_weak_coupling(self):
        dc = optimal_detuning(1.0, 10.0, 1.0)
        report = consistency_check(make_notch(10.0, 1.0, 0.01, 1.0, dc), BATH)
        assert report.rel_dev <= 0.05

    def test_decoupled_exactly_thermal(self):
        report = consistency_check(uncontrolled(g=0.0), BATH)
        assert abs(report.n_oracle - 100.0) < 1e-9
        assert abs(report.n_rate - 100.0) < 1e-12

    def test_rate_picture_improves_as_coupling_weakens(self):
        dc = optimal_detuning(1.0, 10.0, 1.0)
        deviations = [
            consistency_check(make_notch(10.0, 1.0, g, 1.0, dc), BATH).rel_dev
            for g in (0.1, 0.03, 0.01)
        ]
        assert deviations[0] > deviations[1] > deviations[2]
        assert all(dev <= 0.05 for dev in deviations)

    def test_bandpass_matches_rate_floor_in_cold_damping_limit(self):
        # The zero-delay band-passing loop is one effective optical mode, to
        # which the mechanics couples with g*alpha, alpha^2 = kappa2/(kappa +
        # kappa2) = 1/11 here.  As the mechanical bath decouples the
        # occupation tends to the floor A+/(A- - A+), which does not depend
        # on the scale of the rates: this test cannot see a wrong alpha, and
        # test_oracle_matches_rates_at_weak_coupling checks it.
        cfg = make_bandpass(10.0, 1.0, 0.01, 1.0)
        report = consistency_check(cfg, MechanicalBath(1e-10, 100.0))
        assert report.rel_dev <= 0.05
        assert abs(report.n_oracle - 25.0 / 484.0) / (25.0 / 484.0) < 0.05


class TestHugeInputs:
    """Library callers are not held to the CLI's input domain: the oracle
    refuses or handles values the CLI never passes on."""

    @pytest.mark.parametrize(
        "run",
        [lambda cfg: consistency_check(cfg, COLD),
         lambda cfg: design.sweep(cfg, "g", [0.1, 0.15, 0.2])],
        ids=["oracle", "sweep"],
    )
    @pytest.mark.parametrize(
        "cav, filt",
        [((1e200, -1.0), (1.0, 1.0, 1e200)), ((1.0, -1e200), (1.0, 1e200, 0.0))],
        ids=["kappa-eff", "delta-eff"],
    )
    def test_non_finite_bandpass_drift_refused(self, run, cav, filt):
        # Every rate is finite, but the band-passing loop's effective rate
        # kappa*(kappa1 + kappa_loss)/(kappa + kappa2) or detuning
        # (kappa2*delta + kappa*delta_f)/(kappa + kappa2) is not.
        cfg = SystemConfig(OptoCavityParams(cav[0], cav[1], 0.1, 1.0),
                           FilterCavityParams(*filt, delta_f=-1.0), Topology.BANDPASS)
        with pytest.raises(InvalidParam) as exc:
            run(cfg)
        assert str(exc.value) == (
            "the state-space drift is not finite: a product of the loop's rates "
            "or detunings overflows"
        )

    @pytest.mark.parametrize(
        "cfg", [uncontrolled(kappa=1e160), make_notch(1e160, 1.0, 0.1, 1.0)], ids=["none", "notch"]
    )
    def test_huge_rates_unstable(self, cfg):
        # The squares of entries of 1e160 overflow; the oracle's Frobenius
        # norms scale before squaring, and no numpy warning is raised.
        with pytest.raises(UnstableModel):
            consistency_check(cfg, MechanicalBath(1e-3, 0.0))

    def test_huge_rates_stable(self):
        # Stable: the Lyapunov gate's norms see entries of 1e160 too.
        report = consistency_check(uncontrolled(g=1e79, kappa=1e160), MechanicalBath(1e150, 0.0))
        assert (report.n_oracle, report.n_rate, report.rel_dev) == (
            0.0, 4.0000000000000003e-152, 4.0000000000000004e-140)
