"""End-to-end acceptance suite.

Each test prints one pass/fail line per criterion (run ``pytest -s`` to see
them inline; failures reprint captured output anyway).  Criterion 10 is split:
determinism and the sideband values hold, while the claim that the shaped
spectrum peaks exactly at +omega_m is recorded as a strict expected failure,
because the loop's auxiliary resonance tops the anti-Stokes peak for
kappa_f <= 2*omega_m and the closed forms themselves put the maximum near
omega = 0.43 for the configuration below.
"""

import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from cfcool import (
    FilterCavityParams,
    MechanicalBath,
    OptoCavityParams,
    SingularLoop,
    SystemConfig,
    Topology,
    bandpass_ground_state_feasible,
    build_state_space,
    closed_form_bandpass,
    closed_form_notch,
    closed_loop_response,
    consistency_check,
    heisenberg_defect,
    is_stable,
    make_notch,
    optimal_detuning,
    argmax_detuning_numeric,
    scattering,
    scattering_rates,
    solve_network,
    steady_covariance,
)
from cfcool.cli import main
from cfcool.design import network_for

KAPPA, OMEGA_M, G, KAPPA_F = 10.0, 1.0, 0.1, 1.0
CAV = OptoCavityParams(KAPPA, -1.0, G, OMEGA_M)
FILT = FilterCavityParams.symmetric(KAPPA_F, +1.0)
FILT_BP = FilterCavityParams.symmetric(KAPPA_F, -1.0)


@contextmanager
def criterion(label, detail):
    try:
        yield
    except BaseException:
        print(f"criterion {label}: FAIL | {detail}")
        raise
    print(f"criterion {label}: PASS | {detail}")


def rel_err(a, b):
    m = max(abs(a), abs(b))
    return abs(a - b) / m if m > 0 else 0.0


def test_criterion_01_full_stokes_suppression():
    with criterion("1", "notch kills the Stokes rate, anti-Stokes stays 4g^2/kappa"):
        chi_form = lambda w: closed_form_notch(CAV, FILT, w)
        net = network_for(SystemConfig(CAV, FILT, Topology.NOTCH))
        chi_solve = lambda w: solve_network(net, w)
        for chi_cl in (chi_form, chi_solve):
            r = scattering_rates(chi_cl, G, OMEGA_M)
            assert r.a_plus <= 1e-12 * r.a_minus
            assert rel_err(r.a_minus, 4.0 * G**2 / KAPPA) <= 1e-12


def test_criterion_02_enhancement_factor_at_optimal_detuning():
    with criterion("2", "anti-Stokes gain 1 + (kappa_f/omega_m)^2 at delta_c, Stokes stays zero"):
        for kf in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
            dc = optimal_detuning(OMEGA_M, KAPPA, kf)
            cav = OptoCavityParams(KAPPA, dc, G, OMEGA_M)
            filt = FilterCavityParams.symmetric(kf, +OMEGA_M)
            r_form = scattering_rates(lambda w: closed_form_notch(cav, filt, w), G, OMEGA_M)
            expected = 1.0 + (kf / OMEGA_M) ** 2
            assert rel_err(r_form.a_minus * KAPPA / (4.0 * G**2), expected) <= 1e-9
            assert r_form.a_plus == 0.0
            net = network_for(SystemConfig(cav, filt, Topology.NOTCH))
            r_solve = scattering_rates(lambda w: solve_network(net, w), G, OMEGA_M)
            assert r_solve.a_plus <= 1e-12
            assert rel_err(r_solve.a_minus * KAPPA / (4.0 * G**2), expected) <= 1e-9


def test_criterion_03_optimal_detuning_argmax():
    with criterion("3", "bracketed numeric argmax matches the closed form to 1e-6"):
        assert optimal_detuning(1.0, 10.0, 1.0) == -3.5
        for kappa in (1.0, 3.0, 10.0, 30.0):
            for kf in (0.25, 1.0, 4.0):
                cfg = make_notch(kappa, 1.0, 0.1, kf)
                dc = optimal_detuning(1.0, kappa, kf)
                got = argmax_detuning_numeric(cfg, (-1.0 - kappa * kf, -1e-3), tol=1e-7)
                assert abs(got - dc) <= 1e-6


def test_criterion_04_bandpass_rates_and_feasibility():
    with criterion("4", "band-pass Stokes formula, wide-filter limit, feasibility"):
        a_plus = G**2 * abs(closed_form_bandpass(CAV, FILT_BP, -OMEGA_M)) ** 2
        expected = G**2 * KAPPA / ((KAPPA / 2) ** 2 + 4.0 * (KAPPA / KAPPA_F + 1.0) ** 2 * OMEGA_M**2)
        assert rel_err(a_plus, expected) <= 1e-12
        assert rel_err(expected, 0.1 / 509.0) <= 1e-12
        wide = FilterCavityParams.symmetric(1e6, -OMEGA_M)
        a_plus_wide = G**2 * abs(closed_form_bandpass(CAV, wide, -OMEGA_M)) ** 2
        assert rel_err(a_plus_wide, 0.1 / 29.0) <= 1e-4
        assert bandpass_ground_state_feasible(KAPPA, KAPPA_F, OMEGA_M)


def test_criterion_05_uncontrolled_baseline():
    with criterion("5", "bare cavity at delta=-omega_m: rates and n_min=(kappa/4 omega_m)^2"):
        cfg = SystemConfig(CAV, None, Topology.NONE)
        r = scattering_rates(closed_loop_response(cfg), G, OMEGA_M)
        assert rel_err(r.a_minus, 0.004) <= 1e-9
        assert rel_err(r.a_plus, 0.1 / 29.0) <= 1e-9
        assert rel_err(r.n_min, 6.25) <= 1e-9


def test_criterion_06_filter_unitarity_and_half_reflection():
    with criterion("6", "|R|^2 + |T|^2 = 1 over 1000 random frequencies, half point at the linewidth"):
        rng = np.random.default_rng(2026)
        for _ in range(1000):
            f = FilterCavityParams.symmetric(
                rng.uniform(0.01, 100.0), rng.uniform(-20.0, 20.0)
            )
            s = scattering(f, rng.uniform(-50.0, 50.0))
            assert abs(abs(s[0, 0]) ** 2 + abs(s[0, 1]) ** 2 - 1.0) <= 1e-12
        for kf in (0.25, 1.0, 4.0):
            f = FilterCavityParams.symmetric(kf, 0.3)
            for sign in (+1.0, -1.0):
                s = scattering(f, sign * kf - 0.3)
                assert abs(abs(s[0, 0]) ** 2 - 0.5) <= 1e-15


def test_criterion_07_solver_matches_closed_forms():
    with criterion("7", "200 random draws: network solver vs closed forms to 1e-10"):
        rng = np.random.default_rng(42)
        singular = 0
        for _ in range(200):
            cav = OptoCavityParams(
                kappa=rng.uniform(0.1, 100.0), delta=rng.uniform(-20.0, 20.0),
                g=0.1, omega_m=1.0,
            )
            f = FilterCavityParams.symmetric(rng.uniform(0.01, 100.0), rng.uniform(-20.0, 20.0))
            w = rng.uniform(-50.0, 50.0)
            for topology, form in (
                (Topology.NOTCH, closed_form_notch),
                (Topology.BANDPASS, closed_form_bandpass),
            ):
                try:
                    got = solve_network(network_for(SystemConfig(cav, f, topology)), w)
                    ref = form(cav, f, w)
                except SingularLoop:
                    singular += 1
                    continue
                assert rel_err(got, ref) <= 1e-10
        assert singular == 0


def test_criterion_08_independent_lyapunov_oracle():
    # The ground-state demonstration runs at g = kappa/100 = 0.1, the upper
    # edge of the weak-coupling gate: at g = 0.01 the optical damping 8e-5 is
    # an order below the thermal load gamma_m*n_th = 1e-3, so every occupation
    # (rate balance included) sits near 11, and no model can land below one.
    with criterion("8", "Lyapunov covariance agrees with rate balance; ground state at g=kappa/100"):
        bath = MechanicalBath(gamma_m=1e-5, n_th=100.0)
        dc = optimal_detuning(OMEGA_M, KAPPA, KAPPA_F)
        for g, expect_ground in ((0.01, False), (0.1, True)):
            cfg = make_notch(KAPPA, OMEGA_M, g, KAPPA_F, delta_override=dc)
            model = build_state_space(cfg, bath)
            assert is_stable(model)
            V = steady_covariance(model)
            residual = np.linalg.norm(model.drift @ V + V @ model.drift.T + model.diffusion)
            assert residual <= 1e-10 * np.linalg.norm(model.diffusion)
            assert heisenberg_defect(V) >= -1e-9
            report = consistency_check(cfg, bath)
            assert report.rel_dev <= 0.05
            if expect_ground:
                assert report.n_oracle < 1.0
                assert cfg.cav.kappa > cfg.cav.omega_m  # unresolved: kappa/omega_m = 10


def test_criterion_09_mirror_imbalance_leaks_stokes():
    with criterion("9", "kappa2 = 1.2*kappa1 gives a_plus > 0, vanishing as the imbalance closes"):
        leaks = []
        for ratio in (1.2, 1.1, 1.05, 1.01):
            filt = FilterCavityParams(KAPPA_F, ratio * KAPPA_F, 0.0, +OMEGA_M)
            cfg = SystemConfig(CAV, filt, Topology.NOTCH)
            leaks.append(scattering_rates(closed_loop_response(cfg), G, OMEGA_M).a_plus)
        assert leaks[0] > 0.0
        assert leaks[0] > leaks[1] > leaks[2] > leaks[3] > 0.0
        assert leaks[3] < 1e-4 * 0.004


FIGURE_ARGS = {
    "filter_response": ["spectrum", "--element", "filter", "--kappa-f", "1",
                        "--delta-f", "1"],
    "notch_spectrum": ["spectrum", "--topology", "notch", "--kappa", "10",
                       "--g", "0.1", "--kappa-f", "1"],
    "bandpass_spectrum": ["spectrum", "--topology", "bandpass", "--kappa", "10",
                          "--g", "0.1", "--kappa-f", "1"],
    "notch_optimal_spectrum": ["spectrum", "--topology", "notch", "--kappa", "10",
                               "--g", "0.1", "--kappa-f", "1", "--delta", "auto"],
}
GRID_ARGS = ["--omega-min", "-3", "--omega-max", "3", "--points", "601"]


def test_criterion_10_golden_determinism(tmp_path):
    with criterion("10a", "figure data files are byte-identical across runs"):
        for name, args in FIGURE_ARGS.items():
            first = tmp_path / f"{name}_1.csv"
            second = tmp_path / f"{name}_2.csv"
            assert main(args + GRID_ARGS + ["--output", str(first)]) == 0
            assert main(args + GRID_ARGS + ["--output", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()
        # fresh-process reproducibility for one representative file
        third = tmp_path / "subprocess.csv"
        cmd = [sys.executable, "-m", "cfcool"] + FIGURE_ARGS["notch_spectrum"] + GRID_ARGS
        proc = subprocess.run(cmd + ["--output", str(third)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert third.read_bytes() == (tmp_path / "notch_spectrum_1.csv").read_bytes()
        # shaped-spectrum sideband values in the golden notch file
        rows = [line.split(",") for line in
                (tmp_path / "notch_spectrum_1.csv").read_text().splitlines()[2:]]
        table = {float(r[0]): float(r[1]) for r in rows}
        assert table[-1.0] == 0.0
        assert abs(table[1.0] - 0.004) < 1e-15


@pytest.mark.xfail(
    strict=True,
    reason="the loop's auxiliary resonance (near omega = 0.43 here) exceeds the "
    "enhanced anti-Stokes peak for kappa_f <= 2*omega_m, so the spectrum "
    "maximum is not at +omega_m for this configuration",
)
def test_criterion_10_peak_location_at_optimum(tmp_path):
    with criterion("10b", "optimal-detuning spectrum peaks at +omega_m with value 0.008"):
        out = tmp_path / "optimal_spectrum.csv"
        assert main(FIGURE_ARGS["notch_optimal_spectrum"] + GRID_ARGS + ["--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        omegas = np.array([float(r[0]) for r in rows])
        sigmas = np.array([float(r[1]) for r in rows])
        peak = int(np.argmax(sigmas))
        assert abs(sigmas[peak] - 0.008) <= 1e-9
        assert abs(omegas[peak] - 1.0) <= 0.01


def test_criterion_10_anti_stokes_value_at_optimum(tmp_path):
    with criterion("10c", "optimal-detuning spectrum carries Sigma(+omega_m) = 0.008"):
        out = tmp_path / "optimal_spectrum.csv"
        assert main(FIGURE_ARGS["notch_optimal_spectrum"] + GRID_ARGS + ["--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        table = {float(r[0]): float(r[1]) for r in rows}
        assert abs(table[1.0] - 0.008) <= 1e-12
        assert table[-1.0] == 0.0
