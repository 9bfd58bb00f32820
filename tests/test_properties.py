"""Property tests over random loops: closed forms, solver, path selection,
grid calls against per-point calls, the bits of the array kernels, sweeps and
the argmax's objective against per-row calls, controller unitarity, the
physicality of the state-space oracle, the batched stability rule, the rate
floor at weak coupling and the CSV formatter's bytes."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cfcool import (
    FilterCavityParams,
    InvalidParam,
    MechanicalBath,
    OptoCavityParams,
    RateResult,
    SingularLoop,
    SystemConfig,
    Topology,
    build_state_space,
    chi,
    closed_form_bandpass,
    closed_form_notch,
    closed_loop_response,
    consistency_check,
    delay_response,
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
    sweep,
)
from cfcool import design
from cfcool.cli import fmt17_rows
from cfcool.design import default_detuning_bracket, loop_rates, network_for, preset_detunings
from cfcool.netalg import DEN_SINGULAR, abs2
from cfcool.spectra import sigma

# Derandomized: the same examples on every run, and no deadline, because
# timing on a shared host is too noisy to gate on.
SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)

FORMS = {Topology.NOTCH: closed_form_notch, Topology.BANDPASS: closed_form_bandpass}
#: Controller entry [R, T] on each wiring's feedback path.
FEEDBACK = {Topology.NOTCH: 1, Topology.BANDPASS: 0}
#: Controller output that drives the cavity: the row S[feed, :] of the loop.
FEED = {Topology.NOTCH: 0, Topology.BANDPASS: 1}
LOOPS = st.sampled_from(sorted(FORMS, key=lambda t: t.value))
TOPOLOGIES = st.sampled_from(sorted(Topology, key=lambda t: t.value))


def system(cav, filt, topology, delay=0.0):
    """The config of drawn parts: a bare cavity takes no controller."""
    return SystemConfig(cav, None if topology is Topology.NONE else filt, topology, delay=delay)


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


def grids(lo=-50.0, hi=50.0):
    """Sorted grids of 1-16 distinct frequencies."""
    return st.lists(rates(lo, hi), min_size=1, max_size=16, unique=True).map(sorted)


def loop_responses(cfg):
    """The solver, and the closed form of a preset loop."""
    net = network_for(cfg)
    responses = [lambda w: solve_network(net, w)]
    if cfg.topology in FORMS:
        responses.append(lambda w: FORMS[cfg.topology](cfg.cav, cfg.filt, w, cfg.delay))
    return responses


def bits(values):
    """The IEEE bit patterns of complex or float values, one int64 per part."""
    return np.ascontiguousarray(values).view(np.int64)


def assert_grid_matches_points(response, grid):
    """One call on the grid against one call per point: the same singular
    verdict (raised at the first point the loop rejects), else the same bits."""
    points = [outcome(response, w) for w in grid]
    singular = [w for w, p in zip(grid, points) if p is SingularLoop]
    if singular:
        with pytest.raises(SingularLoop) as exc:
            response(np.array(grid))
        assert exc.value.omega == singular[0]
        return
    values = response(np.array(grid))
    assert isinstance(values, np.ndarray) and values.shape == (len(grid),)
    assert all(isinstance(point, complex) for point in points)
    assert np.array_equal(bits(values), bits(points))


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


def imbalanced_controllers():
    """kappa2/kappa1 in [0.5, 2], lossless or kappa_loss <= 1."""
    return st.builds(
        lambda k1, ratio, loss, delta_f: FilterCavityParams(k1, k1 * ratio, loss, delta_f),
        rates(0.01, 100.0),
        rates(0.5, 2.0),
        st.just(0.0) | rates(1e-3, 1.0),
        rates(-20.0, 20.0),
    )


@SETTINGS
@given(
    loop=LOOPS,
    cav=cavities(),
    filt=imbalanced_controllers(),
    tau=st.just(0.0) | rates(1e-3, 10.0),
    omega=rates(-50.0, 50.0),
)
def test_closed_form_matches_solver_for_any_controller_and_delay(loop, cav, filt, tau, omega):
    # Criterion 7 off the ideal loop: the loop equation with S[feed, 0],
    # S[feed, 1] and e^{i omega tau} against the solver on network_for.
    closed = outcome(lambda w: FORMS[loop](cav, filt, w, tau), omega)
    solved = outcome(lambda w: solve_network(network_for(SystemConfig(cav, filt, loop, delay=tau)), w), omega)
    gain = reflection_sys(cav, omega) * delay_response(tau, omega) * scattering(filt, omega)[FEED[loop], 1]
    den = abs(1.0 - gain)
    if (closed is SingularLoop) != (solved is SingularLoop):
        # One quantity against DEN_SINGULAR on both paths (see above).
        assert abs(den - DEN_SINGULAR) <= 1e-15
    elif closed is not SingularLoop:
        assert rel_err(solved, closed) <= max(1e-10, 1e-14 / den)


@SETTINGS
@given(
    loop=LOOPS,
    cav=cavities(),
    filt=any_controllers(),
    tau=st.just(0.0) | rates(1e-3, 10.0),
    grid=grids(),
)
def test_auto_is_the_closed_form_for_every_preset_loop(loop, cav, filt, tau, grid):
    # "auto" takes the wiring's closed form for any controller and delay:
    # its bits at each float omega and on the grid, or its singular verdict.
    response = closed_loop_response(SystemConfig(cav, filt, loop, delay=tau))

    def form(w):
        return FORMS[loop](cav, filt, w, tau)

    for w in [*grid, np.array(grid)]:
        got, expected = outcome(response, w), outcome(form, w)
        if expected is SingularLoop:
            assert got is SingularLoop
        else:
            assert type(got) is type(expected)
            assert np.array_equal(bits(np.atleast_1d(got)), bits(np.atleast_1d(expected)))


@SETTINGS
@given(
    topology=TOPOLOGIES,
    cav=cavities(),
    filt=any_controllers(),
    tau=st.just(0.0) | rates(1e-3, 3.0),
    grid=grids(),
)
def test_grid_call_matches_per_point_calls(topology, cav, filt, tau, grid):
    cfg = system(cav, filt, topology, delay=tau)
    for response in loop_responses(cfg):
        assert_grid_matches_points(response, grid)
    # A float call to the solver returns a Python complex.
    solved = outcome(lambda w: solve_network(network_for(cfg), w), grid[0])
    assert solved is SingularLoop or type(solved) is complex


def test_solver_keeps_omega_shape_without_linalg(monkeypatch):
    # The solver's bits are its own elimination's, so it calls no np.linalg
    # routine, whose results depend on the BLAS kernel.
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"solve_network called np.linalg.{name}")
        return call

    for name in np.linalg.__all__:
        routine = getattr(np.linalg, name)
        if callable(routine) and not isinstance(routine, type):  # not LinAlgError
            monkeypatch.setattr(np.linalg, name, refuse(name))
    cav = OptoCavityParams(kappa=10.0, delta=-1.0, g=0.1, omega_m=1.0)
    filt = FilterCavityParams(kappa1=1.0, kappa2=2.0, kappa_loss=0.5, delta_f=0.3)
    net = network_for(SystemConfig(cav, filt, Topology.BANDPASS, delay=0.5))
    for omega in (0.3, np.linspace(-2.0, 2.0, 5), np.zeros((2, 3))):
        assert np.shape(solve_network(net, omega)) == np.shape(omega)


@SETTINGS
@given(
    kappa=rates(0.1, 100.0),
    kappa_f=rates(0.01, 100.0),
    delta_f=rates(-20.0, 20.0),
    grid=grids(-25.0, 25.0),
)
def test_grid_with_singular_point_raises_at_first_rejected_point(kappa, kappa_f, delta_f, grid):
    # A symmetric notch loop with delta = delta_f is singular at -delta_f:
    # the controller reflection vanishes there and T = r_sys = -1.
    cav = OptoCavityParams(kappa=kappa, delta=delta_f, g=0.1, omega_m=1.0)
    cfg = SystemConfig(cav, FilterCavityParams.symmetric(kappa_f, delta_f), Topology.NOTCH)
    grid = sorted(set(grid) | {-delta_f})
    for response in loop_responses(cfg):
        with pytest.raises(SingularLoop):
            response(-delta_f)
        assert_grid_matches_points(response, grid)


@SETTINGS
@given(
    kappa=rates(0.1, 100.0),
    kappa_f=rates(0.01, 100.0),
    delta_f=rates(-20.0, 20.0),
    grid=grids(-25.0, 25.0),
    at=st.lists(st.integers(0, 16), min_size=1, max_size=3),
)
def test_grid_singular_mask_is_the_per_point_verdicts(kappa, kappa_f, delta_f, grid, at):
    # The notch loop with delta = delta_f is singular at -delta_f, put into
    # the grid at the drawn positions; the exception of a grid call flags
    # every point a float call refuses, and both paths flag the same points.
    cav = OptoCavityParams(kappa=kappa, delta=delta_f, g=0.1, omega_m=1.0)
    cfg = SystemConfig(cav, FilterCavityParams.symmetric(kappa_f, delta_f), Topology.NOTCH)
    grid = list(grid)
    for i in at:
        grid.insert(i, -delta_f)
    masks = []
    for response in loop_responses(cfg):
        verdicts = [outcome(response, w) is SingularLoop for w in grid]
        with pytest.raises(SingularLoop) as exc:
            response(np.array(grid))
        assert exc.value.singular.tolist() == verdicts
        assert exc.value.singular.argmax() == verdicts.index(True)
        assert exc.value.omega == grid[exc.value.singular.argmax()]
        masks.append(verdicts)
    assert len(masks) == 2 and masks[0] == masks[1]


@SETTINGS
@given(
    loop=LOOPS,
    cav=cavities(),
    filt=any_controllers(),
    grid=grids(),
    on_singular_point=st.booleans(),
)
def test_array_kernels_give_the_scalar_bits(loop, cav, filt, grid, on_singular_point):
    # The grid holds the controller resonance -delta_f: the notch zero, or,
    # with delta = delta_f, the notch loop's singular point, flanked by
    # near-singular points 4e-14 and one ulp away.
    w0 = -filt.delta_f
    extra = {w0}
    if on_singular_point:
        cav = replace(cav, delta=filt.delta_f)
        extra |= {w0 - 4e-14, w0 + 4e-14, np.nextafter(w0, np.inf)}
    grid = np.array(sorted(set(grid) | extra))

    assert np.array_equal(bits(chi(cav, grid)), bits([chi(cav, w) for w in grid]))
    s = scattering(filt, grid)
    points = [scattering(filt, w) for w in grid]
    assert np.array_equal(bits(s), bits(np.stack(points, axis=-1)))
    # The --element filter columns |R11|^2 and |T21|^2.
    for i, j in ((0, 0), (1, 0)):
        assert np.array_equal(bits(abs2(s[i, j])), bits([abs(p[i, j]) ** 2 for p in points]))

    ideal = FilterCavityParams.symmetric(filt.kappa1, filt.delta_f)
    values = [outcome(lambda w: FORMS[loop](cav, ideal, w), w) for w in grid]
    regular = [v is not SingularLoop for v in values]
    expected = [v for v in values if v is not SingularLoop]
    got = FORMS[loop](cav, ideal, grid[regular])
    assert np.array_equal(bits(got), bits(expected))
    g = cav.g
    assert np.array_equal(bits(sigma(g, got)), bits([g * g * abs(v) ** 2 for v in expected]))


#: Values each swept parameter is drawn from.
SWEPT = {
    "delta": rates(-20.0, 20.0),
    "kappa": rates(0.1, 100.0),
    "g": rates(0.0, 1.0),
    "kappa_f": rates(0.01, 100.0),
}


def row_config(cfg, name, value):
    """The float config of one sweep row, built apart from the sweep."""
    if name == "kappa_f":
        return replace(cfg, filt=FilterCavityParams.symmetric(value, cfg.filt.delta_f))
    return replace(cfg, cav=replace(cfg.cav, **{name: value}))


def rate_bits(rates, row=None):
    """The bits of a_plus, a_minus, gamma_opt and n_min (None if undefined)
    of a float RateResult, or of one row of a column RateResult."""
    values = [rates.a_plus, rates.a_minus, rates.gamma_opt, rates.n_min]
    *figures, n_min = values if row is None else [v[row] for v in values]
    return bits(figures).tolist(), None if n_min is None or n_min != n_min else bits([n_min]).tolist()


#: Rates at the ends of the float range: zero, subnormal, the least
#: normal, huge and the largest finite.
RATE_EDGES = (0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0, 1e300, 1.7976931348623157e308)
#: Values the rate rule refuses.
BAD_RATES = (-1.0, -5e-324, -1e300, math.nan, math.inf, -math.inf)


@st.composite
def rate_pairs(draw):
    """(a_plus, a_minus) of finite rates >= 0; a_minus is often a_plus
    itself or the float above it, so gamma_opt is 0 or one ulp."""
    finite = st.sampled_from(RATE_EDGES) | st.floats(min_value=0.0, allow_infinity=False)
    a_plus = draw(finite)
    above = math.nextafter(a_plus, math.inf)
    return a_plus, draw(finite | st.sampled_from([a_plus, above if above < math.inf else a_plus]))


@SETTINGS
@given(
    pairs=st.lists(rate_pairs(), min_size=1, max_size=8),
    bad=st.none() | st.tuples(st.integers(0, 7), st.integers(0, 1), st.sampled_from(BAD_RATES)),
)
def test_rate_columns_have_the_scalar_bits(pairs, bad):
    # A column RateResult is the float RateResult of each row, bit for bit,
    # with NaN for an n_min of None; it refuses the first value a float one
    # refuses, a_plus before a_minus, with its message.
    if bad is not None:
        row, column, value = bad
        pair = list(pairs[row % len(pairs)])
        pair[column] = value
        pairs[row % len(pairs)] = tuple(pair)
    a_plus, a_minus = np.array(pairs).T
    refusals = []
    for column in (0, 1):
        for pair in pairs:
            if not (pair[column] >= 0 and pair[column] < math.inf):
                with pytest.raises(InvalidParam) as exc:
                    RateResult(*pair)
                refusals.append(str(exc.value))
                break
    if refusals:
        with pytest.raises(InvalidParam) as exc:
            RateResult(a_plus, a_minus)
        assert str(exc.value) == refusals[0]
        return
    col = RateResult(a_plus, a_minus)
    rows = [RateResult(*pair) for pair in pairs]
    for name in ("a_plus", "a_minus", "gamma_opt"):
        assert np.array_equal(bits(getattr(col, name)), bits([getattr(r, name) for r in rows]))
    n_min = [math.nan if r.n_min is None else r.n_min for r in rows]
    assert np.array_equal(bits(col.n_min), bits(n_min))
    # a_minus - a_plus >= ulp(a_plus) where it is > 0, so n_min < 2^53.
    assert all(n < 2.0**53 for n in n_min if n == n)


@st.composite
def sweep_cases(draw):
    """A loop, a swept parameter and a monotone grid of 1-8 values; a
    ``kappa_f`` sweep gets a symmetric lossless controller.  One case in four
    is a notch loop whose detuning sweep crosses delta = delta_f = -+omega_m,
    where the loop is singular at the sideband frequency -delta_f."""
    name = draw(st.sampled_from(sorted(SWEPT)))
    topology = draw(TOPOLOGIES if name != "kappa_f" else LOOPS)
    cav, bath = draw(cavities()), draw(baths())
    filt = draw(any_controllers() if name != "kappa_f" else ideal_controllers())
    tau = draw(st.just(0.0) | rates(1e-3, 3.0))
    grid = draw(st.lists(SWEPT[name], min_size=1, max_size=8, unique=True).map(sorted))
    if draw(st.integers(0, 3)) == 0:
        # e^{i omega tau} = 1 at omega = +-1 keeps the delayed loop singular.
        name, topology, tau = "delta", Topology.NOTCH, draw(st.sampled_from([0.0, 2.0 * math.pi]))
        filt = FilterCavityParams.symmetric(filt.kappa1, draw(st.sampled_from([-1.0, 1.0])))
        grid = sorted(set(grid) | {filt.delta_f})
    if draw(st.booleans()):
        grid = grid[::-1]
    return system(cav, filt, topology, delay=tau), name, grid, bath


@SETTINGS
@given(case=sweep_cases())
def test_sweep_rows_are_the_per_row_loops(case):
    # One array pass over the grid: each row has the bits of loop_rates on
    # that row's float config, the singular marker where it raises, and the
    # flag of is_stable on its state-space model (None on a delayed loop;
    # a bare cavity has no loop for a delay to enter).  The rate columns hold
    # the rows' rates, and 0 where a row is singular.
    cfg, name, grid, bath = case
    delayed_loop = cfg.delay > 0 and cfg.topology is not Topology.NONE
    table = sweep(cfg, name, grid, bath=bath)
    assert [row.value for row in table.rows] == grid
    for i, (value, row) in enumerate(zip(grid, table.rows)):
        row_cfg = row_config(cfg, name, value)
        try:
            expected = loop_rates(row_cfg)
        except SingularLoop:
            expected = None
        assert row.singular is (expected is None) is bool(table.singular[i])
        if expected is None:
            assert row.rates is None
            assert rate_bits(table.rates, i) == rate_bits(RateResult(0.0, 0.0))
        else:
            assert rate_bits(row.rates) == rate_bits(table.rates, i) == rate_bits(expected)
        flag = None if delayed_loop else is_stable(build_state_space(row_cfg, bath))
        assert row.stable is flag
    if not delayed_loop:
        # The drift stack of the one config that holds the grid is the
        # stack of the rows' drifts, byte for byte.
        stack = drift_matrix(row_config(cfg, name, np.array(grid)), bath)
        rows = [drift_matrix(row_config(cfg, name, value), bath) for value in grid]
        assert np.array_equal(bits(stack), bits(rows))


#: A notch loop with delta = delta_f = 1, singular at omega = -1: at tau = 0,
#: and at tau = 2 pi, where e^{i omega tau} = 1.
SINGULAR_CAV = OptoCavityParams(kappa=10.0, delta=1.0, g=0.1, omega_m=1.0)
SINGULAR_FILT = FilterCavityParams.symmetric(kappa_f=1.0, delta_f=1.0)


@pytest.mark.parametrize("cfg", [
    SystemConfig(SINGULAR_CAV, SINGULAR_FILT, Topology.NOTCH),
    SystemConfig(SINGULAR_CAV, SINGULAR_FILT, Topology.NOTCH, delay=2.0 * math.pi),
    SystemConfig(SINGULAR_CAV, None, Topology.NONE),
], ids=["closed-form", "delayed", "bare"])
def test_blocked_loop_sigma_is_one_call(cfg, monkeypatch):
    # 31 points in blocks of 7: the singular omega = -1 at index 3 (block 0),
    # 10 (block 1), and 13 and 14, the last point of block 1 and the first of
    # block 2.
    grid = np.linspace(-3.0, 3.0, 31)
    grid[[3, 10, 13, 14]] = -1.0

    def filled():
        values = np.zeros(grid.size)
        return values, design.fill_rows(design.loop_sigma(cfg), grid, values)

    one_call = filled()
    monkeypatch.setattr(design, "GRID_BLOCK", 7)
    values, singular = filled()
    assert np.array_equal(singular, one_call[1])
    assert np.flatnonzero(singular).tolist() == ([] if cfg.topology is Topology.NONE else [3, 10, 13, 14])
    assert np.array_equal(bits(values), bits(one_call[0]))


@pytest.mark.parametrize("cfg, name, grid", [
    # Stable and unstable rows, and a singular row (delta = delta_f) in block 3.
    (make_notch(10.0, 1.0, 0.1, 1.0), "delta", np.union1d(np.linspace(-3.0, 3.0, 41), [1.0])),
    # Every row singular, in every block.
    (SystemConfig(SINGULAR_CAV, SINGULAR_FILT, Topology.NOTCH), "g", np.linspace(0.01, 0.3, 20)),
    (make_notch(10.0, 1.0, 0.1, 1.0), "kappa_f", np.geomspace(0.05, 20.0, 15)),
    # A delayed loop: no flags.
    (replace(make_notch(10.0, 1.0, 0.1, 1.0), delay=0.1), "delta", np.linspace(-3.0, 3.0, 22)),
], ids=["delta", "all-singular", "kappa_f", "delayed"])
def test_blocked_sweep_rows_are_one_grid_call(cfg, name, grid, monkeypatch):
    bath = MechanicalBath(1e-3, 10.0)
    one_call = sweep(cfg, name, grid, bath=bath)
    monkeypatch.setattr(design, "GRID_BLOCK", 7)
    table = sweep(cfg, name, grid, bath=bath)
    assert np.array_equal(bits(table.value), bits(one_call.value))
    for field in ("a_plus", "a_minus", "gamma_opt", "n_min"):
        assert np.array_equal(bits(getattr(table.rates, field)), bits(getattr(one_call.rates, field)))
    assert np.array_equal(table.singular, one_call.singular)
    if cfg.delay:
        assert table.stable is one_call.stable is None
    else:
        assert np.array_equal(table.stable, one_call.stable)


@SETTINGS
@given(topology=TOPOLOGIES, cav=cavities(), filt=any_controllers(), tau=st.just(0.0) | rates(1e-3, 3.0))
def test_argmax_coarse_scan_is_the_per_point_objective(topology, cav, filt, tau):
    # The sweep's sideband pairs over the argmax's scan column, one array
    # call, against loop_rates(...).a_minus at each detuning.
    cfg = system(cav, filt, topology, delay=tau)
    xs = np.linspace(*default_detuning_bracket(cfg), design._COARSE_POINTS)
    points = [outcome(lambda x: loop_rates(row_config(cfg, "delta", x)), x) for x in xs]
    if SingularLoop in points:
        with pytest.raises(SingularLoop):
            design._sideband_sigmas(cfg, "delta", xs)
        return
    scan = design._sideband_sigmas(cfg, "delta", xs)[:, 1]
    assert np.array_equal(bits(scan), bits([p.a_minus for p in points]))


#: Notch loops whose default bracket (-1.999, -0.001) puts the scan's 33rd
#: detuning at -1 = delta_f, where the loop is singular at +omega_m.
SCAN_SINGULAR = dict(
    topology=Topology.NOTCH,
    cav=OptoCavityParams(kappa=0.999, delta=-1.0, g=0.1, omega_m=1.0),
    filt=FilterCavityParams.symmetric(kappa_f=1.0, delta_f=-1.0),
)


@SETTINGS
@given(topology=TOPOLOGIES, cav=cavities(), filt=any_controllers(), tau=st.just(0.0) | rates(1e-3, 3.0))
@example(**SCAN_SINGULAR, tau=0.0)
@example(**SCAN_SINGULAR, tau=2.0 * math.pi)
def test_argmax_scan_is_the_float_objective(topology, cav, filt, tau):
    # The argmax's objective, loop_sigma at +omega_m, on the column of the
    # scan's 65 detunings: the bits of its float calls and of the sweep's
    # anti-Stokes column, or SingularLoop with the float calls' verdicts.
    cfg = system(cav, filt, topology, delay=tau)
    xs = np.linspace(*default_detuning_bracket(cfg), design._COARSE_POINTS)

    def objective(delta):
        return design.loop_sigma(design._with_parameter(cfg, "delta", delta))(cav.omega_m)

    points = [outcome(lambda x: design.loop_sigma(row_config(cfg, "delta", x))(cav.omega_m), x) for x in xs]
    if SingularLoop in points:
        with pytest.raises(SingularLoop) as exc:
            objective(xs)
        assert exc.value.singular.tolist() == [p is SingularLoop for p in points]
        return
    scan = objective(xs)
    assert np.array_equal(bits(scan), bits(points))
    try:
        sidebands = design._sideband_sigmas(cfg, "delta", xs)
    except SingularLoop as exc:
        # Singular only at the Stokes sideband, which the objective never reads.
        assert not exc.value.singular.reshape(xs.size, 2)[:, 1].any()
        return
    assert np.array_equal(bits(scan), bits(sidebands[:, 1]))


def golden_section_max(f, a, b, tol):
    """Golden-section search for the maximum of f on [a, b] down to width
    tol: the refinement the argmax used before Brent's method, kept as a
    reference."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - (b - a) * inv_phi, a + (b - a) * inv_phi
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * inv_phi
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * inv_phi
            fd = f(d)
    return 0.5 * (a + b)


@SETTINGS
@given(topology=TOPOLOGIES, cav=cavities(), filt=any_controllers(), tau=st.just(0.0) | rates(1e-3, 3.0))
def test_argmax_refinement_matches_golden_section(topology, cav, filt, tau):
    # On the scan intervals around the best scan point, wherever the
    # objective is unimodal on a dense sample, Brent's refinement lands
    # where a golden-section search does.
    cfg = system(cav, filt, topology, delay=tau)
    xs = np.linspace(*default_detuning_bracket(cfg), design._COARSE_POINTS)
    try:
        ys = design._sideband_sigmas(cfg, "delta", xs)[:, 1]
        best = int(np.argmax(ys))
        assume(0 < best < xs.size - 1)
        a, b = xs[best - 1], xs[best + 1]
        dense = design._sideband_sigmas(cfg, "delta", np.linspace(a, b, 257))[:, 1]
    except SingularLoop:
        assume(False)
    peak = int(np.argmax(dense))
    assume(np.all(np.diff(dense[: peak + 1]) > 0) and np.all(np.diff(dense[peak:]) < 0))
    got = design.argmax_detuning_numeric(cfg, tol=1e-7)

    def objective(delta):
        return loop_rates(row_config(cfg, "delta", delta)).a_minus

    expected = golden_section_max(objective, a, b, 1e-7)
    if abs(got - expected) > 1e-6:
        # Rounding can flatten a wide peak over more than 1e-6; there
        # Brent's point must rate at least as high as the reference's.
        assert objective(got) >= objective(expected), (got, expected)


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
    model = build_state_space(system(cav, filt, topology), bath)
    assume(is_stable(model))
    V = steady_covariance(model)
    phonon_number(V)  # raises NegativeOccupation below -1e-9
    assert heisenberg_defect(V) >= -1e-9


@SETTINGS
@given(topology=TOPOLOGIES, cav=cavities(), filt=any_controllers(), bath=baths())
def test_lyapunov_operator_kron_bits(topology, cav, filt, bath):
    """``steady_covariance`` broadcasts its operator I (x) A + A (x) I; the
    covariance has the bits of the same solve on the ``np.kron`` operator."""
    model = build_state_space(system(cav, filt, topology), bath)
    assume(is_stable(model))
    A, D = model.drift, model.diffusion
    n = A.shape[0]
    K = np.kron(np.eye(n), A) + np.kron(A, np.eye(n))
    V = np.linalg.solve(K, -D.flatten(order="F")).reshape((n, n), order="F")
    assert bits(steady_covariance(model)).tolist() == bits(0.5 * (V + V.T)).tolist()


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
    configs = [(system(cav, filt, topology), bath) for cav, filt, bath in rows]
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


@SETTINGS
@given(
    loop=LOOPS,
    kappa=rates(1.0, 10.0),
    kappa1=rates(0.25, 4.0),
    imbalance=st.just(1.0) | rates(0.5, 2.0),
    delta=rates(-3.0, -0.5),
    bath=st.builds(
        MechanicalBath,
        gamma_m=rates(-7.0, -4.0).map(lambda e: 10.0**e),
        n_th=rates(10.0, 100.0),
    ),
)
def test_oracle_matches_rates_at_weak_coupling(loop, kappa, kappa1, imbalance, delta, bath):
    # At g = 3e-4*kappa the rate equation holds to well under 1e-3 on both
    # wirings (measured: <= 1.7e-4 on 4 000 random draws), and a band-pass
    # oracle that couples the mechanics with g instead of g*alpha is off by
    # up to ~0.99.  The warm bath keeps the occupation (>= 0.028 here) far
    # above the counter-rotating floor (~5e-6) that the rate equation leaves
    # out: at gamma_m = 1e-8, n_th = 1 that floor alone is 1.2e-3 of a notch
    # loop's occupation.
    filt = FilterCavityParams(kappa1, kappa1 * imbalance, 0.0, preset_detunings(loop, 1.0)[1])
    cfg = SystemConfig(OptoCavityParams(kappa, delta, 3e-4 * kappa, 1.0), filt, loop)
    assert consistency_check(cfg, bath).rel_dev <= 1e-3


@SETTINGS
@given(
    loop=LOOPS,
    kappa=rates(1.0, 10.0),
    kappa1=rates(0.25, 4.0),
    imbalance=rates(0.7, 1.5),
    kappa_loss=rates(0.02, 0.5),
    delta=rates(-3.0, -0.5),
)
def test_oracle_matches_rates_on_lossy_loops_at_weak_coupling(loop, kappa, kappa1, imbalance,
                                                              kappa_loss, delta):
    # The loss port is a vacuum input of the oracle's model, and its share of
    # Sigma brings the rate equation to the same weak-coupling gate as a
    # lossless loop's.  Only stable, cooling loops have a stationary
    # occupation for both to predict.
    filt = FilterCavityParams(kappa1, kappa1 * imbalance, kappa_loss, preset_detunings(loop, 1.0)[1])
    cfg = SystemConfig(OptoCavityParams(kappa, delta, 3e-4 * kappa, 1.0), filt, loop)
    bath = MechanicalBath(gamma_m=1e-6, n_th=10.0)
    assume(is_stable(build_state_space(cfg, bath)) and loop_rates(cfg).gamma_opt > 0.0)
    assert consistency_check(cfg, bath).rel_dev <= 1e-3


#: Every finite float64, negative ones and subnormals included, as raw bits.
FLOAT_BITS = st.integers(0, 2**64 - 1).map(lambda b: np.uint64(b).view(np.float64).item())


@settings(derandomize=True, deadline=None, max_examples=2000)
@given(x=st.floats(allow_nan=False, allow_infinity=False) | FLOAT_BITS.filter(math.isfinite))
@example(x=0.0)
@example(x=-0.0)
@example(x=5e-324)
@example(x=2.2250738585072014e-308)
@example(x=1.7976931348623157e308)
@example(x=1e-304)  # log10 misses k
@example(x=1e-14)  # rounds up to 1e-14 from below it
@example(x=282352547174122.9)  # exact ties: half to even in the kernel, up ...
@example(x=282352547174122.625)  # ... and down
@example(x=3 * 2.0**-24)  # a tie at an inexact scale, in the fallback
@example(x=0.1)
@example(x=1e16)
@example(x=1e17)
@example(x=99999999999999999.0)
def test_format17_rows_match_percent_format(x):
    assert fmt17_rows(np.array([[x]]), np.array([[False]])) == ("%.17g\n" % x).encode()
