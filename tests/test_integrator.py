"""Adaptive log-chart integration.

Claims covered:
    - DOP853 tableau: reference coefficients, order conditions, dense-output
      endpoints on a real step, dense output against scipy's on one step
    - non-finite configuration values and oversized sample grids are
      rejected before anything is allocated
    - equilibria give constant trajectories; exact zeros stay bitwise zero
    - dense-output grid shape; a grid point up to 1e-10 past a step's end
      is that step's sample, and every sample is emitted once when
      sample_dt does not divide t_end
    - agreement with an independent original-chart integration (scipy RK45)
      on horizons where the original chart can represent the dynamics
    - halving tolerances: identical symbolic itinerary, small state shifts
    - time-reversal consistency
    - backward divergence detection with coordinate attribution
    - step statistics (exact RHS call count, each call through the
      module-level growth_rates with two positional arguments, forward,
      backward, stopped, dense and role-ordered) and failure modes; a run
      whose last step lands on t_end completes, however small the step
    - integrate is bitwise the plain reference stepper of oracles.py
      (samples, last state and time, termination, step statistics) on
      forward, backward, diverging, bounded, stopped, role-ordered and
      densely sampled runs
    - the until predicate: called once per accepted step, ends the run
      "stopped" at the first step where it holds, changes nothing when
      it never fires
    - last_time is a Python float for completed, stopped, diverged and
      empty runs
    - an explicit ascending coordinate order is bitwise the default run; a
      malformed order is refused before any evaluation
    - samples written into a zero-filled buffer in shared memory are
      bitwise the default run's; the progress hook's counts never decrease,
      name rows that are final when reported, and end at the rows kept
      (the grid's, or fewer for a stopped or diverged run); a buffer of
      another shape or dtype, or not zero-filled (-0.0 included), is
      refused before any evaluation
"""
import numpy as np
import pytest
from dataclasses import replace

import hexnet.integrator as integrator
from hexnet import output
from hexnet.integrator import (
    _A,
    _B,
    _C,
    _D,
    _E3,
    _E5,
    DIVERGENCE_BOUND,
    MAX_SAMPLES,
    IntegratorConfig,
    TERMINATION_COMPLETED,
    TERMINATION_DIVERGED,
    TERMINATION_STOPPED,
    integrate,
)
from hexnet.analysis import (
    WITNESS_TOL,
    WitnessSpec,
    _level_state,
    _witness_problem,
    extract_itinerary,
    witness_initial_condition,
)
from hexnet.vectorfield import designed_equilibria, eval_field, growth_rates, rate_table


def test_tableau_matches_reference_coefficients():
    # scipy ships the DOP853 coefficients; it is the offline oracle here
    from scipy.integrate._ivp import dop853_coefficients as ref

    assert np.array_equal(_C, ref.C)
    assert np.array_equal(_A, ref.A)
    assert np.array_equal(_B, ref.B)
    assert np.array_equal(_D, ref.D)
    # the reference carries a 13th, zero, weight for the FSAL stage
    assert np.array_equal(_E5, ref.E5[:12]) and ref.E5[12] == 0.0
    assert np.array_equal(_E3, ref.E3[:12]) and ref.E3[12] == 0.0


def test_tableau_order_conditions():
    for k in range(8):
        assert abs(_B @ _C[:12] ** k - 1.0 / (k + 1)) <= 1e-14
    for i in range(1, 16):
        assert abs(_A[i].sum() - _C[i]) <= 1e-14
    # both embedded solutions are consistent, so their differences sum to 0
    assert abs(_E5.sum()) <= 1e-14
    assert abs(_E3.sum()) <= 1e-14


def test_interpolant_reproduces_endpoint(example1, monkeypatch):
    # the dense output of a real step returns u at theta = 0 and u_new at 1
    _, p, s0 = example1
    steps = []

    def recording(u, u_new, h, K, F, theta):
        steps.append((u.copy(), u_new.copy(), h, K.copy()))
        return dense_output(u, u_new, h, K, F, theta)

    dense_output = integrator._dense_output
    monkeypatch.setattr(integrator, "_dense_output", recording)
    integrate(s0, p, IntegratorConfig(t_end=0.5, sample_dt=0.1))
    assert steps
    u, u_new, h, K = max(steps, key=lambda step: step[2])
    ends = dense_output(u, u_new, h, K, np.empty((7, u.size)), np.array([0.0, 1.0]))
    assert np.array_equal(ends[0], u)
    assert np.abs(ends[1] - u_new).max() <= 4 * np.finfo(float).eps * np.abs(u_new).max()


def test_dense_output_matches_reference(example1):
    # scipy's DOP853 takes one step of the log-chart field; its own dense
    # output of that step is the reference for ours on the same stages
    from scipy.integrate import DOP853

    _, p, s0 = example1
    live = np.flatnonzero(s0)
    table = rate_table(p, live)

    def log_chart_field(t, u):
        # the stage evaluation of integrate: clamp, exp, growth_rates
        return growth_rates(np.exp(np.minimum(u, integrator._EXP_CLAMP)), table)

    u0 = np.log(s0[live])
    solver = DOP853(log_chart_field, 0.0, u0, 1.0, first_step=1e-3, rtol=1e-6, atol=1e-6)
    solver.step()
    h = solver.t - solver.t_old
    reference = solver.dense_output()
    theta = np.linspace(0.0, 1.0, 9)
    ours = integrator._dense_output(
        solver.y_old, solver.y, h, solver.K_extended, np.empty((7, u0.size)), theta
    )
    expected = reference(solver.t_old + theta * h).T
    assert np.abs(ours - expected).max() <= 4 * np.finfo(float).eps * np.abs(expected).max()


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, rtol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, sample_dt=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, direction="sideways")
    # the grid bound is checked from t_end / sample_dt; nothing is allocated
    with pytest.raises(ValueError, match="sample grid"):
        IntegratorConfig(t_end=1.0, sample_dt=1e-300)
    with pytest.raises(ValueError, match="sample grid"):
        IntegratorConfig(t_end=float(MAX_SAMPLES), sample_dt=1.0)
    IntegratorConfig(t_end=MAX_SAMPLES - 1.0, sample_dt=1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["t_end", "sample_dt", "rtol", "atol", "max_step"])
def test_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        IntegratorConfig(**{"t_end": 1.0, name: value})


def test_equilibrium_constant_trajectory(example1):
    _, p, _ = example1
    for eq in designed_equilibria(p)[:6]:
        traj = integrate(eq.state, p, IntegratorConfig(t_end=10.0))
        assert traj.termination == TERMINATION_COMPLETED
        assert np.abs(traj.states - eq.state).max() <= 1e-12


def test_exact_zero_columns_bitwise(example1):
    _, p, s0 = example1
    s = s0.copy()
    s[4] = 0.0
    s[11] = 0.0
    traj = integrate(s, p, IntegratorConfig(t_end=20.0))
    assert np.all(traj.states[:, 4] == 0.0)
    assert np.all(traj.states[:, 11] == 0.0)
    assert traj.mask[4] and traj.mask[11]


def test_grid_shape_and_t_end_zero(example1):
    _, p, s0 = example1
    traj = integrate(s0, p, IntegratorConfig(t_end=2.0, sample_dt=0.1))
    assert traj.times.shape[0] == 21
    assert traj.times[0] == 0.0 and traj.times[-1] == 2.0
    single = integrate(s0, p, IntegratorConfig(t_end=0.0))
    assert single.times.shape[0] == 1
    assert np.array_equal(single.states[0], s0)
    ragged = integrate(s0, p, IntegratorConfig(t_end=1.05, sample_dt=0.5))
    assert ragged.times.tolist() == pytest.approx([0.0, 0.5, 1.0, 1.05])


def test_input_validation(example1):
    _, p, s0 = example1
    bad = s0.copy()
    bad[0] = -0.5
    with pytest.raises(ValueError):
        integrate(bad, p, IntegratorConfig(t_end=1.0))


def test_chart_equivalence_unit_timescales(example1):
    # independent original-chart integration (scipy RK45) as reference;
    # unit timescales keep every coordinate within the original chart's
    # absolute resolution over this horizon
    from scipy.integrate import solve_ivp

    sc, p, s0 = example1
    p1 = replace(p, phi=1.0, psi=1.0, omega=1.0)
    traj = integrate(s0, p1, IntegratorConfig(t_end=10.0, sample_dt=0.1))
    sol = solve_ivp(
        lambda t, y: eval_field(y, p1),
        (0.0, 10.0),
        s0,
        method="RK45",
        rtol=1e-12,
        atol=1e-12,
        dense_output=True,
    )
    ref = sol.sol(traj.times).T
    assert np.abs(traj.states - ref).max() <= 1e-8


def test_chart_equivalence_display_timescales_short_horizon(example1):
    # with psi = 200 the active block contracts at rates ~ 3e2 per time
    # unit, so the original chart loses it shortly after t ~ 1; compare on
    # a horizon where both charts resolve every coordinate
    from scipy.integrate import solve_ivp

    _, p, s0 = example1
    traj = integrate(s0, p, IntegratorConfig(t_end=0.5, sample_dt=0.01))
    sol = solve_ivp(
        lambda t, y: eval_field(y, p),
        (0.0, 0.5),
        s0,
        method="RK45",
        rtol=1e-12,
        atol=1e-12,
        dense_output=True,
    )
    ref = sol.sol(traj.times).T
    assert np.abs(traj.states - ref).max() <= 1e-8


def test_tolerance_halving(example1):
    # halving rtol/atol must not change the symbolic itinerary; state-level
    # agreement degrades with the horizon through passage amplification
    # (measured ~1.5e-5 by t=500), so the tight bound is asserted early
    sc, p, s0 = example1
    full = integrate(s0, p, IntegratorConfig(t_end=500.0))
    half = integrate(s0, p, IntegratorConfig(t_end=500.0, rtol=5e-13, atol=5e-13))
    i_full = extract_itinerary(full, p)[0].labels()
    i_half = extract_itinerary(half, p)[0].labels()
    assert i_full == i_half
    assert len(i_full) >= 5
    diff = np.abs(full.states - half.states).max(axis=1)
    assert diff[full.times <= 50.0].max() <= 1e-6
    assert diff.max() <= 1e-4


def test_time_reversal_consistency(example1):
    _, p, _ = example1
    rng = np.random.default_rng(1)
    for _ in range(5):
        y0 = rng.uniform(0.1, 1.0, p.layout.dimension)
        fwd = integrate(y0, p, IntegratorConfig(t_end=1.0, sample_dt=0.5))
        back = integrate(
            fwd.last_state, p, IntegratorConfig(t_end=1.0, sample_dt=0.5, direction="backward")
        )
        assert np.abs(back.last_state - y0).max() <= 1e-6


def test_backward_divergence_detection(example1):
    # inactive substructure coordinates grow backward without bound and the
    # run must stop at the divergence bound, attributing the coordinate
    from hexnet.analysis import WitnessSpec, witness_initial_condition

    _, p, _ = example1
    p1 = replace(p, phi=1.0, psi=1.0, omega=1.0)
    s0 = witness_initial_condition(WitnessSpec(0, 1, 1e-2), p1)
    traj = integrate(s0, p1, IntegratorConfig(t_end=200.0, sample_dt=0.5, direction="backward"))
    assert traj.termination == TERMINATION_DIVERGED
    assert traj.diverged_coordinate is not None
    name = p1.layout.coord_names()[traj.diverged_coordinate]
    assert name.startswith("x")
    assert traj.last_state[traj.diverged_coordinate] >= DIVERGENCE_BOUND * 0.9
    assert traj.last_time < 200.0


def _stepper_case(example1, case):
    """(s0, p, cfg, keyword arguments) of an integrate run of example1 for
    the stepper's checks; each call builds a fresh until predicate."""
    sc, p, s0 = example1
    unit = replace(p, phi=1.0, psi=1.0, omega=1.0)
    if case == "forward":  # three gates
        return s0, p, IntegratorConfig(t_end=2.0), {}
    if case == "x_block1":  # paper_verify's critical run, on a short horizon
        return _level_state(s0, p, 0), p, replace(sc.integrator, t_end=3.0), {}
    if case == "backward":
        y0 = np.random.default_rng(1).uniform(0.1, 1.0, p.layout.dimension)
        return y0, p, IntegratorConfig(t_end=1.0, sample_dt=0.25, direction="backward"), {}
    if case == "backward_diverged":
        w0 = witness_initial_condition(WitnessSpec(0, 1, 1e-2), unit)
        return w0, unit, IntegratorConfig(t_end=200.0, sample_dt=0.5, direction="backward"), {}
    if case == "bounded":
        return s0, replace(p, variant="bounded"), IntegratorConfig(t_end=3.0), {}
    if case == "until":
        return s0, p, IntegratorConfig(t_end=2.0), {"until": _stop_at_step(40)}
    if case == "witness_roles":  # the j > k witness run, its coordinates in role order
        w0, _, _, order = _witness_problem(WitnessSpec(2, 0, 1e-2), unit)
        cfg = IntegratorConfig(t_end=20.0, rtol=WITNESS_TOL, atol=WITNESS_TOL, sample_dt=20.0)
        return w0, unit, cfg, {"order": order}
    assert case == "dense"  # unit timescales, three gates, many samples per step
    return s0, unit, IntegratorConfig(t_end=2.0, rtol=1e-9, atol=1e-9, sample_dt=0.001), {}


def test_step_statistics(example1, monkeypatch):
    # the stepper must reach the RHS through the module-level name, once per
    # evaluation it counts, with the two positional arguments (state, table)
    # that bench/tracing.py's wrapper takes
    calls = []

    def counting(*args, **kwargs):
        calls.append((len(args), kwargs))
        return growth_rates(*args, **kwargs)

    monkeypatch.setattr(integrator, "growth_rates", counting)
    for case in ("forward", "backward", "until", "dense", "witness_roles"):
        calls.clear()
        s0, p, cfg, kw = _stepper_case(example1, case)
        traj = integrate(s0, p, cfg, **kw)
        assert traj.stats.accepted > 0
        assert traj.stats.n_evals == len(calls), case
        assert all(call == (2, {}) for call in calls), case
        if case == "until":
            assert traj.termination == TERMINATION_STOPPED
        if case == "dense":  # some step covers more than one sample
            assert traj.times.size > traj.stats.accepted + 1
    live = np.flatnonzero(example1[2])
    assert len(rate_table(example1[1], live).spans) == 3  # "forward" is a 3-gate table


@pytest.mark.parametrize("case", ["x_block1", "backward", "backward_diverged", "bounded",
                                  "until", "witness_roles", "dense"])
def test_integrate_is_bitwise_the_reference_stepper(example1, case):
    # the plain DOP853 loop of tests/oracles.py: Python-float scalars, no
    # preallocated buffers, the same order of operations
    from oracles import reference_integrate

    s0, p, cfg, kw = _stepper_case(example1, case)
    traj = integrate(s0, p, cfg, **kw)
    s0, p, cfg, kw = _stepper_case(example1, case)
    ref = reference_integrate(s0, p, cfg, **kw)
    for name in ("times", "states", "last_state"):
        ours, theirs = getattr(traj, name), ref[name]
        assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes(), name
    assert type(traj.last_time) is float and traj.last_time.hex() == ref["last_time"].hex()
    assert (traj.termination, traj.diverged_coordinate) == (ref["termination"],
                                                           ref["diverged_coordinate"])
    stats = traj.stats
    assert (stats.accepted, stats.rejected, stats.n_evals) == (
        ref["accepted"], ref["rejected"], ref["n_evals"])
    expected = {"backward_diverged": TERMINATION_DIVERGED, "until": TERMINATION_STOPPED}
    assert traj.termination == expected.get(case, TERMINATION_COMPLETED)


@pytest.mark.parametrize("t_end", [1e-13, 2e-13])
def test_a_run_that_reaches_t_end_is_completed(example1, t_end):
    # the one step lands on t_end; at 1e-13 it leaves the next step size
    # under the 1e-12 floor, which is no underflow once the run is at t_end
    _, p, s0 = example1
    traj = integrate(s0, p, IntegratorConfig(t_end=t_end, sample_dt=t_end))
    assert traj.termination == TERMINATION_COMPLETED
    assert traj.last_time == t_end
    assert traj.times.tolist() == [0.0, t_end]
    assert np.array_equal(traj.states, [s0, traj.last_state])
    stats = traj.stats  # first stage, 11 step stages, FSAL, 3 dense stages
    assert (stats.accepted, stats.rejected, stats.n_evals) == (1, 0, 16)


def test_deterministic_repeat(example1):
    _, p, s0 = example1
    a = integrate(s0, p, IntegratorConfig(t_end=5.0))
    b = integrate(s0, p, IntegratorConfig(t_end=5.0))
    assert np.array_equal(a.states, b.states)
    assert a.stats.accepted == b.stats.accepted


def test_until_never_firing_changes_nothing(example1):
    _, p, s0 = example1
    cfg = IntegratorConfig(t_end=2.0, sample_dt=0.1)
    calls = []

    def never(state):
        calls.append(state)
        return False

    traj = integrate(s0, p, cfg, until=never)
    plain = integrate(s0, p, cfg)
    assert np.array_equal(traj.times, plain.times)
    assert np.array_equal(traj.states, plain.states)
    assert np.array_equal(traj.last_state, plain.last_state)
    assert (traj.termination, traj.last_time) == (plain.termination, plain.last_time)
    assert (traj.stats.accepted, traj.stats.rejected, traj.stats.n_evals) == (
        plain.stats.accepted, plain.stats.rejected, plain.stats.n_evals
    )
    assert traj.termination == TERMINATION_COMPLETED
    assert len(calls) == traj.stats.accepted
    assert np.array_equal(calls[-1], traj.last_state)


def test_until_stops_at_first_step_where_it_holds(example1):
    _, p, s0 = example1
    cfg = IntegratorConfig(t_end=2.0, sample_dt=0.1)
    full_calls = []
    integrate(s0, p, cfg, until=lambda state: full_calls.append(state) or False)
    # the first accepted step whose state has X_2 above a level it crosses
    # in the run; any step reaching it must end the run there
    level = 0.5 * (full_calls[0][1] + full_calls[-1][1])
    first = next(i for i, state in enumerate(full_calls) if state[1] > level)
    calls = []

    def crossed(state):
        calls.append(state)
        return state[1] > level

    traj = integrate(s0, p, cfg, until=crossed)
    assert traj.termination == TERMINATION_STOPPED
    assert len(calls) == traj.stats.accepted == first + 1
    assert np.array_equal(traj.last_state, full_calls[first])
    assert first > 0 and 0.0 < traj.last_time < cfg.t_end
    # last_time is the end of that step: a run to it takes the same steps
    short = integrate(s0, p, replace(cfg, t_end=traj.last_time))
    assert short.stats.accepted == first + 1
    assert np.abs(short.last_state - traj.last_state).max() <= 1e-12
    # every sample up to last_time is kept, none beyond it
    assert traj.times.shape[0] == traj.states.shape[0]
    assert traj.times[-1] <= traj.last_time < traj.times[-1] + cfg.sample_dt
    reference = integrate(s0, p, cfg)
    n = traj.times.shape[0]
    assert np.array_equal(traj.states, reference.states[:n])


def _stop_at_step(k):
    """An until predicate that holds at the k-th accepted step."""
    calls = 0

    def until(state):
        nonlocal calls
        calls += 1
        return calls == k

    return until


def test_sample_just_past_a_step_end_is_that_steps_sample(example1):
    # a grid point at most 1e-10 after an accepted step's end is emitted by
    # that step; the sample grid does not move the steps
    _, p, s0 = example1
    k, j = 40, 3
    t_k = integrate(s0, p, IntegratorConfig(t_end=2.0), until=_stop_at_step(k)).last_time
    for past, rows in ((5e-11, j + 1), (3e-10, j)):
        cfg = IntegratorConfig(t_end=2.0, sample_dt=(t_k + past) / j)
        traj = integrate(s0, p, cfg, until=_stop_at_step(k))
        assert traj.last_time == t_k
        assert traj.times.shape[0] == traj.states.shape[0] == rows
        full = integrate(s0, p, cfg)
        assert full.times[j] > t_k
        assert np.array_equal(traj.states, full.states[:rows])


def test_every_sample_emitted_once_when_sample_dt_does_not_divide_t_end(example1,
                                                                        monkeypatch):
    _, p, s0 = example1
    emitted = []
    dense_output = integrator._dense_output

    def counting(u, u_new, h, K, F, theta):
        emitted.append(theta.size)
        return dense_output(u, u_new, h, K, F, theta)

    monkeypatch.setattr(integrator, "_dense_output", counting)
    cfg = IntegratorConfig(t_end=2.0, sample_dt=0.3)
    traj = integrate(s0, p, cfg)
    assert np.array_equal(traj.times, integrator._sample_grid(2.0, 0.3))
    assert traj.times[-1] == 2.0 and traj.times[-2] == 6 * 0.3
    assert sum(emitted) == traj.times.shape[0] - 1
    assert np.all(traj.states > 0.0)
    assert np.abs(traj.states[-1] - traj.last_state).max() <= 1e-12


def test_times_are_python_floats(example1):
    # last_time is a plain float however a run ends,
    # also for an integer t_end and for a run with nothing to integrate
    from hexnet.analysis import WitnessSpec, witness_initial_condition

    _, p, s0 = example1
    p1 = replace(p, phi=1.0, psi=1.0, omega=1.0)
    runs = {
        "completed": integrate(s0, p, IntegratorConfig(t_end=1, sample_dt=0.5)),
        "all masked": integrate(np.zeros(s0.size), p, IntegratorConfig(t_end=1, sample_dt=0.5)),
        "stopped": integrate(s0, p, IntegratorConfig(t_end=1.0), until=lambda state: True),
        "diverged": integrate(
            witness_initial_condition(WitnessSpec(0, 1, 1e-2), p1), p1,
            IntegratorConfig(t_end=200.0, sample_dt=0.5, direction="backward"),
        ),
    }
    assert [r.termination for r in runs.values()] == [
        TERMINATION_COMPLETED, TERMINATION_COMPLETED, TERMINATION_STOPPED, TERMINATION_DIVERGED,
    ]
    for name, traj in runs.items():
        assert type(traj.last_time) is float, name
    assert runs["completed"].last_time == runs["all masked"].last_time == 1.0


def _masked_start(s0):
    s = s0.copy()
    s[[4, 11]] = 0.0  # x1_2 and x3_3: live is 0-3, 5-10 and 12
    return s


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_ascending_order_is_the_default_run(example1, direction):
    _, p, s0 = example1
    s = _masked_start(s0)
    cfg = IntegratorConfig(t_end=5.0, sample_dt=0.1, direction=direction)
    plain = integrate(s, p, cfg)
    ordered = integrate(s, p, cfg, order=np.flatnonzero(s))
    for name in ("times", "states", "mask", "last_state"):
        assert np.array_equal(getattr(ordered, name), getattr(plain, name)), name
    assert (ordered.termination, ordered.last_time, ordered.diverged_coordinate) == (
        plain.termination, plain.last_time, plain.diverged_coordinate)
    assert (ordered.stats.accepted, ordered.stats.rejected, ordered.stats.n_evals) == (
        plain.stats.accepted, plain.stats.rejected, plain.stats.n_evals)


@pytest.mark.parametrize("case", ["repeated", "masked", "missing", "block_first", "split_block"])
def test_malformed_order_is_refused_before_any_evaluation(example1, monkeypatch, case):
    _, p, s0 = example1
    s = _masked_start(s0)
    live = np.flatnonzero(s)
    order = {
        "repeated": np.append(live, live[-1]),
        "masked": np.append(live, 4),
        "missing": live[:-1],
        "block_first": np.concatenate((live[3:4], live[:3], live[4:])),  # x1_1 before X
        "split_block": np.concatenate((live[:4], live[5:6], live[4:5], live[6:])),  # x1_1, x2_1, x1_3
    }[case]
    calls = []
    monkeypatch.setattr(integrator, "growth_rates", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="^(order|live) must list"):
        integrate(s, p, IntegratorConfig(t_end=1.0), order=order)
    assert calls == []


def _progress_case(example1, case):
    """(s0, p, cfg, keyword arguments) of a run for the states buffer and
    progress hook checks: stepper cases, a masked start, and the two runs
    that integrate nothing."""
    if case in ("dense", "until", "backward_diverged", "forward"):
        return _stepper_case(example1, case)
    _, p, s0 = example1
    if case == "masked":
        return _masked_start(s0), p, IntegratorConfig(t_end=5.0, sample_dt=0.1), {}
    if case == "t_end_zero":
        return s0, p, IntegratorConfig(t_end=0.0), {}
    assert case == "all_masked"
    return np.zeros_like(s0), p, IntegratorConfig(t_end=1.0, sample_dt=0.25), {}


@pytest.mark.parametrize("case", ["dense", "forward", "until", "backward_diverged", "masked",
                                  "t_end_zero", "all_masked"])
def test_shared_states_and_progress_are_the_default_run(example1, case):
    # a zero-filled buffer in shared memory gets the default run's samples
    # bit for bit, and the trajectory reads them from it; each count the
    # hook reports names rows that are final then, the counts never
    # decrease, and they end at the rows the trajectory keeps: the grid's
    # when the run completes, fewer when until stops it or it diverges
    s0, p, cfg, kw = _progress_case(example1, case)
    plain = integrate(s0, p, cfg, **kw)
    s0, p, cfg, kw = _progress_case(example1, case)  # a fresh until predicate
    grid = integrator.sample_times(cfg)
    buffer = output._shared_zeros((grid.size, p.hierarchy.dimension))
    reports = []

    def progress(count):
        reports.append((count, buffer[:count].copy()))

    traj = integrate(s0, p, cfg, states=buffer, progress=progress, **kw)
    for name in ("times", "states", "mask", "last_state"):
        ours, theirs = getattr(traj, name), getattr(plain, name)
        assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes(), name
    assert (traj.termination, traj.last_time.hex(), traj.diverged_coordinate) == (
        plain.termination, plain.last_time.hex(), plain.diverged_coordinate)
    assert (traj.stats.accepted, traj.stats.rejected, traj.stats.n_evals) == (
        plain.stats.accepted, plain.stats.rejected, plain.stats.n_evals)
    assert np.shares_memory(traj.states, buffer)
    counts = [count for count, _ in reports]
    assert counts == sorted(counts) and counts[-1] == traj.times.size
    for count, rows in reports:
        assert rows.tobytes() == traj.states[:count].tobytes()
    if case in ("until", "backward_diverged"):
        assert counts[-1] < grid.size
    else:
        assert traj.termination == TERMINATION_COMPLETED and counts[-1] == grid.size
    if case == "dense":  # the rows come in as the run goes, not all at its end
        assert len(set(counts)) > 10


@pytest.mark.parametrize("case", ["rows", "columns", "float32", "not_zero", "negative_zero"])
def test_a_bad_states_buffer_is_refused_before_any_evaluation(example1, monkeypatch, case):
    _, p, s0 = example1
    cfg = IntegratorConfig(t_end=1.0, sample_dt=0.25)
    shape = (5, p.hierarchy.dimension)
    buffer = {
        "rows": np.zeros((6, shape[1])),
        "columns": np.zeros((5, shape[1] - 1)),
        "float32": np.zeros(shape, dtype=np.float32),
        "not_zero": np.zeros(shape),
        "negative_zero": np.zeros(shape),  # prints "-0" in a masked column
    }[case]
    buffer[3, 7] = {"not_zero": 1e-300, "negative_zero": -0.0}.get(case, 0.0)
    calls, reports = [], []
    monkeypatch.setattr(integrator, "growth_rates", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="^states must be a zero-filled float64 array"):
        integrate(s0, p, cfg, states=buffer, progress=reports.append)
    assert calls == [] and reports == []
