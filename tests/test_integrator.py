"""Adaptive log-chart integration.

Claims covered:
    - DOP853 tableau: reference coefficients, order conditions, dense-output
      endpoints on a real step, dense output against scipy's on one step
    - non-finite configuration values and oversized sample grids are
      rejected before anything is allocated
    - equilibria give constant trajectories; exact zeros stay bitwise zero
    - dense-output grid shape
    - agreement with an independent original-chart integration (scipy RK45)
      on horizons where the original chart can represent the dynamics
    - halving tolerances: identical symbolic itinerary, small state shifts
    - time-reversal consistency
    - backward divergence detection with coordinate attribution
    - step statistics (exact RHS call count) and failure modes
    - the until predicate: called once per accepted step, ends the run
      "stopped" at the first step where it holds, changes nothing when
      it never fires
"""
import numpy as np
import pytest
from dataclasses import replace

import hexnet.integrator as integrator
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
from hexnet.analysis import LEVEL_SUPER, extract_itinerary
from hexnet.vectorfield import designed_equilibria, eval_field, eval_field_log, growth_rates


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
    mask = s0 == 0.0
    u0 = np.zeros(s0.size)
    u0[~mask] = np.log(s0[~mask])
    solver = DOP853(
        lambda t, u: eval_field_log(u, mask, p), 0.0, u0, 1.0,
        first_step=1e-3, rtol=1e-6, atol=1e-6,
    )
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
    i_full = extract_itinerary(full, p, LEVEL_SUPER).labels()
    i_half = extract_itinerary(half, p, LEVEL_SUPER).labels()
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
    assert traj.diverged_time < 200.0


def test_step_statistics(example1, monkeypatch):
    # the stepper must reach the RHS through the module-level name, once per
    # evaluation it counts
    _, p, s0 = example1
    calls = 0

    def counting(v, params):
        nonlocal calls
        calls += 1
        return growth_rates(v, params)

    monkeypatch.setattr(integrator, "growth_rates", counting)
    traj = integrate(s0, p, IntegratorConfig(t_end=2.0))
    assert traj.stats.accepted > 0
    assert traj.stats.n_evals == calls


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
