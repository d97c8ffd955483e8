"""Realization verification machinery.

Claims covered:
    - equilibrium residual report (exact zeros; perturbed states rejected;
      a NaN residual fails; residuals equal the sup norm of eval_field)
    - closed-form spectra at designed equilibria: transverse entries are
      growth rates, radial and active-block entries Jacobian diagonals
    - the structural checks may read growth rates as eigenvalues: at every
      designed equilibrium of generated scenarios (those whose rate table
      keeps every coefficient's sign), each zero coordinate's
      Jacobian row is its rate times its unit row, and X_j does not listen
      to the unit coordinate of Sub(j, i)
    - eigenvalue/edge correspondence passes under the default orientation,
      fails under the literal one, and is empty for edgeless graphs
    - both structural checks pass on a cycle-plus-chords hierarchy at d=800
    - non-edge pairs have nonpositive transverse eigenvalues both ways
    - run boundaries of label streams agree with a plain-loop oracle
    - itinerary extraction: one list per trajectory, the superstructure
      then blocks 1..N, each block's windows the runs of gate distance
      below epsilon, also where the bump is already exactly 0; constant
      trajectories, window bookkeeping, edge checks skipping
      window-crossing continuations
    - the row-chunked extraction equals the whole-array oracle at any chunk
      size on drawn trajectories (N up to 11, blocks up to 9, ties, tops at
      exactly 1 - near_tol, gate distances at exactly epsilon), and keeps at
      most 28 bytes of scratch a row
    - witness construction and runs (forward convergence, backward
      divergence / bounded backward saturation), convergence monotone in t
    - witness runs keep within WITNESS_MAX_TIME, and their forward times
      follow the escape-time scaling in log(1/delta)
    - run_witnesses equals per-spec run_witness field for field, with one
      CPU and with worker processes, runs each distinct witness subsystem
      once over all processes, and keeps nothing between calls; each run's
      halves are two jobs of one deal, so at 2 CPUs the forward halves run
      here and the backward halves in the one worker
    - witnesses run in role order: under the uniform rule an edge j -> k
      with j > k gives its j < k twin's result, the backward coordinate
      mapped by role, so a uniform hierarchy needs one run per delta
    - verify_realization aggregation on a cheap scenario whose every level
      checks at least one transition, including the deliberately transposed
      orientation failing; a scenario run that does not complete fails the
      verdict
    - verify_realization integrates its one scenario level by level: its
      reports equal those of one coupled run in both orientations; it makes
      one X run, one run per block with a live initial coordinate and the
      witness runs, over min(cpus, bins) processes with reports bitwise
      independent of the CPU count; a block whose initial coordinates are
      all 0 reads the X run; the X run's itinerary is extracted once before
      the deal and each block run's once after it, and they are checked
      against [superstructure, blocks 1..N]
    - verify_realization's witnesses equal run_witnesses' field for field
      at any CPU count; on example1 with two CPUs this process runs block
      1, and the worker blocks 2 and 3 and the witness runs
    - one run_witnesses call builds the unit-timescale parameters at most
      once, and not at all when the field's timescales are already 1
    - the X runs of two committed generated hierarchies hold the non-edge
      superstructure pairs measured today (1 -> 3 at t = 25.1; 5 -> 2 at
      t = 20.9 and 41.0), and no vertex of a path between the two visits
      peaks above 1 - near_tol in between
"""
import os
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from dataclasses import fields, replace
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hexnet.analysis
from hexnet.analysis import (
    DEFAULT_WITNESS_DELTAS,
    LEVEL_SUB,
    LEVEL_SUPER,
    WitnessSpec,
    _active_runs,
    check_edge_eigen_correspondence,
    check_itinerary_against,
    extract_itinerary,
    run_bounds,
    run_witness,
    run_witnesses,
    verify_equilibria,
    verify_realization,
    witness_initial_condition,
)
from hexnet.errors import CoefficientSignError, NotAnEdgeError, ScenarioValidationError
from hexnet.hierarchy import HierarchySpec, digraph_from_edges
from hexnet.integrator import (
    TERMINATION_COMPLETED,
    IntegratorConfig,
    StepStats,
    Trajectory,
    integrate,
)
from hexnet.vectorfield import (
    FieldParams,
    build_coefficients,
    bump,
    designed_equilibria,
    eval_field,
    gate_distances,
    growth_rates,
    jacobian,
)

from oracles import naive_runs, reference_itinerary
from strategies import scenarios

THREE_CYCLE = [(0, 1), (1, 2), (2, 0)]


def test_verify_equilibria_both_examples(example1, example2):
    for fix in (example1, example2):
        _, p, _ = fix
        rep = verify_equilibria(p, tol=1e-12)
        assert rep.passed
        assert rep.max_residual == 0.0
        assert len(rep.residuals) == 1 + p.layout.n_super + sum(p.layout.block_sizes)


def test_verify_equilibria_nan_residual_fails(example1, monkeypatch):
    # a NaN residual (an overflowed rate) must not read as 0 and pass
    _, p, _ = example1
    rates = hexnet.analysis.growth_rates
    bad = designed_equilibria(p)[4].state

    def nan_at_one(v, table):
        out = rates(v, table)
        return np.full_like(out, np.nan) if np.array_equal(v, bad) else out

    monkeypatch.setattr(hexnet.analysis, "growth_rates", nan_at_one)
    rep = verify_equilibria(p)
    assert np.isnan(rep.max_residual)
    assert not rep.passed
    assert [np.isnan(r) for _, r in rep.residuals].count(True) == 1


def test_perturbed_state_is_not_equilibrium(example1):
    _, p, _ = example1
    s = np.zeros(p.layout.dimension)
    s[0] = 1.0
    s[1] = 0.01
    assert np.abs(eval_field(s, p)).max() > 1e-12


def _rates(eq, p):
    return growth_rates(eq.state, p._rates)


def test_transverse_rates_super_closed_form(example1):
    _, p, _ = example1
    eq = {e.name: e for e in designed_equilibria(p)}["Super(1)"]
    rates = _rates(eq, p)
    diag = np.diagonal(jacobian(eq.state, p))
    a = p.coeffs.a
    assert diag[0] == pytest.approx(-2.0 * p.phi, rel=1e-12)  # radial
    assert rates[1] == pytest.approx(p.phi * a[1, 0], rel=1e-12)
    assert rates[2] == pytest.approx(p.phi * a[2, 0], rel=1e-12)
    # active block at the sub-origin grows at psi in every direction
    for c in range(*p.layout.sub_slice(0).indices(13)[:2]):
        assert diag[c] == pytest.approx(p.psi, rel=1e-12)
    # inactive substructure blocks decay at omega
    for j in (1, 2):
        sl = p.layout.sub_slice(j)
        for c in range(sl.start, sl.stop):
            assert diag[c] == pytest.approx(-p.omega, rel=1e-12)


def test_transverse_rates_origin(example1):
    _, p, _ = example1
    rates = _rates(designed_equilibria(p)[0], p)
    for c in range(3):
        assert rates[c] == pytest.approx(p.phi, rel=1e-12)
    for c in range(3, 13):
        assert rates[c] == pytest.approx(-p.omega, rel=1e-12)


@settings(derandomize=True, deadline=None, database=None)
@given(sc=scenarios())
def test_rates_are_the_transverse_spectrum(sc):
    # a zero coordinate m has the Jacobian row rates[m] e_m, and at Sub(j, i)
    # X_j does not listen to the unit coordinate c; every other entry of the
    # unit coordinates' rows lies below the diagonal, so the spectrum is the
    # rates of the zero coordinates plus the radial diagonal entries
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "epsilon .* bump supports may overlap")
        try:
            p = sc.field_params()
        except ScenarioValidationError as err:
            # only a lost sign refuses a draw: a coefficient below about
            # 2^-54 in magnitude, or a subnormal phi or psi, rounds its rate
            # scale + scale * (c - 1) to 0
            assert err.path == "coefficients"
            assert isinstance(err.__cause__, CoefficientSignError)
            assume(False)
    residuals = dict(verify_equilibria(p).residuals)
    for eq in designed_equilibria(p):
        rates = _rates(eq, p)
        J = jacobian(eq.state, p)
        zero = eq.state == 0.0
        assert (J[zero] == np.diag(rates)[zero]).all(), eq.name
        if eq.kind == "sub":
            assert J[eq.j, p.layout.sub_offset(eq.j) + eq.i] == 0.0, eq.name
        assert residuals[eq.name] == np.abs(eval_field(eq.state, p)).max(), eq.name


def _chorded(n):
    """A cycle through 0..n-1 plus the chords i -> i+2 for every third i."""
    return digraph_from_edges(
        n, [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 2) % n) for i in range(0, n, 3)]
    )


@pytest.mark.parametrize("variant", ["standard", "bounded"])
def test_structural_checks_at_scale(variant):
    h = HierarchySpec(_chorded(40), tuple(_chorded(19) for _ in range(40)))
    p = FieldParams(build_coefficients(h), epsilon=0.2, variant=variant)
    assert p.layout.dimension == 800
    assert verify_equilibria(p).passed
    rep = check_edge_eigen_correspondence(p)
    assert rep.passed
    assert len(rep.checks) == 800


def test_edge_eigen_correspondence_examples(example1, example2):
    for fix in (example1, example2):
        _, p, _ = fix
        rep = check_edge_eigen_correspondence(p)
        assert rep.passed
        assert all(c.expected == c.observed for c in rep.checks)


def test_edge_eigen_correspondence_kirk_silber_branch(example1):
    _, p, _ = example1
    rep = check_edge_eigen_correspondence(p)
    by_name = {c.name: c for c in rep.checks}
    assert by_name["Sub(3,2)"].observed == frozenset({2, 3})
    assert by_name["Super(1)"].observed == frozenset({1})


def test_edge_eigen_correspondence_literal_fails(example1):
    sc, _, _ = example1
    p_lit = replace(sc, orientation="literal").field_params()
    rep = check_edge_eigen_correspondence(p_lit)
    assert not rep.passed


def test_edgeless_digraph_all_stable():
    gamma = digraph_from_edges(3, THREE_CYCLE)
    edgeless = digraph_from_edges(2, [])
    h = HierarchySpec(gamma, (edgeless, edgeless, edgeless))
    p = FieldParams(build_coefficients(h, c_minus=-1.5), epsilon=0.2)
    rep = check_edge_eigen_correspondence(p)
    assert rep.passed
    for c in rep.checks:
        if c.name.startswith("Sub"):
            assert c.observed == frozenset()
    eq = designed_equilibria(p)[-1]
    assert (_rates(eq, p)[p.layout.sub_slice(eq.j)] < 0.0).tolist() == [True, False]
    # at c_minus = -2**-54, c_minus - 1 rounds to -1: every off-edge rate
    # would be exactly 0, neither stable nor unstable, so the field is refused
    with pytest.raises(CoefficientSignError, match=r"^a: entry \[1,3\] = -5\.55"):
        FieldParams(build_coefficients(h, c_minus=-2.0**-54), epsilon=0.2)


def test_non_edge_pairs_stable_both_ways(example1, example2):
    for fix in (example1, example2):
        _, p, _ = fix
        gamma = p.hierarchy.superstructure
        eqs = {e.name: e for e in designed_equilibria(p)}
        n = gamma.n_vertices
        for j in range(n):
            rates = _rates(eqs[f"Super({j + 1})"], p)
            for k in range(n):
                if k != j and (j, k) not in gamma.edges:
                    assert rates[k] <= 0.0


# ---------------------------------------------------------------------------
# itineraries
# ---------------------------------------------------------------------------

def _runs(labels):
    labels = np.asarray(labels)
    starts, ends = run_bounds(labels)
    return [(labels[a].item(), int(a), int(b)) for a, b in zip(starts, ends)]


@pytest.mark.parametrize(
    "labels",
    [[], [2], [True], [-1, -1, -1], [0, 1], [1, 1, 0, 0, 1], [-1, 0, 0, -1, 2, 2, 2, 0]],
)
def test_run_bounds_edge_cases(labels):
    assert _runs(labels) == naive_runs(labels)


def test_run_bounds_random_streams():
    rng = np.random.default_rng(31)
    for n in list(range(1, 12)) + [100, 1000]:
        for _ in range(20):
            # long runs from a small alphabet, vertex streams and gate masks
            labels = np.repeat(rng.integers(-1, 3, n), rng.integers(1, 5, n))[:n]
            assert _runs(labels) == naive_runs(labels.tolist())
            active = labels >= 0
            assert _runs(active) == naive_runs(active.tolist())


def test_gate_active_below_epsilon_where_bump_is_zero():
    # the active rule is z < epsilon: just below epsilon, where w > 700,
    # the bump is exactly 0 and the sample still counts as active
    eps = 0.2
    z = np.array([0.3, eps - 1e-4, 0.25, 0.1])
    X = np.zeros((4, 2))
    X[:, 0] = 1.0 - np.sqrt(z)  # gate distance z from e_1, more than 1 from e_2
    z_seen = gate_distances(X)[:, 0]
    assert z_seen == pytest.approx(z, abs=1e-12)
    assert bump(z_seen[1], eps) == 0.0 and bump(z_seen[3], eps) > 0.0
    (active, starts, ends), (other, _, _) = _active_runs(X, eps)
    assert active.tolist() == [False, True, False, True]
    assert starts.tolist() == [1, 3] and ends.tolist() == [2, 4]
    assert not other.any()


def _trajectory(states: np.ndarray, dt: float = 0.5) -> Trajectory:
    """A completed run's record of the samples states, dt apart."""
    times = np.arange(states.shape[0]) * dt
    return Trajectory(times, states, StepStats(), TERMINATION_COMPLETED,
                      np.ones(states.shape[1], dtype=bool), float(times[-1]), states[-1])


@st.composite
def _itinerary_cases(draw):
    """(trajectory, params, near_tol, min_dwell, row-chunk size): N in
    {1, 3, 8, 11} blocks of up to 9 vertices, runs of repeated samples whose
    values include exact ties, tops exactly at 1 - near_tol and X near unit
    vectors, and mostly an epsilon equal to one of the gate distances."""
    n = draw(st.sampled_from([1, 3, 8, 11]))
    sizes = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    near_tol = draw(st.sampled_from([0.05, 0.1, 0.25]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, distinct = n + sum(sizes), draw(st.integers(1, 40))
    exact = np.array([0.0, 0.1, 0.5, 1.0 - near_tol, 1.0])
    pool = np.where(rng.random((distinct, d)) < 0.6, rng.choice(exact, (distinct, d)),
                    rng.uniform(0.0, 1.1, (distinct, d)))
    near_unit = rng.random(distinct) < 0.6  # X = a top on e_j plus sparse small terms
    X = np.where(rng.random((distinct, n)) < 0.3, rng.uniform(0.0, 0.3, (distinct, n)), 0.0)
    X[np.arange(distinct), rng.integers(0, n, distinct)] = rng.choice(exact[3:], distinct)
    pool[near_unit, :n] = X[near_unit]
    states = np.repeat(pool, rng.integers(1, 6, distinct), axis=0)
    # prefer a gate distance whose |X|^2 another order of summation changes:
    # only numpy's order leaves that sample inactive
    Xs = states[:, :n]
    z = gate_distances(Xs)
    sq = (Xs * Xs).sum(axis=-1)
    ordered = (sq != sum(Xs[:, k] * Xs[:, k] for k in range(n)))[:, None]
    ordered |= (sq != sum(Xs[:, k] * Xs[:, k] for k in reversed(range(n))))[:, None]
    fits = (z > 0.0) & (z < 0.5)
    z = z[fits & ordered] if (fits & ordered).any() else z[fits]
    if z.size and draw(st.booleans()):
        epsilon = float(z[draw(st.integers(0, z.size - 1))])
    else:
        epsilon = 0.2
    h = HierarchySpec(digraph_from_edges(n, []), tuple(digraph_from_edges(m, []) for m in sizes))
    return (_trajectory(states), FieldParams(build_coefficients(h), epsilon=epsilon), near_tol,
            draw(st.sampled_from([0.0, 1.0, 2.5])), draw(st.sampled_from([1, 2, 3, 7, 4096])))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(case=_itinerary_cases())
def test_extract_itinerary_matches_the_whole_array_oracle(case):
    # the row-chunked passes read every level as the whole-array extraction
    # does: the same |X|^2 bits at any chunk size (a gate distance equal to
    # epsilon stays inactive), argmax's first index on ties, and tops at
    # exactly 1 - near_tol not visits
    traj, p, near_tol, min_dwell, chunk = case
    with mock.patch.object(hexnet.analysis, "_CHUNK_ROWS", chunk):
        got = extract_itinerary(traj, p, near_tol=near_tol, min_dwell=min_dwell)
    want = reference_itinerary(traj, p, near_tol, min_dwell)
    assert [(rep.labels(), [(v.vertex, v.t_enter, v.t_exit, v.window) for v in rep.visits],
             rep.active_windows) for rep in got] == want


def _cycling_states(rows: int, layout) -> np.ndarray:
    """rows samples in which X and each block dwell on their vertices in
    turn, X every rows // 6 samples and the blocks three times as often."""
    states = np.full((rows, layout.dimension), 0.05)
    at = np.arange(rows)
    for part, period in [(layout.super_slice, rows // 6)] + [
            (layout.sub_slice(j), rows // 18) for j in range(layout.n_super)]:
        size = part.stop - part.start
        states[at, part.start + (at // period) % size] = 0.97
    return states


def test_extract_itinerary_keeps_a_few_bytes_a_row(small_scenario):
    # beside the trajectory the passes keep |X|^2 (8 B a row), one block's
    # mask and vertex stream and run_bounds' differences (1 B each) and
    # row-chunk temporaries; the whole-array extraction took 56 B a row
    _, p, _ = small_scenario
    rows = 200_000
    traj = _trajectory(_cycling_states(rows, p.layout), dt=1e-3)
    tracemalloc.start()
    try:
        reports = extract_itinerary(traj, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [rep.labels() for rep in reports] == [[1, 2, 3, 1, 2, 3]] * 4
    assert peak <= 28 * rows, peak / rows


def test_itinerary_lists_super_then_blocks_in_order(small_scenario):
    sc, p, s0 = small_scenario
    traj = integrate(s0, p, sc.integrator)
    reports = extract_itinerary(traj, p)
    n = p.layout.n_super
    assert [(r.level, r.j) for r in reports] == (
        [(LEVEL_SUPER, None)] + [(LEVEL_SUB, j) for j in range(n)]
    )
    assert reports[0].active_windows is None
    assert reports[0].labels()[:4] == [1, 2, 3, 1]
    gates = gate_distances(traj.states[:, p.layout.super_slice])
    for rep in reports[1:]:
        runs = naive_runs((gates[:, rep.j] < p.epsilon).tolist())
        assert rep.active_windows == [
            (traj.times[a], traj.times[b - 1]) for on, a, b in runs if on
        ]
    assert max(len(rep.active_windows) for rep in reports[1:]) >= 2


def test_itinerary_constant_trajectory(example1):
    _, p, _ = example1
    eqs = {e.name: e for e in designed_equilibria(p)}
    traj = integrate(eqs["Sub(2,1)"].state, p, IntegratorConfig(t_end=30.0))
    sup, _, rep, _ = extract_itinerary(traj, p)
    assert [v.vertex for v in rep.visits] == [0]
    assert rep.visits[0].t_enter == 0.0
    assert rep.visits[0].t_exit == 30.0
    assert rep.active_windows == [(0.0, 30.0)]
    assert [v.vertex for v in sup.visits] == [1]


def test_itinerary_min_dwell_filters(example1):
    _, p, _ = example1
    eqs = {e.name: e for e in designed_equilibria(p)}
    traj = integrate(eqs["Super(1)"].state, p, IntegratorConfig(t_end=5.0))
    rep = extract_itinerary(traj, p, min_dwell=10.0)[0]
    assert rep.visits == []
    chk = check_itinerary_against(rep, p.hierarchy.superstructure)
    assert chk.passed and chk.n_pairs == 0  # vacuous pass


def test_check_itinerary_skips_window_crossings(example1):
    # visits resuming the paused vertex across a window gap are not
    # transitions and must not be counted against the digraph
    from hexnet.analysis import ItineraryReport, Visit

    _, p, _ = example1
    g = p.hierarchy.substructures[0]
    rep = ItineraryReport(
        level=LEVEL_SUB,
        j=0,
        visits=[
            Visit(0, 0.0, 1.0, 0),
            Visit(1, 1.5, 3.0, 0),
            Visit(1, 10.0, 11.0, 1),  # same vertex resumed in next window
            Visit(2, 11.5, 13.0, 1),
        ],
        active_windows=[(0.0, 3.0), (10.0, 13.0)],
        near_tol=0.1,
        min_dwell=0.5,
    )
    chk = check_itinerary_against(rep, g)
    assert chk.passed
    assert chk.n_pairs == 2
    bad = ItineraryReport(
        level=LEVEL_SUB,
        j=0,
        visits=[Visit(0, 0.0, 1.0, 0), Visit(2, 1.5, 3.0, 0)],
        active_windows=[(0.0, 3.0)],
        near_tol=0.1,
        min_dwell=0.5,
    )
    chk_bad = check_itinerary_against(bad, g)
    assert not chk_bad.passed
    assert chk_bad.violations == [(0, 2, 1.5)]


def test_sub_itineraries_match_digraphs_full_run(example1_trajectory, example1):
    traj, _ = example1_trajectory
    _, p, _ = example1
    for rep, g in zip(extract_itinerary(traj, p)[1:], p.hierarchy.substructures):
        assert len(rep.active_windows) >= 1
        chk = check_itinerary_against(rep, g)
        assert chk.passed, chk.violations
        assert chk.n_pairs >= 5


def test_super_dwell_times_nondecreasing(example1_trajectory, example1):
    traj, _ = example1_trajectory
    _, p, _ = example1
    rep = extract_itinerary(traj, p)[0]
    visits = rep.visits
    # drop the final visit if the horizon truncated it
    if visits and visits[-1].t_exit >= traj.times[-1]:
        visits = visits[:-1]
    by_vertex = {}
    for v in visits[3:]:  # after the first full cycle
        by_vertex.setdefault(v.vertex, []).append(v.dwell)
    assert by_vertex
    for dwells in by_vertex.values():
        assert all(b >= a for a, b in zip(dwells, dwells[1:]))


def test_itinerary_near_tol_halving_invariance(
    example1_trajectory, example1, example2_trajectory, example2
):
    # sequences agree between near_tol 0.1 and 0.05, except that the very
    # first superstructure visit of example 1 peaks at 0.949 and is only
    # seen by the looser threshold
    for (traj_fix, fix) in ((example1_trajectory[0], example1), (example2_trajectory, example2)):
        _, p, _ = fix
        a, *sub_a = [r.labels() for r in extract_itinerary(traj_fix, p, near_tol=0.1)]
        b, *sub_b = [r.labels() for r in extract_itinerary(traj_fix, p, near_tol=0.05)]
        assert b == a or b == a[1:]
        assert sub_a == sub_b


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_witness_initial_condition_values(example1):
    _, p, _ = example1
    s = witness_initial_condition(WitnessSpec(0, 1, 0.01), p)
    expect = np.zeros(13)
    expect[0] = 0.995
    expect[1] = 0.005
    expect[3] = 1.0  # x^1 = e_1
    expect[6] = 0.005  # x^2_1
    assert np.array_equal(s, expect)
    sub11 = np.zeros(13)
    sub11[0] = 1.0
    sub11[3] = 1.0
    assert np.abs(s - sub11).max() < 0.01  # within delta of Sub(1,1)


def test_witness_initial_condition_scales(example1):
    _, p, _ = example1
    s = witness_initial_condition(WitnessSpec(0, 1, 1e-3), p)
    assert s[1] == 5e-4 and s[0] == 1.0 - 5e-4 and s[6] == 5e-4


def test_witness_requires_edge(example1):
    _, p, _ = example1
    with pytest.raises(NotAnEdgeError):
        witness_initial_condition(WitnessSpec(0, 2, 0.01), p)  # (1,3) not an edge


@pytest.mark.parametrize("name, value, call", [
    ("near_tol", 0.5, lambda traj, p: extract_itinerary(traj, p, near_tol=0.5)),
    ("min_dwell", -1.0, lambda traj, p: extract_itinerary(traj, p, min_dwell=-1.0)),
    ("witness_deltas", (0.0,),
     lambda traj, p: witness_initial_condition(WitnessSpec(0, 1, 0.0), p)),
    ("witness_deltas", (1.0,),
     lambda traj, p: witness_initial_condition(WitnessSpec(0, 1, 1.0), p)),
])
def test_analysis_options_have_one_rule(small_scenario, name, value, call):
    # the API refuses what the scenario loader refuses, with the same message
    from hexnet.scenario import apply_overrides

    sc, p, s0 = small_scenario
    traj = integrate(s0, p, IntegratorConfig(t_end=1.0, sample_dt=0.5))
    with pytest.raises(ValueError) as api:
        call(traj, p)
    with pytest.raises(ScenarioValidationError) as loader:
        apply_overrides(sc, **{name: value})
    assert loader.value.path == f"analysis.{name}"
    assert str(api.value) == loader.value.message


def test_run_witness_forward_and_backward(example1):
    _, p, _ = example1
    res = run_witness(WitnessSpec(0, 1, 1e-2), p)
    assert res.forward_converged
    assert res.forward_distance <= 1e-6
    assert res.backward_diverged
    assert res.backward_coordinate_name.startswith("x")
    assert res.backward_coordinate_gate < 1.0
    assert res.passed


def test_run_witness_bounded_variant(example1):
    _, p, _ = example1
    pb = replace(p, variant="bounded")
    res = run_witness(WitnessSpec(0, 1, 1e-2), pb)
    assert not res.backward_diverged
    assert res.backward_inactive_gap <= 1e-3
    assert res.forward_converged  # to the {0,1} copy of the target network
    assert res.passed


def test_witness_convergence_monotone_in_horizon(example1):
    _, p, _ = example1
    p1 = replace(p, phi=1.0, psi=1.0, omega=1.0)
    s0 = witness_initial_condition(WitnessSpec(0, 1, 1e-2), p1)
    target = np.zeros(13)
    target[1] = 1.0
    target[6] = 1.0
    dists = []
    for t_end in (50.0, 100.0, 200.0):
        traj = integrate(
            s0, p1, IntegratorConfig(t_end=t_end, sample_dt=t_end / 4, rtol=1e-10, atol=1e-10)
        )
        dists.append(float(np.abs(traj.last_state - target).max()))
    assert dists[0] >= dists[1] >= dists[2]
    assert dists[0] > dists[2]


@pytest.mark.parametrize("variant", ["standard", "bounded"])
@pytest.mark.parametrize("max_time", [10.0, 45.0])
def test_run_witness_keeps_to_max_time(example1, monkeypatch, variant, max_time):
    _, p, _ = example1
    monkeypatch.setattr(hexnet.analysis, "WITNESS_MAX_TIME", max_time)
    res = run_witness(WitnessSpec(0, 1, 1e-2), replace(p, variant=variant))
    assert res.forward_time <= max_time
    assert res.backward_time <= max_time
    if max_time == 10.0:
        # the connection takes about 20 time units at this delta
        assert not res.forward_converged
        assert not res.passed


def test_witness_forward_time_follows_escape_scaling(example1):
    # escape from Sub(1,1) takes a time linear in log(1/delta), so equal
    # steps in log10(1/delta) add equal forward times
    _, p, _ = example1
    decades = np.array([3.0, 8.0, 15.0, 30.0])
    times = np.array(
        [run_witness(WitnessSpec(0, 1, 10.0**-k), p).forward_time for k in decades]
    )
    assert np.all(np.diff(times) > 0.0)
    assert np.all(np.remainder(times, 40.0) != 0.0)
    slopes = np.diff(times) / np.diff(decades)
    assert slopes.max() <= 1.1 * slopes.min()


def _uniform_n10():
    """N = 10: a Hamiltonian cycle plus the chords i -> i+3 (20 edges) over
    cycles of 3 to 6 vertices, coefficients from the uniform rule."""
    edges = [(i, (i + 1) % 10) for i in range(10)] + [(i, (i + 3) % 10) for i in range(10)]
    blocks = tuple(
        digraph_from_edges(m, [(i, (i + 1) % m) for i in range(m)])
        for m in (3, 3, 4, 4, 4, 5, 5, 5, 6, 6)
    )
    h = HierarchySpec(digraph_from_edges(10, edges), blocks)
    return FieldParams(build_coefficients(h, 1.0, -1.5), epsilon=0.2)


def _assert_same_fields(a, b):
    for f in fields(a):
        assert getattr(a, f.name) == getattr(b, f.name), (a.spec, f.name)


def _all_specs(p, deltas):
    return [WitnessSpec(j, k, d) for j, k in sorted(p.hierarchy.superstructure.edges) for d in deltas]


@pytest.mark.parametrize("variant", ["standard", "bounded"])
@pytest.mark.parametrize("case", ["example1", "example2", "uniform_n10"])
def test_run_witnesses_equals_run_witness(request, force_cpus, case, variant):
    if case == "uniform_n10":
        p, deltas = _uniform_n10(), (0.01,)
    else:
        p, deltas = request.getfixturevalue(case)[1], DEFAULT_WITNESS_DELTAS
    p = replace(p, variant=variant)
    specs = _all_specs(p, deltas)
    force_cpus(1)  # the reference is a one-process run
    serial = [run_witness(spec, p) for spec in specs]
    for cpus in (1, 2, 3):  # this process alone, then with one or two workers
        force_cpus(cpus)
        grouped = run_witnesses(specs, p)
        assert len(grouped) == len(specs)
        for res, ref in zip(grouped, serial):
            _assert_same_fields(res, ref)


@pytest.mark.parametrize("variant", ["standard", "bounded"])
@pytest.mark.parametrize("case", ["example1", "uniform_n10"])
def test_run_witness_of_a_descending_edge_equals_its_ascending_twin(request, case, variant):
    # both run in role order (X_j, X_k, x^j_1, x^k_1), so under the uniform
    # rule an edge j -> k with j > k integrates its j < k twin's subsystem
    # bitwise, and its backward coordinate is the twin's mapped by role
    p = _uniform_n10() if case == "uniform_n10" else request.getfixturevalue(case)[1]
    p = replace(p, variant=variant)
    h = p.hierarchy
    names = h.coord_names()

    def role(w):
        return [w.j, w.k, h.sub_offset(w.j), h.sub_offset(w.k)]

    edges = sorted(h.superstructure.edges)
    twin = WitnessSpec(*next(e for e in edges if e[0] < e[1]), 0.01)
    ref = run_witness(twin, p)
    descending = [WitnessSpec(j, k, 0.01) for j, k in edges if j > k]
    assert len(descending) == {"example1": 1, "uniform_n10": 4}[case]
    for w in descending:
        coord = ref.backward_coordinate
        if coord is not None:
            coord = role(w)[role(twin).index(coord)]
        expected = replace(ref, spec=w, backward_coordinate=coord,
                           backward_coordinate_name=None if coord is None else names[coord])
        _assert_same_fields(run_witness(w, p), expected)
    assert (ref.backward_coordinate is not None) == (variant == "standard")


def _count_integrate(monkeypatch, log):
    """Append the direction of each integrate call, made in this process or
    in a forked worker, and the pid of its process as one line of the file
    log; return a function that reads the directions back, or with
    pids=True the (direction, pid) pairs."""
    original = hexnet.analysis.integrate

    def counting(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{args[2].direction} {os.getpid()}\n")
        return original(*args, **kwargs)

    def calls(pids=False):
        lines = log.read_text(encoding="utf-8").splitlines() if log.exists() else []
        pairs = [tuple(line.split()) for line in lines]
        return pairs if pids else [direction for direction, _ in pairs]

    monkeypatch.setattr(hexnet.analysis, "integrate", counting)
    return calls


@pytest.mark.parametrize("case, deltas, n_calls", [
    ("uniform_n10", (0.01,), 2),  # 20 witnesses, 1 subsystem: j < k and j > k in role order
    ("example1", DEFAULT_WITNESS_DELTAS, 6),  # 9 witnesses, 3 subsystems
    ("example2", DEFAULT_WITNESS_DELTAS, 18),  # 15 witnesses, 9 subsystems
])
def test_run_witnesses_integrates_each_subsystem_once(request, monkeypatch, tmp_path, force_cpus,
                                                      case, deltas, n_calls):
    p = _uniform_n10() if case == "uniform_n10" else request.getfixturevalue(case)[1]
    specs = _all_specs(p, deltas)
    log = tmp_path / "integrate.log"
    calls = _count_integrate(monkeypatch, log)
    for cpus in (1, 2, 3, 4):  # the workers' calls are counted too
        forks = force_cpus(cpus)
        log.unlink(missing_ok=True)
        first = run_witnesses(specs, p)
        assert len(calls()) == n_calls and calls().count("forward") == n_calls // 2, cpus
        # nothing is kept between calls: a second call runs everything again
        second = run_witnesses(specs, p)
        assert len(calls()) == 2 * n_calls, cpus
        for a, b in zip(first, second, strict=True):
            _assert_same_fields(a, b)
    # each call is one deal over its n_calls jobs, which forks one worker
    # fewer than its min(cpus, n_calls) bins; at 4 CPUs example1's 6 jobs
    # fork 3 workers per call
    assert len(forks()) == 2 * sum(min(cpus, n_calls) - 1 for cpus in (1, 2, 3, 4))


def test_a_lone_witness_run_makes_its_backward_half_in_a_worker(example1, monkeypatch, tmp_path,
                                                                force_cpus):
    # at 2 CPUs the one run of the uniform hierarchy forks 1 worker, which
    # makes the backward integrate call while this process makes the
    # forward one; example1's 3 runs are 6 jobs of weight 0 dealt in call
    # order, forward then backward, so again the forward halves run here
    # and the backward halves in the one worker
    log = tmp_path / "integrate.log"
    calls = _count_integrate(monkeypatch, log)
    forks = force_cpus(2)
    me = str(os.getpid())
    p = _uniform_n10()
    assert all(res.passed for res in run_witnesses(_all_specs(p, (0.01,)), p))
    assert forks() == [me]
    [(forward, here), (backward, there)] = calls(pids=True)
    assert (forward, here) == ("forward", me)
    assert backward == "backward" and there != me
    log.unlink()
    _, p, _ = example1
    assert all(res.passed for res in run_witnesses(_all_specs(p, DEFAULT_WITNESS_DELTAS), p))
    assert forks() == [me] * 2
    runs = calls(pids=True)
    assert sorted(direction for direction, pid in runs if pid == me) == ["forward"] * 3
    assert [direction for direction, pid in runs if pid != me] == ["backward"] * 3
    assert len({pid for direction, pid in runs if pid != me}) == 1


def test_run_witnesses_builds_the_unit_timescale_params_once(example1, monkeypatch, force_cpus):
    # example1's 9 witnesses share 3 runs, and every run reads the one
    # unit-timescale copy of the field: 1 build, none if the field has
    # unit timescales already
    _, p, _ = example1
    unit = replace(p, phi=1.0, psi=1.0, omega=1.0)
    force_cpus(1)
    builds = []
    post_init = FieldParams.__post_init__

    def counting(self):
        builds.append(self)
        post_init(self)

    monkeypatch.setattr(FieldParams, "__post_init__", counting)
    for params, n_builds in ((p, 1), (unit, 0)):
        builds.clear()
        results = run_witnesses(_all_specs(params, DEFAULT_WITNESS_DELTAS), params)
        assert len(results) == 9 and all(res.passed for res in results)
        assert len(builds) == n_builds


def test_run_witnesses_checks_every_spec_first(example1, monkeypatch, tmp_path):
    _, p, _ = example1
    calls = _count_integrate(monkeypatch, tmp_path / "integrate.log")
    with pytest.raises(NotAnEdgeError):
        run_witnesses([WitnessSpec(0, 1, 0.01), WitnessSpec(0, 2, 0.01)], p)
    assert calls() == []


# ---------------------------------------------------------------------------
# full aggregation
# ---------------------------------------------------------------------------

def test_verify_realization_small_scenario(small_scenario):
    sc, p, s0 = small_scenario
    report = verify_realization(p, s0, sc.integrator, deltas=(0.01,))
    assert report.residuals.passed
    assert report.eigen.passed
    assert all(o.check.passed for o in report.itineraries)
    # every level checks transitions, so none passes vacuously
    assert [o.check.n_pairs > 0 for o in report.itineraries] == [True] * 4
    assert all(w.passed for w in report.witnesses)
    assert len(report.witnesses) == 3
    assert (report.termination, report.last_time) == ("completed", 80.0)
    assert report.passed


def _report_rows(report):
    """Every itinerary of a RealizationReport, with its check, as plain values."""
    return [
        (o.report.level, o.report.j,
         [(v.vertex, v.t_enter, v.t_exit, v.window) for v in o.report.visits],
         o.report.active_windows, o.check.n_pairs, o.check.violations)
        for o in report.itineraries
    ]


def _assert_reads_as_coupled(report, coupled):
    """The itinerary reports of a RealizationReport equal
    extract_itinerary's reports of a coupled run."""
    for outcome, ref in zip(report.itineraries, coupled, strict=True):
        rep = outcome.report
        assert (rep.level, rep.j, rep.labels()) == (ref.level, ref.j, ref.labels())
        assert [(v.t_enter, v.t_exit, v.window) for v in rep.visits] == [
            (v.t_enter, v.t_exit, v.window) for v in ref.visits
        ]
        assert rep.active_windows == ref.active_windows


@pytest.mark.parametrize("orientation", ["eigenvalue", "literal"])
def test_verify_realization_level_runs_read_as_coupled_run(small_scenario_file, orientation):
    # the skew product: the X run and the "X + block j" runs give the
    # itinerary reports that one coupled run gives
    from hexnet.scenario import load_scenario

    sc = replace(load_scenario(small_scenario_file), orientation=orientation)
    p, s0 = sc.field_params(), sc.initial_state()
    report = verify_realization(p, s0, sc.integrator, deltas=(0.01,))
    _assert_reads_as_coupled(report, extract_itinerary(integrate(s0, p, sc.integrator), p))


def test_verify_realization_ends_at_the_first_level_run_that_stops(example1):
    # backward from example1's initial state block 1's run fails first: the
    # scenario ends there, and every level is read only up to that time, as
    # the coupled run's truncated trajectory is
    sc, p, s0 = example1
    cfg = replace(sc.integrator, direction="backward", t_end=50.0)
    coupled = integrate(s0, p, cfg)
    report = verify_realization(p, s0, cfg, deltas=(0.01,))
    termination, t = report.termination, report.last_time
    assert termination == coupled.termination == "step_failure"
    assert t == integrate(hexnet.analysis._level_state(s0, p, 0), p, cfg).last_time
    assert f"{t:g}" == f"{coupled.last_time:g}" == "0.00958219"
    _assert_reads_as_coupled(report, extract_itinerary(coupled, p))
    assert not report.completed and not report.passed


def test_verify_realization_reads_every_level_up_to_the_first_stop(small_scenario, monkeypatch):
    # a block 1 run that stops at t = 40 ends the scenario there: X and the
    # other blocks are read only up to t = 40, though they ran to t = 80
    sc, p, s0 = small_scenario
    h = p.hierarchy
    integrate_ = hexnet.analysis.integrate

    def stopping(state, p_, cfg, **kwargs):
        if state[h.sub_slice(0)].any():
            cfg = replace(cfg, t_end=40.0)
            return replace(integrate_(state, p_, cfg, **kwargs), termination="stopped")
        return integrate_(state, p_, cfg, **kwargs)

    monkeypatch.setattr(hexnet.analysis, "integrate", stopping)
    report = verify_realization(p, s0, sc.integrator, deltas=())  # no witness runs
    assert (report.termination, report.last_time) == ("stopped", 40.0)
    coupled = integrate(s0, p, sc.integrator)
    n = int(np.searchsorted(coupled.times, 40.0)) + 1
    cut = replace(coupled, times=coupled.times[:n], states=coupled.states[:n])
    _assert_reads_as_coupled(report, extract_itinerary(cut, p))
    assert extract_itinerary(cut, p)[0].labels() != extract_itinerary(coupled, p)[0].labels()


def _small_input(small_scenario, dead=None):
    """small_scenario's field, initial state and integrator settings, with
    every initial coordinate of block dead set to 0."""
    sc, p, s0 = small_scenario
    s0 = s0.copy()
    if dead is not None:
        s0[p.hierarchy.sub_slice(dead)] = 0.0
    return p, s0, sc.integrator


@pytest.mark.parametrize("dead", [None, 1])
def test_verify_realization_integrates_each_level_once(small_scenario, monkeypatch, tmp_path,
                                                       force_cpus, dead):
    # one X run, one run per block with a live initial coordinate, and the
    # 2 witness runs of the 1 subsystem of the 3 witnesses; the block runs
    # and the witness run's job fill min(cpus, jobs) processes
    p, s0, cfg = _small_input(small_scenario, dead)
    n_blocks = 3 if dead is None else 2
    log = tmp_path / "integrate.log"
    calls = _count_integrate(monkeypatch, log)
    reports = []
    for cpus in (1, 2, 3):
        forks = force_cpus(cpus)
        n_forks = len(forks())
        log.unlink(missing_ok=True)
        reports.append(verify_realization(p, s0, cfg, deltas=(0.01,)))
        assert len(calls()) == 1 + n_blocks + 2, cpus
        assert len(forks()) - n_forks == min(cpus, n_blocks + 1) - 1, cpus
    first, *others = reports
    assert first.passed
    for other in others:  # bitwise the same for any CPU count
        assert (_report_rows(other), other.termination, other.last_time) == (
            _report_rows(first), first.termination, first.last_time)
        for a, b in zip(other.witnesses, first.witnesses, strict=True):
            _assert_same_fields(a, b)


@pytest.mark.parametrize("case", ["small_scenario", "example1"])
def test_verify_realization_witnesses_equal_run_witnesses(request, force_cpus, case):
    sc, p, s0 = request.getfixturevalue(case)
    cfg = replace(sc.integrator, t_end=10.0)
    specs = _all_specs(p, DEFAULT_WITNESS_DELTAS)
    for cpus in (1, 2, 3):
        force_cpus(cpus)
        report = verify_realization(p, s0, cfg)
        for res, ref in zip(report.witnesses, run_witnesses(specs, p), strict=True):
            _assert_same_fields(res, ref)


def test_verify_realization_keeps_the_heaviest_block_here(example1, monkeypatch, tmp_path,
                                                          force_cpus):
    # on example1 to t = 33 block 1's gate is active longer than blocks 2
    # and 3 together, so with two CPUs this process runs it and the worker
    # runs blocks 2 and 3 and the 3 witness runs (two integrate calls each)
    sc, p, s0 = example1
    h = p.hierarchy
    log = tmp_path / "runs.log"
    original = hexnet.analysis.integrate

    def logged(state, *args, **kwargs):
        live = [f"block {j + 1}" for j in range(h.n_super) if state[h.sub_slice(j)].any()]
        run = "witness" if "order" in kwargs else (live[0] if len(live) == 1 else "X")
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {run}\n")
        return original(state, *args, **kwargs)

    monkeypatch.setattr(hexnet.analysis, "integrate", logged)
    force_cpus(2)
    assert verify_realization(p, s0, replace(sc.integrator, t_end=33.0)).passed
    runs = [line.split(" ", 1) for line in log.read_text(encoding="utf-8").splitlines()]
    here = [run for pid, run in runs if pid == str(os.getpid())]
    there = [run for pid, run in runs if pid != str(os.getpid())]
    assert here == ["X", "block 1"]
    assert there == ["block 2", "block 3"] + ["witness"] * 6


def test_verify_realization_dead_block_reads_the_x_run(small_scenario):
    # a block whose initial coordinates are all 0 is masked in the coupled
    # run too: no visits, and the gate windows of X
    p, s0, cfg = _small_input(small_scenario, dead=1)
    coupled = extract_itinerary(integrate(s0, p, cfg), p)
    report = verify_realization(p, s0, cfg, deltas=(0.01,))
    dead = report.itineraries[2].report
    assert (dead.j, dead.visits) == (1, [])
    assert dead.active_windows == coupled[2].active_windows


def test_verify_realization_extracts_each_level_run_once(small_scenario, monkeypatch,
                                                         force_cpus):
    sc, p, s0 = small_scenario
    force_cpus(1)  # the level runs and the witnesses all run in this process
    h = p.hierarchy
    seen = []
    extract = hexnet.analysis.extract_itinerary

    def counting(traj, *args, **kwargs):
        live = [j for j in range(h.n_super) if not traj.mask[h.sub_slice(j)].all()]
        seen.append((traj.last_time, live))
        return extract(traj, *args, **kwargs)

    monkeypatch.setattr(hexnet.analysis, "extract_itinerary", counting)
    report = verify_realization(p, s0, replace(sc.integrator, t_end=10.0), deltas=(0.01,))
    # the X run first, for the schedule; then each block run after the deal
    assert seen == [(10.0, [])] + [(10.0, [j]) for j in range(h.n_super)]
    assert [(o.report.level, o.report.j) for o in report.itineraries] == [
        (LEVEL_SUPER, None)] + [(LEVEL_SUB, j) for j in range(h.n_super)]


def test_verify_realization_literal_orientation_fails(small_scenario, small_scenario_file):
    from hexnet.scenario import load_scenario

    sc = load_scenario(small_scenario_file)
    p_lit = replace(sc, orientation="literal").field_params()
    report = verify_realization(p_lit, sc.initial_state(), sc.integrator, deltas=(0.01,))
    assert not report.eigen.passed
    itinerary_failed = any(not o.check.passed for o in report.itineraries)
    witness_failed = any(not w.passed for w in report.witnesses)
    assert itinerary_failed or witness_failed
    assert not report.passed


# The seed-2 and seed-5 inputs of the generated_witness workload (tests/data),
# each an N = 10 cycle with chords started at X0 = [0.9, 0.1 x 9], and today's
# verdict on their X runs: each non-edge pair (from, to, time, 1-based), with
# the peak between its two visits of every vertex v for which from -> v -> to
# is a path of the superstructure. No such v comes near a vertex (1 - near_tol
# = 0.9): the run cuts across the face of from, v and to while three X
# coordinates are large at once, so verify reads FAIL on valid hierarchies.
_CORNER_CUTS = {
    "generated-2": [(1, 3, 25.1, {4: 0.3780013547, 5: 0.8175064986})],
    "generated-5": [(5, 2, 20.9, {9: 0.4082280986, 10: 0.4082195659}),
                    (5, 2, 41.0, {9: 0.4538129904, 10: 0.4072233502})],
}


@pytest.mark.parametrize("name", sorted(_CORNER_CUTS))
def test_a_generated_x_run_cuts_corners_of_the_superstructure(name):
    from hexnet.scenario import load_scenario

    sc = load_scenario(os.path.join(os.path.dirname(__file__), "data", f"{name}.yaml"))
    p = sc.field_params()
    traj = integrate(hexnet.analysis._level_state(sc.initial_state(), p, None), p, sc.integrator)
    assert traj.termination == TERMINATION_COMPLETED
    report = extract_itinerary(traj, p, sc.near_tol, sc.min_dwell)[0]
    edges = p.hierarchy.superstructure.edges
    X = traj.states[:, p.hierarchy.super_slice]
    cuts = []
    for prev, nxt in zip(report.visits, report.visits[1:]):
        if (prev.vertex, nxt.vertex) not in edges:
            between = X[(traj.times > prev.t_exit) & (traj.times < nxt.t_enter)]
            peaks = {v + 1: between[:, v].max() for v in range(p.hierarchy.n_super)
                     if (prev.vertex, v) in edges and (v, nxt.vertex) in edges}
            cuts.append((prev.vertex + 1, nxt.vertex + 1, nxt.t_enter, peaks))
    want = _CORNER_CUTS[name]
    assert [(a, b) for a, b, _, _ in cuts] == [(a, b) for a, b, _, _ in want]
    for (_, _, t, peaks), (_, _, t_want, peaks_want) in zip(cuts, want):
        assert t == pytest.approx(t_want, abs=1e-9)
        assert peaks == pytest.approx(peaks_want, abs=1e-6)
        assert max(peaks.values()) < 1.0 - sc.near_tol
    check = check_itinerary_against(report, p.hierarchy.superstructure)
    assert [(a + 1, b + 1, t) for a, b, t in check.violations] == [c[:3] for c in cuts]
