"""Realization verification machinery.

Claims covered:
    - equilibrium residual report (exact zeros; perturbed states rejected;
      a NaN residual fails; residuals equal the sup norm of eval_field)
    - closed-form spectra at designed equilibria: transverse entries are
      growth rates, radial and active-block entries Jacobian diagonals
    - the structural checks may read growth rates as eigenvalues: at every
      designed equilibrium of generated scenarios, each zero coordinate's
      Jacobian row is its rate times its unit row, and X_j does not listen
      to the unit coordinate of Sub(j, i)
    - eigenvalue/edge correspondence passes under the default orientation,
      fails under the literal one, and is empty for edgeless graphs
    - both structural checks pass on a cycle-plus-chords hierarchy at d=800
    - non-edge pairs have nonpositive transverse eigenvalues both ways
    - run boundaries of label streams agree with a plain-loop oracle
    - itinerary extraction: constant trajectories, window bookkeeping,
      edge checks skipping window-crossing continuations
    - witness construction and runs (forward convergence, backward
      divergence / bounded backward saturation), convergence monotone in t
    - witness runs keep within max_time, which must be positive and finite,
      and their forward times follow the escape-time scaling in log(1/delta)
    - run_witnesses equals per-spec run_witness field for field, runs each
      distinct witness subsystem once, and keeps nothing between calls
    - verify_realization aggregation on a cheap unit-timescale scenario,
      including the deliberately transposed orientation failing
"""
import warnings

import numpy as np
import pytest
from dataclasses import fields, replace
from hypothesis import given, settings

import hexnet.analysis
from hexnet.analysis import (
    DEFAULT_WITNESS_DELTAS,
    LEVEL_SUB,
    LEVEL_SUPER,
    WitnessSpec,
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
from hexnet.errors import NotAnEdgeError
from hexnet.hierarchy import HierarchySpec, digraph_from_edges
from hexnet.integrator import IntegratorConfig, integrate
from hexnet.vectorfield import (
    FieldParams,
    build_coefficients,
    designed_equilibria,
    eval_field,
    growth_rates,
    jacobian,
)

from oracles import naive_runs
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
        p = sc.field_params()
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
    # at c_minus = -2**-54, c_minus - 1 rounds to -1: every off-edge rate is
    # exactly 0, which is not a positive eigenvalue
    for c_minus in (-1.5, -2.0**-54):
        p = FieldParams(build_coefficients(h, c_minus=c_minus), epsilon=0.2)
        rep = check_edge_eigen_correspondence(p)
        assert rep.passed
        for c in rep.checks:
            if c.name.startswith("Sub"):
                assert c.observed == frozenset()
    eq = designed_equilibria(p)[-1]
    assert _rates(eq, p)[p.layout.sub_slice(eq.j)].tolist() == [0.0, 0.0]


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


def test_itinerary_constant_trajectory(example1):
    _, p, _ = example1
    eqs = {e.name: e for e in designed_equilibria(p)}
    traj = integrate(eqs["Sub(2,1)"].state, p, IntegratorConfig(t_end=30.0))
    rep = extract_itinerary(traj, p, LEVEL_SUB, j=1)
    assert [v.vertex for v in rep.visits] == [0]
    assert rep.visits[0].t_enter == 0.0
    assert rep.visits[0].t_exit == 30.0
    assert rep.active_windows == [(0.0, 30.0)]
    sup = extract_itinerary(traj, p, LEVEL_SUPER)
    assert [v.vertex for v in sup.visits] == [1]


def test_itinerary_min_dwell_filters(example1):
    _, p, _ = example1
    eqs = {e.name: e for e in designed_equilibria(p)}
    traj = integrate(eqs["Super(1)"].state, p, IntegratorConfig(t_end=5.0))
    rep = extract_itinerary(traj, p, LEVEL_SUPER, min_dwell=10.0)
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
    for j, g in enumerate(p.hierarchy.substructures):
        rep = extract_itinerary(traj, p, LEVEL_SUB, j=j)
        assert len(rep.active_windows) >= 1
        chk = check_itinerary_against(rep, g)
        assert chk.passed, chk.violations
        assert chk.n_pairs >= 5


def test_super_dwell_times_nondecreasing(example1_trajectory, example1):
    traj, _ = example1_trajectory
    _, p, _ = example1
    rep = extract_itinerary(traj, p, LEVEL_SUPER)
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
        a = extract_itinerary(traj_fix, p, LEVEL_SUPER, near_tol=0.1).labels()
        b = extract_itinerary(traj_fix, p, LEVEL_SUPER, near_tol=0.05).labels()
        assert b == a or b == a[1:]
        for j in range(p.layout.n_super):
            sa = extract_itinerary(traj_fix, p, LEVEL_SUB, j=j, near_tol=0.1).labels()
            sb = extract_itinerary(traj_fix, p, LEVEL_SUB, j=j, near_tol=0.05).labels()
            assert sa == sb


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
def test_run_witness_keeps_to_max_time(example1, variant, max_time):
    _, p, _ = example1
    res = run_witness(WitnessSpec(0, 1, 1e-2), replace(p, variant=variant), max_time=max_time)
    assert res.forward_time <= max_time
    assert res.backward_time <= max_time
    if max_time == 10.0:
        # the connection takes about 20 time units at this delta
        assert not res.forward_converged
        assert not res.passed


@pytest.mark.parametrize("max_time", [0.0, -1.0, float("nan"), float("inf")])
def test_run_witness_rejects_bad_max_time(example1, max_time):
    _, p, _ = example1
    with pytest.raises(ValueError, match="^max_time must be positive and finite"):
        run_witness(WitnessSpec(0, 1, 1e-2), p, max_time=max_time)


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
def test_run_witnesses_equals_run_witness(request, case, variant):
    if case == "uniform_n10":
        p, deltas = _uniform_n10(), (0.01,)
    else:
        p, deltas = request.getfixturevalue(case)[1], DEFAULT_WITNESS_DELTAS
    p = replace(p, variant=variant)
    specs = _all_specs(p, deltas)
    grouped = run_witnesses(specs, p)
    assert len(grouped) == len(specs)
    for spec, res in zip(specs, grouped):
        _assert_same_fields(res, run_witness(spec, p))


def _count_integrate(monkeypatch):
    calls = []
    original = hexnet.analysis.integrate

    def counting(*args, **kwargs):
        calls.append(args[2].direction)
        return original(*args, **kwargs)

    monkeypatch.setattr(hexnet.analysis, "integrate", counting)
    return calls


@pytest.mark.parametrize("case, deltas, n_calls", [
    ("uniform_n10", (0.01,), 4),  # 20 witnesses, 2 subsystems: j < k and j > k
    ("example1", DEFAULT_WITNESS_DELTAS, 12),  # 9 witnesses, 6 subsystems
])
def test_run_witnesses_integrates_each_subsystem_once(request, monkeypatch, case, deltas, n_calls):
    p = _uniform_n10() if case == "uniform_n10" else request.getfixturevalue(case)[1]
    specs = _all_specs(p, deltas)
    calls = _count_integrate(monkeypatch)
    first = run_witnesses(specs, p)
    assert len(calls) == n_calls and calls.count("forward") == n_calls // 2
    # nothing is kept between calls: a second call runs everything again
    del calls[:]
    second = run_witnesses(specs, p)
    assert len(calls) == n_calls
    for a, b in zip(first, second, strict=True):
        _assert_same_fields(a, b)


def test_run_witnesses_checks_every_spec_first(example1, monkeypatch):
    _, p, _ = example1
    calls = _count_integrate(monkeypatch)
    with pytest.raises(NotAnEdgeError):
        run_witnesses([WitnessSpec(0, 1, 0.01), WitnessSpec(0, 2, 0.01)], p)
    assert calls == []


# ---------------------------------------------------------------------------
# full aggregation
# ---------------------------------------------------------------------------

def test_verify_realization_small_scenario(small_scenario):
    sc, p, s0 = small_scenario
    report = verify_realization(
        p,
        [(s0, sc.integrator)],
        deltas=(0.01,),
    )
    assert report.residuals.passed
    assert report.eigen.passed
    assert all(o.check.passed for o in report.itineraries)
    assert all(w.passed for w in report.witnesses)
    assert len(report.witnesses) == 3
    assert report.passed


def test_verify_realization_literal_orientation_fails(small_scenario, small_scenario_file):
    from hexnet.scenario import load_scenario

    sc = load_scenario(small_scenario_file)
    p_lit = replace(sc, orientation="literal").field_params()
    report = verify_realization(
        p_lit,
        [(sc.initial_state(), sc.integrator)],
        deltas=(0.01,),
    )
    assert not report.eigen.passed
    itinerary_failed = any(not o.check.passed for o in report.itineraries)
    witness_failed = any(not w.passed for w in report.witnesses)
    assert itinerary_failed or witness_failed
    assert not report.passed
