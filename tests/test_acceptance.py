"""Acceptance suite: the ten headline criteria, each printing a pass line.

Criteria are checked at their stated tolerances against the two bundled
example scenarios (the published parameter sets, initial conditions,
t_end = 2000, rtol = atol = 1e-12, log-chart integration).
"""
import numpy as np
import pytest
from dataclasses import replace

from hexnet.analysis import (
    WitnessSpec,
    check_edge_eigen_correspondence,
    check_itinerary_against,
    extract_itinerary,
    run_witness,
    verify_equilibria,
)
from hexnet.integrator import IntegratorConfig, integrate
from hexnet.output import write_timeseries
from hexnet.vectorfield import bump, eval_field, jacobian

from oracles import central_difference_jacobian, naive_field

CYCLE3 = {1: 2, 2: 3, 3: 1}  # successor map of the example-1 superstructure
LOWER_CYCLE = [1, 2, 4]


def _follows(labels, successor):
    return all(successor[a] == b for a, b in zip(labels, labels[1:]))


def _is_lower_cycle_continuation(labels):
    """labels continue the repeating 1,2,4 cycle from their first element."""
    if not labels:
        return True
    try:
        k0 = LOWER_CYCLE.index(labels[0])
    except ValueError:
        return False
    return all(v == LOWER_CYCLE[(k0 + i) % 3] for i, v in enumerate(labels))


def test_criterion_1_example1_super_itinerary(example1, example1_trajectory):
    _, p, _ = example1
    traj, wall = example1_trajectory
    assert traj.termination == "completed"
    labels = extract_itinerary(traj, p)[0].labels()
    assert labels[0] == 1
    assert _follows(labels, CYCLE3), labels
    completed_cycles = (len(labels) - 1) // 3
    assert completed_cycles >= 3, labels
    assert wall <= 120.0, f"runtime {wall:.1f}s exceeds 2 minutes"
    print(
        f"\n[criterion 1] PASS - superstructure itinerary {labels} "
        f"({completed_cycles} full cycles, {wall:.0f}s)"
    )


def test_criterion_2_kirk_silber_switch(example1, example1_trajectory, example1_fine_window0):
    _, p, _ = example1
    # first active window at fine resolution: early dwells are ~0.1-0.5 time
    # units, and the first pass near vertex 1 peaks at ~0.85 before the
    # block fully saturates, so the switch is read with near_tol 0.2 and a
    # min_dwell matched to the fast substructure timescale
    fine = example1_fine_window0
    rep = extract_itinerary(fine, p, near_tol=0.2, min_dwell=0.02)[3]
    w0 = [v.vertex + 1 for v in rep.visits if v.window == 0]
    assert w0[:3] == [1, 2, 3], w0
    assert w0.count(3) == 1, w0
    assert len(w0) >= 9, w0
    assert _is_lower_cycle_continuation(w0[3:]), w0
    # every later window of the full run contains only lower-cycle visits
    traj, _ = example1_trajectory
    full = extract_itinerary(traj, p)[3]
    assert full.active_windows is not None and len(full.active_windows) >= 2
    later = [v for v in full.visits if v.window >= 1]
    assert later, "no visits found in later active windows"
    assert all(v.vertex + 1 in LOWER_CYCLE for v in later)
    by_window = {}
    for v in later:
        by_window.setdefault(v.window, []).append(v.vertex + 1)
    for seq in by_window.values():
        assert _is_lower_cycle_continuation(seq), seq
    print(
        f"\n[criterion 2] PASS - first window {w0}; later windows only 1,2,4 "
        f"({len(by_window)} windows)"
    )


def test_criterion_3_example2_itineraries(example2, example2_trajectory):
    _, p, _ = example2
    traj = example2_trajectory
    assert traj.termination == "completed"
    superstructure, *blocks = extract_itinerary(traj, p)
    labels = superstructure.labels()
    assert labels[:6] == [1, 2, 3, 1, 2, 4], labels
    assert _is_lower_cycle_continuation(labels[6:]), labels
    assert len(labels) >= 9
    sub_counts = []
    for j, (rep, g) in enumerate(zip(blocks, p.hierarchy.substructures)):
        chk = check_itinerary_against(rep, g)
        assert chk.passed, (j, chk.violations)
        assert chk.n_pairs >= 3
        visited = {v.vertex for v in rep.visits}
        assert visited == set(range(g.n_vertices)), (j, visited)
        sub_counts.append(len(rep.visits))
    print(
        f"\n[criterion 3] PASS - super itinerary {labels}; "
        f"sub itineraries match their digraphs (visit counts {sub_counts})"
    )


def test_criterion_4_equilibrium_residuals(example1, example2):
    worst = 0.0
    for fix in (example1, example2):
        _, p, _ = fix
        rep = verify_equilibria(p, tol=1e-12)
        assert rep.passed
        worst = max(worst, rep.max_residual)
    print(f"\n[criterion 4] PASS - max equilibrium residual {worst:.3e} <= 1e-12")


def test_criterion_5_eigen_edge_correspondence(example1, example2):
    for fix in (example1, example2):
        _, p, _ = fix
        rep = check_edge_eigen_correspondence(p)
        assert rep.passed
    sc1, _, _ = example1
    literal = replace(sc1, orientation="literal").field_params()
    rep_lit = check_edge_eigen_correspondence(literal)
    assert not rep_lit.passed
    n_mismatch = sum(not c.passed for c in rep_lit.checks)
    print(
        "\n[criterion 5] PASS - positive-eigenvalue directions = out-neighbors "
        f"everywhere (default); literal orientation fails {n_mismatch} checks"
    )


@pytest.fixture(scope="module")
def witness_results(example1, example2):
    out = {}
    for name, fix in (("example1", example1), ("example2", example2)):
        _, p, _ = fix
        pb = replace(p, variant="bounded")
        rows = []
        for (j, k) in sorted(p.hierarchy.superstructure.edges):
            for delta in (1e-1, 1e-2, 1e-3):
                rows.append(
                    (
                        run_witness(WitnessSpec(j, k, delta), p),
                        run_witness(WitnessSpec(j, k, delta), pb),
                    )
                )
        out[name] = rows
    return out


def test_criterion_6_threshold_zero_witnesses(witness_results):
    n = 0
    worst = 0.0
    for rows in witness_results.values():
        for std, _ in rows:
            assert std.forward_converged, (std.spec, std.forward_distance)
            assert std.forward_distance <= 1e-6
            worst = max(worst, std.forward_distance)
            n += 1
    assert n == (3 + 5) * 3
    print(
        f"\n[criterion 6] PASS - {n} witnesses converged to Sub(k,1); "
        f"worst final distance {worst:.2e} <= 1e-6"
    )


def test_criterion_7_empty_alpha_limit_evidence(witness_results):
    worst_gap = 0.0
    for rows in witness_results.values():
        for std, bounded in rows:
            assert std.backward_diverged, std.spec
            assert std.backward_coordinate_name.startswith("x"), std.backward_coordinate_name
            assert std.backward_coordinate_gate < 1.0
            assert not bounded.backward_diverged, bounded.spec
            assert bounded.backward_inactive_gap <= 1e-3
            worst_gap = max(worst_gap, bounded.backward_inactive_gap)
    print(
        "\n[criterion 7] PASS - all standard witnesses diverge backward in a "
        f"gated-off substructure coordinate; bounded variant stays within "
        f"{worst_gap:.2e} of 1"
    )


def test_criterion_8_exact_zero_invariance(example1, tmp_path):
    _, p, _ = example1
    # witnesses start with most coordinates at exactly zero
    from hexnet.analysis import witness_initial_condition

    p1 = replace(p, phi=1.0, psi=1.0, omega=1.0)
    s0 = witness_initial_condition(WitnessSpec(0, 1, 1e-2), p1)
    zero_cols = np.flatnonzero(s0 == 0.0)
    assert zero_cols.size >= 8
    traj = integrate(s0, p1, IntegratorConfig(t_end=50.0, sample_dt=0.1))
    assert np.all(traj.states[:, zero_cols] == 0.0)
    csv_path = tmp_path / "witness_ts.csv"
    write_timeseries(traj, p1.layout, csv_path)
    lines = csv_path.read_text(encoding="utf-8").splitlines()[1:]
    for line in lines:
        cells = line.split(",")
        for c in zero_cols:
            assert cells[1 + c] == "0"
    # an example-1 run with one coordinate pinned to zero behaves the same
    _, p_disp, s_full = example1
    s = s_full.copy()
    s[12] = 0.0  # x3_4
    traj2 = integrate(s, p_disp, IntegratorConfig(t_end=10.0, sample_dt=0.1))
    assert np.all(traj2.states[:, 12] == 0.0)
    print(
        f"\n[criterion 8] PASS - {zero_cols.size} zero-initialized coordinates "
        f"stay bitwise 0 across {len(lines)} CSV rows"
    )


def test_criterion_9_oracle_equivalence(example1, example2):
    worst_field = 0.0
    worst_jac = 0.0
    for fix in (example1, example2):
        _, p, _ = fix
        d = p.layout.dimension
        rng = np.random.default_rng(0)
        a = p.coeffs.a.tolist()
        alphas = [m.tolist() for m in p.coeffs.alphas]
        for _ in range(1000):
            s = rng.uniform(0.0, 1.0, d)
            ours = eval_field(s, p)
            ref = np.asarray(
                naive_field(
                    s, p.layout.n_super, p.layout.block_sizes, a, alphas,
                    p.epsilon, p.phi, p.psi, p.omega,
                )
            )
            rel = (np.abs(ours - ref) / np.maximum(1.0, np.abs(ref))).max()
            worst_field = max(worst_field, float(rel))
        for _ in range(100):
            s = rng.uniform(0.0, 1.0, d)
            J = jacobian(s, p)
            F = central_difference_jacobian(lambda x: eval_field(x, p), s, h=1e-6)
            worst_jac = max(worst_jac, float(np.abs(J - F).max()))
    assert worst_field <= 1e-12
    assert worst_jac <= 1e-6
    print(
        f"\n[criterion 9] PASS - field vs transcription {worst_field:.2e} <= 1e-12; "
        f"jacobian vs central differences {worst_jac:.2e} <= 1e-6"
    )


def test_criterion_10_bump_function(example1):
    _, p, _ = example1
    eps = p.epsilon
    assert bump(0.0, eps) == 1.0
    assert bump(-2.0, eps) == 1.0
    assert bump(eps, eps) == 0.0
    assert bump(eps + 0.1, eps) == 0.0
    assert abs(bump(eps / 2.0, eps) - 0.5) <= 1e-15
    h = 1e-6
    d_left = abs((bump(h, eps) - bump(0.0, eps)) / h)
    d_right = abs((bump(eps, eps) - bump(eps - h, eps)) / h)
    assert d_left <= 1e-6 and d_right <= 1e-6
    grid = np.linspace(-0.1, eps + 0.1, 1000)
    vals = bump(grid, eps)
    assert np.all(np.diff(vals) <= 0.0)
    print(
        "\n[criterion 10] PASS - bump endpoints exact, midpoint 1/2, "
        f"one-sided slopes {max(d_left, d_right):.1e} <= 1e-6, monotone on 1000 points"
    )
