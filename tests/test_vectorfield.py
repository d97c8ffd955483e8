"""Vector-field synthesis: bump, coefficients, field, equilibria, Jacobian.

Claims covered:
    - bump endpoint values, midpoint 1/2, smooth gluing, monotonicity
    - bump support disjointness for epsilon < 1/2
    - bump is exactly 0 once w > 700, for scalar and array input alike
    - coefficient construction matches the printed example matrices up to
      the orientation convention; overrides validated by sign
    - eval_field agrees with an independent scalar transcription (both
      parameter sets, both variants) and vanishes on coordinate subspaces
    - rate tables restricted to live coordinates agree with the scalar
      transcription forward, backward, bounded, with a masked X_j (gate
      exactly 0) and on an N = 10 hierarchy
    - log-chart field: masked zeros, cross-chart identity, deep underflow
    - designed equilibria: count, exact-zero residuals, scaling neutrality
    - analytic Jacobian matches central finite differences; closed-form
      entries at designed equilibria
    - nonzero fixed points of a gated coordinate match sqrt(2 - 1/b)
    - bounded variant keeps [0, 1] forward-invariant per coordinate
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from hexnet.errors import (
    CoefficientSignError,
    DimensionMismatchError,
    NonFiniteError,
    VertexOutOfRangeError,
)
from hexnet.hierarchy import HierarchySpec, digraph_from_edges
from hexnet.vectorfield import (
    FieldParams,
    bump,
    bump_derivative,
    bump_j,
    build_coefficients,
    coefficients_from_matrices,
    designed_equilibria,
    eval_field,
    eval_field_log,
    gate_distances,
    growth_rates,
    jacobian,
    rate_table,
    simplex_coefficients,
)

from oracles import central_difference_jacobian, naive_bump, naive_field

THREE_CYCLE = [(0, 1), (1, 2), (2, 0)]
KIRK_SILBER = [(0, 1), (1, 2), (1, 3), (2, 0), (3, 0)]

A_PRINTED = [[0.0, 1.0, -1.5], [-1.5, 0.0, 1.0], [1.0, -1.5, 0.0]]
ALPHA3_PRINTED = [
    [0.0, 1.0, -1.5, -1.5],
    [-1.5, 0.0, 0.5, 2.0],
    [1.0, -1.5, 0.0, -1.5],
    [1.0, -1.5, -1.5, 0.0],
]


def _oracle(state, p):
    return np.asarray(
        naive_field(
            state,
            p.layout.n_super,
            p.layout.block_sizes,
            p.coeffs.a.tolist(),
            [m.tolist() for m in p.coeffs.alphas],
            p.epsilon,
            p.phi,
            p.psi,
            p.omega,
            bounded=(p.variant == "bounded"),
        )
    )


# ---------------------------------------------------------------------------
# bump
# ---------------------------------------------------------------------------

def test_bump_plateau_and_support():
    assert bump(-1.0, 0.2) == 1.0
    assert bump(0.0, 0.2) == 1.0
    assert bump(0.3, 0.2) == 0.0
    assert bump(0.2, 0.2) == 0.0


def test_bump_midpoint_exact():
    assert abs(bump(0.1, 0.2) - 0.5) <= 1e-15


def test_bump_interior_value_frozen():
    # two-exponential form at z = 0.03, eps = 0.2, from the scalar oracle
    assert bump(0.03, 0.2) == pytest.approx(0.9958899275399798, abs=1e-15)
    zs = np.linspace(-0.05, 0.3, 301)
    theirs = np.array([naive_bump(z, 0.2) for z in zs])
    # gate arrays of every length and shape take the scalar path
    for sl in (slice(None), slice(0, 301, 30), slice(0, 301, 100)):
        assert np.abs(bump(zs[sl], 0.2) - theirs[sl]).max() <= 1e-15
    assert np.array_equal(bump(zs.reshape(7, 43), 0.2), bump(zs, 0.2).reshape(7, 43))


def test_bump_cutoff_exactly_zero():
    # just below z = epsilon, w = eps * (1/(eps - z) - 1/z) passes 700 while
    # 1 / (1 + exp(w)) is still a positive double (about 1e-305 at w = 702)
    eps = 0.2
    zs = eps - eps / np.array([702.0, 703.0, 705.0, 707.0, 708.0, 709.0, 709.5,
                               709.9, 710.5, 710.8])
    w = eps * (1.0 / (eps - zs) - 1.0 / zs)
    assert np.all((w > 700.0) & (w <= 709.8))
    assert 1.0 / (1.0 + math.exp(w[0])) > 0.0
    for z in zs:
        assert bump(float(z), eps) == 0.0
    assert np.all(bump(zs, eps) == 0.0)
    assert np.all(bump(zs[:3], eps) == 0.0)


def test_gate_distances_one_state_and_samples():
    X = np.array([[0.9, 0.1, 0.1], [0.0, 1.0, 0.0]])
    z = gate_distances(X)
    assert z.shape == (2, 3)
    for row, x in zip(z, X):
        assert np.array_equal(row, gate_distances(x))
        for j in range(3):
            e_j = np.eye(3)[j]
            assert row[j] == pytest.approx(float(((x - e_j) ** 2).sum()), abs=1e-15)
    assert z[1, 1] == 0.0


def test_bump_monotone_nonincreasing():
    zs = np.linspace(-0.1, 0.3, 1000)
    vals = bump(zs, 0.2)
    assert np.all(np.diff(vals) <= 0.0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_bump_one_sided_derivatives_vanish():
    h = 1e-6
    for eps in (0.2, 0.05):
        assert abs((bump(0.0 + h, eps) - bump(0.0, eps)) / h) <= 1e-6
        assert abs((bump(eps, eps) - bump(eps - h, eps)) / h) <= 1e-6


def test_bump_derivative_matches_finite_differences():
    h = 1e-7
    for z in (0.021, 0.05, 0.1, 0.15, 0.179):
        fd = (bump(z + h, 0.2) - bump(z - h, 0.2)) / (2 * h)
        assert bump_derivative(z, 0.2) == pytest.approx(fd, abs=1e-5)
    assert bump_derivative(-0.3, 0.2) == 0.0
    assert bump_derivative(0.25, 0.2) == 0.0


def test_bump_j_values(example1):
    _, p, _ = example1
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert bump_j(e1, 0, p.epsilon) == 1.0
    assert bump_j(e2, 0, p.epsilon) == 0.0  # squared distance 2 >= eps
    x = np.array([0.9, 0.1, 0.1])
    assert bump_j(x, 0, p.epsilon) == pytest.approx(naive_bump(0.03, 0.2), abs=1e-15)
    with pytest.raises(VertexOutOfRangeError):
        bump_j(x, 3, p.epsilon)


def test_bump_support_disjointness(example1):
    # with eps < 1/2 at most one gate is open anywhere on connecting segments
    _, p, _ = example1
    n = p.layout.n_super
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            for s in np.linspace(0.0, 1.0, 501):
                X = np.zeros(n)
                X[j] = 1.0 - s
                X[k] = s
                open_gates = sum(bump_j(X, m, p.epsilon) > 0.0 for m in range(n))
                assert open_gates <= 1


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def test_build_coefficients_three_cycle_matches_printed_up_to_orientation():
    gamma = digraph_from_edges(3, THREE_CYCLE)
    mat = simplex_coefficients(gamma, 1.0, -1.5)
    assert mat.tolist() == np.array(A_PRINTED).T.tolist()
    lit = simplex_coefficients(gamma, 1.0, -1.5, orientation="literal")
    assert lit.tolist() == A_PRINTED


def test_build_coefficients_edgeless():
    d = digraph_from_edges(2, [])
    assert simplex_coefficients(d, 1.0, -1.0).tolist() == [[0.0, -1.0], [-1.0, 0.0]]


def test_build_coefficients_kirk_silber_overrides():
    ks = digraph_from_edges(4, KIRK_SILBER)
    mat = simplex_coefficients(ks, 1.0, -1.5, overrides={(1, 2): 0.5, (1, 3): 2.0})
    assert mat.tolist() == np.array(ALPHA3_PRINTED).T.tolist()


def test_override_sign_violations():
    ks = digraph_from_edges(4, KIRK_SILBER)
    with pytest.raises(CoefficientSignError):
        simplex_coefficients(ks, 1.0, -1.5, overrides={(1, 2): -0.5})  # edge, negative
    with pytest.raises(CoefficientSignError):
        simplex_coefficients(ks, 1.0, -1.5, overrides={(0, 2): 0.5})  # non-edge, positive
    with pytest.raises(CoefficientSignError):
        simplex_coefficients(ks, -1.0, -1.5)
    with pytest.raises(VertexOutOfRangeError):
        simplex_coefficients(ks, 1.0, -1.5, overrides={(0, 0): 1.0})


def test_coefficients_from_matrices_equals_build(example1):
    sc, p, _ = example1
    built = build_coefficients(
        sc.hierarchy,
        1.0,
        -1.5,
        sub_overrides={
            0: {},
            2: {(1, 2): 0.5, (1, 3): 2.0},
        },
    )
    # example 1's alpha^3 from the uniform rule plus the two overrides
    assert np.array_equal(built.alphas[2], p.coeffs.alphas[2])
    assert np.array_equal(built.a, p.coeffs.a)


def test_field_params_validation(example1):
    sc, p, _ = example1
    with pytest.raises(ValueError):
        replace(p, epsilon=0.8)  # above sqrt(2)/2
    with pytest.raises(ValueError):
        replace(p, epsilon=-0.1)
    with pytest.raises(ValueError):
        replace(p, phi=0.0)
    with pytest.warns(UserWarning):
        replace(p, epsilon=0.6)  # valid but above the disjointness bound
    bad = coefficients_from_matrices(
        sc.hierarchy, np.asarray(sc.a), [np.asarray(m) for m in sc.alphas]
    )
    tampered = bad.a.copy()
    tampered.flags.writeable = True
    tampered[0, 1] = -tampered[0, 1]
    from hexnet.vectorfield import CoefficientSet

    with pytest.raises(CoefficientSignError):
        FieldParams(sc.hierarchy, CoefficientSet(tampered, bad.alphas), epsilon=0.2)


# ---------------------------------------------------------------------------
# eval_field
# ---------------------------------------------------------------------------

def test_eval_field_zero_at_designed_equilibria(example1):
    _, p, _ = example1
    for eq in designed_equilibria(p):
        assert np.abs(eval_field(eq.state, p)).max() == 0.0


def test_eval_field_reduction_at_active_block(example1):
    # with X pinned at e_j the active block follows the plain simplex field
    _, p, _ = example1
    p1 = replace(p, phi=1.0, psi=1.0, omega=1.0)
    rng = np.random.default_rng(3)
    for j in range(3):
        state = np.zeros(p1.layout.dimension)
        state[j] = 1.0
        sl = p1.layout.sub_slice(j)
        x = rng.uniform(0.1, 0.9, p1.layout.block_sizes[j])
        state[sl] = x
        deriv = eval_field(state, p1)
        alpha = p1.coeffs.alphas[j]
        plain = x * (1.0 - x @ x + alpha @ (x * x))
        assert np.abs(deriv[sl] - plain).max() <= 1e-14
        for k in range(3):
            if k == j:
                continue
            slk = p1.layout.sub_slice(k)
            assert np.array_equal(deriv[slk], -p1.omega * state[slk])


def test_eval_field_matches_oracle_example1(example1):
    _, p, _ = example1
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        s = rng.uniform(0.0, 1.0, p.layout.dimension)
        ours = eval_field(s, p)
        ref = _oracle(s, p)
        worst = max(worst, float((np.abs(ours - ref) / np.maximum(1.0, np.abs(ref))).max()))
    assert worst <= 1e-12


def test_eval_field_matches_oracle_bounded_variant(example1):
    _, p, _ = example1
    pb = replace(p, variant="bounded")
    rng = np.random.default_rng(12)
    for _ in range(200):
        s = rng.uniform(0.0, 1.0, pb.layout.dimension)
        ours = eval_field(s, pb)
        ref = _oracle(s, pb)
        assert (np.abs(ours - ref) / np.maximum(1.0, np.abs(ref))).max() <= 1e-12


def _n10_params():
    # superstructure 10-cycle over ten substructure 3-cycles
    h = HierarchySpec(
        digraph_from_edges(10, [(i, (i + 1) % 10) for i in range(10)]),
        tuple(digraph_from_edges(3, THREE_CYCLE) for _ in range(10)),
    )
    return FieldParams(h, build_coefficients(h))


@pytest.mark.parametrize("case", ["forward", "backward", "bounded", "n10"])
def test_rate_table_matches_oracle(example1, case):
    # rates on random live sets against the transcription, divided by the state
    _, p, _ = example1
    p = {"bounded": replace(p, variant="bounded"), "n10": _n10_params()}.get(case, p)
    backward = case == "backward"
    d = p.layout.dimension
    rng = np.random.default_rng(23)
    for trial in range(200):
        s = rng.uniform(0.05, 1.0, d)
        if trial:
            s[rng.random(d) < 0.4] = 0.0
        live = np.flatnonzero(s)
        ours = growth_rates(s[live], rate_table(p, live, backward))
        ref = _oracle(s, p)[live] / s[live]
        if backward:
            ref = -ref
        assert (np.abs(ours - ref) / np.maximum(1.0, np.abs(ref))).max() <= 1e-12


def test_rate_table_masked_gate_is_zero(example1):
    # X_1 masked: block 1 sits at distance 1 + |X|^2 > epsilon from e_1, so
    # its gate is exactly 0 and its live coordinates decay at rate omega
    _, p, _ = example1
    sl = p.layout.sub_slice(0)
    for pv in (p, replace(p, variant="bounded")):
        s = np.random.default_rng(29).uniform(0.05, 1.0, pv.layout.dimension)
        s[0] = 0.0
        live = np.flatnonzero(s)
        block1 = (live >= sl.start) & (live < sl.stop)
        g = 1.0 if pv.variant == "standard" else 1.0 - s[live][block1]
        for sign in (1.0, -1.0):
            rates = growth_rates(s[live], rate_table(pv, live, backward=sign < 0))
            ref = sign * _oracle(s, pv)[live] / s[live]
            assert np.abs(rates - ref).max() <= 1e-12
            assert np.all(rates[block1] == sign * -pv.omega * g)


def test_eval_field_multiplicative_invariance(example1):
    # zero coordinates have zero derivative: coordinate subspaces invariant
    _, p, _ = example1
    rng = np.random.default_rng(13)
    for _ in range(100):
        s = rng.uniform(0.0, 1.0, p.layout.dimension)
        zero = rng.random(p.layout.dimension) < 0.4
        s[zero] = 0.0
        deriv = eval_field(s, p)
        assert np.all(deriv[zero] == 0.0)


def test_eval_field_input_validation(example1):
    _, p, _ = example1
    with pytest.raises(DimensionMismatchError):
        eval_field(np.zeros(7), p)
    bad = np.zeros(p.layout.dimension)
    bad[0] = np.nan
    with pytest.raises(NonFiniteError):
        eval_field(bad, p)


# ---------------------------------------------------------------------------
# log chart
# ---------------------------------------------------------------------------

def test_eval_field_log_equilibrium_value(example1):
    _, p, _ = example1
    u = np.zeros(p.layout.dimension)
    mask = np.ones(p.layout.dimension, dtype=bool)
    mask[0] = False  # X_1 = exp(0) = 1, everything else masked
    du = eval_field_log(u, mask, p)
    assert du[0] == 0.0
    assert np.all(du[mask] == 0.0)


def test_eval_field_log_cross_chart_identity(example1):
    _, p, _ = example1
    rng = np.random.default_rng(17)
    mask = np.zeros(p.layout.dimension, dtype=bool)
    for _ in range(1000):
        s = rng.uniform(1e-3, 1.0, p.layout.dimension)
        u = np.log(s)
        lhs = s * eval_field_log(u, mask, p)
        rhs = eval_field(s, p)
        assert (np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))).max() <= 1e-12


def test_eval_field_log_deep_underflow(example1):
    _, p, _ = example1
    u = np.zeros(p.layout.dimension)
    mask = np.ones(p.layout.dimension, dtype=bool)
    mask[0] = False
    u[0] = math.log(1e-200)
    du = eval_field_log(u, mask, p)
    assert np.isfinite(du[0])
    assert du[0] == pytest.approx(p.phi, rel=1e-12)  # growth rate at the origin


def test_eval_field_log_masked_contribute_nothing(example1):
    _, p, _ = example1
    rng = np.random.default_rng(19)
    for _ in range(50):
        s = rng.uniform(0.05, 1.0, p.layout.dimension)
        zero = rng.random(p.layout.dimension) < 0.3
        s_masked = s.copy()
        s_masked[zero] = 0.0
        u = np.where(zero, 0.0, np.log(np.where(zero, 1.0, s)))
        du = eval_field_log(u, zero, p)
        ref = eval_field(s_masked, p)
        live = ~zero
        assert np.abs(du[live] * s_masked[live] - ref[live]).max() <= 1e-12 * max(
            1.0, np.abs(ref).max()
        )
        assert np.all(du[zero] == 0.0)


# ---------------------------------------------------------------------------
# designed equilibria
# ---------------------------------------------------------------------------

def test_designed_equilibria_census(example1):
    _, p, _ = example1
    eqs = designed_equilibria(p)
    assert len(eqs) == 1 + 3 + (3 + 3 + 4)
    names = [e.name for e in eqs]
    assert names[0] == "Origin"
    assert "Super(2)" in names and "Sub(3,4)" in names


def test_designed_equilibria_states(example1):
    _, p, _ = example1
    eqs = {e.name: e for e in designed_equilibria(p)}
    assert np.array_equal(eqs["Origin"].state, np.zeros(13))
    sub34 = eqs["Sub(3,4)"].state
    expect = np.zeros(13)
    expect[2] = 1.0
    expect[12] = 1.0
    assert np.array_equal(sub34, expect)


def test_equilibria_scaling_neutrality(example1):
    # the zero set does not move under any positive timescales
    _, p, _ = example1
    for scales in ((1.0, 1.0, 1.0), (0.3, 7.0, 2.5), (5.0, 0.01, 9.0)):
        q = replace(p, phi=scales[0], psi=scales[1], omega=scales[2])
        for eq in designed_equilibria(q):
            assert np.abs(eval_field(eq.state, q)).max() == 0.0


# ---------------------------------------------------------------------------
# Jacobian
# ---------------------------------------------------------------------------

def test_jacobian_matches_finite_differences_example1(example1):
    _, p, _ = example1
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        s = rng.uniform(0.0, 1.0, p.layout.dimension)
        J = jacobian(s, p)
        F = central_difference_jacobian(lambda x: eval_field(x, p), s, h=1e-6)
        worst = max(worst, float(np.abs(J - F).max()))
    assert worst <= 1e-6


def test_jacobian_matches_finite_differences_bounded(example1):
    _, p, _ = example1
    pb = replace(p, variant="bounded")
    rng = np.random.default_rng(5)
    for _ in range(25):
        s = rng.uniform(0.0, 1.0, pb.layout.dimension)
        J = jacobian(s, pb)
        F = central_difference_jacobian(lambda x: eval_field(x, pb), s, h=1e-6)
        assert np.abs(J - F).max() <= 1e-6


def test_jacobian_at_origin(example1):
    _, p, _ = example1
    J = jacobian(np.zeros(p.layout.dimension), p)
    expect = np.diag([p.phi] * 3 + [-p.omega] * 10)
    assert np.abs(J - expect).max() <= 1e-14


def test_jacobian_plain_simplex_block_entries(example1):
    # at Sub(j, i) with unit timescales: radial -2, transverse m = alpha[m, i]
    _, p, _ = example1
    p1 = replace(p, phi=1.0, psi=1.0, omega=1.0)
    eqs = {e.name: e for e in designed_equilibria(p1)}
    eq = eqs["Sub(3,2)"]
    J = jacobian(eq.state, p1)
    sl = p1.layout.sub_slice(2)
    block = J[sl, sl]
    alpha = p1.coeffs.alphas[2]
    off = ~np.eye(4, dtype=bool)
    assert np.abs(block[off]).max() <= 1e-14
    assert block[1, 1] == pytest.approx(-2.0, abs=1e-14)
    for m in (0, 2, 3):
        assert block[m, m] == pytest.approx(alpha[m, 1], abs=1e-14)
    F = central_difference_jacobian(lambda x: eval_field(x, p1), eq.state, h=1e-6)
    assert np.abs(J - F).max() <= 1e-6


# ---------------------------------------------------------------------------
# gated fixed points and bounded invariance
# ---------------------------------------------------------------------------

def test_gated_fixed_points_closed_form(example1):
    from scipy.optimize import brentq

    _, p, _ = example1
    p1 = replace(p, phi=1.0, psi=1.0, omega=1.0)
    layout = p1.layout
    k = 2
    for s in np.linspace(0.0, 0.3, 16):
        X = np.zeros(3)
        X[k] = 1.0 - s
        X[0] = s
        b = bump_j(X, k, p1.epsilon)
        if b < 0.5 + 1e-12:
            continue

        def rate(x):
            st = np.zeros(layout.dimension)
            st[:3] = X
            st[layout.sub_offset(k)] = x
            return eval_field(st, p1)[layout.sub_offset(k)] / x

        root = brentq(rate, 1e-9, 1.4999)
        assert root == pytest.approx(math.sqrt(2.0 - 1.0 / b), abs=1e-9)


def test_bounded_variant_interval_invariant(example1):
    # at x = 1 with the block gated off, the bounded derivative vanishes;
    # just below 1 it is nonpositive, so [0, 1] is forward-invariant
    _, p, _ = example1
    pb = replace(p, variant="bounded")
    layout = pb.layout
    rng = np.random.default_rng(23)
    for _ in range(200):
        X = rng.uniform(0.0, 1.0, 3)
        for j in range(3):
            if bump_j(X, j, pb.epsilon) > 0.0:
                continue  # active blocks are governed by the simplex part
            st = np.zeros(layout.dimension)
            st[:3] = X
            idx = layout.sub_offset(j) + int(rng.integers(layout.block_sizes[j]))
            st[idx] = 1.0
            assert eval_field(st, pb)[idx] == 0.0
            st[idx] = 1.0 - 1e-9
            assert eval_field(st, pb)[idx] <= 0.0
