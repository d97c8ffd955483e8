"""Vector-field synthesis: bump, coefficients, field, equilibria, Jacobian.

Claims covered:
    - bump endpoint values, midpoint 1/2, smooth gluing, monotonicity
    - bump support disjointness for epsilon < 1/2
    - bump is exactly 0 once w > 700, for scalar and array input alike, and
      its derivative is exactly 0 wherever bump is exactly 0 or 1
    - coefficient construction matches the printed example matrices up to
      the orientation convention; overrides validated by sign
    - one rule refuses the same bad entry (wrong sign, nonzero diagonal, NaN,
      +-inf) through overrides and verbatim matrices, with the same error and
      a message naming the block; it runs once per matrix when a scenario is
      loaded, and never when a FieldParams is built or a witness runs
    - a FieldParams whose folded rate table loses a coefficient's sign
      (|c| below about 2^-54) is refused, naming the block and entry
    - eval_field agrees with an independent scalar transcription (both
      parameter sets, both variants) and vanishes on coordinate subspaces
    - rate tables restricted to live coordinates agree with the scalar
      transcription forward, backward, bounded, with a masked X_j (gate
      exactly 0) and on an N = 10 hierarchy; their spans are the contiguous
      live rows of each gated block, with -1 where X_j is masked; a table
      on the live coordinates in any order rate_table takes is the ascending
      table permuted
    - growth_rates is bitwise equal to the earlier per-block gate arithmetic
      on random live sets: masked X_j with a live block, gates closed, open,
      and exactly 0 or 1 (|w| > 700), forward, backward, bounded and N = 10
    - two growth_rates calls at different open gates return independent
      arrays: the second leaves the first's rates and the table unchanged
    - log-chart rates (clamp, exp, growth_rates): equilibrium value,
      cross-chart identity, deep underflow at exp(-745), masked coordinates
      contribute nothing
    - designed equilibria: count, exact-zero residuals, scaling neutrality
    - analytic Jacobian matches central finite differences and a scalar
      transcription of its partial derivatives (examples 1 and 2, N = 10,
      both variants, half the states with an open gate); closed-form
      entries at designed equilibria
    - the rate derivative dr/dv of restricted forward, backward and bounded
      tables matches central differences of growth_rates
    - nonzero fixed points of a gated coordinate match sqrt(2 - 1/b)
    - bounded variant keeps [0, 1] forward-invariant per coordinate
"""
import math
import re
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
    CoefficientSet,
    FieldParams,
    bump,
    bump_derivative,
    bump_j,
    build_coefficients,
    check_field_value,
    designed_equilibria,
    eval_field,
    gate_distances,
    growth_rates,
    jacobian,
    rate_table,
    simplex_coefficients,
)
from hexnet import integrator, vectorfield
from hexnet.analysis import WitnessSpec, check_edge_eigen_correspondence, run_witnesses
from hexnet.scenario import load_scenario
from hexnet.vectorfield import _rate_derivative

from oracles import central_difference_jacobian, naive_bump, naive_field, naive_jacobian

THREE_CYCLE = [(0, 1), (1, 2), (2, 0)]
KIRK_SILBER = [(0, 1), (1, 2), (1, 3), (2, 0), (3, 0)]

A_PRINTED = [[0.0, 1.0, -1.5], [-1.5, 0.0, 1.0], [1.0, -1.5, 0.0]]
ALPHA3_PRINTED = [
    [0.0, 1.0, -1.5, -1.5],
    [-1.5, 0.0, 0.5, 2.0],
    [1.0, -1.5, 0.0, -1.5],
    [1.0, -1.5, -1.5, 0.0],
]


def _oracle(state, p, transcription=naive_field):
    return np.asarray(
        transcription(
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
    # the derivative takes its gate value from bump, so it is exactly 0
    # wherever bump is exactly 0 or 1; near z = 0 (w about -999 and -48)
    # 1 + exp(w) rounds to 1
    ones = eps * np.array([1e-3, 2e-2])
    assert np.all(bump(ones, eps) == 1.0)
    flat = np.concatenate((zs, ones, [-0.1, 0.0, eps, 0.3]))
    for z in flat:
        assert bump_derivative(float(z), eps) == 0.0
    assert np.all(bump_derivative(flat, eps) == 0.0)
    assert np.all(bump_derivative(zs[:3], eps) == 0.0)


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
    assert simplex_coefficients(gamma, 1.0, -1.5).tolist() == A_PRINTED
    h = HierarchySpec(gamma, (gamma,) * 3)
    assert build_coefficients(h).a.tolist() == np.array(A_PRINTED).T.tolist()
    assert build_coefficients(h, orientation="literal").a.tolist() == A_PRINTED


def test_build_coefficients_edgeless():
    d = digraph_from_edges(2, [])
    assert simplex_coefficients(d, 1.0, -1.0).tolist() == [[0.0, -1.0], [-1.0, 0.0]]


def test_build_coefficients_kirk_silber_overrides():
    ks = digraph_from_edges(4, KIRK_SILBER)
    mat = simplex_coefficients(ks, 1.0, -1.5, overrides={(1, 2): 0.5, (1, 3): 2.0})
    assert mat.tolist() == ALPHA3_PRINTED


def test_override_sign_violations():
    ks = digraph_from_edges(4, KIRK_SILBER)
    h = HierarchySpec(ks, (ks,) * 4)
    with pytest.raises(CoefficientSignError):
        build_coefficients(h, super_overrides={(1, 2): -0.5})  # edge, negative
    with pytest.raises(CoefficientSignError):
        build_coefficients(h, sub_overrides={3: {(0, 2): 0.5}})  # non-edge, positive
    with pytest.raises(CoefficientSignError):
        simplex_coefficients(ks, -1.0, -1.5)
    with pytest.raises(VertexOutOfRangeError):
        simplex_coefficients(ks, 1.0, -1.5, overrides={(0, 0): 1.0})
    for j in (-1, 4):  # sub overrides for a block that does not exist
        with pytest.raises(VertexOutOfRangeError):
            build_coefficients(h, sub_overrides={j: {(0, 1): 2.0}})


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
    tampered = np.array(sc.a)
    tampered[0, 1] = -tampered[0, 1]
    with pytest.raises(CoefficientSignError):
        CoefficientSet(sc.hierarchy, tampered, sc.alphas)
    with pytest.raises(ValueError):
        p.coeffs.a[0, 1] = -1.0  # a built set is read-only


@pytest.mark.parametrize("block", ["a", 2])  # example 1's superstructure, alpha^3
@pytest.mark.parametrize(
    "i, k, value, error",
    [
        (1, 2, -0.5, CoefficientSignError),  # edge, negative
        (0, 2, 0.5, CoefficientSignError),  # non-edge, positive
        (1, 1, 0.5, CoefficientSignError),  # diagonal
        (1, 2, math.nan, NonFiniteError),
        (1, 2, math.inf, NonFiniteError),
        (0, 2, -math.inf, NonFiniteError),
    ],
)
def test_one_coefficient_rule_at_every_entry_point(example1, block, i, k, value, error):
    # one bad connection-oriented entry [i, k], fed through the override
    # rule and through the verbatim matrices
    h = example1[0].hierarchy
    conn = [simplex_coefficients(g) for g in (h.superstructure, *h.substructures)]
    slot = 0 if block == "a" else 1 + block
    conn[slot][i, k] = value
    raised = []
    if i != k:  # an override cannot name the diagonal
        overrides = {(i, k): value}
        with pytest.raises(error) as err:
            if block == "a":
                build_coefficients(h, super_overrides=overrides)
            else:
                build_coefficients(h, sub_overrides={block: overrides})
        raised.append(err.value)
    with pytest.raises(error) as err:
        CoefficientSet(h, conn[0], conn[1:])
    raised.append(err.value)
    # the same rule names the same block and entry, whichever form built the set
    assert len({str(e) for e in raised}) == 1
    assert str(raised[0]).startswith("a: " if block == "a" else f"alphas[{block + 1}]: ")


@pytest.mark.parametrize("rule, refused", [
    ({"c_plus": 1e-17}, "a: entry [1,2] = 1e-17 "),
    ({"c_plus": 1e-16}, None),
    ({"c_minus": -1e-17}, "a: entry [1,3] = -1e-17 "),
])
def test_coefficient_that_loses_its_sign_in_the_rate_table(example1, rule, refused):
    # the table folds -|block|^2 into scale * (c - 1); for |c| below about
    # 2^-54 that rounds to -scale, and the rate toward the entry to exactly 0
    sc = example1[0]
    coeffs = build_coefficients(sc.hierarchy, **rule)
    scales = {"epsilon": sc.epsilon, "phi": sc.phi, "psi": sc.psi, "omega": sc.omega}
    if refused is None:
        assert check_edge_eigen_correspondence(FieldParams(coeffs, **scales)).passed
    else:
        with pytest.raises(CoefficientSignError, match=re.escape(refused) + ".* rounds to 0.0$"):
            FieldParams(coeffs, **scales)


def test_coefficients_are_checked_once(monkeypatch, small_scenario_file):
    # the rule runs once per matrix when a scenario builds its set, and never
    # again for a FieldParams or a witness run made from that set
    calls = []
    rule = vectorfield._equation_form

    def counted(*args):
        calls.append(args[3])
        return rule(*args)

    monkeypatch.setattr(vectorfield, "_equation_form", counted)
    p = load_scenario(small_scenario_file).field_params()
    assert calls == ["a", "alphas[1]", "alphas[2]", "alphas[3]"]
    calls.clear()
    replace(p, phi=2.0)
    FieldParams(p.coeffs, epsilon=0.1)
    run_witnesses([WitnessSpec(0, 1, 1e-2)], p)
    assert calls == []


def test_overlap_warning_names_the_caller(example1):
    _, p, _ = example1
    with pytest.warns(UserWarning, match="bump supports may overlap") as record:
        FieldParams(p.coeffs, epsilon=0.6)
    assert [w.filename for w in record] == [__file__]


@pytest.mark.parametrize(
    "name, value",
    [("epsilon", 0.0), ("epsilon", 0.75), ("phi", 0.0), ("psi", math.inf), ("omega", math.nan),
     ("variant", "odd")],
)
def test_field_params_use_the_field_rule(example1, name, value):
    _, p, _ = example1
    with pytest.raises(ValueError) as rule:
        check_field_value(name, value)
    with pytest.raises(ValueError) as err:
        FieldParams(p.coeffs, **{name: value})
    assert str(err.value) == str(rule.value)
    assert str(rule.value).startswith(f"{name} must ")


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
    return FieldParams(build_coefficients(h))


def _rate_case(p, case):
    return {"bounded": replace(p, variant="bounded"), "n10": _n10_params()}.get(case, p)


def _states_with_open_gates(p, rng, count, low=0.0):
    """Uniform random states; every other one has X near a random e_j, at
    squared distance about epsilon/2, so that gate j is open."""
    n = p.layout.n_super
    for trial in range(count):
        s = rng.uniform(low, 1.0, p.layout.dimension)
        if trial % 2:
            X = np.zeros(n)
            X[rng.integers(n)] = 1.0
            s[:n] = np.abs(X + rng.normal(0.0, math.sqrt(p.epsilon / (2 * n)), n))
        yield s


@pytest.mark.parametrize("case", ["forward", "backward", "bounded", "n10"])
def test_rate_table_matches_oracle(example1, case):
    # rates on random live sets against the transcription, divided by the state
    _, p, _ = example1
    p = _rate_case(p, case)
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


@pytest.mark.parametrize("case", ["forward", "backward", "bounded", "n10"])
def test_rate_derivative_matches_finite_differences(example1, case):
    # dr/dv of restricted tables against central differences of growth_rates
    _, p, _ = example1
    p = _rate_case(p, case)
    d = p.layout.dimension
    rng = np.random.default_rng(31)
    worst = 0.0
    for s in _states_with_open_gates(p, rng, 100, low=0.05):
        s[rng.random(d) < 0.4] = 0.0
        live = np.flatnonzero(s)
        table = rate_table(p, live, case == "backward")
        ours = _rate_derivative(s[live], table)
        fd = central_difference_jacobian(lambda v: growth_rates(v, table), s[live], h=1e-6)
        worst = max(worst, float((np.abs(ours - fd) / np.maximum(1.0, np.abs(fd))).max()))
    assert worst <= 1e-6


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


@pytest.mark.parametrize("case", ["forward", "n10"])
def test_rate_table_spans_are_the_live_rows_of_each_gated_block(example1, case):
    # each block with a live coordinate owns one contiguous run of live rows;
    # its span names the live position of its X_j, or -1 where X_j is masked
    _, p, _ = example1
    p = _rate_case(p, case)
    h = p.layout
    rng = np.random.default_rng(41)
    for trial in range(300):
        live = np.flatnonzero(rng.random(h.dimension) < (0.2, 0.5, 0.9)[trial % 3])
        expected = []
        for j in range(h.n_super):
            sl = h.sub_slice(j)
            rows = np.flatnonzero((live >= sl.start) & (live < sl.stop))
            if rows.size:
                assert rows[-1] + 1 - rows[0] == rows.size
                x = np.flatnonzero(live == j)
                expected.append((int(x[0]) if x.size else -1, int(rows[0]), int(rows[-1]) + 1))
        for backward in (False, True):
            assert rate_table(p, live, backward).spans == tuple(expected)


def _random_order(live, h, rng):
    """live in a random order that rate_table takes: the superstructure
    coordinates shuffled, then the live blocks in shuffled order, each
    block's coordinates shuffled among themselves."""
    sub = live[live >= h.n_super]
    blocks = h.sub_block_index()[sub - h.n_super]
    parts = [rng.permutation(live[live < h.n_super])]
    parts += [rng.permutation(sub[blocks == j]) for j in rng.permutation(np.unique(blocks))]
    return np.concatenate(parts).astype(np.intp)


@pytest.mark.parametrize("case", ["forward", "backward", "bounded", "n10"])
def test_rate_table_in_any_order_is_the_ascending_table_permuted(example1, case):
    # rows and columns follow the order with the gate row last, and each
    # span names the same X_j and block coordinates, the spans in turn
    # covering the substructure rows
    _, p, _ = example1
    p = _rate_case(p, case)
    backward = case == "backward"
    h = p.layout
    rng = np.random.default_rng(43)

    def named_spans(t, coords):
        return {(int(coords[x]) if x >= 0 else -1, tuple(sorted(coords[a:e].tolist())))
                for x, a, e in t.spans}

    for trial in range(200):
        s = rng.uniform(0.05, 1.0, h.dimension)
        if trial:
            s[rng.random(h.dimension) < 0.4] = 0.0
        live = np.flatnonzero(s)
        order = _random_order(live, h, rng)
        pos = np.searchsorted(live, order)  # live[pos] == order
        rows = np.append(pos, live.size)
        asc, t = rate_table(p, live, backward), rate_table(p, order, backward)
        assert np.array_equal(t.matrix, asc.matrix[rows][:, pos])
        assert np.array_equal(t.offset, asc.offset[rows])
        assert (t.sub_start, t.epsilon, t.omega, t.bounded) == (
            asc.sub_start, asc.epsilon, asc.omega, asc.bounded)
        assert named_spans(t, order) == named_spans(asc, live)
        bounds = [t.sub_start] + [e for _, _, e in t.spans]
        assert [(a, e) for _, a, e in t.spans] == list(zip(bounds, bounds[1:]))
        assert bounds[-1] == (live.size if t.spans else t.sub_start)
        ref = growth_rates(s[live], asc)[pos]
        ours = growth_rates(s[order], t)
        assert (np.abs(ours - ref) / np.maximum(1.0, np.abs(ref))).max(initial=0.0) <= 1e-12


def _reference_growth_rates(v, t, p, live):
    """growth_rates by the earlier arithmetic, kept as a bitwise reference:
    matrix @ v**2 + offset, the gate distances r[-1] - v @ gate_pick with
    gate_pick (m x g) holding 2 at each gated block's live X_j, a bump per
    block, then sub * b - omega * (1 - b) * g on the substructure rows."""
    n, s = p.layout.n_super, t.sub_start
    blocks = p.layout.sub_block_index()[live[s:] - n]
    gates = np.flatnonzero(np.bincount(blocks, minlength=n))
    gate_pick = 2.0 * (live[:, None] == gates[None, :])
    r = t.matrix @ (v * v)
    r += t.offset
    rates = r[:-1]
    if blocks.size:
        bs = bump(r[-1] - v @ gate_pick, p.epsilon)[np.searchsorted(gates, blocks)]
        sub = rates[s:]
        sub *= bs
        if t.bounded:
            sub -= t.omega * (1.0 - bs) * (1.0 - v[s:])
        else:
            sub -= t.omega * (1.0 - bs)
    return rates


# gate distances as fractions of epsilon: the plateau z = 0, bump exactly 1
# (w < -700), open (None: drawn at random), one half, bump exactly 0
# (w > 700), closed
_GATE_FRACTIONS = (0.0, 5e-5, None, 0.5, 1.0 - 5e-5, 1.5)


@pytest.mark.parametrize("case", ["forward", "backward", "bounded", "n10"])
def test_growth_rates_bitwise_equal_reference(example1, case):
    _, p, _ = example1
    p = _rate_case(p, case)
    n, d, eps = p.layout.n_super, p.layout.dimension, p.epsilon
    rng = np.random.default_rng(37)
    seen = set()
    for trial in range(300):
        s = rng.uniform(0.05, 1.0, d)
        s[rng.random(d) < 0.3] = 0.0
        # X = e_j moved to squared distance z: X_j = 1 - delta, X_k fills up z
        z = _GATE_FRACTIONS[trial % len(_GATE_FRACTIONS)]
        z = eps * (rng.uniform(0.01, 0.99) if z is None else z)
        delta = rng.uniform(0.0, 0.5 * math.sqrt(z))
        j, k = rng.choice(n, 2, replace=False)
        s[:n] = 0.0
        s[j] = 1.0 - delta
        s[k] = math.sqrt(z - delta * delta)
        if trial % 3 == 0:  # a live X_i far from its vertex, or a masked one
            s[(j + 1 + rng.integers(n - 1)) % n] = rng.choice([0.0, 1e-3, 0.5])
        if trial % 4 == 0:  # X_j masked while block j stays live
            s[j] = 0.0
            s[p.layout.sub_slice(j).start] = 0.5
        live = np.flatnonzero(s)
        table = rate_table(p, live, case == "backward")
        ours = growth_rates(s[live], table)
        assert np.array_equal(ours, _reference_growth_rates(s[live], table, p, live))
        z = gate_distances(s[:n])
        for b in np.unique(p.layout.sub_block_index()[live[live >= n] - n]):
            if s[b] == 0.0:
                seen.add("masked X")
            elif z[b] > 0.0 and z[b] < eps:
                w = eps * (1.0 / (eps - z[b]) - 1.0 / z[b])
                seen.add(1.0 if w < -700.0 else 0.0 if w > 700.0 else "open")
            else:
                seen.add("plateau" if z[b] <= 0.0 else "closed")
    assert seen == {"masked X", 1.0, 0.0, "open", "plateau", "closed"}


@pytest.mark.parametrize("bounded", [False, True])
def test_growth_rates_at_two_open_gates_are_independent(example1, bounded):
    # the open-gate operands are scratch shared by every call: a second call
    # at another open gate leaves the first call's rates, and the table the
    # witness runs are keyed on, as they were
    from dataclasses import fields

    _, p, _ = example1
    p = replace(p, variant="bounded") if bounded else p
    n, d, eps = p.layout.n_super, p.layout.dimension, p.epsilon
    live = np.arange(d)
    table = rate_table(p, live)
    key = [np.asarray(getattr(table, f.name)).tobytes() for f in fields(table)]
    states = []
    for z in (0.3 * eps, 0.6 * eps):  # X at squared distance z from e_1
        s = np.full(d, 0.4)
        s[:n] = 0.0
        s[0], s[1] = 0.9, math.sqrt(z - 0.01)
        assert 0.0 < bump(gate_distances(s[:n])[0], eps) < 1.0
        states.append(s)
    first = growth_rates(states[0], table)
    kept = first.copy()
    second = growth_rates(states[1], table)
    assert not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes()
    for s, rates in zip(states, (first, second)):
        assert np.array_equal(rates, _reference_growth_rates(s, table, p, live))
    block = p.layout.sub_slice(0)
    assert not np.array_equal(first[block], second[block])
    assert [np.asarray(getattr(table, f.name)).tobytes() for f in fields(table)] == key


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

def _log_chart_rates(u, live, p):
    """du/dt on the live coordinates at the log-state u, as integrate takes
    it: clamp, exp, growth_rates on the rate table of the live set."""
    v = np.exp(np.minimum(u[live], integrator._EXP_CLAMP))
    return growth_rates(v, rate_table(p, live))


def test_log_chart_equilibrium_value(example1):
    _, p, _ = example1
    u = np.zeros(p.layout.dimension)
    live = np.array([0])  # X_1 = exp(0) = 1, everything else masked
    assert np.array_equal(_log_chart_rates(u, live, p), [0.0])


def test_log_chart_cross_chart_identity(example1):
    _, p, _ = example1
    rng = np.random.default_rng(17)
    live = np.arange(p.layout.dimension)
    for _ in range(1000):
        s = rng.uniform(1e-3, 1.0, p.layout.dimension)
        lhs = s * _log_chart_rates(np.log(s), live, p)
        rhs = eval_field(s, p)
        assert (np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))).max() <= 1e-12


def test_log_chart_deep_underflow(example1):
    # exp(-745) is the smallest subnormal; its square underflows to 0
    _, p, _ = example1
    u = np.zeros(p.layout.dimension)
    u[0] = -745.0
    with np.errstate(under="ignore"):
        du = _log_chart_rates(u, np.array([0]), p)
    assert np.exp(u[0]) > 0.0
    assert np.isfinite(du[0])
    assert du[0] == pytest.approx(p.phi, rel=1e-12)  # growth rate at the origin


def test_log_chart_masked_contribute_nothing(example1):
    # the masked coordinates' log-values are never read: any value there
    # gives the rates of the state with exact zeros in their place
    _, p, _ = example1
    rng = np.random.default_rng(19)
    for _ in range(50):
        s = rng.uniform(0.05, 1.0, p.layout.dimension)
        zero = rng.random(p.layout.dimension) < 0.3
        s_masked = np.where(zero, 0.0, s)
        live = np.flatnonzero(~zero)
        u = np.where(zero, rng.uniform(-800.0, 800.0, s.size), np.log(s))
        du = _log_chart_rates(u, live, p)
        ref = eval_field(s_masked, p)
        assert np.abs(du * s_masked[live] - ref[live]).max() <= 1e-12 * max(
            1.0, np.abs(ref).max()
        )
        assert np.all(ref[zero] == 0.0)


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


@pytest.mark.parametrize("variant", ["standard", "bounded"])
@pytest.mark.parametrize("case", ["example1", "example2", "n10"])
def test_jacobian_matches_oracle(request, case, variant):
    p = _n10_params() if case == "n10" else request.getfixturevalue(case)[1]
    p = replace(p, variant=variant)
    rng = np.random.default_rng(37)
    worst = 0.0
    for s in _states_with_open_gates(p, rng, 200):
        J = jacobian(s, p)
        ref = _oracle(s, p, naive_jacobian)
        worst = max(worst, float((np.abs(J - ref) / np.maximum(1.0, np.abs(ref))).max()))
    assert worst <= 1e-9


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
