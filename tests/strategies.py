"""Hypothesis strategies shared by the test modules."""
from hypothesis import strategies as st

from hexnet.hierarchy import HierarchySpec, digraph_from_edges
from hexnet.integrator import IntegratorConfig
from hexnet.scenario import Scenario
from hexnet.vectorfield import EPSILON_HARD_BOUND


def _open(lo, hi):
    return st.floats(lo, hi, exclude_min=True, exclude_max=True)


@st.composite
def _digraphs(draw, n):
    """A digraph on n vertices with no self loop and no 2-cycle."""
    pairs = [(i, k) for i in range(n) for k in range(i + 1, n)]
    kept = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(kept), max_size=len(kept)))
    return digraph_from_edges(n, [(k, i) if f else (i, k) for (i, k), f in zip(kept, flips)])


@st.composite
def scenarios(draw):
    """A valid Scenario: hierarchies free of 1- and 2-cycles, either coefficient
    form, and every flat-section value inside its rule."""
    n = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    h = HierarchySpec(draw(_digraphs(n)), tuple(draw(_digraphs(m)) for m in sizes))
    magnitude = _open(0.0, 1e3)

    def signed(g, i, k):  # positive on an edge, negative off it, as the loader demands
        return draw(magnitude) * (1.0 if (i, k) in g.edges else -1.0)

    def overrides(g):
        pairs = [(i, k) for i in range(g.n_vertices) for k in range(g.n_vertices) if i != k]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return sorted((i, k, signed(g, i, k)) for i, k in chosen)

    if draw(st.booleans()):
        def matrix(g):
            n = g.n_vertices
            return tuple(tuple(0.0 if i == k else signed(g, i, k) for k in range(n)) for i in range(n))
        coeffs = {"a": matrix(h.superstructure), "alphas": tuple(matrix(g) for g in h.substructures)}
    else:
        coeffs = {
            "c_plus": draw(magnitude), "c_minus": -draw(magnitude),
            "super_overrides": tuple(overrides(h.superstructure)),
            "sub_overrides": tuple((j, *ov) for j, g in enumerate(h.substructures)
                                   for ov in overrides(g)),
        }
    level = st.floats(0.0, 10.0)
    return Scenario(
        h, **coeffs,
        epsilon=draw(_open(0.0, EPSILON_HARD_BOUND)),
        phi=draw(magnitude), psi=draw(magnitude), omega=draw(magnitude),
        variant=draw(st.sampled_from(["standard", "bounded"])),
        orientation=draw(st.sampled_from(["eigenvalue", "literal"])),
        initial_X=tuple(draw(level) for _ in range(n)),
        initial_x=tuple(tuple(draw(level) for _ in range(m)) for m in h.block_sizes),
        integrator=IntegratorConfig(
            t_end=draw(st.floats(0.0, 1e3)), rtol=draw(_open(0.0, 1.0)), atol=draw(_open(0.0, 1.0)),
            max_step=draw(st.none() | _open(0.0, 1e3)), sample_dt=draw(st.floats(1e-2, 10.0)),
            direction=draw(st.sampled_from(["forward", "backward"])),
        ),
        near_tol=draw(_open(0.0, 0.5)),
        min_dwell=draw(st.floats(0.0, 1e3)),
        witness_deltas=tuple(draw(st.lists(_open(0.0, 1.0), min_size=1, max_size=4))),
    )
