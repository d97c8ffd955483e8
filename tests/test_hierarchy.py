"""Digraph and hierarchy validation.

Claims covered:
    - adjacency matrices of the bundled example digraphs match their edge lists
    - construction rejects duplicates, range violations, 1-cycles, 2-cycles
    - hierarchy validation aggregates violations with their location
    - out-neighbor queries, edge-list round trip
    - the state layout is computed when the spec is built, and equality,
      hash and repr read the two graphs alone
"""
from dataclasses import replace

import numpy as np
import pytest

from hexnet.errors import (
    DuplicateEdgeError,
    SelfLoopError,
    TwoCycleError,
    VertexOutOfRangeError,
)
from hexnet.hierarchy import (
    Digraph,
    HierarchySpec,
    adjacency,
    digraph_from_edges,
    edge_list,
    out_neighbors,
    validate_hierarchy,
)

# 1-based edge lists of the first example's digraphs
THREE_CYCLE = [(0, 1), (1, 2), (2, 0)]
REVERSED_THREE_CYCLE = [(0, 2), (2, 1), (1, 0)]
KIRK_SILBER = [(0, 1), (1, 2), (1, 3), (2, 0), (3, 0)]


def test_three_cycle_adjacency():
    d = digraph_from_edges(3, THREE_CYCLE)
    assert adjacency(d).tolist() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


def test_reversed_three_cycle_adjacency():
    d = digraph_from_edges(3, REVERSED_THREE_CYCLE)
    assert adjacency(d).tolist() == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


def test_kirk_silber_adjacency():
    d = digraph_from_edges(4, KIRK_SILBER)
    assert adjacency(d).tolist() == [
        [0, 1, 0, 0],
        [0, 0, 1, 1],
        [1, 0, 0, 0],
        [1, 0, 0, 0],
    ]


def test_edgeless_digraph():
    d = digraph_from_edges(2, [])
    assert adjacency(d).tolist() == [[0, 0], [0, 0]]
    assert out_neighbors(d, 0) == set()
    assert out_neighbors(d, 1) == set()


def test_two_cycle_rejected():
    with pytest.raises(TwoCycleError):
        digraph_from_edges(2, [(0, 1), (1, 0)])


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        digraph_from_edges(3, [(1, 1)])


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdgeError):
        digraph_from_edges(3, [(0, 1), (0, 1)])


def test_vertex_out_of_range_rejected():
    with pytest.raises(VertexOutOfRangeError):
        digraph_from_edges(3, [(0, 3)])
    with pytest.raises(VertexOutOfRangeError):
        digraph_from_edges(0, [])


def test_out_neighbors_kirk_silber():
    d = digraph_from_edges(4, KIRK_SILBER)
    assert out_neighbors(d, 1) == {2, 3}
    assert out_neighbors(d, 2) == {0}
    with pytest.raises(VertexOutOfRangeError):
        out_neighbors(d, 4)


def test_out_neighbors_three_cycle():
    d = digraph_from_edges(3, THREE_CYCLE)
    assert out_neighbors(d, 2) == {0}


def test_edge_list_round_trip():
    d = digraph_from_edges(4, KIRK_SILBER)
    assert digraph_from_edges(4, edge_list(d)) == d


def test_example1_hierarchy_valid(example1):
    sc, _, _ = example1
    assert validate_hierarchy(sc.hierarchy) == []


def test_example2_hierarchy_valid(example2):
    sc, _, _ = example2
    assert validate_hierarchy(sc.hierarchy) == []


def test_layout_is_computed_once_and_left_out_of_equality():
    gamma = digraph_from_edges(3, THREE_CYCLE)
    blocks = (digraph_from_edges(3, THREE_CYCLE), digraph_from_edges(4, KIRK_SILBER),
              digraph_from_edges(3, REVERSED_THREE_CYCLE))
    h = HierarchySpec(gamma, blocks)
    assert h.block_sizes == (3, 4, 3) and h.dimension == 13
    assert [h.sub_offset(j) for j in range(3)] == [3, 6, 10]
    assert [h.sub_slice(j) for j in range(3)] == [slice(3, 6), slice(6, 10), slice(10, 13)]
    with pytest.raises(VertexOutOfRangeError):
        h.sub_offset(3)
    same = HierarchySpec(gamma, blocks)
    assert same == h and hash(same) == hash(h)
    assert repr(h) == f"HierarchySpec(superstructure={gamma!r}, substructures={blocks!r})"
    swapped = replace(h, substructures=blocks[1:] + blocks[:1])  # the layout follows the graphs
    assert swapped != h and [swapped.sub_offset(j) for j in range(3)] == [3, 7, 10]


def test_substructure_count_mismatch():
    gamma = digraph_from_edges(3, THREE_CYCLE)
    sub = digraph_from_edges(3, THREE_CYCLE)
    h = HierarchySpec(gamma, (sub, sub))
    kinds = [v.kind for v in validate_hierarchy(h)]
    assert kinds == ["SubstructureCountMismatch"]


def test_hierarchy_violation_pinpoints_block():
    gamma = digraph_from_edges(3, THREE_CYCLE)
    good = digraph_from_edges(3, THREE_CYCLE)
    bad = Digraph(3, frozenset({(0, 1), (1, 2), (2, 0), (1, 0)}))  # adds 2-cycle
    h = HierarchySpec(gamma, (good, bad, good))
    problems = validate_hierarchy(h)
    assert len(problems) == 1
    assert problems[0].kind == "TwoCycle"
    assert problems[0].where == "substructure 2"
    assert "(1,2)" in str(problems[0])


def test_adjacency_invariants_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        pairs = set()
        for i in range(n):
            for k in range(n):
                if i != k and (k, i) not in pairs and rng.random() < 0.3:
                    pairs.add((i, k))
        d = digraph_from_edges(n, sorted(pairs))
        a = adjacency(d)
        assert np.diagonal(a).sum() == 0
        assert np.all(a * a.T == 0)  # no 2-cycles
        assert digraph_from_edges(n, edge_list(d)) == d
