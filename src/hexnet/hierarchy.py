"""Directed graphs and two-level hierarchical collections of them.

A hierarchy also fixes the layout of the state vector: X, one coordinate per
superstructure vertex, then one block x^j per substructure, in order.
HierarchySpec addresses that vector by level, block and index.

Vertices are 0-based everywhere in memory; conversion to the 1-based labels
used in files and reports happens only at the I/O boundary.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import (
    DuplicateEdgeError,
    SelfLoopError,
    TwoCycleError,
    VertexOutOfRangeError,
)

__all__ = [
    "Digraph",
    "HierarchySpec",
    "Violation",
    "digraph_from_edges",
    "adjacency",
    "out_neighbors",
    "edge_list",
    "validate_digraph",
    "validate_hierarchy",
]


@dataclass(frozen=True)
class Digraph:
    """A directed graph on vertices 0..n_vertices-1 with an edge set.

    Construct through digraph_from_edges to get validation; instances built
    directly may violate the no-1-cycle / no-2-cycle requirements and can be
    checked with validate_digraph.
    """

    n_vertices: int
    edges: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class HierarchySpec:
    """A superstructure digraph plus one substructure digraph per vertex, and
    the layout of the state vector they define.

    The block sizes and offsets are computed once, when the spec is built;
    equality, hash and repr read the two graphs alone."""

    superstructure: Digraph
    substructures: tuple[Digraph, ...]
    block_sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # offset of each block in the state vector, then the dimension
    _offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(g.n_vertices for g in self.substructures)
        object.__setattr__(self, "block_sizes", sizes)
        object.__setattr__(self, "_offsets", tuple(accumulate(sizes, initial=self.n_super)))

    @property
    def n_super(self) -> int:
        return self.superstructure.n_vertices

    @property
    def dimension(self) -> int:
        return self._offsets[-1]

    @property
    def super_slice(self) -> slice:
        return slice(0, self.n_super)

    def sub_offset(self, j: int) -> int:
        if not 0 <= j < self.n_super:
            raise VertexOutOfRangeError(f"substructure index {j + 1} out of range")
        return self._offsets[j]

    def sub_slice(self, j: int) -> slice:
        off = self.sub_offset(j)
        return slice(off, off + self.block_sizes[j])

    def sub_block_index(self) -> np.ndarray:
        """For each substructure coordinate, the index j of its block."""
        return np.repeat(np.arange(self.n_super), self.block_sizes)

    def coord_names(self) -> list[str]:
        names = [f"X{j + 1}" for j in range(self.n_super)]
        for j, nj in enumerate(self.block_sizes):
            names += [f"x{j + 1}_{i + 1}" for i in range(nj)]
        return names


@dataclass(frozen=True)
class Violation:
    """One validation failure, rendered with 1-based vertex labels."""

    kind: str
    where: str
    detail: str

    def __str__(self) -> str:
        return f"{self.where}: {self.detail}"


def _edge_label(i: int, k: int) -> str:
    return f"({i + 1},{k + 1})"


_VIOLATION_ERRORS = {
    "VertexOutOfRange": VertexOutOfRangeError,
    "SelfLoop": SelfLoopError,
    "TwoCycle": TwoCycleError,
}


def digraph_from_edges(n_vertices, edges) -> Digraph:
    """Build a validated digraph from an iterable of 0-based ordered pairs.

    Raises on duplicate edges, then on the first violation validate_digraph
    finds: out-of-range endpoints, self loops (1-cycles) or reciprocal edge
    pairs (2-cycles). Duplicates are an error rather than silently dropped
    because they almost always indicate a configuration typo.
    """
    seen: set[tuple[int, int]] = set()
    for pair in edges:
        i, k = int(pair[0]), int(pair[1])
        if (i, k) in seen:
            raise DuplicateEdgeError(f"duplicate edge {_edge_label(i, k)}")
        seen.add((i, k))
    d = Digraph(int(n_vertices), frozenset(seen))
    problems = validate_digraph(d)
    if problems:
        raise _VIOLATION_ERRORS[problems[0].kind](problems[0].detail)
    return d


def adjacency(d: Digraph) -> np.ndarray:
    """0/1 adjacency matrix; entry [i, k] = 1 iff edge (i, k)."""
    a = np.zeros((d.n_vertices, d.n_vertices), dtype=int)
    for i, k in d.edges:
        a[i, k] = 1
    return a


def out_neighbors(d: Digraph, i: int) -> set[int]:
    if not 0 <= i < d.n_vertices:
        raise VertexOutOfRangeError(f"vertex {i + 1} outside range 1..{d.n_vertices}")
    return {k for (a, k) in d.edges if a == i}


def edge_list(d: Digraph) -> list[tuple[int, int]]:
    """Edges in sorted order (stable representation for files and tests)."""
    return sorted(d.edges)


def validate_digraph(d: Digraph, where: str = "digraph") -> list[Violation]:
    """All invariant violations of a (possibly hand-built) digraph, edges in
    sorted order."""
    n = d.n_vertices
    if n <= 0:
        return [Violation("VertexOutOfRange", where, f"n_vertices must be positive, got {n}")]
    out: list[Violation] = []
    for i, k in sorted(d.edges):
        edge = _edge_label(i, k)
        if not (0 <= i < n and 0 <= k < n):
            out.append(Violation("VertexOutOfRange", where, f"edge {edge} outside vertex range 1..{n}"))
        elif i == k:
            out.append(Violation("SelfLoop", where, f"self loop {edge}"))
        elif (k, i) in d.edges and i < k:
            out.append(Violation("TwoCycle", where, f"2-cycle {edge} and {_edge_label(k, i)}"))
    return out


def validate_hierarchy(h: HierarchySpec) -> list[Violation]:
    """All violations across the hierarchy; empty list means valid."""
    out = validate_digraph(h.superstructure, "superstructure")
    n_super = h.superstructure.n_vertices
    if len(h.substructures) != n_super:
        out.append(
            Violation(
                "SubstructureCountMismatch",
                "substructures",
                f"expected {n_super}, got {len(h.substructures)}",
            )
        )
    for j, g in enumerate(h.substructures):
        out.extend(validate_digraph(g, f"substructure {j + 1}"))
    return out
