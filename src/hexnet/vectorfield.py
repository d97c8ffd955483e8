"""Polynomial vector fields realizing a hierarchy of digraphs.

The state vector stacks the superstructure block X (length N) and one block
x^j per substructure (length n_j). The hierarchy (HierarchySpec) fixes that
layout and addresses it, so FieldParams.layout is FieldParams.hierarchy.
Every coordinate multiplies its own equation, so all coordinate subspaces
are dynamically invariant. Substructure blocks are gated by a smooth bump of
the squared distance between X and the corresponding unit vector, and the
three timescale factors speed up or slow down the superstructure motion, the
active substructure motion and the decay of inactive substructures
independently.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import exp as _exp, inf as _inf

import numpy as np

from .errors import (
    CoefficientSignError,
    DimensionMismatchError,
    NonFiniteError,
    VertexOutOfRangeError,
)
from .hierarchy import Digraph, HierarchySpec, adjacency, validate_hierarchy

__all__ = [
    "VARIANT_STANDARD",
    "VARIANT_BOUNDED",
    "ORIENTATION_EIGENVALUE",
    "ORIENTATION_LITERAL",
    "EPSILON_HARD_BOUND",
    "EPSILON_DISJOINT_BOUND",
    "check_field_value",
    "CoefficientSet",
    "FieldParams",
    "Equilibrium",
    "bump",
    "bump_derivative",
    "bump_j",
    "gate_distances",
    "simplex_coefficients",
    "build_coefficients",
    "eval_field",
    "growth_rates",
    "RateTable",
    "rate_table",
    "designed_equilibria",
    "jacobian",
]

VARIANT_STANDARD = "standard"
VARIANT_BOUNDED = "bounded"
_VARIANTS = (VARIANT_STANDARD, VARIANT_BOUNDED)

# For an edge (i -> k), "eigenvalue" places the positive coefficient where it
# produces a positive transverse eigenvalue in direction k at the equilibrium
# of vertex i (row k, column i of the equation-form matrix). "literal" places
# it at row i, column k instead, which realizes the transposed digraph.
ORIENTATION_EIGENVALUE = "eigenvalue"
ORIENTATION_LITERAL = "literal"
_ORIENTATIONS = (ORIENTATION_EIGENVALUE, ORIENTATION_LITERAL)

EPSILON_HARD_BOUND = np.sqrt(2.0) / 2.0
EPSILON_DISJOINT_BOUND = 0.5


# ---------------------------------------------------------------------------
# bump / transition function
# ---------------------------------------------------------------------------

def _bump1(z: float, epsilon: float) -> float:
    """bump() of one float: the one definition of its formula."""
    if z <= 0.0:
        return 1.0
    if z >= epsilon:
        return 0.0
    w = epsilon * (1.0 / (epsilon - z) - 1.0 / z)
    return 0.0 if w > 700.0 else 1.0 if w < -700.0 else 1.0 / (1.0 + _exp(w))


def _bump_array(z: np.ndarray, epsilon: float) -> np.ndarray:
    """bump() on a 1-d float array, one element at a time."""
    return np.array([_bump1(zi, epsilon) for zi in z.tolist()])


def bump(z, epsilon: float):
    """Smooth transition equal to 1 for z <= 0 and 0 for z >= epsilon.

    On (0, epsilon) the two-exponential form is evaluated as a logistic of
    w = epsilon*(1/(epsilon-z) - 1/z), which factors out the smaller
    exponential and avoids 0/0 near the endpoints. Values at z = 0 and
    z = epsilon are exact by construction, and bump(epsilon/2) = 1/2 exactly.
    The result is exactly 0 once w > 700 and exactly 1 once w < -700.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    z_arr = np.asarray(z, dtype=float)
    out = _bump_array(z_arr.ravel(), epsilon).reshape(z_arr.shape)
    return float(out) if z_arr.ndim == 0 else out


def bump_derivative(z, epsilon: float):
    """d bump/dz = -b (1 - b) dw/dz with b the bump value; exactly zero
    wherever bump is exactly 0 or 1, with smooth gluing at both ends."""
    b = np.asarray(bump(z, epsilon))
    z_arr = np.asarray(z, dtype=float)
    out = np.zeros_like(z_arr)
    inner = (b > 0.0) & (b < 1.0)
    if np.any(inner):
        zi = z_arr[inner]
        b = b[inner]
        wprime = epsilon * (1.0 / (epsilon - zi) ** 2 + 1.0 / zi**2)
        out[inner] = -b * (1.0 - b) * wprime
    return float(out) if np.isscalar(z) or z_arr.ndim == 0 else out


def gate_distances(X, sq=None) -> np.ndarray:
    """Squared distances |X - e_j|^2 = |X|^2 - 2 X_j + 1 for every j.

    X is one superstructure state (length N) or a (samples x N) array; the
    result has the same shape. Gate j is bump(z_j); it is positive only where
    z_j < epsilon, but exactly 0 just below epsilon, where w > 700.

    sq is |X|^2, by default (X * X).sum(axis=-1, keepdims=True). A caller
    that has summed it already may pass it with X narrowed to column j, a
    sample array: the result is then z_j of each sample.
    """
    X = np.asarray(X, dtype=float)
    if sq is None:
        sq = (X * X).sum(axis=-1, keepdims=True)
    return sq - 2.0 * X + 1.0


def bump_j(X, j: int, epsilon: float) -> float:
    """Gate value of substructure j: bump of the squared distance to e_j."""
    X = np.asarray(X, dtype=float)
    if not 0 <= j < X.shape[0]:
        raise VertexOutOfRangeError(f"block index {j + 1} out of range 1..{X.shape[0]}")
    return bump(float(gate_distances(X)[j]), epsilon)


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

_FIELD_RULES = {  # name: (test, rule)
    "variant": (lambda v: v in _VARIANTS, f"must be one of {_VARIANTS}"),
    "orientation": (lambda v: v in _ORIENTATIONS, f"must be one of {_ORIENTATIONS}"),
    "epsilon": (lambda v: 0.0 < v < EPSILON_HARD_BOUND,
                f"must lie in (0, sqrt(2)/2 ~ {EPSILON_HARD_BOUND:.6f})"),
    **dict.fromkeys(("phi", "psi", "omega"),
                    (lambda v: 0.0 < v < np.inf, "must be positive and finite")),
}


def check_field_value(name: str, value) -> None:
    """Raise ValueError unless value is admissible as the field scalar name
    (epsilon, phi, psi, omega, variant, orientation). FieldParams and the
    scenario loader both use it."""
    holds, rule = _FIELD_RULES[name]
    if not holds(value):
        raise ValueError(f"{name} {rule}, got {value!r}")


def _equation_form(d: Digraph, m, orientation: str, where: str) -> np.ndarray:
    """Check that the connection-oriented matrix m realizes d; return its
    equation form, m.T for the eigenvalue orientation and m for the literal.

    Entry [i, k] of m governs i -> k. m must be n x n with every entry
    finite, a zero diagonal, positive entries exactly on the edges of d and
    negative entries elsewhere. This is the one definition of that rule.
    """
    n = d.n_vertices
    m = np.array(m, dtype=float)
    if m.shape != (n, n):
        raise DimensionMismatchError(f"{where}: expected {n}x{n} matrix, got {m.shape}")
    edges = d.edges
    for i, row in enumerate(m.tolist()):
        for k, v in enumerate(row):
            if v == 0.0 if i == k else 0.0 < v < _inf if (i, k) in edges else -_inf < v < 0.0:
                continue
            if not np.isfinite(m).all():
                raise NonFiniteError(f"{where}: non-finite coefficient")
            rule = ("0 on the diagonal" if i == k else "positive on an edge" if (i, k) in edges
                    else "negative off the edges")
            raise CoefficientSignError(f"{where}: entry [{i + 1},{k + 1}] must be {rule}, got {v}")
    return np.ascontiguousarray(m.T) if orientation == ORIENTATION_EIGENVALUE else m


def simplex_coefficients(
    d: Digraph,
    c_plus: float = 1.0,
    c_minus: float = -1.5,
    overrides: dict[tuple[int, int], float] | None = None,
) -> np.ndarray:
    """Connection-oriented matrix of the uniform rule for one digraph: entry
    [i, k] governs i -> k, c_plus on the edges, c_minus off them, 0 on the
    diagonal, then the overrides keyed by the pair (i, k) they replace.

    Only c_plus, c_minus and the override pairs are checked here; the
    override values are checked when the matrix enters a CoefficientSet.
    """
    if not c_plus > 0.0:
        raise CoefficientSignError(f"c_plus must be positive, got {c_plus}")
    if not c_minus < 0.0:
        raise CoefficientSignError(f"c_minus must be negative, got {c_minus}")
    n = d.n_vertices
    conn = np.full((n, n), c_minus, dtype=float)
    conn[adjacency(d) == 1] = c_plus
    np.fill_diagonal(conn, 0.0)
    for (i, k), value in (overrides or {}).items():
        if i == k or not (0 <= i < n and 0 <= k < n):
            raise VertexOutOfRangeError(
                f"override pair ({i + 1},{k + 1}) out of range or diagonal"
            )
        conn[i, k] = value
    return conn


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """The coefficients of a hierarchy, checked once, when the set is built.

    Built from the hierarchy, the connection-oriented matrices (a for the
    superstructure, then one alpha per block; entry [i, k] governs i -> k)
    and one orientation for them all. Building validates the hierarchy and
    checks every matrix against its digraph. The set then holds the
    read-only equation forms as a and alphas: entry [r, c] multiplies x_c^2
    in the equation for x_r. dataclasses.replace would read those back as
    connection matrices, so build a new set instead.
    """

    hierarchy: HierarchySpec
    a: np.ndarray
    alphas: tuple[np.ndarray, ...]
    orientation: str = ORIENTATION_EIGENVALUE

    def __post_init__(self):
        h = self.hierarchy
        problems = validate_hierarchy(h)
        if problems:
            raise ValueError("invalid hierarchy: " + "; ".join(str(p) for p in problems))
        check_field_value("orientation", self.orientation)
        if len(self.alphas) != h.n_super:
            raise DimensionMismatchError(
                f"expected {h.n_super} alpha matrices, got {len(self.alphas)}"
            )
        a = _equation_form(h.superstructure, self.a, self.orientation, "a")
        alphas = tuple(
            _equation_form(g, m, self.orientation, f"alphas[{j + 1}]")
            for j, (g, m) in enumerate(zip(h.substructures, self.alphas))
        )
        for m in (a, *alphas):
            m.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "alphas", alphas)


def build_coefficients(
    h: HierarchySpec,
    c_plus: float = 1.0,
    c_minus: float = -1.5,
    super_overrides: dict[tuple[int, int], float] | None = None,
    sub_overrides: dict[int, dict[tuple[int, int], float]] | None = None,
    orientation: str = ORIENTATION_EIGENVALUE,
) -> CoefficientSet:
    """Coefficients for a whole hierarchy from the uniform rule plus overrides."""
    subs = sub_overrides or {}
    if any(not 0 <= j < h.n_super for j in subs):
        raise VertexOutOfRangeError(f"sub overrides name a substructure outside 1..{h.n_super}")
    return CoefficientSet(
        h,
        simplex_coefficients(h.superstructure, c_plus, c_minus, super_overrides),
        tuple(simplex_coefficients(g, c_plus, c_minus, subs.get(j))
              for j, g in enumerate(h.substructures)),
        orientation,
    )


# ---------------------------------------------------------------------------
# field parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FieldParams:
    """Everything defining the vector field; immutable and shareable.

    coeffs was checked when it was built, so building a FieldParams (or
    replacing its scalars) checks only the scalars."""

    coeffs: CoefficientSet
    epsilon: float = 0.2
    phi: float = 1.0
    psi: float = 1.0
    omega: float = 1.0
    variant: str = VARIANT_STANDARD

    _rates: RateTable = field(init=False, repr=False, compare=False)  # on every coordinate

    @property
    def hierarchy(self) -> HierarchySpec:
        """The hierarchy, which is also the layout of the state vector."""
        return self.coeffs.hierarchy

    layout = hierarchy

    def __post_init__(self):
        for name in ("variant", "epsilon", "phi", "psi", "omega"):
            check_field_value(name, getattr(self, name))
        if self.epsilon >= EPSILON_DISJOINT_BOUND:
            # 3 skips __post_init__ and the generated __init__: the caller's line
            warnings.warn(
                f"epsilon = {self.epsilon} >= 0.5: bump supports may overlap",
                stacklevel=3,
            )

        h = self.hierarchy

        # Ungated rates are offset + matrix @ state**2. Each diagonal block is
        # the block's coefficient matrix minus all-ones (the -|block|^2 term),
        # scaled by phi (superstructure) or psi (substructures); the last row
        # gives 1 + |X|^2, from which the gate distances follow.
        d = h.dimension
        matrix = np.zeros((d + 1, d))
        offset = np.empty(d + 1)
        blocks = [("a", h.super_slice, self.coeffs.a, self.phi)]
        blocks += [(f"alphas[{j + 1}]", h.sub_slice(j), self.coeffs.alphas[j], self.psi)
                   for j in range(h.n_super)]
        for where, sl, coeffs, scale in blocks:
            rates = scale * (coeffs - 1.0)
            matrix[sl, sl] = rates
            offset[sl] = scale
            # at the vertex x_c = 1, x_r grows at scale + matrix[r, c], which is
            # scale * c in exact arithmetic: positive off the blocks, and on a
            # block it must keep the sign of c
            rates += scale
            lost = np.sign(rates) != np.sign(coeffs)
            if lost.any():
                _refuse_lost_sign(where, coeffs, scale, rates, lost, self.coeffs.orientation)
        matrix[d, h.super_slice] = 1.0
        offset[d] = 1.0

        object.__setattr__(self, "_rates", _restrict(self, matrix, offset, np.arange(d), False))


def _refuse_lost_sign(where: str, coeffs: np.ndarray, scale: float, rates: np.ndarray,
                      lost: np.ndarray, orientation: str) -> None:
    """Raise CoefficientSignError for the first coefficient of a block, in
    connection order, whose folded rate scale + scale * (c - 1) lacks the
    sign of c (where lost is set). That happens below about 2^-54 in
    magnitude: scale * (c - 1) rounds to -scale, and the rate to exactly 0."""
    if orientation == ORIENTATION_EIGENVALUE:  # back to connection form
        coeffs, rates, lost = coeffs.T, rates.T, lost.T
    i, k = np.argwhere(lost)[0].tolist()
    raise CoefficientSignError(
        f"{where}: entry [{i + 1},{k + 1}] = {coeffs[i, k]} is too close to 0: the"
        f" growth rate it gives, {scale} + {scale} * ({coeffs[i, k]} - 1), rounds"
        f" to {rates[i, k]}"
    )


# ---------------------------------------------------------------------------
# field evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RateTable:
    """The folded rate matrix of a FieldParams restricted to live coordinates.

    The m live coordinates are taken in the order rate_table was given:
    the sub_start superstructure ones first, then the substructure ones,
    each block's in one contiguous run. matrix is (m+1) x m: the live rate
    rows, then the gate row that gives 1 + |X|^2. The gated blocks are those
    with a live substructure coordinate, and spans holds, for each in order,
    (live position of its X_j, or -1 where X_j is masked, first row, end
    row). A backward table negates the rate rows and omega, not the gate
    row.
    """

    matrix: np.ndarray
    offset: np.ndarray
    spans: tuple[tuple[int, int, int], ...]
    sub_start: int
    epsilon: float
    omega: float
    bounded: bool


def rate_table(p: FieldParams, live, backward: bool = False) -> RateTable:
    """The rate table of p on the coordinates live (flat indices, in the
    order of the table's rows), for the time-reversed field if backward.

    live lists each coordinate once, the superstructure ones before the
    substructure ones and each block's together; ascending order is one
    such order. An order that breaks these rules raises ValueError.
    Masked coordinates are exact zeros, so dropping their rows and columns
    changes no live rate. A gated block whose X_j is masked has gate
    distance 1 + |X|^2 >= 1 > epsilon, so its gate is exactly 0.
    """
    return _restrict(p, p._rates.matrix, p._rates.offset, live, backward)


def _restrict(p: FieldParams, matrix: np.ndarray, offset: np.ndarray, live,
              backward: bool) -> RateTable:
    """rate_table of p, cut from the (d+1) x d matrix and offset of its rates
    on every coordinate."""
    h = p.hierarchy
    n = h.n_super
    live = np.asarray(live, dtype=np.intp)
    sub_start = int(np.count_nonzero(live < n))
    blocks = h.sub_block_index()[live[sub_start:] - n]
    first = np.flatnonzero(blocks[1:] != blocks[:-1]) + 1  # where each block's run starts
    first = np.append(0, first) if blocks.size else first
    gates = blocks[first]
    if ((live[:sub_start] >= n).any() or np.bincount(live).max(initial=0) > 1
            or np.bincount(gates).max(initial=0) > 1):
        raise ValueError("live must list coordinates once each, the superstructure ones"
                         f" first and each block's together, got {live.tolist()}")
    rows = np.append(live, h.dimension)
    matrix = matrix.take(rows, axis=0).take(live, axis=1)
    offset = offset[rows]
    omega = p.omega
    if backward:
        matrix[:-1] *= -1.0
        offset[:-1] *= -1.0
        omega = -omega
    x_pos = {j: i for i, j in enumerate(live[:sub_start].tolist())}
    first += sub_start
    ends = np.append(first[1:], live.size)
    spans = tuple((x_pos.get(j, -1), a, e)
                  for j, a, e in zip(gates.tolist(), first.tolist(), ends.tolist()))
    return RateTable(matrix, offset, spans, sub_start, p.epsilon, omega,
                     p.variant == VARIANT_BOUNDED)


# growth_rates' scratch operands b and omega * (1 - b), set per open gate.
# They are not RateTable fields, so no table, nor a key made of its fields,
# carries them; hexnet runs no threads, and a forked worker has its own.
_GATE = np.empty(())
_DECAY = np.empty(())


def growth_rates(v: np.ndarray, t: RateTable) -> np.ndarray:
    """Per-coordinate growth rate r with dstate/dt = state * r, on the live
    coordinates of t (v holds their values).

    Superstructure entry j:   phi * (1 - |X|^2 + sum_k a[j,k] X_k^2)
    Substructure entry (j,i): psi * G^j_i * b_j - omega * (1 - b_j) * g
    with G^j_i = 1 - |x^j|^2 + sum_k alpha^j[i,k] (x^j_k)^2, b_j the gate of
    block j, and g = 1 (standard) or 1 - x^j_i (bounded). A backward table
    gives the negated rates, those of the time-reversed field.

    The gates take one Python pass over the spans, on the gate distance
    z_j = (1 + |X|^2) - 2 X_j, and each gate applies to its own rows only.
    In the standard variant a gate of exactly 1 leaves them as they are and
    one of exactly 0 sets them to -omega, which is what the multiply and
    subtract give for every finite rate. An open gate multiplies by b and
    subtracts omega * (1 - b) as 0-d arrays (_GATE, _DECAY): numpy converts
    a Python float operand anew on every call, and on a block's few rows
    that conversion costs more than the arithmetic. The rates returned are
    a fresh array on each call. No input validation, no errstate (callers
    own both).
    """
    r = t.matrix.dot(v * v)
    r += t.offset
    rates = r[:-1]
    if t.spans:
        z0 = float(r[-1])
        eps, omega, bounded = t.epsilon, t.omega, t.bounded
        for k, first, end in t.spans:
            b = _bump1(z0 - 2.0 * v.item(k) if k >= 0 else z0, eps)
            if b == 0.0 and not bounded:
                rates[first:end] = -omega
            elif b != 1.0 or bounded:
                _GATE[()] = b
                _DECAY[()] = omega * (1.0 - b)
                rows = rates[first:end]
                rows *= _GATE
                rows -= _DECAY * (1.0 - v[first:end]) if bounded else _DECAY
    return rates


def _check_state(state, p: FieldParams) -> np.ndarray:
    state = np.asarray(state, dtype=float)
    d = p.hierarchy.dimension
    if state.shape != (d,):
        raise DimensionMismatchError(f"state has shape {state.shape}, expected ({d},)")
    if not np.isfinite(state).all():
        raise NonFiniteError("state contains non-finite entries")
    return state


def eval_field(state, p: FieldParams) -> np.ndarray:
    """Time derivative of the full system at a state (original chart)."""
    state = _check_state(state, p)
    with np.errstate(under="ignore"):
        return state * growth_rates(state, p._rates)


# ---------------------------------------------------------------------------
# designed equilibria
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Equilibrium:
    """A designed equilibrium: the origin, a superstructure vertex state, or
    a substructure vertex state. Indices are 0-based; name renders 1-based."""

    kind: str  # "origin" | "super" | "sub"
    j: int | None
    i: int | None
    state: np.ndarray

    @property
    def name(self) -> str:
        if self.kind == "origin":
            return "Origin"
        if self.kind == "super":
            return f"Super({self.j + 1})"
        return f"Sub({self.j + 1},{self.i + 1})"


def designed_equilibria(p: FieldParams) -> list[Equilibrium]:
    """Origin, all Super(j) and all Sub(j, i); field values are exactly zero
    there (every term carries a vanishing factor in exact arithmetic)."""
    h = p.hierarchy
    d = h.dimension
    out = [Equilibrium("origin", None, None, np.zeros(d))]
    for j in range(h.n_super):
        st = np.zeros(d)
        st[j] = 1.0
        out.append(Equilibrium("super", j, None, st))
    for j in range(h.n_super):
        for i in range(h.block_sizes[j]):
            st = np.zeros(d)
            st[j] = 1.0
            st[h.sub_offset(j) + i] = 1.0
            out.append(Equilibrium("sub", j, i, st))
    return out


# ---------------------------------------------------------------------------
# analytic Jacobian
# ---------------------------------------------------------------------------

def _rate_derivative(v: np.ndarray, t: RateTable) -> np.ndarray:
    """dr/dv of growth_rates(v, t), an m x m matrix on the live coordinates
    of t; the log chart's dr/du is this times diag(v).

    An ungated row G = offset + matrix @ v**2 has derivative matrix * 2v. A
    gated row b * G - omega * (1 - b) * g has b * dG/dv + (G + omega * g) *
    db/dv, with db/dv = bump'(z) * dz/dv for the gate distance
    z = r[-1] - pick @ v, where pick has 2 at each gated block's live X_j,
    plus omega * (1 - b) on its diagonal in the bounded variant, where
    g = 1 - v.
    """
    r = t.matrix @ (v * v)
    r += t.offset
    D = t.matrix * (2.0 * v)
    s = t.sub_start
    if t.spans:
        x, first, end = np.array(t.spans).T
        pick = 2.0 * (np.arange(v.shape[0]) == x[:, None])
        sub_gate = np.repeat(np.arange(x.size), end - first)
        z = r[-1] - pick @ v
        b = bump(z, t.epsilon)[sub_gate]
        db = (bump_derivative(z, t.epsilon)[:, None] * (D[-1] - pick))[sub_gate]
        g = 1.0 - v[s:] if t.bounded else 1.0
        D[s:-1] = b[:, None] * D[s:-1] + (r[s:-1] + t.omega * g)[:, None] * db
        if t.bounded:
            live_sub = np.arange(s, v.shape[0])
            D[live_sub, live_sub] += t.omega * (1.0 - b)
    return D[:-1]


def jacobian(state, p: FieldParams) -> np.ndarray:
    """Analytic Jacobian of eval_field: diag(r) + diag(state) * dr/dv, with
    r and dr/dv from the rate table of all coordinates. Block
    lower-triangular: X never depends on the x blocks."""
    state = _check_state(state, p)
    with np.errstate(under="ignore"):
        rates = growth_rates(state, p._rates)
        return np.diag(rates) + state[:, None] * _rate_derivative(state, p._rates)
