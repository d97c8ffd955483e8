"""Polynomial vector fields realizing a hierarchy of digraphs.

The state vector stacks the superstructure block X (length N) and one block
x^j per substructure (length n_j). Every coordinate multiplies its own
equation, so all coordinate subspaces are dynamically invariant. Substructure
blocks are gated by a smooth bump of the squared distance between X and the
corresponding unit vector, and the three timescale factors speed up or slow
down the superstructure motion, the active substructure motion and the decay
of inactive substructures independently.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import exp as _exp

import numpy as np

from .errors import (
    CoefficientSignError,
    DimensionMismatchError,
    NonFiniteError,
    VertexOutOfRangeError,
)
from .hierarchy import Digraph, HierarchySpec, validate_hierarchy

__all__ = [
    "VARIANT_STANDARD",
    "VARIANT_BOUNDED",
    "ORIENTATION_EIGENVALUE",
    "ORIENTATION_LITERAL",
    "EPSILON_HARD_BOUND",
    "EPSILON_DISJOINT_BOUND",
    "BlockLayout",
    "CoefficientSet",
    "FieldParams",
    "Equilibrium",
    "bump",
    "bump_derivative",
    "bump_j",
    "gate_distances",
    "simplex_coefficients",
    "build_coefficients",
    "coefficients_from_matrices",
    "eval_field",
    "eval_field_log",
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

# exp argument cap inside the log chart; legitimate states stay far below
# (divergence is declared near log(1e6) ~ 13.8) while trial steps that wander
# high still produce finite, huge rates that get rejected by error control.
_EXP_CLAMP = 150.0


@dataclass(frozen=True)
class BlockLayout:
    """Offset table addressing the flat state vector by (level, block, index)."""

    n_super: int
    block_sizes: tuple[int, ...]

    @classmethod
    def from_hierarchy(cls, h: HierarchySpec) -> "BlockLayout":
        return cls(h.n_super, h.block_sizes)

    @property
    def dimension(self) -> int:
        return self.n_super + sum(self.block_sizes)

    @property
    def super_slice(self) -> slice:
        return slice(0, self.n_super)

    def sub_offset(self, j: int) -> int:
        if not 0 <= j < self.n_super:
            raise VertexOutOfRangeError(f"substructure index {j + 1} out of range")
        return self.n_super + sum(self.block_sizes[:j])

    def sub_slice(self, j: int) -> slice:
        off = self.sub_offset(j)
        return slice(off, off + self.block_sizes[j])

    def sub_block_index(self) -> np.ndarray:
        """For each substructure coordinate, the index j of its block."""
        return np.repeat(np.arange(self.n_super), self.block_sizes)

    def split(self, state: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Views (X, [x^1, ..., x^N]) of a flat state vector."""
        X = state[self.super_slice]
        return X, [state[self.sub_slice(j)] for j in range(self.n_super)]

    def coord_names(self) -> list[str]:
        names = [f"X{j + 1}" for j in range(self.n_super)]
        for j, nj in enumerate(self.block_sizes):
            names += [f"x{j + 1}_{i + 1}" for i in range(nj)]
        return names

    def coord_level(self, c: int) -> tuple[str, int, int]:
        """Map a flat coordinate index to ("super", j) or ("sub", j, i)."""
        if c < self.n_super:
            return ("super", c, c)
        c -= self.n_super
        for j, nj in enumerate(self.block_sizes):
            if c < nj:
                return ("sub", j, c)
            c -= nj
        raise VertexOutOfRangeError("coordinate index out of range")


# ---------------------------------------------------------------------------
# bump / transition function
# ---------------------------------------------------------------------------

def _bump_array(z: np.ndarray, epsilon: float) -> np.ndarray:
    """bump() on a 1-d float array, one element at a time: at the block
    counts the field sees, a Python loop beats numpy's masked evaluation."""
    out = []
    for zi in z.tolist():
        if zi <= 0.0:
            out.append(1.0)
        elif zi >= epsilon:
            out.append(0.0)
        else:
            w = epsilon * (1.0 / (epsilon - zi) - 1.0 / zi)
            out.append(0.0 if w > 700.0 else 1.0 if w < -700.0 else 1.0 / (1.0 + _exp(w)))
    return np.array(out)


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
    """d bump/dz; zero outside (0, epsilon), with smooth gluing at both ends."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    z_arr = np.asarray(z, dtype=float)
    out = np.zeros_like(z_arr)
    inner = (z_arr > 0.0) & (z_arr < epsilon)
    if np.any(inner):
        zi = z_arr[inner]
        w = epsilon * (1.0 / (epsilon - zi) - 1.0 / zi)
        with np.errstate(over="ignore", under="ignore"):
            b = 1.0 / (1.0 + np.exp(w))
        wprime = epsilon * (1.0 / (epsilon - zi) ** 2 + 1.0 / zi**2)
        out[inner] = -b * (1.0 - b) * wprime
    return float(out) if np.isscalar(z) or z_arr.ndim == 0 else out


def gate_distances(X) -> np.ndarray:
    """Squared distances |X - e_j|^2 = |X|^2 - 2 X_j + 1 for every j.

    X is one superstructure state (length N) or a (samples x N) array; the
    result has the same shape. Gate j is bump(z_j) and is open (positive)
    exactly where z_j < epsilon.
    """
    X = np.asarray(X, dtype=float)
    return (X * X).sum(axis=-1, keepdims=True) - 2.0 * X + 1.0


def bump_j(X, j: int, epsilon: float) -> float:
    """Gate value of substructure j: bump of the squared distance to e_j."""
    X = np.asarray(X, dtype=float)
    if not 0 <= j < X.shape[0]:
        raise VertexOutOfRangeError(f"block index {j + 1} out of range 1..{X.shape[0]}")
    return bump(float(gate_distances(X)[j]), epsilon)


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def _check_orientation(orientation: str) -> None:
    if orientation not in _ORIENTATIONS:
        raise ValueError(f"orientation must be one of {_ORIENTATIONS}")


def simplex_coefficients(
    d: Digraph,
    c_plus: float = 1.0,
    c_minus: float = -1.5,
    overrides: dict[tuple[int, int], float] | None = None,
    orientation: str = ORIENTATION_EIGENVALUE,
) -> np.ndarray:
    """Equation-form coefficient matrix realizing one digraph.

    Entry [r, c] multiplies x_c^2 in the equation for x_r. Overrides are
    keyed by the ordered pair (i, k) of the connection i -> k they govern
    (an edge gets a positive value, a non-edge pair a negative one).
    """
    _check_orientation(orientation)
    if not c_plus > 0.0:
        raise CoefficientSignError(f"c_plus must be positive, got {c_plus}")
    if not c_minus < 0.0:
        raise CoefficientSignError(f"c_minus must be negative, got {c_minus}")
    n = d.n_vertices
    mat = np.full((n, n), c_minus, dtype=float)
    np.fill_diagonal(mat, 0.0)
    for i, k in d.edges:
        if orientation == ORIENTATION_EIGENVALUE:
            mat[k, i] = c_plus
        else:
            mat[i, k] = c_plus
    if overrides:
        for (i, k), value in overrides.items():
            if i == k or not (0 <= i < n and 0 <= k < n):
                raise VertexOutOfRangeError(
                    f"override pair ({i + 1},{k + 1}) out of range or diagonal"
                )
            is_edge = (i, k) in d.edges
            if is_edge and not value > 0.0:
                raise CoefficientSignError(
                    f"override for edge ({i + 1},{k + 1}) must be positive, got {value}"
                )
            if not is_edge and not value < 0.0:
                raise CoefficientSignError(
                    f"override for non-edge ({i + 1},{k + 1}) must be negative, got {value}"
                )
            if orientation == ORIENTATION_EIGENVALUE:
                mat[k, i] = value
            else:
                mat[i, k] = value
    return mat


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Equation-form coefficient matrices: a for the superstructure equation
    rows, one alpha matrix per substructure block."""

    a: np.ndarray
    alphas: tuple[np.ndarray, ...]

    def __post_init__(self):
        a = np.ascontiguousarray(np.asarray(self.a, dtype=float))
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        als = []
        for m in self.alphas:
            m = np.ascontiguousarray(np.asarray(m, dtype=float))
            m.setflags(write=False)
            als.append(m)
        object.__setattr__(self, "alphas", tuple(als))


def build_coefficients(
    h: HierarchySpec,
    c_plus: float = 1.0,
    c_minus: float = -1.5,
    super_overrides: dict[tuple[int, int], float] | None = None,
    sub_overrides: dict[int, dict[tuple[int, int], float]] | None = None,
    orientation: str = ORIENTATION_EIGENVALUE,
) -> CoefficientSet:
    """Coefficients for a whole hierarchy from the uniform rule plus overrides."""
    a = simplex_coefficients(h.superstructure, c_plus, c_minus, super_overrides, orientation)
    subs = sub_overrides or {}
    alphas = tuple(
        simplex_coefficients(g, c_plus, c_minus, subs.get(j), orientation)
        for j, g in enumerate(h.substructures)
    )
    return CoefficientSet(a, alphas)


def _from_connection_matrix(d: Digraph, given: np.ndarray, orientation: str, where: str) -> np.ndarray:
    """Validate a connection-oriented matrix (entry [i, k] governs i -> k) and
    return its equation form for the requested orientation."""
    n = d.n_vertices
    given = np.asarray(given, dtype=float)
    if given.shape != (n, n):
        raise DimensionMismatchError(f"{where}: expected {n}x{n} matrix, got {given.shape}")
    if not np.isfinite(given).all():
        raise NonFiniteError(f"{where}: non-finite coefficient")
    for i in range(n):
        if given[i, i] != 0.0:
            raise CoefficientSignError(f"{where}: diagonal entry [{i + 1},{i + 1}] must be 0")
        for k in range(n):
            if i == k:
                continue
            if (i, k) in d.edges and not given[i, k] > 0.0:
                raise CoefficientSignError(
                    f"{where}: entry for edge ({i + 1},{k + 1}) must be positive"
                )
            if (i, k) not in d.edges and not given[i, k] < 0.0:
                raise CoefficientSignError(
                    f"{where}: entry for non-edge ({i + 1},{k + 1}) must be negative"
                )
    return given.T.copy() if orientation == ORIENTATION_EIGENVALUE else given.copy()


def coefficients_from_matrices(
    h: HierarchySpec,
    a,
    alphas,
    orientation: str = ORIENTATION_EIGENVALUE,
) -> CoefficientSet:
    """Coefficients from verbatim connection-oriented matrices.

    The given matrices carry the positive entry of each connection at the
    adjacency position [i, k] (the convention the printed example matrices
    use); the orientation switch decides which equation that entry lands in.
    """
    _check_orientation(orientation)
    if len(alphas) != h.n_super:
        raise DimensionMismatchError(
            f"expected {h.n_super} alpha matrices, got {len(alphas)}"
        )
    a_eq = _from_connection_matrix(h.superstructure, a, orientation, "coefficients.a")
    al_eq = tuple(
        _from_connection_matrix(g, m, orientation, f"coefficients.alphas[{j + 1}]")
        for j, (g, m) in enumerate(zip(h.substructures, alphas))
    )
    return CoefficientSet(a_eq, al_eq)


# ---------------------------------------------------------------------------
# field parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FieldParams:
    """Everything defining the vector field; immutable and shareable."""

    hierarchy: HierarchySpec
    coeffs: CoefficientSet
    epsilon: float = 0.2
    phi: float = 1.0
    psi: float = 1.0
    omega: float = 1.0
    variant: str = VARIANT_STANDARD

    layout: BlockLayout = field(init=False, repr=False, compare=False)
    _rate_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    _rate_offset: np.ndarray = field(init=False, repr=False, compare=False)
    _rates: RateTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        problems = validate_hierarchy(self.hierarchy)
        if problems:
            raise ValueError("invalid hierarchy: " + "; ".join(str(p) for p in problems))
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}")
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not self.epsilon < EPSILON_HARD_BOUND:
            raise ValueError(
                f"epsilon must be < sqrt(2)/2 ~ {EPSILON_HARD_BOUND:.6f}, got {self.epsilon}"
            )
        if self.epsilon >= EPSILON_DISJOINT_BOUND:
            warnings.warn(
                f"epsilon = {self.epsilon} >= 0.5: bump supports may overlap",
                stacklevel=2,
            )
        for name, val in (("phi", self.phi), ("psi", self.psi), ("omega", self.omega)):
            if not val > 0.0:
                raise ValueError(f"{name} must be positive, got {val}")

        layout = BlockLayout.from_hierarchy(self.hierarchy)
        n = layout.n_super
        if self.coeffs.a.shape != (n, n):
            raise DimensionMismatchError(
                f"superstructure coefficient matrix must be {n}x{n}"
            )
        if len(self.coeffs.alphas) != n:
            raise DimensionMismatchError(f"expected {n} alpha matrices")
        for j, m in enumerate(self.coeffs.alphas):
            nj = layout.block_sizes[j]
            if m.shape != (nj, nj):
                raise DimensionMismatchError(
                    f"alpha matrix {j + 1} must be {nj}x{nj}, got {m.shape}"
                )
        self._check_sign_pattern()

        # Ungated rates are offset + matrix @ state**2. Each diagonal block is
        # the block's coefficient matrix minus all-ones (the -|block|^2 term),
        # scaled by phi (superstructure) or psi (substructures); the last row
        # gives 1 + |X|^2, from which the gate distances follow.
        d = layout.dimension
        matrix = np.zeros((d + 1, d))
        offset = np.empty(d + 1)
        blocks = [(layout.super_slice, self.coeffs.a, self.phi)]
        blocks += [(layout.sub_slice(j), self.coeffs.alphas[j], self.psi) for j in range(n)]
        for sl, coeffs, scale in blocks:
            matrix[sl, sl] = scale * (coeffs - 1.0)
            offset[sl] = scale
        matrix[d, layout.super_slice] = 1.0
        offset[d] = 1.0

        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "_rate_matrix", matrix)
        object.__setattr__(self, "_rate_offset", offset)
        object.__setattr__(self, "_rates", rate_table(self, np.arange(d)))

    def _check_sign_pattern(self):
        """Each matrix must realize its digraph in one of the two orientations:
        zero diagonal, positives exactly on the edge set (or its transpose),
        strictly negative elsewhere."""
        pairs = [("a", self.coeffs.a, self.hierarchy.superstructure)]
        pairs += [
            (f"alphas[{j + 1}]", m, g)
            for j, (m, g) in enumerate(zip(self.coeffs.alphas, self.hierarchy.substructures))
        ]
        for name, mat, graph in pairs:
            if np.diagonal(mat).any():
                raise CoefficientSignError(f"{name}: diagonal must be zero")
            pos = {(int(r), int(c)) for r, c in zip(*np.nonzero(mat > 0))}
            edges_eq = {(k, i) for (i, k) in graph.edges}
            if pos not in (edges_eq, set(graph.edges)):
                raise CoefficientSignError(
                    f"{name}: positive entries do not match the digraph in either orientation"
                )
            off = ~np.eye(mat.shape[0], dtype=bool)
            if np.any(mat[off] == 0.0):
                raise CoefficientSignError(f"{name}: off-diagonal entries must be nonzero")

    @property
    def timescales(self) -> tuple[float, float, float]:
        return (self.phi, self.psi, self.omega)


# ---------------------------------------------------------------------------
# field evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RateTable:
    """The folded rate matrix of a FieldParams restricted to live coordinates.

    The m live coordinates are taken in ascending flat order, so the
    superstructure ones come first and the substructure ones start at
    sub_start. matrix is (m+1) x m: the live rate rows, then the gate row
    that gives 1 + |X|^2. gate_pick (m x g) holds 2 at the row of X_j for
    each of the g gated blocks, the blocks with a live substructure
    coordinate; sub_gate gives the gate of each live substructure coordinate.
    A backward table negates the rate rows and omega, not the gate row.
    """

    matrix: np.ndarray
    offset: np.ndarray
    gate_pick: np.ndarray
    sub_start: int
    sub_gate: np.ndarray
    epsilon: float
    omega: float
    bounded: bool


def rate_table(p: FieldParams, live, backward: bool = False) -> RateTable:
    """The rate table of p on the coordinates live (ascending flat indices),
    for the time-reversed field if backward.

    Masked coordinates are exact zeros, so dropping their rows and columns
    changes no live rate. A gated block whose X_j is masked has gate
    distance 1 + |X|^2 >= 1 > epsilon, so its gate is exactly 0.
    """
    layout = p.layout
    n = layout.n_super
    live = np.asarray(live, dtype=np.intp)
    sub_start = int(np.searchsorted(live, n))
    blocks = layout.sub_block_index()[live[sub_start:] - n]
    gates = np.flatnonzero(np.bincount(blocks, minlength=n))
    rows = np.append(live, layout.dimension)
    matrix = p._rate_matrix.take(rows, axis=0).take(live, axis=1)
    offset = p._rate_offset[rows]
    omega = p.omega
    if backward:
        matrix[:-1] *= -1.0
        offset[:-1] *= -1.0
        omega = -omega
    gate_pick = 2.0 * (live[:, None] == gates[None, :])
    return RateTable(
        matrix, offset, gate_pick, sub_start, np.searchsorted(gates, blocks),
        p.epsilon, omega, p.variant == VARIANT_BOUNDED,
    )


def growth_rates(v: np.ndarray, t: RateTable) -> np.ndarray:
    """Per-coordinate growth rate r with dstate/dt = state * r, on the live
    coordinates of t (v holds their values).

    Superstructure entry j:   phi * (1 - |X|^2 + sum_k a[j,k] X_k^2)
    Substructure entry (j,i): psi * G^j_i * b_j - omega * (1 - b_j) * g
    with G^j_i = 1 - |x^j|^2 + sum_k alpha^j[i,k] (x^j_k)^2, b_j the gate of
    block j, and g = 1 (standard) or 1 - x^j_i (bounded). A backward table
    gives the negated rates, those of the time-reversed field.

    Hot path: no input validation, no errstate (callers own both).
    """
    r = t.matrix @ (v * v)
    r += t.offset
    rates = r[:-1]
    if t.sub_gate.size:
        bs = _bump_array(r[-1] - v @ t.gate_pick, t.epsilon)[t.sub_gate]
        sub = rates[t.sub_start:]
        sub *= bs
        if t.bounded:
            sub -= t.omega * (1.0 - bs) * (1.0 - v[t.sub_start:])
        else:
            sub -= t.omega * (1.0 - bs)
    return rates


def _check_state(state, p: FieldParams, require_finite: bool = True) -> np.ndarray:
    state = np.asarray(state, dtype=float)
    if state.shape != (p.layout.dimension,):
        raise DimensionMismatchError(
            f"state has shape {state.shape}, expected ({p.layout.dimension},)"
        )
    if require_finite and not np.isfinite(state).all():
        raise NonFiniteError("state contains non-finite entries")
    return state


def eval_field(state, p: FieldParams) -> np.ndarray:
    """Time derivative of the full system at a state (original chart)."""
    state = _check_state(state, p)
    with np.errstate(under="ignore"):
        return state * growth_rates(state, p._rates)


def eval_field_log(u, mask, p: FieldParams) -> np.ndarray:
    """Log-chart derivative: du/dt for unmasked coordinates (u = log value),
    exactly 0 for masked ones. Masked coordinates contribute nothing to any
    norm or coupling sum; unmasked values may be as small as exp(-745) and
    still produce a finite growth rate."""
    u = np.asarray(u, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if u.shape != (p.layout.dimension,) or mask.shape != u.shape:
        raise DimensionMismatchError("log-state/mask shape mismatch")
    if not np.isfinite(u[~mask]).all():
        raise NonFiniteError("log-state contains non-finite unmasked entries")
    live = np.flatnonzero(~mask)
    out = np.zeros(u.shape)
    with np.errstate(under="ignore"):
        v = np.exp(np.minimum(u[live], _EXP_CLAMP))
        out[live] = growth_rates(v, rate_table(p, live))
    return out


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
    layout = p.layout
    d = layout.dimension
    out = [Equilibrium("origin", None, None, np.zeros(d))]
    for j in range(layout.n_super):
        st = np.zeros(d)
        st[j] = 1.0
        out.append(Equilibrium("super", j, None, st))
    for j in range(layout.n_super):
        for i in range(layout.block_sizes[j]):
            st = np.zeros(d)
            st[j] = 1.0
            st[layout.sub_offset(j) + i] = 1.0
            out.append(Equilibrium("sub", j, i, st))
    return out


# ---------------------------------------------------------------------------
# analytic Jacobian
# ---------------------------------------------------------------------------

def jacobian(state, p: FieldParams) -> np.ndarray:
    """Analytic Jacobian of eval_field, including the chain rule through the
    bump gates. Block lower-triangular: X never depends on the x blocks."""
    state = _check_state(state, p)
    layout = p.layout
    n = layout.n_super
    d = layout.dimension
    a = p.coeffs.a
    X = state[:n]
    sx = X * X
    norm_x = float(sx.sum())

    J = np.zeros((d, d))

    # superstructure rows
    f_super = 1.0 - norm_x + a @ sx
    J[:n, :n] = X[:, None] * (2.0 * X[None, :] * (a - 1.0))
    J[:n, :n] += np.diag(f_super)
    J[:n, :n] *= p.phi

    z = gate_distances(X)
    b = bump(z, p.epsilon)
    db = bump_derivative(z, p.epsilon)
    # d z_j / d X_m = 2 X_m - 2 delta_{jm}
    dz = 2.0 * np.broadcast_to(X, (n, n)).copy()
    dz[np.diag_indices(n)] -= 2.0

    for j in range(n):
        sl = layout.sub_slice(j)
        x = state[sl]
        alpha = p.coeffs.alphas[j]
        sxx = x * x
        norm_j = float(sxx.sum())
        g_vec = 1.0 - norm_j + alpha @ sxx
        if p.variant == VARIANT_STANDARD:
            gate_decay = np.ones_like(x)
            dgate = 0.0
        else:
            gate_decay = 1.0 - x
            dgate = -1.0
        rate = p.psi * g_vec * b[j] - p.omega * (1.0 - b[j]) * gate_decay

        blk = x[:, None] * (p.psi * b[j] * 2.0 * x[None, :] * (alpha - 1.0))
        blk += np.diag(rate)
        if p.variant == VARIANT_BOUNDED:
            blk += np.diag(-p.omega * (1.0 - b[j]) * dgate * x)
        J[sl, sl] = blk

        # dependence on X through the gate
        sens = x * (p.psi * g_vec + p.omega * gate_decay)  # d(rate*x)/d b
        J[sl, :n] = sens[:, None] * (db[j] * dz[j])[None, :]
    return J
