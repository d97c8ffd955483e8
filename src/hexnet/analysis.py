"""Verification that the synthesized system realizes its hierarchy.

Covers equilibrium residuals, the eigenvalue/edge correspondence at every
designed equilibrium, symbolic itineraries extracted from trajectories,
and the constructive witnesses for the excitable top-level connections
(forward convergence plus backward-divergence evidence).

The two structural checks read the growth rates of each designed
equilibrium and build no Jacobian: the field is each coordinate times its
growth rate, so a zero coordinate's transverse eigenvalue is its rate.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import NotAnEdgeError
from .hierarchy import Digraph, out_neighbors
from .integrator import (
    IntegratorConfig,
    TERMINATION_DIVERGED,
    Trajectory,
    integrate,
)
from .vectorfield import (
    VARIANT_BOUNDED,
    FieldParams,
    bump_j,
    designed_equilibria,
    gate_distances,
    growth_rates,
    rate_table,
)

__all__ = [
    "ResidualReport",
    "EquilibriumEigenCheck",
    "CorrespondenceReport",
    "Visit",
    "ItineraryReport",
    "ItineraryCheck",
    "WitnessSpec",
    "WitnessResult",
    "RealizationReport",
    "verify_equilibria",
    "check_edge_eigen_correspondence",
    "run_bounds",
    "extract_itinerary",
    "check_itinerary_against",
    "witness_initial_condition",
    "run_witness",
    "run_witnesses",
    "verify_realization",
]

LEVEL_SUPER = "super"
LEVEL_SUB = "sub"

DEFAULT_NEAR_TOL = 0.1
DEFAULT_MIN_DWELL = 1.0
DEFAULT_WITNESS_DELTAS = (1e-1, 1e-2, 1e-3)
WITNESS_CONVERGENCE_TOL = 1e-6


# ---------------------------------------------------------------------------
# equilibrium residuals
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ResidualReport:
    residuals: list[tuple[str, float]]
    max_residual: float
    tol: float
    passed: bool


def _equilibrium_rates(p: FieldParams):
    """Each designed equilibrium with its growth rates.

    The field is each coordinate times its growth rate, so at a designed
    equilibrium every zero coordinate m has the Jacobian row r_m e_m: its
    transverse eigenvalue is its growth rate r_m.
    """
    for eq in designed_equilibria(p):
        yield eq, growth_rates(eq.state, p._rates)


def verify_equilibria(p: FieldParams, tol: float = 1e-12) -> ResidualReport:
    """Sup-norm field residual max |state * rates| at every designed
    equilibrium; a NaN residual makes max_residual NaN and the check fail."""
    rows = [(eq.name, float(np.abs(eq.state * rates).max())) for eq, rates in _equilibrium_rates(p)]
    worst = float(np.max([r for _, r in rows]))
    return ResidualReport(rows, worst, tol, worst <= tol)


# ---------------------------------------------------------------------------
# eigenvalue/edge correspondence
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class EquilibriumEigenCheck:
    name: str
    expected: frozenset[int]  # 0-based out-neighbor directions
    observed: frozenset[int]
    passed: bool


@dataclass(eq=False)
class CorrespondenceReport:
    checks: list[EquilibriumEigenCheck]
    passed: bool


def check_edge_eigen_correspondence(p: FieldParams) -> CorrespondenceReport:
    """At every Super(j) and Sub(j, i): the directions with positive transverse
    eigenvalue, read as the growth rates of the zero coordinates of that
    level, must be exactly the prescribed out-neighbors."""
    layout = p.layout
    gamma = p.hierarchy.superstructure
    checks = []
    for eq, rates in _equilibrium_rates(p):
        if eq.kind == "origin":
            continue
        if eq.kind == "super":
            expected = frozenset(out_neighbors(gamma, eq.j))
            level, unit = rates[layout.super_slice], eq.j
        else:
            expected = frozenset(out_neighbors(p.hierarchy.substructures[eq.j], eq.i))
            level, unit = rates[layout.sub_slice(eq.j)], eq.i
        observed = frozenset(np.flatnonzero(level > 0.0).tolist()) - {unit}
        checks.append(EquilibriumEigenCheck(eq.name, expected, observed, expected == observed))
    return CorrespondenceReport(checks, all(c.passed for c in checks))


# ---------------------------------------------------------------------------
# itineraries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Visit:
    vertex: int  # 0-based
    t_enter: float
    t_exit: float
    window: int | None = None

    @property
    def dwell(self) -> float:
        return self.t_exit - self.t_enter


@dataclass(eq=False)
class ItineraryReport:
    level: str  # "super" | "sub"
    j: int | None
    visits: list[Visit]
    active_windows: list[tuple[float, float]] | None
    near_tol: float
    min_dwell: float

    def labels(self) -> list[int]:
        """Visit sequence with 1-based vertex labels."""
        return [v.vertex + 1 for v in self.visits]


def _vertex_stream(block: np.ndarray, near_tol: float) -> np.ndarray:
    """Per-sample visited vertex (or -1): the dominant coordinate, provided it
    exceeds 1 - near_tol.

    Deliberately weaker than a sup-norm ball test: trajectories enter the
    saturation phase of a vertex while the previously dominant coordinate is
    still of order near_tol, and the figures' shading reads exactly this way.
    """
    am = block.argmax(axis=1)
    top = block[np.arange(block.shape[0]), am]
    return np.where(top > 1.0 - near_tol, am, -1)


def run_bounds(labels) -> tuple[np.ndarray, np.ndarray]:
    """Start and end (exclusive) indices of the maximal runs of equal
    consecutive entries of a 1-d array, in order."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    cuts = np.flatnonzero(np.diff(labels)) + 1
    return np.concatenate(([0], cuts)), np.concatenate((cuts, [n]))


def _active_runs(z: np.ndarray, epsilon: float):
    """Where a gate is open (bump(z) > 0) along the samples z of its gate
    distance (a column of gate_distances), and the start and end
    (exclusive) sample indices of its maximal open runs."""
    active = z < epsilon
    starts, ends = run_bounds(active)
    on = active[starts]
    return active, starts[on], ends[on]


def _runs_to_visits(
    vert: np.ndarray,
    times: np.ndarray,
    min_dwell: float,
    window_starts: np.ndarray | None,
) -> list[Visit]:
    """Visits from the runs of a vertex stream (-1 = no vertex) that last at
    least min_dwell; a visit's window is the last window starting at or
    before it."""
    starts, ends = run_bounds(vert)
    t0 = times[starts]
    t1 = times[ends - 1]
    keep = (vert[starts] >= 0) & (t1 - t0 >= min_dwell)
    starts = starts[keep]
    if window_starts is None:
        windows = [None] * starts.shape[0]
    else:
        windows = (np.searchsorted(window_starts, starts, side="right") - 1).tolist()
    return [
        Visit(v, a, b, win)
        for v, a, b, win in zip(
            vert[starts].tolist(), t0[keep].tolist(), t1[keep].tolist(), windows
        )
    ]


def extract_itinerary(
    traj: Trajectory,
    p: FieldParams,
    level: str,
    j: int | None = None,
    near_tol: float = DEFAULT_NEAR_TOL,
    min_dwell: float = DEFAULT_MIN_DWELL,
) -> ItineraryReport:
    """Symbolic visit sequence of the superstructure or of substructure j.

    For a substructure, only samples inside its active windows (gate value
    positive) are considered, so a visit never spans a window boundary.
    """
    if not 0.0 < near_tol < 0.5:
        raise ValueError("near_tol must lie in (0, 0.5) for visit uniqueness")
    layout = p.layout
    X = traj.states[:, layout.super_slice]
    if level == LEVEL_SUPER:
        vert = _vertex_stream(X, near_tol)
        visits = _runs_to_visits(vert, traj.times, min_dwell, None)
        return ItineraryReport(LEVEL_SUPER, None, visits, None, near_tol, min_dwell)

    if level != LEVEL_SUB or j is None:
        raise ValueError("level must be 'super' or 'sub' (with block index j)")
    active, starts, ends = _active_runs(gate_distances(X)[:, j], p.epsilon)
    windows = list(zip(traj.times[starts].tolist(), traj.times[ends - 1].tolist()))
    block = traj.states[:, layout.sub_slice(j)]
    vert = _vertex_stream(block, near_tol)
    vert = np.where(active, vert, -1)
    visits = _runs_to_visits(vert, traj.times, min_dwell, starts)
    return ItineraryReport(LEVEL_SUB, j, visits, windows, near_tol, min_dwell)


@dataclass(eq=False)
class ItineraryCheck:
    passed: bool
    violations: list[tuple[int, int, float]]  # (from, to, transition time), 0-based
    n_pairs: int


def check_itinerary_against(report: ItineraryReport, d: Digraph) -> ItineraryCheck:
    """Every consecutive visit pair must be an edge of d.

    For substructure reports, pairs are only formed inside one active window;
    across a window boundary the block resumes the vertex it was paused at,
    which is a continuation rather than a transition.
    """
    violations = []
    n_pairs = 0
    for prev, nxt in zip(report.visits, report.visits[1:]):
        if prev.window is not None and prev.window != nxt.window:
            continue
        n_pairs += 1
        if (prev.vertex, nxt.vertex) not in d.edges:
            violations.append((prev.vertex, nxt.vertex, nxt.t_enter))
    return ItineraryCheck(not violations, violations, n_pairs)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessSpec:
    """An excitable-connection witness for superstructure edge (j, k)."""

    j: int
    k: int
    delta: float

    @property
    def eta(self) -> float:
        """Offset placed on the X_j deficit, on X_k and on x^k_1."""
        return self.delta / 2.0


def witness_initial_condition(w: WitnessSpec, p: FieldParams) -> np.ndarray:
    """The constructive initial condition within delta of Sub(j, 1).

    Lives in the invariant subspace where only blocks j and k are populated:
    X_j = 1 - eta, X_k = eta, x^j = e_1, x^k_1 = eta, everything else exactly
    zero, with eta = delta / 2.
    """
    if not w.delta > 0.0:
        raise ValueError("delta must be positive")
    if w.delta >= 1.0:
        raise ValueError("delta must be below 1 for a meaningful witness")
    if (w.j, w.k) not in p.hierarchy.superstructure.edges:
        raise NotAnEdgeError(
            f"({w.j + 1},{w.k + 1}) is not an edge of the superstructure"
        )
    layout = p.layout
    state = np.zeros(layout.dimension)
    eta = w.eta
    state[w.j] = 1.0 - eta
    state[w.k] = eta
    state[layout.sub_offset(w.j)] = 1.0
    state[layout.sub_offset(w.k)] = eta
    return state


@dataclass(eq=False)
class WitnessResult:
    spec: WitnessSpec
    variant: str
    forward_converged: bool
    forward_distance: float
    forward_time: float
    backward_diverged: bool
    backward_time: float
    backward_coordinate: int | None = None
    backward_coordinate_name: str | None = None
    backward_coordinate_gate: float | None = None  # bump of its block at the end
    backward_inactive_gap: float | None = None  # bounded: max |x - 1| over live sub coords

    @property
    def passed(self) -> bool:
        if not self.forward_converged:
            return False
        if self.variant == VARIANT_BOUNDED:
            return not self.backward_diverged and (
                self.backward_inactive_gap is not None
                and self.backward_inactive_gap <= 1e-3
            )
        return self.backward_diverged


def _witness_problem(w: WitnessSpec, p_run: FieldParams):
    """Initial state, forward target and live substructure mask of w's runs."""
    s0 = witness_initial_condition(w, p_run)
    layout = p_run.layout
    target = np.zeros(layout.dimension)
    target[w.k] = 1.0
    target[layout.sub_offset(w.k)] = 1.0
    if p_run.variant == VARIANT_BOUNDED:
        # substructure coordinates at exactly 1 are invariant under the
        # bounded decay, so the connection targets the {0,1} copy of the
        # destination network with those coordinates still at 1
        pinned = s0 == 1.0
        pinned[: layout.n_super] = False
        target[pinned] = 1.0
    sub_live = s0 > 0.0
    sub_live[: layout.n_super] = False
    return s0, target, sub_live


def _with_unit_timescales(p: FieldParams) -> FieldParams:
    return replace(p, phi=1.0, psi=1.0, omega=1.0)


def run_witness(
    w: WitnessSpec,
    p: FieldParams,
    unit_timescales: bool = True,
    rtol: float = 1e-10,
    atol: float = 1e-10,
    max_time: float = 400.0,
) -> WitnessResult:
    """Forward run to the target equilibrium plus a backward run.

    Witness dynamics uses unit timescales by default; convergence needs no
    timescale separation and the realization statement is scale-neutral.
    Each direction is one integrate run of at most max_time. Forward: it
    stops once the sup-distance to Sub(k, 1) is below 1e-7 (reported
    against the 1e-6 criterion). Backward: the standard variant must reach
    the divergence bound in a gated-off substructure coordinate; the
    bounded variant stays in [0, 1] and stops once its live substructure
    coordinates are within 1e-4 of 1.
    """
    if not 0.0 < max_time < np.inf:
        raise ValueError(f"max_time must be positive and finite, got {max_time!r}")
    p_run = _with_unit_timescales(p) if unit_timescales else p
    s0, target, sub_live = _witness_problem(w, p_run)
    layout = p_run.layout
    cfg = IntegratorConfig(t_end=max_time, rtol=rtol, atol=atol, sample_dt=max_time)

    def near_target(state):
        return float(np.abs(state - target).max()) <= 0.1 * WITNESS_CONVERGENCE_TOL

    def near_unit(state):
        return float(np.abs(state[sub_live] - 1.0).max()) <= 1e-4

    ftraj = integrate(s0, p_run, cfg, until=near_target)
    fdist = float(np.abs(ftraj.last_state - target).max())
    btraj = integrate(
        s0, p_run, replace(cfg, direction="backward"),
        until=near_unit if p_run.variant == VARIANT_BOUNDED else None,
    )
    bstate = btraj.last_state
    diverged = btraj.termination == TERMINATION_DIVERGED
    coord = btraj.diverged_coordinate
    name = gate = None
    if coord is not None:
        name = layout.coord_names()[coord]
        level, j, _ = layout.coord_level(coord)
        if level == LEVEL_SUB:
            gate = bump_j(bstate[layout.super_slice], j, p_run.epsilon)
    gap = float(np.abs(bstate[sub_live] - 1.0).max()) if sub_live.any() else None

    return WitnessResult(
        spec=w,
        variant=p_run.variant,
        forward_converged=fdist <= WITNESS_CONVERGENCE_TOL,
        forward_distance=fdist,
        forward_time=ftraj.last_time,
        backward_diverged=diverged,
        backward_time=btraj.last_time,
        backward_coordinate=coord,
        backward_coordinate_name=name,
        backward_coordinate_gate=gate,
        backward_inactive_gap=gap,
    )


def run_witnesses(specs, p: FieldParams) -> list[WitnessResult]:
    """run_witness(w, p) for each spec w, integrating each distinct run once.

    A run reads only its live coordinates, those nonzero at the start. Two
    specs share a run when, on their live coordinates, the forward rate
    table, the log initial state, the forward target and the live
    substructure mask are equal byte for byte. The runs are then bitwise
    the same, so each spec takes its group's result with the backward
    coordinate moved through its own live set; the gate of that coordinate
    is equal too, because the table fixes which live X gates it. The
    grouping lasts for this one call. Every spec is checked before any run.
    """
    p_run = _with_unit_timescales(p)
    plans = []
    for w in specs:
        s0, target, sub_live = _witness_problem(w, p_run)
        live = np.flatnonzero(s0)
        table = rate_table(p_run, live)
        key = tuple(np.asarray(getattr(table, f.name)).tobytes() for f in fields(table))
        key += (np.log(s0[live]).tobytes(), target[live].tobytes(), sub_live[live].tobytes())
        plans.append((w, live, key))

    names = p.layout.coord_names()
    runs: dict[tuple, tuple[np.ndarray, WitnessResult]] = {}
    results = []
    for w, live, key in plans:
        if key not in runs:
            runs[key] = (live, run_witness(w, p))
        run_live, res = runs[key]
        coord = res.backward_coordinate
        if coord is not None:
            coord = int(live[np.searchsorted(run_live, coord)])
        results.append(replace(
            res, spec=w, backward_coordinate=coord,
            backward_coordinate_name=None if coord is None else names[coord],
        ))
    return results


# ---------------------------------------------------------------------------
# full realization check
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ItineraryOutcome:
    scenario_index: int
    level: str
    j: int | None
    report: ItineraryReport
    check: ItineraryCheck


@dataclass(eq=False)
class RealizationReport:
    residuals: ResidualReport
    eigen: CorrespondenceReport
    itineraries: list[ItineraryOutcome]
    witnesses: list[WitnessResult]

    @property
    def passed(self) -> bool:
        return (
            self.residuals.passed
            and self.eigen.passed
            and all(o.check.passed for o in self.itineraries)
            and all(w.passed for w in self.witnesses)
        )


def verify_realization(
    p: FieldParams,
    scenarios: list[tuple[np.ndarray, IntegratorConfig]],
    near_tol: float = DEFAULT_NEAR_TOL,
    min_dwell: float = DEFAULT_MIN_DWELL,
    deltas: tuple[float, ...] = DEFAULT_WITNESS_DELTAS,
    residual_tol: float = 1e-12,
) -> RealizationReport:
    """Aggregate residual, eigenvalue, itinerary and witness verification."""
    residuals = verify_equilibria(p, residual_tol)
    eigen = check_edge_eigen_correspondence(p)

    itineraries = []
    gamma = p.hierarchy.superstructure
    for idx, (s0, cfg) in enumerate(scenarios):
        traj = integrate(s0, p, cfg)
        rep = extract_itinerary(traj, p, LEVEL_SUPER, near_tol=near_tol, min_dwell=min_dwell)
        itineraries.append(
            ItineraryOutcome(idx, LEVEL_SUPER, None, rep, check_itinerary_against(rep, gamma))
        )
        for j, g in enumerate(p.hierarchy.substructures):
            rep = extract_itinerary(
                traj, p, LEVEL_SUB, j=j, near_tol=near_tol, min_dwell=min_dwell
            )
            itineraries.append(
                ItineraryOutcome(idx, LEVEL_SUB, j, rep, check_itinerary_against(rep, g))
            )

    witnesses = run_witnesses(
        [WitnessSpec(j, k, delta) for j, k in sorted(gamma.edges) for delta in deltas], p
    )
    return RealizationReport(residuals, eigen, itineraries, witnesses)
