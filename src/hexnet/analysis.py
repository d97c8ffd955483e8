"""Verification that the synthesized system realizes its hierarchy.

Covers equilibrium residuals, the eigenvalue/edge correspondence at every
designed equilibrium, symbolic itineraries extracted from trajectories,
and the constructive witnesses for the excitable top-level connections
(forward convergence plus backward-divergence evidence).

The two structural checks read the growth rates of each designed
equilibrium and build no Jacobian: the field is each coordinate times its
growth rate, so a zero coordinate's transverse eigenvalue is its rate.

A trajectory's itinerary is read in one pass (extract_itinerary): the
superstructure's visits, then each block's visits inside its gate's active
windows. simulate, verify and the SVG shading all read that one list, and
_active_runs is the only place that decides where a gate is active.

The witness runs depend on the field alone, not on each other or on a
scenario's trajectory, and a run's forward and backward halves are
independent too. So each half of each distinct run is one integrate job of
a command's one workers.deal call, which spreads the jobs over up to one
process per available CPU; each result is read from its two trajectories
after that call. The results are bitwise those of a serial run.

verify_realization integrates its one scenario level by level. The field is
a skew product: X's rates read only X, and block j's read only x^j and,
through its gate, X. So X alone, with every block masked, follows the
coupled run's X, and each "X + block j" run follows its (X, x^j); the block
runs are independent of each other. One workers.deal call runs them with
the witness jobs, heaviest first.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from . import workers
from .errors import NotAnEdgeError
from .hierarchy import Digraph, out_neighbors
from .integrator import (
    IntegratorConfig,
    TERMINATION_COMPLETED,
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
    "check_analysis_value",
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
WITNESS_TOL = 1e-10  # rtol and atol of every witness run
WITNESS_MAX_TIME = 400.0  # model-time budget of each witness run, per direction
# rows per step of the passes over a trajectory's samples (_row_chunks): a
# step's temporaries hold at most this many rows of one level
_CHUNK_ROWS = 4096

_ANALYSIS_VALUE_RULES = {  # name: (test, rule)
    "near_tol": (lambda v: 0.0 < v < 0.5, "must lie in (0, 0.5)"),
    "min_dwell": (lambda v: v >= 0.0, "must be nonnegative"),
    "witness_deltas": (lambda v: all(0.0 < d < 1.0 for d in v), "must each lie in (0, 1)"),
}


def check_analysis_value(name: str, value) -> None:
    """Raise ValueError unless value is admissible as the analysis option
    name (near_tol, min_dwell, witness_deltas). extract_itinerary,
    witness_initial_condition and the scenario loader all use it."""
    holds, rule = _ANALYSIS_VALUE_RULES[name]
    if not holds(value):
        raise ValueError(f"{name} {rule}, got {value!r}")


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
    h = p.hierarchy
    checks = []
    for eq, rates in _equilibrium_rates(p):
        if eq.kind == "origin":
            continue
        if eq.kind == "super":
            expected = frozenset(out_neighbors(h.superstructure, eq.j))
            level, unit = rates[h.super_slice], eq.j
        else:
            expected = frozenset(out_neighbors(h.substructures[eq.j], eq.i))
            level, unit = rates[h.sub_slice(eq.j)], eq.i
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


def _row_chunks(n: int) -> list[slice]:
    """Slices of _CHUNK_ROWS consecutive rows that cover n rows, in order."""
    return [slice(a, a + _CHUNK_ROWS) for a in range(0, n, _CHUNK_ROWS)]


def _vertex_stream(block: np.ndarray, near_tol: float, active=None) -> np.ndarray:
    """Per-sample visited vertex (or -1): the dominant coordinate (the first
    on ties, as argmax), provided it exceeds 1 - near_tol and, if an active
    mask is given, the sample is active. The stream has the smallest signed
    integer type that holds every vertex, and is built _CHUNK_ROWS rows at a
    time.

    Deliberately weaker than a sup-norm ball test: trajectories enter the
    saturation phase of a vertex while the previously dominant coordinate is
    still of order near_tol, and the figures' shading reads exactly this way.
    """
    vert = np.empty(block.shape[0], dtype=np.min_scalar_type(-block.shape[1]))
    for rows in _row_chunks(block.shape[0]):
        b = block[rows]
        am = b.argmax(axis=1)
        keep = b[np.arange(b.shape[0]), am] > 1.0 - near_tol
        if active is not None:
            keep &= active[rows]
        vert[rows] = np.where(keep, am, -1)
    return vert


def run_bounds(labels) -> tuple[np.ndarray, np.ndarray]:
    """Start and end (exclusive) indices of the maximal runs of equal
    consecutive entries of a 1-d array, in order."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    cuts = np.flatnonzero(np.diff(labels)) + 1
    return np.concatenate(([0], cuts)), np.concatenate((cuts, [n]))


def _active_runs(X: np.ndarray, epsilon: float):
    """For each block in order: where its gate is active along the
    superstructure samples X, and the start and end (exclusive) sample
    indices of its maximal active runs.

    Active means gate distance z < epsilon (gate_distances), the support of
    bump, not bump(z) > 0: just below epsilon, where w > 700, bump is
    exactly 0 and the sample is still active. ROADMAP item 4 owns any
    change to this rule.

    |X|^2 is summed once, _CHUNK_ROWS rows at a time, as gate_distances sums
    it (numpy reduces each row alike, pairwise from 8 terms); each block's
    distances are then formed in chunks and only its mask is kept.
    """
    n = X.shape[0]
    sq = np.empty(n)
    for rows in _row_chunks(n):
        sq[rows] = (X[rows] * X[rows]).sum(axis=-1)
    for j in range(X.shape[1]):
        active = np.empty(n, dtype=bool)
        for rows in _row_chunks(n):
            active[rows] = gate_distances(X[rows, j], sq[rows]) < epsilon
        starts, ends = run_bounds(active)
        on = active[starts]
        yield active, starts[on], ends[on]


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
    near_tol: float = DEFAULT_NEAR_TOL,
    min_dwell: float = DEFAULT_MIN_DWELL,
) -> list[ItineraryReport]:
    """The symbolic itinerary of traj at both levels: the superstructure's
    report, then one report per substructure block in block order.

    A block's visits are read only inside its active windows (gate distance
    below epsilon, see _active_runs), so a visit never spans a window
    boundary. Beside the trajectory, the passes keep a few bytes per sample:
    |X|^2 (8), one block's active mask and its vertex stream (1 each, for
    fewer than 128 vertices), and run_bounds' differences (1); every other
    temporary holds at most _CHUNK_ROWS rows.
    """
    check_analysis_value("near_tol", near_tol)
    check_analysis_value("min_dwell", min_dwell)
    h = p.hierarchy
    times = traj.times
    X = traj.states[:, h.super_slice]
    visits = _runs_to_visits(_vertex_stream(X, near_tol), times, min_dwell, None)
    reports = [ItineraryReport(LEVEL_SUPER, None, visits, None, near_tol, min_dwell)]
    for j, (active, starts, ends) in enumerate(_active_runs(X, p.epsilon)):
        windows = list(zip(times[starts].tolist(), times[ends - 1].tolist()))
        vert = _vertex_stream(traj.states[:, h.sub_slice(j)], near_tol, active)
        visits = _runs_to_visits(vert, times, min_dwell, starts)
        reports.append(ItineraryReport(LEVEL_SUB, j, visits, windows, near_tol, min_dwell))
    return reports


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
    check_analysis_value("witness_deltas", (w.delta,))
    if (w.j, w.k) not in p.hierarchy.superstructure.edges:
        raise NotAnEdgeError(
            f"({w.j + 1},{w.k + 1}) is not an edge of the superstructure"
        )
    h = p.hierarchy
    state = np.zeros(h.dimension)
    eta = w.eta
    state[w.j] = 1.0 - eta
    state[w.k] = eta
    state[h.sub_offset(w.j)] = 1.0
    state[h.sub_offset(w.k)] = eta
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


def _roles(w: WitnessSpec, h) -> np.ndarray:
    """The live coordinates of w's runs by role: X_j, X_k, x^j_1, x^k_1."""
    return np.array([w.j, w.k, h.sub_offset(w.j), h.sub_offset(w.k)])


def _witness_problem(w: WitnessSpec, p_run: FieldParams):
    """Initial state, forward target, live substructure mask and coordinate
    order (_roles) of w's runs."""
    s0 = witness_initial_condition(w, p_run)
    h = p_run.hierarchy
    target = np.zeros(h.dimension)
    target[w.k] = 1.0
    target[h.sub_offset(w.k)] = 1.0
    if p_run.variant == VARIANT_BOUNDED:
        # substructure coordinates at exactly 1 are invariant under the
        # bounded decay, so the connection targets the {0,1} copy of the
        # destination network with those coordinates still at 1
        pinned = s0 == 1.0
        pinned[: h.n_super] = False
        target[pinned] = 1.0
    sub_live = s0 > 0.0
    sub_live[: h.n_super] = False
    return s0, target, sub_live, _roles(w, h)


def _with_unit_timescales(p: FieldParams) -> FieldParams:
    if p.phi == p.psi == p.omega == 1.0:
        return p
    return replace(p, phi=1.0, psi=1.0, omega=1.0)


def run_witness(w: WitnessSpec, p: FieldParams) -> WitnessResult:
    """run_witnesses([w], p)[0]: w's forward run to the target equilibrium
    plus its backward run."""
    return run_witnesses([w], p)[0]


def _witness_run(w: WitnessSpec, p_run: FieldParams):
    """The two integrate jobs of w's run, forward then backward, and the
    function that reads w's WitnessResult from their two trajectories.

    Witness dynamics uses unit timescales (p_run); convergence needs no
    timescale separation and the realization statement is scale-neutral.
    Each direction is one integrate run of at most WITNESS_MAX_TIME, at
    rtol = atol = WITNESS_TOL, on the four live coordinates in role order
    (X_j, X_k, x^j_1, x^k_1), so that an edge j -> k runs as any other edge
    whose subsystem has the same coefficients, whichever of j and k is
    larger. Forward: it stops once the sup-distance to Sub(k, 1) is below
    1e-7 (reported against the 1e-6 criterion). Backward: the standard
    variant must reach the divergence bound in a gated-off substructure
    coordinate; the bounded variant stays in [0, 1] and stops once its
    live substructure coordinates are within 1e-4 of 1. read leaves
    backward_coordinate_name to _witness_plans, which names the coordinate
    of each spec that shares the run.
    """
    s0, target, sub_live, order = _witness_problem(w, p_run)
    h = p_run.hierarchy
    cfg = IntegratorConfig(t_end=WITNESS_MAX_TIME, rtol=WITNESS_TOL, atol=WITNESS_TOL,
                           sample_dt=WITNESS_MAX_TIME)

    def near_target(state):
        return float(np.abs(state - target).max()) <= 0.1 * WITNESS_CONVERGENCE_TOL

    def near_unit(state):
        return float(np.abs(state[sub_live] - 1.0).max()) <= 1e-4

    back_until = near_unit if p_run.variant == VARIANT_BOUNDED else None
    jobs = [
        (partial(integrate, until=near_target, order=order), s0, p_run, cfg),
        (partial(integrate, until=back_until, order=order), s0, p_run,
         replace(cfg, direction="backward")),
    ]

    def read(ftraj: Trajectory, btraj: Trajectory) -> WitnessResult:
        fdist = float(np.abs(ftraj.last_state - target).max())
        bstate = btraj.last_state
        coord = btraj.diverged_coordinate
        gate = None
        if coord is not None and coord >= h.n_super:  # a substructure coordinate: its block's gate
            j = int(h.sub_block_index()[coord - h.n_super])
            gate = bump_j(bstate[h.super_slice], j, p_run.epsilon)
        gap = float(np.abs(bstate[sub_live] - 1.0).max())  # x^j_1 = 1 and x^k_1 = eta are live
        return WitnessResult(
            spec=w,
            variant=p_run.variant,
            forward_converged=fdist <= WITNESS_CONVERGENCE_TOL,
            forward_distance=fdist,
            forward_time=ftraj.last_time,
            backward_diverged=btraj.termination == TERMINATION_DIVERGED,
            backward_time=btraj.last_time,
            backward_coordinate=coord,
            backward_coordinate_gate=gate,
            backward_inactive_gap=gap,
        )

    return jobs, read


def _witness_plans(specs, p: FieldParams):
    """The jobs of the distinct runs of specs, two integrate jobs each
    (_witness_run), and the function that reads every spec's result from
    those jobs' values; checks every spec.

    A run is keyed on delta and the rate table of its _roles: the log
    initial state, the target and the live mask on them follow from delta
    and table.bounded, so specs of equal keys run bitwise the same.
    """
    p_run = _with_unit_timescales(p)
    h = p_run.hierarchy
    index: dict[tuple, int] = {}
    jobs, readers, runs = [], [], []
    for w in specs:
        witness_initial_condition(w, p_run)  # checks w
        table = rate_table(p_run, _roles(w, h))
        key = (w.delta, *(np.asarray(getattr(table, f.name)).tobytes() for f in fields(table)))
        if key not in index:
            index[key] = len(readers)
            run_jobs, read = _witness_run(w, p_run)
            jobs += run_jobs
            readers.append(read)
        runs.append(index[key])

    def results(done) -> list[WitnessResult]:
        made = [read(*done[2 * i:2 * i + 2]) for i, read in enumerate(readers)]
        names = h.coord_names()
        out = []
        for w, res in zip(specs, (made[i] for i in runs)):
            coord = res.backward_coordinate
            if coord is not None:
                coord = int(_roles(w, h)[_roles(res.spec, h).tolist().index(coord)])
            out.append(replace(res, spec=w, backward_coordinate=coord,
                               backward_coordinate_name=None if coord is None else names[coord]))
        return out

    return jobs, results


def run_witnesses(specs, p: FieldParams) -> list[WitnessResult]:
    """The WitnessResult of each spec, integrating each distinct run once.

    A run reads only its live coordinates, those nonzero at the start, in
    role order (X_j, X_k, x^j_1, x^k_1). Two specs share a run when their
    deltas are equal and so are the forward rate tables of those
    coordinates, byte for byte (_witness_plans). The runs are then bitwise
    the same, so each spec takes its group's result with the backward
    coordinate mapped by role (_roles) to its own; the gate of that coordinate is
    equal too, because the table fixes which live X gates it. Under a
    uniform coefficient rule every edge, j < k or j > k, has one subsystem,
    so one run per delta serves them all. The grouping lasts for this one
    call. Every spec is checked before any run.

    Each distinct run is two jobs of weight 0, forward then backward, of
    one workers.deal call, which shares the jobs between this process and
    forked workers. integrate is deterministic, so the results are bitwise
    those of a serial run.
    """
    jobs, results = _witness_plans(specs, p)
    return results(workers.deal(jobs, [0.0] * len(jobs)))


# ---------------------------------------------------------------------------
# full realization check
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ItineraryOutcome:
    report: ItineraryReport
    check: ItineraryCheck


@dataclass(eq=False)
class RealizationReport:
    """Every check of verify_realization, and how its scenario's run ended:
    the termination and last time of the level run that stopped first."""

    residuals: ResidualReport
    eigen: CorrespondenceReport
    termination: str
    last_time: float
    itineraries: list[ItineraryOutcome]
    witnesses: list[WitnessResult]

    @property
    def completed(self) -> bool:
        """Whether the scenario run reached its t_end."""
        return self.termination == TERMINATION_COMPLETED

    @property
    def passed(self) -> bool:
        return (
            self.residuals.passed
            and self.eigen.passed
            and self.completed
            and all(o.check.passed for o in self.itineraries)
            and all(w.passed for w in self.witnesses)
        )


def _level_state(s0: np.ndarray, p: FieldParams, j: int | None) -> np.ndarray:
    """s0 with every block but block j set to exact 0, so masked: the
    initial state of the X run (j None) or of the "X + block j" run."""
    h = p.hierarchy
    level = np.zeros_like(s0)
    level[h.super_slice] = s0[h.super_slice]
    if j is not None:
        level[h.sub_slice(j)] = s0[h.sub_slice(j)]
    return level


def _first_samples(traj: Trajectory, n: int) -> Trajectory:
    return replace(traj, times=traj.times[:n], states=traj.states[:n])


def verify_realization(
    p: FieldParams,
    s0: np.ndarray,
    cfg: IntegratorConfig,
    near_tol: float = DEFAULT_NEAR_TOL,
    min_dwell: float = DEFAULT_MIN_DWELL,
    deltas: tuple[float, ...] = DEFAULT_WITNESS_DELTAS,
) -> RealizationReport:
    """Aggregate residual, eigenvalue, itinerary and witness verification of
    the scenario that starts at s0 and integrates under cfg.

    The witness specs are checked first (_witness_plans). The scenario is
    integrated level by level: X alone, here, then one "X + block j" run per
    block with a live initial coordinate. One workers.deal call runs the
    block runs, each weighing the model time its gate is active in the X
    run's report windows, and the distinct witness runs' jobs, weighing 0.
    The superstructure report comes from the X run and block j's from its
    own run; a block whose initial coordinates are all 0 is masked and reads
    the X run. The itineraries are checked against [superstructure,
    substructure 1, ..., substructure N].

    The scenario ends at the earliest last time among its level runs, and
    records that run's termination and time (the first level on ties, X
    before the blocks); every level is read only up to that time.
    """
    residuals = verify_equilibria(p)
    eigen = check_edge_eigen_correspondence(p)
    h = p.hierarchy
    specs = [WitnessSpec(j, k, delta) for j, k in sorted(h.superstructure.edges)
             for delta in deltas]
    witness_jobs, results = _witness_plans(specs, p)

    def extract(traj):
        return extract_itinerary(traj, p, near_tol=near_tol, min_dwell=min_dwell)

    x_run = integrate(_level_state(s0, p, None), p, cfg)
    x_read = extract(x_run)
    live = [j for j in range(h.n_super) if s0[h.sub_slice(j)].any()]
    jobs = [(integrate, _level_state(s0, p, j), p, cfg) for j in live]
    weights = [sum(b - a for a, b in x_read[1 + j].active_windows) for j in live]
    values = workers.deal(jobs + witness_jobs, weights + [0.0] * len(witness_jobs))

    level = dict(zip(live, values))
    ended = min([x_run, *level.values()], key=lambda traj: traj.last_time)
    n = ended.times.shape[0]
    if x_run.times.shape[0] != n:
        x_read = extract(_first_samples(x_run, n))
    read = {j: extract(_first_samples(traj, n)) for j, traj in level.items()}
    reports = [x_read[0]] + [read.get(j, x_read)[1 + j] for j in range(h.n_super)]
    itineraries = [ItineraryOutcome(rep, check_itinerary_against(rep, g))
                   for rep, g in zip(reports, [h.superstructure, *h.substructures])]
    return RealizationReport(residuals, eigen, ended.termination, ended.last_time,
                             itineraries, results(values[len(live):]))
