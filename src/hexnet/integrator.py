"""Adaptive DOP853 integration of the field in the log chart.

Coordinates that start at exactly zero span invariant subspaces; they are
masked out and stay bitwise zero in every output sample. Only the live
subsystem is integrated: the stepper works on arrays of the live
coordinates, whose rates come from the field's rate table restricted to
them, with the time direction folded in. The live coordinates are
integrated as logarithms, which keeps deeply decayed components
representable and their growth rates finite. The stepper is Dormand and
Prince's 8th-order pair with its combined 5th/3rd-order error estimate.
Dense output on a uniform sample grid comes from its 7th-order continuous
extension, which costs three extra stages in each step that covers a
sample.

At d = 13 a numpy call costs its fixed dispatch, not its arithmetic, so the
loop makes as few calls as the arithmetic allows, each at the dispatch
floor. numpy converts a Python-float operand anew on every call, so every
operand of a per-stage or per-step ufunc is an array: h is a 0-d array set
once per step, rtol, atol and _EXP_CLAMP are arrays of the live length, and
the row views and the ufuncs are made and bound once per run. A stage is
one pass of a single stage loop over preallocated buffers: hA[i, :i] @ K[:i]
plus the base, clamped, then exp, then growth_rates into the stage's row of
K. The two stages at the base itself, the first and the FSAL one, skip the
dot and the add. Error control reuses |u| from the accepted step before.
Step-size control runs on Python floats, so the times a run returns are
floats too. An accepted step finds the samples it covers with one binary
search of the grid, and only a step that covers one evaluates the dense
stages. None of this moves a rounding: every sum and product is taken in
the order of a plain loop with Python-float scalars (reference_integrate in
the tests' oracles), and gives its bits.

A run ends "completed" at t_end, "diverged" when a live coordinate passes
DIVERGENCE_BOUND, "step_failure" when the step size underflows before
t_end, or "stopped" when the caller's `until` predicate first holds after an
accepted step.

The samples go into a states array that integrate allocates, or that the
caller passes, zero-filled, in memory shared with another process. A
progress hook then hears how many rows are final, after each step that
writes samples, so that process can read the rows while the run goes on
(output.write_timeseries formats the CSV that way).
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError
from .vectorfield import FieldParams, growth_rates, rate_table

__all__ = [
    "IntegratorConfig",
    "StepStats",
    "Trajectory",
    "integrate",
    "sample_times",
    "DIVERGENCE_BOUND",
    "MAX_SAMPLES",
    "TERMINATION_COMPLETED",
    "TERMINATION_DIVERGED",
    "TERMINATION_STEP_FAILURE",
    "TERMINATION_STOPPED",
]

DIVERGENCE_BOUND = 1.0e6
_LOG_DIVERGENCE = np.log(DIVERGENCE_BOUND)

# exp argument cap inside the log chart; legitimate states stay far below
# (divergence is declared near log(1e6) ~ 13.8) while trial steps that wander
# high still produce finite, huge rates that get rejected by error control.
_EXP_CLAMP = 150.0

# Most rows a sample grid may have; checked from t_end / sample_dt before
# anything is allocated. 10 million rows of a d = 13 state take about 1.1 GB
# (14 floats a row with the time); reading their itinerary adds about 12 bytes
# a row (0.12 GB, analysis.extract_itinerary), and the CSV and SVG writers a
# few MB whatever the row count.
MAX_SAMPLES = 10_000_000

TERMINATION_COMPLETED = "completed"
TERMINATION_DIVERGED = "diverged"
TERMINATION_STEP_FAILURE = "step_failure"
TERMINATION_STOPPED = "stopped"

_DIRECTIONS = ("forward", "backward")

# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, section II.10): nodes
# and stage weights of the 12 stages of a step, the FSAL stage 12 whose
# weights are the 8th-order solution _B, and the three extra stages 13-15 of
# the 7th-order continuous extension.
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778,
])
_A_ROWS = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
     0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
_A = np.array([row + (0.0,) * (16 - len(row)) for row in _A_ROWS])
_B = _A[12, :12].copy()
# Error weights of the embedded 5th-order and 3rd-order solutions; the 3rd-
# order weights differ from _B only at stages 0, 8 and 11.
_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294,
])
_E3 = _B.copy()
_E3[[0, 8, 11]] -= (0.244094488188976377952755905512, 0.733846688281611857341361741547,
                    0.0220588235294117647058823529412)
# Dense output u(t + theta h) = u + sum_k w_k(theta) F_k with
# w = (th, th(1-th), th^2(1-th), th^2(1-th)^2, ..., th^4(1-th)^3):
# F_0 = du, F_1 = h f_0 - du, F_2 = 2 du - h (f_0 + f_12) and F_3.. = h (_D @ K).
_D = np.array([
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
])
_THETA_FACTOR = np.arange(7) % 2 == 0  # w_k = w_{k-1} * (th if k is even else 1 - th)
_WEIGHTS = np.stack([_B, _E5, _E3])
_N_STAGES = 12

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_INITIAL_STEP = 1e-4
_ERR_EXPONENT = 1.0 / 8.0
_PI_ALPHA = 0.7 * _ERR_EXPONENT
_PI_BETA = 0.4 * _ERR_EXPONENT


@dataclass(frozen=True)
class IntegratorConfig:
    t_end: float
    rtol: float = 1e-12
    atol: float = 1e-12
    max_step: float | None = None
    sample_dt: float = 0.1
    direction: str = "forward"

    def __post_init__(self):
        for name in ("t_end", "rtol", "atol", "max_step", "sample_dt"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.rtol > 0.0 or not self.atol > 0.0:
            raise ValueError("rtol and atol must be positive")
        if self.t_end < 0.0:
            raise ValueError("t_end must be nonnegative")
        if not self.sample_dt > 0.0:
            raise ValueError("sample_dt must be positive")
        # an upper bound on the row count of _sample_grid(t_end, sample_dt)
        rows = np.ceil(self.t_end / self.sample_dt) + 1.0
        if rows > MAX_SAMPLES:
            raise ValueError(
                f"t_end / sample_dt gives a sample grid of {rows:.3g} rows,"
                f" more than {MAX_SAMPLES:,}"
            )
        if self.max_step is not None and not self.max_step > 0.0:
            raise ValueError("max_step must be positive")
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"direction must be one of {_DIRECTIONS}")


@dataclass(eq=False)
class StepStats:
    accepted: int = 0
    rejected: int = 0
    n_evals: int = 0


@dataclass(eq=False)
class Trajectory:
    """Uniform-grid samples in the original chart plus termination metadata."""

    times: np.ndarray
    states: np.ndarray
    stats: StepStats
    termination: str
    mask: np.ndarray
    last_time: float
    last_state: np.ndarray
    diverged_coordinate: int | None = None


def _sample_grid(t_end: float, dt: float) -> np.ndarray:
    n_full = int(np.floor(t_end / dt + 1e-9))
    grid = np.arange(n_full + 1, dtype=float) * dt
    if grid[-1] > t_end:
        grid[-1] = t_end
    elif t_end - grid[-1] > 1e-9 * max(dt, 1.0):
        grid = np.append(grid, t_end)
    return grid


def sample_times(cfg: IntegratorConfig) -> np.ndarray:
    """The times of integrate's samples: 0, sample_dt, 2 sample_dt, ..., t_end."""
    return _sample_grid(cfg.t_end, cfg.sample_dt)


def _no_progress(count: int) -> None:
    pass


def _dense_output(u, u_new, h, K, F, theta) -> np.ndarray:
    """Log-states at t + theta*h, one row per theta, for an accepted step
    from u to u_new whose 16 stages are in K; F is scratch of shape (7, d)."""
    np.subtract(u_new, u, out=F[0])
    np.multiply(K[0], h, out=F[1])
    F[1] -= F[0]
    np.add(K[0], K[12], out=F[2])
    F[2] *= -h
    F[2] += 2.0 * F[0]
    np.dot(_D, K, out=F[3:])
    F[3:] *= h
    # the weights, one row a k, cumprod down the samples' columns: a
    # (7, samples) array, whose transpose goes into the product with F
    out = np.cumprod(np.where(_THETA_FACTOR[:, None], theta, 1.0 - theta), axis=0).T @ F
    out += u
    return out


def integrate(
    s0,
    p: FieldParams,
    cfg: IntegratorConfig,
    *,
    until: Callable[[np.ndarray], bool] | None = None,
    order: np.ndarray | None = None,
    states: np.ndarray | None = None,
    progress: Callable[[int], None] | None = None,
) -> Trajectory:
    """Integrate from a nonnegative state; exact zeros define the mask.

    Samples are produced on the grid {0, sample_dt, 2 sample_dt, ..., t_end}
    by dense interpolation. Termination is "completed", or "diverged" when an
    unmasked log-coordinate exceeds log(1e6), or "step_failure" on step-size
    underflow before t_end, or "stopped" when until(state) returns true.
    until is called after each accepted step that did not diverge, with the
    state in the original chart; the run then ends at that step. A run that
    does not complete keeps only the samples up to its last time. Backward
    direction integrates the time-reversed field.

    order is the order of the stepper's coordinates: the nonzero
    coordinates of s0, each once, in an order rate_table takes (the
    superstructure ones first, each block's together). It sets the order in
    which sums over coordinates are taken, so two runs that differ only in
    how their coordinates are numbered are bitwise the same when each lists
    them in one shared role. The default is ascending flat order. An order
    that breaks these rules raises ValueError before any step.

    states is the array the samples are written into, float64 of shape
    (len(sample_times(cfg)), d) and zero-filled (every masked value stays
    as it is); by default integrate allocates it. A buffer the caller
    shares with another process lets that process read the rows while the
    run goes on: progress(count) is called once the first count rows of
    states are final, with row 0 before the first step and again after each
    step that writes samples, so the counts never decrease and end at the
    number of rows the trajectory keeps. A buffer of another shape or
    dtype, or one not zero-filled, raises ValueError before any evaluation.
    """
    d = p.hierarchy.dimension
    s0 = np.asarray(s0, dtype=float)
    if s0.shape != (d,):
        raise DimensionMismatchError(f"initial state has shape {s0.shape}, expected ({d},)")
    if not np.isfinite(s0).all():
        raise NonFiniteError("initial state contains non-finite entries")
    if np.any(s0 < 0.0):
        raise ValueError("initial state must be nonnegative")

    mask = s0 == 0.0
    live = np.flatnonzero(~mask)
    if order is not None:
        order = np.asarray(order, dtype=np.intp)
        if not np.array_equal(np.sort(order), live):
            raise ValueError(f"order must list the nonzero coordinates {live.tolist()} of the"
                             f" initial state once each, got {order.tolist()}")
        live = order
    # The stepper works on the m live coordinates only; masked ones stay 0.
    table = rate_table(p, live, backward=cfg.direction == "backward")
    grid = sample_times(cfg)
    n_samples = grid.shape[0]
    if states is None:
        states = np.zeros((n_samples, d))
    elif (states.shape != (n_samples, d) or states.dtype != np.float64
          or states.view(np.uint64).any()):
        raise ValueError(f"states must be a zero-filled float64 array of shape"
                         f" {(n_samples, d)}, got {states.dtype} {states.shape}")
    if progress is None:
        progress = _no_progress
    states[0] = s0
    stats = StepStats()

    if cfg.t_end == 0.0 or live.size == 0:
        # nothing to integrate: time span empty or every coordinate pinned at 0
        progress(n_samples)
        return Trajectory(
            times=grid,
            states=states[: 1] if cfg.t_end == 0.0 else states,
            termination=TERMINATION_COMPLETED,
            stats=stats,
            mask=mask,
            last_time=float(grid[-1]) if cfg.t_end > 0.0 else 0.0,
            last_state=s0.copy(),
        )

    m = live.size
    u = np.log(s0[live])
    u_new = np.empty(m)
    abs_u = np.abs(u)
    abs_new = np.empty(m)
    # array operands for the per-stage and per-step ufuncs (module docstring)
    clamp = np.full(m, _EXP_CLAMP)
    rtol = np.full(m, cfg.rtol)
    atol = np.full(m, cfg.atol)
    h_arr = np.empty(())
    v = np.empty(m)
    stage = np.empty(m)
    scale = np.empty(m)
    K = np.empty((16, m))
    hA = np.empty((16, 16))
    combos = np.empty((3, m))  # h * (_B, _E5, _E3) @ K
    ratio = np.empty((2, m))
    F = np.empty((7, m))
    # the views and ufuncs the loop uses, made and bound once per run; stage
    # i is (hA[i, :i], K[:i], K[i]), evaluated at the base plus hA[i, :i] @ K[:i]
    step_rows = [(hA[i, :i], K[:i], K[i]) for i in range(1, _N_STAGES)]
    dense_rows = [(hA[i, :i], K[:i], K[i]) for i in range(13, 16)]
    K0, K12, K_step = K[0], K[12], K[:_N_STAGES]
    sol, errs = combos[0], combos[1:]
    ratio5, ratio3 = ratio
    dot, add, multiply, divide = np.dot, np.add, np.multiply, np.divide
    minimum, maximum, absolute, exp = np.minimum, np.maximum, np.absolute, np.exp

    def base_stage(base, k_out) -> None:
        """Write the log-chart field at base itself into k_out: clamp, exp,
        growth_rates. The first stage K[0] is at u, the FSAL stage K[12] at
        u_new."""
        minimum(base, clamp, out=v)
        exp(v, out=v)
        k_out[:] = growth_rates(v, table)

    def run_stages(rows, base) -> None:
        """Write the log-chart field at base + a_row @ k_head into each k_out
        of rows: clamp, exp, growth_rates."""
        for a_row, k_head, k_out in rows:
            dot(a_row, k_head, out=stage)
            add(stage, base, out=stage)
            minimum(stage, clamp, out=v)
            exp(v, out=v)
            k_out[:] = growth_rates(v, table)

    t_end = float(cfg.t_end)
    max_step = float(cfg.max_step) if cfg.max_step is not None else math.inf
    t = 0.0
    h = min(_INITIAL_STEP, t_end, max_step)
    next_i = 1
    err_prev = 1.0
    n_evals = 1
    termination = TERMINATION_COMPLETED
    div_coord: int | None = None

    progress(1)
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        base_stage(u, K0)
        while t < t_end:
            if h >= t_end - t:
                h = t_end - t
                t_new = t_end
            else:
                t_new = t + h
            h_arr[()] = h
            multiply(_A, h_arr, out=hA)
            run_stages(step_rows, u)
            n_evals += _N_STAGES - 1
            dot(_WEIGHTS, K_step, out=combos)
            combos *= h_arr
            add(u, sol, out=u_new)
            absolute(u_new, out=abs_new)
            maximum(abs_u, abs_new, out=scale)
            scale *= rtol
            scale += atol
            divide(errs, scale, out=ratio)
            err5 = float(ratio5.dot(ratio5))
            err3 = float(ratio3.dot(ratio3))
            if err5 == 0.0 and err3 == 0.0:
                err_norm = 0.0
            else:
                # 5th/3rd-order combined estimate: RMS of the 5th-order error,
                # damped by the 3rd-order one where the latter dominates
                err_norm = err5 / math.sqrt((err5 + 0.01 * err3) * m)
            if not math.isfinite(err_norm):
                err_norm = math.inf

            if err_norm <= 1.0:
                base_stage(u_new, K12)
                n_evals += 1
                # emit dense-output samples covered by this step
                if next_i < n_samples and grid[next_i] <= t_new + 1e-10:
                    j_end = int(np.searchsorted(grid, t_new + 1e-10, side="right"))
                    run_stages(dense_rows, u)
                    n_evals += len(dense_rows)
                    theta = (grid[next_i:j_end] - t) / h
                    interp = _dense_output(u, u_new, h, K, F, theta)
                    states[next_i:j_end][:, live] = np.exp(interp)
                    next_i = j_end
                    progress(next_i)
                t = t_new
                u, u_new = u_new, u
                abs_u, abs_new = abs_new, abs_u
                K0[:] = K12
                stats.accepted += 1
                if err_norm == 0.0:
                    fac = _FAC_MAX
                else:
                    fac = _SAFETY * err_norm**-_PI_ALPHA * err_prev**_PI_BETA
                    fac = min(_FAC_MAX, max(_FAC_MIN, fac))
                h = min(h * fac, max_step)
                err_prev = max(err_norm, 1e-10)
                # maximum() carries a NaN of u_new into err_norm, which then
                # rejects the step, so an accepted u holds none and the
                # largest of its floats is u.max()
                if max(u.tolist()) > _LOG_DIVERGENCE:
                    termination = TERMINATION_DIVERGED
                    div_coord = int(live[int(np.argmax(u))])
                    break
                if until is not None:
                    state = np.zeros(d)
                    state[live] = np.exp(u)
                    if until(state):
                        termination = TERMINATION_STOPPED
                        break
            else:
                stats.rejected += 1
                h *= min(1.0, max(_FAC_MIN, _SAFETY * err_norm**-_ERR_EXPONENT))
            if t < t_end and h < 1e-12 * max(1.0, t):
                termination = TERMINATION_STEP_FAILURE
                break
        last_state = np.zeros(d)
        last_state[live] = np.exp(u)
    stats.n_evals = n_evals

    if termination != TERMINATION_COMPLETED:
        states = states[:next_i]
        grid = grid[:next_i]

    return Trajectory(
        times=grid,
        states=states,
        stats=stats,
        termination=termination,
        mask=mask,
        last_time=t,
        last_state=last_state,
        diverged_coordinate=div_coord,
    )
