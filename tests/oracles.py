"""Independent reference implementations used only as test oracles.

Everything here but reference_integrate and reference_itinerary is written
as plain scalar Python against the defining formulas, with its own bump
evaluation, so it shares no code path with the package internals it checks.
reference_integrate is a bitwise reference for the stepper's loop: it shares
the package's tableau and rates, and makes the stepper's floating-point
operations in the same order, but plainly. reference_itinerary is the
whole-array itinerary extraction that extract_itinerary's row chunks must
reproduce.
"""
import math


def naive_bump(z: float, eps: float) -> float:
    """Two-exponential transition function, literal piecewise form."""
    if z <= 0.0:
        return 1.0
    if z >= eps:
        return 0.0
    e_lo = math.exp(-eps / z)
    e_hi = math.exp(-eps / (eps - z))
    return 1.0 - e_lo / (e_lo + e_hi)


def naive_field(
    state,
    n_super: int,
    block_sizes,
    a,
    alphas,
    eps: float,
    phi: float = 1.0,
    psi: float = 1.0,
    omega: float = 1.0,
    bounded: bool = False,
):
    """Direct scalar transcription of the two-level field.

    dX_j    = phi * X_j * (1 - |X|^2 + sum_k a[j][k] X_k^2)
    dx^j_i  = x^j_i * (psi * (1 - |x^j|^2 + sum_k alphas[j][i][k] (x^j_k)^2) * b_j
              - omega * (1 - b_j) * g),   g = 1 or (1 - x^j_i)
    with b_j the bump of the squared distance between X and the j-th unit
    vector.
    """
    state = [float(v) for v in state]
    X = state[:n_super]
    blocks = []
    off = n_super
    for nj in block_sizes:
        blocks.append(state[off:off + nj])
        off += nj

    norm_x = sum(v * v for v in X)
    out = []
    for j in range(n_super):
        coupling = sum(a[j][k] * X[k] * X[k] for k in range(n_super))
        out.append(phi * X[j] * (1.0 - norm_x + coupling))
    for j, x in enumerate(blocks):
        zj = sum((X[m] - (1.0 if m == j else 0.0)) ** 2 for m in range(n_super))
        bj = naive_bump(zj, eps)
        norm_j = sum(v * v for v in x)
        nj = block_sizes[j]
        for i in range(nj):
            coupling = sum(alphas[j][i][k] * x[k] * x[k] for k in range(nj))
            growth = 1.0 - norm_j + coupling
            gate = (1.0 - x[i]) if bounded else 1.0
            out.append(x[i] * (psi * growth * bj - omega * (1.0 - bj) * gate))
    return out


def naive_bump_derivative(z: float, eps: float) -> float:
    """d/dz of naive_bump, differentiating its two exponentials directly."""
    if z <= 0.0 or z >= eps:
        return 0.0
    e_lo = math.exp(-eps / z)
    e_hi = math.exp(-eps / (eps - z))
    return -e_lo * e_hi * (eps / z**2 + eps / (eps - z) ** 2) / (e_lo + e_hi) ** 2


def naive_jacobian(
    state,
    n_super: int,
    block_sizes,
    a,
    alphas,
    eps: float,
    phi: float = 1.0,
    psi: float = 1.0,
    omega: float = 1.0,
    bounded: bool = False,
):
    """Partial derivatives of naive_field, entry by entry, as a list of rows.

    dX_j/dX_m   = phi * (delta_jm * (1 - |X|^2 + sum_k a[j][k] X_k^2)
                  + X_j * 2 X_m * (a[j][m] - 1))
    dx^j_i/dx^j_m = delta_im * (psi * G_i * b_j - omega * (1 - b_j) * g_i)
                  + x_i * psi * b_j * 2 x_m * (alphas[j][i][m] - 1)
                  + delta_im * x_i * omega * (1 - b_j)        (bounded only)
    dx^j_i/dX_m = x_i * (psi * G_i + omega * g_i) * b_j'(z_j) * 2 (X_m - delta_jm)
    and 0 between different substructure blocks and from x to X.
    """
    state = [float(v) for v in state]
    d = len(state)
    X = state[:n_super]
    J = [[0.0] * d for _ in range(d)]
    norm_x = sum(v * v for v in X)
    for j in range(n_super):
        growth = 1.0 - norm_x + sum(a[j][k] * X[k] * X[k] for k in range(n_super))
        for m in range(n_super):
            J[j][m] = phi * X[j] * 2.0 * X[m] * (a[j][m] - 1.0)
        J[j][j] += phi * growth
    off = n_super
    for j, nj in enumerate(block_sizes):
        x = state[off:off + nj]
        zj = sum((X[m] - (1.0 if m == j else 0.0)) ** 2 for m in range(n_super))
        bj = naive_bump(zj, eps)
        dbj = naive_bump_derivative(zj, eps)
        norm_j = sum(v * v for v in x)
        for i in range(nj):
            row = off + i
            growth = 1.0 - norm_j + sum(alphas[j][i][k] * x[k] * x[k] for k in range(nj))
            gate = (1.0 - x[i]) if bounded else 1.0
            for m in range(nj):
                J[row][off + m] = x[i] * psi * bj * 2.0 * x[m] * (alphas[j][i][m] - 1.0)
            J[row][row] += psi * growth * bj - omega * (1.0 - bj) * gate
            if bounded:
                J[row][row] += x[i] * omega * (1.0 - bj)
            for m in range(n_super):
                dz = 2.0 * (X[m] - (1.0 if m == j else 0.0))
                J[row][m] = x[i] * (psi * growth + omega * gate) * dbj * dz
        off += nj
    return J


def naive_runs(labels):
    """Maximal runs of equal consecutive labels as (label, start, end) with
    end exclusive, by walking the stream once."""
    runs = []
    for idx, label in enumerate(labels):
        if runs and runs[-1][0] == label:
            runs[-1][2] = idx + 1
        else:
            runs.append([label, idx, idx + 1])
    return [tuple(r) for r in runs]


def reference_itinerary(traj, p, near_tol: float, min_dwell: float):
    """extract_itinerary's levels read from whole arrays: every gate's
    distances at once (gate_distances(X) < epsilon) and argmax vertex
    streams, split into runs by naive_runs. Returns, per level (the
    superstructure, then blocks 1..N), the 1-based labels, the visits as
    (vertex, t_enter, t_exit, window) and the active windows (None for the
    superstructure)."""
    import numpy as np

    from hexnet.vectorfield import gate_distances

    h = p.hierarchy
    times = traj.times.tolist()
    X = traj.states[:, h.super_slice]

    def stream(block):
        am = block.argmax(axis=1)
        top = block[np.arange(block.shape[0]), am]
        return np.where(top > 1.0 - near_tol, am, -1)

    def level(vert, window_starts, windows):
        visits = []
        for v, a, b in naive_runs(vert.tolist()):
            if v >= 0 and times[b - 1] - times[a] >= min_dwell:
                win = None if window_starts is None else sum(s <= a for s in window_starts) - 1
                visits.append((v, times[a], times[b - 1], win))
        return [v + 1 for v, *_ in visits], visits, windows

    levels = [level(stream(X), None, None)]
    for j, active in enumerate((gate_distances(X) < p.epsilon).T):
        on = [(a, b) for flag, a, b in naive_runs(active.tolist()) if flag]
        vert = np.where(active, stream(traj.states[:, h.sub_slice(j)]), -1)
        levels.append(level(vert, [a for a, _ in on], [(times[a], times[b - 1]) for a, b in on]))
    return levels


def central_difference_jacobian(f, x0, h: float = 1e-6):
    """Dense Jacobian of f by central differences, column by column."""
    import numpy as np

    x0 = np.asarray(x0, dtype=float)
    d = x0.shape[0]
    cols = []
    for c in range(d):
        xp = x0.copy()
        xm = x0.copy()
        xp[c] += h
        xm[c] -= h
        cols.append((np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h))
    return np.stack(cols, axis=1)


def reference_integrate(s0, p, cfg, *, until=None, order=None):
    """integrate(s0, p, cfg, until=until, order=order) as a plain DOP853
    loop: each stage, error estimate and dense output is a fresh numpy
    expression with Python-float scalars, in the stepper's order of
    operations, so it gives the stepper's trajectory bit for bit. Returns a
    dict of times, states, last_time, last_state, termination,
    diverged_coordinate, accepted, rejected and n_evals. Only for runs with
    a live coordinate and t_end > 0."""
    import numpy as np

    from hexnet import integrator as ig
    from hexnet.vectorfield import growth_rates, rate_table

    d = p.hierarchy.dimension
    s0 = np.asarray(s0, dtype=float)
    live = np.flatnonzero(s0) if order is None else np.asarray(order, dtype=np.intp)
    table = rate_table(p, live, backward=cfg.direction == "backward")
    grid = ig._sample_grid(cfg.t_end, cfg.sample_dt)
    states = np.zeros((grid.shape[0], d))
    states[0] = s0
    m = live.size

    def field(w):
        return growth_rates(np.exp(np.minimum(w, ig._EXP_CLAMP)), table)

    u = np.log(s0[live])
    K = np.empty((16, m))
    K[0] = field(u)
    n_evals, accepted, rejected = 1, 0, 0
    t, t_end = 0.0, float(cfg.t_end)
    max_step = math.inf if cfg.max_step is None else float(cfg.max_step)
    h = min(ig._INITIAL_STEP, t_end, max_step)
    next_i, err_prev = 1, 1.0
    termination, div_coord = ig.TERMINATION_COMPLETED, None
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        while t < t_end:
            if h >= t_end - t:
                h = t_end - t
                t_new = t_end
            else:
                t_new = t + h
            hA = ig._A * h
            for i in range(1, 12):
                K[i] = field(np.dot(hA[i, :i], K[:i]) + u)
            n_evals += 11
            combos = np.dot(ig._WEIGHTS, K[:12]) * h
            u_new = u + combos[0]
            scale = np.maximum(np.abs(u), np.abs(u_new)) * cfg.rtol + cfg.atol
            ratio = combos[1:] / scale
            err5 = float(ratio[0] @ ratio[0])
            err3 = float(ratio[1] @ ratio[1])
            if err5 == 0.0 and err3 == 0.0:
                err_norm = 0.0
            else:
                err_norm = err5 / math.sqrt((err5 + 0.01 * err3) * m)
            if not math.isfinite(err_norm):
                err_norm = math.inf
            if err_norm <= 1.0:
                K[12] = field(u_new)
                n_evals += 1
                if next_i < grid.shape[0] and grid[next_i] <= t_new + 1e-10:
                    j_end = int(np.searchsorted(grid, t_new + 1e-10, side="right"))
                    for i in range(13, 16):
                        K[i] = field(np.dot(hA[i, :i], K[:i]) + u)
                    n_evals += 3
                    du = u_new - u
                    F = np.vstack([
                        du,
                        K[0] * h - du,
                        (K[0] + K[12]) * -h + 2.0 * du,
                        np.dot(ig._D, K) * h,
                    ])
                    theta = ((grid[next_i:j_end] - t) / h)[:, None]
                    w = np.cumprod(np.where(ig._THETA_FACTOR, theta, 1.0 - theta), axis=1)
                    states[next_i:j_end][:, live] = np.exp(w @ F + u)
                    next_i = j_end
                t, u = t_new, u_new
                K[0] = K[12]
                accepted += 1
                if err_norm == 0.0:
                    fac = ig._FAC_MAX
                else:
                    fac = ig._SAFETY * err_norm**-ig._PI_ALPHA * err_prev**ig._PI_BETA
                    fac = min(ig._FAC_MAX, max(ig._FAC_MIN, fac))
                h = min(h * fac, max_step)
                err_prev = max(err_norm, 1e-10)
                if u.max() > np.log(ig.DIVERGENCE_BOUND):
                    termination = ig.TERMINATION_DIVERGED
                    div_coord = int(live[int(np.argmax(u))])
                    break
                if until is not None:
                    state = np.zeros(d)
                    state[live] = np.exp(u)
                    if until(state):
                        termination = ig.TERMINATION_STOPPED
                        break
            else:
                rejected += 1
                h *= min(1.0, max(ig._FAC_MIN, ig._SAFETY * err_norm**-ig._ERR_EXPONENT))
            if t < t_end and h < 1e-12 * max(1.0, t):
                termination = ig.TERMINATION_STEP_FAILURE
                break
    last_state = np.zeros(d)
    last_state[live] = np.exp(u)
    if termination != ig.TERMINATION_COMPLETED:
        grid, states = grid[:next_i], states[:next_i]
    return {"times": grid, "states": states, "last_time": t, "last_state": last_state,
            "termination": termination, "diverged_coordinate": div_coord,
            "accepted": accepted, "rejected": rejected, "n_evals": n_evals}
