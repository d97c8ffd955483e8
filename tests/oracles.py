"""Independent reference implementations used only as test oracles.

Everything here is written as plain scalar Python against the defining
formulas, with its own bump evaluation, so it shares no code path with the
package internals it checks.
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
