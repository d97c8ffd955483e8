"""Result persistence: timeseries CSV, itinerary/report text, SVG panels."""
from __future__ import annotations

import contextlib
import os
import signal
import tempfile
from pathlib import Path

import numpy as np

from .analysis import RealizationReport, ItineraryReport, WitnessResult, _active_runs
from .integrator import Trajectory
from .vectorfield import BlockLayout, FieldParams, gate_distances

__all__ = [
    "publish",
    "write_timeseries",
    "render_itinerary",
    "render_report",
    "witness_line",
    "write_svg_panels",
]


# rows per writer process: a fork costs a few ms, formatting 10,000 rows about 0.1 s
_ROWS_PER_WRITER = 10_000


@contextlib.contextmanager
def publish(path):
    """A text file opened for writing that replaces path only once the with
    block completes.

    The file is written under a temporary name in path's directory, opened
    like path itself, so it gets the mode a plain open() gives. On any error
    path is left as it was and the temporary file is removed.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _write_rows(fh, row_format: str, times: np.ndarray, states: np.ndarray) -> None:
    for t, row in zip(times, states):
        fh.write(row_format % (t, *row.tolist()))


def _fork_writer(part, row_format: str, times: np.ndarray, states: np.ndarray) -> int:
    """Pid of a child that writes these rows into part and exits 0, or 1 on any error."""
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        _write_rows(part, row_format, times, states)
        part.flush()
        status = 0
    finally:  # never return into the parent's code or run its exit handlers
        os._exit(status)


def _append(part, fd: int) -> None:
    """Copy all of part to fd's position, inside the kernel."""
    offset, size = 0, os.fstat(part.fileno()).st_size
    while offset < size:
        offset += os.sendfile(fd, part.fileno(), offset, size - offset)


def write_timeseries(traj: Trajectory, layout: BlockLayout, path) -> None:
    """CSV with header t, X1..XN, x1_1..; 17 significant digits.

    Coordinates masked to the invariant zero subspace print as exactly "0".

    The file is written through publish, so on error path is left as it
    was. The rows are split into contiguous chunks, written by up to one
    process per available CPU: this process writes the first chunk and
    forked children write the others into unnamed part files in the same
    directory, which are then appended in order. The bytes do not depend
    on the number of writers, no part file is left behind, and every child
    has exited when this returns. A child that fails raises OSError.
    """
    n = traj.times.shape[0]
    if n == 0:
        raise ValueError("trajectory has no samples")
    names = layout.coord_names()
    # "%.17g" % x renders exactly as format(x, ".17g"), one template per row
    row_format = ",".join(["%.17g"] * (1 + len(names))) + "\n"
    writers = 1  # one per available CPU, each with at least _ROWS_PER_WRITER rows
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        writers = min(len(os.sched_getaffinity(0)), max(1, n // _ROWS_PER_WRITER))
    bounds = [n * w // writers for w in range(writers + 1)]
    path = Path(path)
    children = []  # (pid, part file), in row order
    try:
        with publish(path) as fh, contextlib.ExitStack() as parts:
            fh.write(",".join(["t"] + names) + "\n")
            fh.flush()  # a child must not inherit buffered text
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                part = parts.enter_context(tempfile.TemporaryFile(
                    "w+", encoding="utf-8", newline="\n", dir=path.parent
                ))
                children.append((_fork_writer(part, row_format, traj.times[lo:hi],
                                              traj.states[lo:hi]), part))
            _write_rows(fh, row_format, traj.times[:bounds[1]], traj.states[:bounds[1]])
            fh.flush()
            while children:
                pid, part = children[0]
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[0]
                if status != 0:
                    raise OSError(f"{path}: a timeseries writer exited with status {status}")
                _append(part, fh.fileno())
    finally:  # on error, stop and reap the children still running
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def render_itinerary(report: ItineraryReport) -> str:
    """Human-readable visit listing (1-based labels)."""
    head = "superstructure" if report.level == "super" else f"substructure {report.j + 1}"
    lines = [
        f"[{head}] near_tol={report.near_tol} min_dwell={report.min_dwell}",
        f"visits: {', '.join(str(v.vertex + 1) for v in report.visits) or '(none)'}",
    ]
    for v in report.visits:
        win = f" window {v.window + 1}" if v.window is not None else ""
        lines.append(
            f"  vertex {v.vertex + 1}: t in [{v.t_enter:.4f}, {v.t_exit:.4f}]"
            f" dwell {v.dwell:.4f}{win}"
        )
    if report.active_windows is not None:
        lines.append(
            "active windows: "
            + (", ".join(f"[{a:.4f}, {b:.4f}]" for a, b in report.active_windows) or "(none)")
        )
    return "\n".join(lines) + "\n"


def _fmt_set(s: frozenset[int]) -> str:
    return "{" + ", ".join(str(v + 1) for v in sorted(s)) + "}"


def witness_line(w: WitnessResult) -> str:
    fwd = (
        f"forward dist {w.forward_distance:.3e} at t={w.forward_time:.1f}"
        f" ({'converged' if w.forward_converged else 'NOT converged'})"
    )
    if w.variant == "bounded":
        bwd = (
            f"backward bounded, live sub coords within {w.backward_inactive_gap:.3e} of 1"
            f" at t={w.backward_time:.1f}"
            + ("" if not w.backward_diverged else " [unexpected divergence]")
        )
    elif w.backward_diverged:
        bwd = (
            f"backward diverged in {w.backward_coordinate_name}"
            f" (gate {w.backward_coordinate_gate:.3g}) at t={w.backward_time:.1f}"
        )
    else:
        bwd = f"backward did NOT diverge within t={w.backward_time:.1f}"
    status = "PASS" if w.passed else "FAIL"
    return (
        f"edge ({w.spec.j + 1},{w.spec.k + 1}) delta={w.spec.delta:g}: {fwd}; {bwd}: {status}"
    )


def render_report(report: RealizationReport) -> str:
    lines = ["REALIZATION REPORT", f"verdict: {'PASS' if report.passed else 'FAIL'}", ""]

    r = report.residuals
    lines.append(
        f"[equilibrium residuals] max |f|_inf = {r.max_residual:.3e}"
        f" (tol {r.tol:g}): {'PASS' if r.passed else 'FAIL'}"
    )
    for name, value in r.residuals:
        lines.append(f"  {name}: {value:.3e}")
    lines.append("")

    e = report.eigen
    lines.append(f"[eigenvalue/edge correspondence] {'PASS' if e.passed else 'FAIL'}")
    for chk in e.checks:
        mark = "ok" if chk.passed else "MISMATCH"
        lines.append(
            f"  {chk.name}: expected {_fmt_set(chk.expected)},"
            f" observed {_fmt_set(chk.observed)}: {mark}"
        )
    lines.append("")

    lines.append("[itineraries]")
    for o in report.itineraries:
        head = "super" if o.level == "super" else f"sub {o.j + 1}"
        seq = ",".join(str(v.vertex + 1) for v in o.report.visits) or "(none)"
        status = "PASS" if o.check.passed else "FAIL"
        lines.append(
            f"  scenario {o.scenario_index + 1} {head}: visits {seq}"
            f" ({o.check.n_pairs} transitions checked): {status}"
        )
        for i, k, t in o.check.violations:
            lines.append(f"    violation: ({i + 1},{k + 1}) at t={t:.4f} is not an edge")
    lines.append("")

    lines.append("[witnesses]")
    for w in report.witnesses:
        lines.append("  " + witness_line(w))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG panels (best-effort plotting, never gates verification)
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
_PANEL_W = 960
_PANEL_H = 150
_MARGIN_L = 55
_MARGIN_T = 18
_GAP = 26


def _polyline(ts, ys, x0, y0, w, h, t_max, y_max, color) -> str:
    xs = x0 + (ts / t_max) * w
    yy = y0 + h - np.clip(ys / y_max, 0.0, 1.0) * h
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, yy))
    return f'<polyline fill="none" stroke="{color}" stroke-width="1" points="{pts}"/>'


def write_svg_panels(
    traj: Trajectory,
    p: FieldParams,
    path,
    max_points: int = 2000,
) -> None:
    """One panel for X, one per substructure block with active-window shading."""
    layout = p.layout
    n_panels = 1 + layout.n_super
    idx = np.linspace(0, traj.times.shape[0] - 1, min(max_points, traj.times.shape[0]))
    idx = np.unique(idx.astype(int))
    ts = traj.times[idx]
    t_max = max(float(traj.times[-1]), 1e-12)
    X_full = traj.states[:, layout.super_slice]

    height = _MARGIN_T + n_panels * (_PANEL_H + _GAP)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PANEL_W + _MARGIN_L + 20}"'
        f' height="{height}" font-family="sans-serif" font-size="11">'
    ]

    def panel_header(row, label):
        y0 = _MARGIN_T + row * (_PANEL_H + _GAP)
        parts.append(
            f'<rect x="{_MARGIN_L}" y="{y0}" width="{_PANEL_W}" height="{_PANEL_H}"'
            f' fill="white" stroke="#999"/>'
        )
        parts.append(f'<text x="{_MARGIN_L}" y="{y0 - 5}">{label}</text>')
        return y0

    y0 = panel_header(0, "X (superstructure)")
    y_max = max(1.05, float(X_full.max()) * 1.05)
    for m in range(layout.n_super):
        parts.append(
            _polyline(ts, X_full[idx, m], _MARGIN_L, y0, _PANEL_W, _PANEL_H,
                      t_max, y_max, _PALETTE[m % len(_PALETTE)])
        )

    gates = gate_distances(X_full)
    for j in range(layout.n_super):
        y0 = panel_header(1 + j, f"x^{j + 1} (substructure {j + 1})")
        _, starts, ends = _active_runs(gates[:, j], p.epsilon)
        for t0, t1 in zip(traj.times[starts], traj.times[ends - 1]):
            parts.append(_shade(t0, t1, y0, t_max))
        block = traj.states[:, layout.sub_slice(j)]
        y_max = max(1.05, float(block.max()) * 1.05)
        for m in range(layout.block_sizes[j]):
            parts.append(
                _polyline(ts, block[idx, m], _MARGIN_L, y0, _PANEL_W, _PANEL_H,
                          t_max, y_max, _PALETTE[m % len(_PALETTE)])
            )

    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = _MARGIN_L + frac * _PANEL_W
        parts.append(
            f'<text x="{x:.1f}" y="{height - 6}" text-anchor="middle">'
            f"t={frac * t_max:g}</text>"
        )
    parts.append("</svg>")
    with publish(path) as fh:
        fh.write("\n".join(parts))


def _shade(t0: float, t1: float, y0: float, t_max: float) -> str:
    x0 = _MARGIN_L + (t0 / t_max) * _PANEL_W
    w = max((t1 - t0) / t_max * _PANEL_W, 0.5)
    return (
        f'<rect x="{x0:.2f}" y="{y0}" width="{w:.2f}" height="{_PANEL_H}"'
        f' fill="#ffd27f" fill-opacity="0.35" stroke="none"/>'
    )
