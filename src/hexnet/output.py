"""Result persistence: timeseries CSV, itinerary/report text, SVG panels.

The itinerary text and the SVG's window shading render the reports of
analysis.extract_itinerary; nothing here decides where a gate is active.

Every file is published whole or not at all (publish). The timeseries rows
are formatted by this process and, with more than one available CPU and
enough rows, one forked follower, in one workers.deal call, which can also
make the run that samples the rows and one more job on its trajectory
(simulate's itinerary and SVG): while this process integrates, the
follower formats the rows already sampled, and when the run ends the two
share the rows left, this process beside the job (write_timeseries). The
bytes do not depend on how many ran. Each process formats its rows in
blocks with format17.format_rows, whose bytes are format(x, ".17g") of
every value.
"""
from __future__ import annotations

import contextlib
import functools
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from . import workers
from .analysis import LEVEL_SUPER, RealizationReport, ItineraryReport, WitnessResult
from .hierarchy import HierarchySpec
from .integrator import Trajectory, sample_times
from .vectorfield import VARIANT_BOUNDED

__all__ = [
    "publish",
    "write_timeseries",
    "render_itinerary",
    "render_report",
    "witness_line",
    "write_svg_panels",
]


# rows per writer process: forking and reaping a process costs about 2.8 ms,
# and formatting a row of 13 values 2.1 us (appending it from a part file 0.1
# us more), so a second process pays for itself from about 2 x 1,400 rows
_ROWS_PER_WRITER = 1_400
# rows per format17.format_rows call; its temporaries peak near 330 bytes a value
_BLOCK_ROWS = 512
# a message between the processes of write_timeseries: a row count or a row
_ROW = struct.Struct("=q")


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


def _write_rows(out, times: np.ndarray, states: np.ndarray) -> None:
    """Write the CSV rows of times and states to the binary file out,
    _BLOCK_ROWS rows per format17.format_rows call, and flush it."""
    # imported here: a command that writes no CSV never loads the formatter
    from .format17 import format_rows

    for start in range(0, times.shape[0], _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        out.write(format_rows(np.column_stack([times[block], states[block]])))
    out.flush()


def _append(part, fd: int) -> None:
    """Copy all of part to fd's position, inside the kernel."""
    offset, size = 0, os.fstat(part.fileno()).st_size
    while offset < size:
        offset += os.sendfile(fd, part.fileno(), offset, size - offset)


def _shared_zeros(shape: tuple[int, int]) -> np.ndarray:
    """A zero-filled float64 array in anonymous memory that stays shared
    with the processes forked after it is made: each sees the others' writes."""
    # imported here, as select in _receive: a command that forks no CSV
    # follower never loads them
    import mmap

    return np.frombuffer(mmap.mmap(-1, 8 * shape[0] * shape[1], flags=mmap.MAP_SHARED),
                         dtype=np.float64).reshape(shape)


def write_timeseries(traj, layout: HierarchySpec, path, job=None,
                     job_cost: tuple[float, float] = (0.0, 0.0)) -> Trajectory:
    """CSV with header t, X1..XN, x1_1..; each value as format(x, ".17g")
    renders it, 17 significant digits. Returns the trajectory.

    traj is a Trajectory, or a run: a call (integrate, s0, p, cfg) that
    makes one as integrate(s0, p, cfg, states=..., progress=...). job, a
    call (fn, *args), is made as fn(traj, *args) once the run has ended;
    job_cost estimates its cost as a fixed part and a part a row, in units
    of formatting one row. Coordinates masked to the invariant zero
    subspace print as exactly "0".

    The file is written through publish, so on error path is left as it
    was. With more than one available CPU and at least 2 x
    _ROWS_PER_WRITER rows in the sample grid, one workers.deal call makes
    two calls, each in a process of its own, which talk through pipes:
    this process makes the run (_lead) and one forked follower formats
    rows (_stream). The run writes its samples into a states buffer shared
    with the follower (_shared_zeros) and reports through its progress
    hook how many rows are final; the follower formats them, _BLOCK_ROWS
    rows at a time, straight into the file after the header. When the run
    ends, the follower picks the row it stops at (_share, with job weighed
    beside this process's rows) and sends it back; it formats on to that
    row, and this process formats the rest into an unnamed part file,
    appended once both are done, then makes job. Otherwise this process
    makes the run, then writes every row, then makes job. Each process
    formats its rows _BLOCK_ROWS at a time (_write_rows), so the bytes do
    not depend on the number of processes; no part file is left behind,
    and the follower has exited when this returns. The follower's failure,
    or job's, is raised here as workers.deal raises it.
    """
    # grid() gives the sample times: the follower calls it after the fork,
    # so this process does not hold a run's grid twice
    if isinstance(traj, Trajectory):
        run, n, states = traj, traj.times.shape[0], traj.states
        grid = functools.partial(getattr, traj, "times")
        if n == 0:
            raise ValueError("trajectory has no samples")
    else:
        integrate, s0, p, cfg = traj
        run, n, states = functools.partial(integrate, s0, p, cfg), len(sample_times(cfg)), None
        grid = functools.partial(sample_times, cfg)
    follow = workers.available_cpus() > 1 and n >= 2 * _ROWS_PER_WRITER
    if states is None and follow:
        states = _shared_zeros((n, layout.dimension))
        run = functools.partial(run, states=states)
    path = Path(path)
    with publish(path) as fh, contextlib.ExitStack() as stack:
        out = fh.buffer
        out.write((",".join(["t"] + layout.coord_names()) + "\n").encode())
        out.flush()  # the follower must not inherit buffered bytes
        calls = [(_lead, run, out, None, None, job, ())]
        if follow:
            part = stack.enter_context(tempfile.TemporaryFile(dir=path.parent))
            (up, reply), (inbox, down) = _pipe(stack), _pipe(stack)
            ends = (up, reply, inbox, down)
            cost = job_cost if job is not None else (0.0, 0.0)
            calls = [(_lead, run, part, down, up, job, ends),
                     (_stream, inbox, reply, out, grid, states, cost, ends)]
        traj = workers.deal(calls, [1.0] * len(calls))[0]
        if follow:
            _append(part, out.fileno())
    return traj


def _pipe(stack) -> tuple:
    """A pipe's (read end, write end), unbuffered, closed when stack is."""
    r, w = os.pipe()
    return (stack.enter_context(open(r, "rb", buffering=0)),
            stack.enter_context(open(w, "wb", buffering=0)))


def _keep(ends, *mine) -> None:
    """Close every pipe end in ends but mine: a pipe then reads as ended,
    or fails to write, once the process at its other end has exited."""
    for end in ends:
        if all(end is not m for m in mine):
            end.close()


def _send(end, value: int) -> None:
    end.write(_ROW.pack(value))


def _receive(end, wait: bool = True) -> list[int]:
    """The values sent to end since the last call; without wait, [] when
    none are. EOFError once the sender has exited or closed its end."""
    import select

    if not wait and not select.select([end], [], [], 0)[0]:
        return []
    data = os.read(end.fileno(), 1 << 16)
    if not data:
        raise EOFError("the process at the other end of the pipe has ended")
    return [v for (v,) in _ROW.iter_unpack(data)]


def _lead(run, sink, down, up, job, ends):
    """This process's part of write_timeseries: make the run (run is a
    call, or the Trajectory itself); with a follower behind down, tell it
    the run has ended and read back the row it stops at; write the rows
    from there to sink, then make job. Returns the trajectory, or None
    once the follower has stopped answering (workers.deal then raises how
    it ended)."""
    _keep(ends, down, up)
    try:
        if isinstance(run, Trajectory):
            traj = run
        else:
            traj = run(progress=_reporter(down) if down else None)
        start = 0
        if down:
            _send(down, ~traj.times.shape[0])  # a negative count: the run has ended
            [start] = _receive(up)
    except (BrokenPipeError, EOFError):
        return None
    _write_rows(sink, traj.times[start:], traj.states[start:])
    if job is not None:
        fn, *args = job
        fn(traj, *args)
    return traj


def _reporter(down):
    """A progress hook for integrate that tells the follower, behind down,
    how many rows are final, once at least _BLOCK_ROWS more are."""
    sent = 0

    def progress(count: int) -> None:
        nonlocal sent
        if count - sent >= _BLOCK_ROWS:
            _send(down, count)
            sent = count

    return progress


def _share(rows: int, extra: float) -> int:
    """The follower's share of the rows left when the run ends, beside this
    process, which formats the rest and then makes a job that costs extra
    rows: half of the rows and the job together, rounded up, so the two
    loads come out even; all the rows when they are fewer than
    2 x _ROWS_PER_WRITER or the job outweighs them."""
    if rows < 2 * _ROWS_PER_WRITER or extra > rows:
        return rows
    return math.ceil((rows + extra) / 2)


def _stream(inbox, reply, out, grid, states, cost, ends) -> None:
    """The follower: format the rows the run reports final, whole blocks
    of _BLOCK_ROWS, into out; when the run ends, send back the row it
    stops at, its _share of the rest beside a job that costs cost (a fixed
    part and a part a row), and format on to it. Ends quietly when this
    process's leader has gone."""
    _keep(ends, inbox, reply)
    times = grid()
    reached, final, ended = 0, 0, False
    try:
        while not ended:
            for value in _receive(inbox, wait=final - reached < _BLOCK_ROWS):
                ended, final = (True, ~value) if value < 0 else (False, value)
            if not ended and final - reached >= _BLOCK_ROWS:
                block = slice(reached, reached + _BLOCK_ROWS)
                _write_rows(out, times[block], states[block])
                reached += _BLOCK_ROWS
        stop = reached + _share(final - reached, cost[0] + cost[1] * final)
        _send(reply, stop)
    except EOFError:
        return
    _write_rows(out, times[reached:stop], states[reached:stop])


def render_itinerary(report: ItineraryReport) -> str:
    """Human-readable visit listing (1-based labels)."""
    head = "superstructure" if report.level == LEVEL_SUPER else f"substructure {report.j + 1}"
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
    if w.variant == VARIANT_BOUNDED:
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

    lines.append("[itineraries]")  # of the report's one scenario, labelled scenario 1
    if not report.completed:
        lines.append(f"  scenario 1: termination {report.termination}"
                     f" at t={report.last_time:g}: FAIL")
    for o in report.itineraries:
        head = "super" if o.report.level == LEVEL_SUPER else f"sub {o.report.j + 1}"
        seq = ",".join(str(v.vertex + 1) for v in o.report.visits) or "(none)"
        # a level with no checked pair has passed nothing; the verdict still counts it
        if o.check.n_pairs == 0:
            status = "not exercised"
        else:
            status = "PASS" if o.check.passed else "FAIL"
        lines.append(
            f"  scenario 1 {head}: visits {seq}"
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
_MAX_POINTS = 2000


def _polyline(ts, ys, x0, y0, w, h, t_max, y_max, color) -> str:
    xs = x0 + (ts / t_max) * w
    yy = y0 + h - np.clip(ys / y_max, 0.0, 1.0) * h
    pts = " ".join(["%.2f,%.2f"] * xs.size) % tuple(np.column_stack((xs, yy)).ravel().tolist())
    return f'<polyline fill="none" stroke="{color}" stroke-width="1" points="{pts}"/>'


def write_svg_panels(traj: Trajectory, layout: HierarchySpec,
                     itinerary: list[ItineraryReport], path) -> None:
    """One panel for X, one per substructure block shaded over the active
    windows of its report in itinerary (extract_itinerary's list); each
    trace draws at most _MAX_POINTS samples."""
    panels = [("X (superstructure)", layout.super_slice, [])]
    panels += [(f"x^{rep.j + 1} (substructure {rep.j + 1})", layout.sub_slice(rep.j),
                rep.active_windows) for rep in itinerary[1:]]
    n = traj.times.shape[0]
    # no more points than samples: the step is at least 1, so no index repeats
    idx = np.linspace(0, n - 1, min(_MAX_POINTS, n)).astype(int)
    ts = traj.times[idx]
    t_max = max(float(traj.times[-1]), 1e-12)

    height = _MARGIN_T + len(panels) * (_PANEL_H + _GAP)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PANEL_W + _MARGIN_L + 20}"'
        f' height="{height}" font-family="sans-serif" font-size="11">'
    ]
    for row, (label, coords, windows) in enumerate(panels):
        y0 = _MARGIN_T + row * (_PANEL_H + _GAP)
        parts.append(
            f'<rect x="{_MARGIN_L}" y="{y0}" width="{_PANEL_W}" height="{_PANEL_H}"'
            f' fill="white" stroke="#999"/>'
        )
        parts.append(f'<text x="{_MARGIN_L}" y="{y0 - 5}">{label}</text>')
        parts += [_shade(t0, t1, y0, t_max) for t0, t1 in windows]
        block = traj.states[:, coords]
        y_max = max(1.05, float(block.max()) * 1.05)
        for m in range(block.shape[1]):
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
    with publish(path) as fh:  # part by part: the whole text is never joined
        fh.write(parts[0])
        for part in parts[1:]:
            fh.write("\n" + part)


def _shade(t0: float, t1: float, y0: float, t_max: float) -> str:
    x0 = _MARGIN_L + (t0 / t_max) * _PANEL_W
    w = max((t1 - t0) / t_max * _PANEL_W, 0.5)
    return (
        f'<rect x="{x0:.2f}" y="{y0}" width="{w:.2f}" height="{_PANEL_H}"'
        f' fill="#ffd27f" fill-opacity="0.35" stroke="none"/>'
    )
