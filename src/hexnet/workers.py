"""Forked worker processes: the one module that decides how hexnet splits
work over processes, and the one place it calls os.fork.

run(calls) runs a list of independent calls and returns their values in
order. It cuts them into contiguous groups in call order, one per process,
as many as there are available CPUs and calls. The first group runs in this
process. Every other group runs at the same time in a forked copy of this
process, so it sees the caller's objects as they were at the fork and needs
nothing sent to it; its outcome (the values, or the exception a call
raised) comes back pickled through an unnamed temporary file. With one CPU,
or without fork, the calls run here, one after another. Either way a call's
exception is raised in the caller, and no worker outlives run.

deal(calls, weights) deals calls by weight into one bin per process and
runs the bins through run. shares(n, min_size) cuts range(n) into
contiguous slices, one per process that run would use, for work of even
cost per item: run([(fn, items[s]) for s in shares(len(items))]).

The CPUs a call sees are those its process has not yet handed to a worker:
while k forked workers run, available_cpus() is k fewer (at least 1), and a
worker sees one. So a deal nested inside the first call of another forks
only onto CPUs that are free, and the two together never run more
processes than there are CPUs.
"""
from __future__ import annotations

import os
import pickle
import signal
import tempfile

from hexnet.errors import WorkerError

__all__ = ["available_cpus", "deal", "run", "shares"]

# set in a worker right after the fork: a worker runs its calls serially
_in_worker = False
# the workers this process has forked and not yet reaped
_live = 0


def available_cpus() -> int:
    """How many processes work may be split into: the size of this
    process's CPU affinity set less the workers it has forked and not yet
    reaped, and at least 1; 1 without fork or affinity, and 1 inside a
    worker, so workers never fork again."""
    if _in_worker or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, len(os.sched_getaffinity(0)) - _live)


def shares(n: int, min_size: int = 1) -> list[slice]:
    """Contiguous slices covering range(n) in order, one per process: as many
    as there are available CPUs, but fewer where a slice would hold fewer
    than min_size items, and at least one."""
    k = max(1, min(available_cpus(), n // min_size))
    return [slice(n * i // k, n * (i + 1) // k) for i in range(k)]


def run(calls: list) -> list:
    """[fn(*args) for fn, *args in calls], cut into min(available_cpus(),
    len(calls)) contiguous groups (the slices of shares), every group but
    the first in a forked worker.

    The first exception, in call order, is raised here; a worker that exits
    without reporting (it was killed, or its outcome could not be pickled)
    raises WorkerError. Workers not yet reaped when run leaves, also when an
    exception interrupts the wait for one, are killed (SIGKILL); every
    worker has been reaped when run returns or raises.
    """
    groups = [calls[s] for s in shares(len(calls))]
    if len(groups) < 2:
        return _run_bin(calls)
    pending = []  # (pid, outcome file) of each worker not yet reaped, in call order
    try:
        for group in groups[1:]:
            pending.append(_fork(_run_bin, (group,)))
        values = _run_bin(groups[0])
        while pending:
            pid, outcome = pending[0]
            status = _reap(pid)  # an interrupt here leaves the worker pending
            del pending[0]
            values += _read_outcome(pid, status, outcome)
        return values
    finally:
        for pid, outcome in pending:
            with outcome:
                os.kill(pid, signal.SIGKILL)
                _reap(pid)


def deal(calls: list, weights: list[float]) -> list:
    """[fn(*args) for fn, *args in calls], the calls dealt by weight, an
    estimate of their cost, into min(available_cpus(), len(calls)) bins
    (_schedule), each bin's calls made in order by one call of run."""
    bins = _schedule(weights, min(available_cpus(), len(calls)))
    values = [None] * len(calls)
    for b, got in zip(bins, run([(_run_bin, [calls[i] for i in b]) for b in bins])):
        for i, value in zip(b, got):
            values[i] = value
    return values


def _schedule(weights: list[float], n_bins: int) -> list[list[int]]:
    """Indices of deal's calls in n_bins bins: heaviest first (equal
    weights in call order), each into the least-loaded bin (of equal loads,
    the one with fewest calls, then the first), so bin 0, which run keeps in
    this process, holds the heaviest call."""
    bins = [[] for _ in range(n_bins)]
    load = [0.0] * n_bins
    for i in sorted(range(len(weights)), key=lambda i: -weights[i]):
        b = min(range(n_bins), key=lambda b: (load[b], len(bins[b])))
        bins[b].append(i)
        load[b] += weights[i]
    return bins


def _run_bin(calls) -> list:
    return [fn(*args) for fn, *args in calls]


def _fork(fn, args) -> tuple[int, object]:
    """Fork a child that runs fn(*args) and pickles its outcome to a fresh
    temporary file; return the child's pid and that file."""
    global _in_worker, _live
    outcome = tempfile.TemporaryFile()
    try:
        pid = os.fork()
    except BaseException:
        outcome.close()
        raise
    if pid:
        _live += 1
        return pid, outcome
    status = 1
    try:
        _in_worker = True
        try:
            reported = (True, fn(*args))
        except Exception as exc:  # sent to the parent, which raises it
            reported = (False, exc)
        pickle.dump(reported, outcome, pickle.HIGHEST_PROTOCOL)
        outcome.flush()
        status = 0
    finally:  # never return into the caller's code or run its exit handlers
        os._exit(status)


def _reap(pid: int) -> int:
    """Wait for the worker pid to exit; return its exit code."""
    global _live
    status = os.waitpid(pid, 0)[1]
    _live -= 1
    return os.waitstatus_to_exitcode(status)


def _read_outcome(pid: int, status: int, outcome):
    """The values of the calls of the worker pid, reaped with exit code
    status, from its outcome file; or raise the exception a call raised."""
    with outcome:
        if status != 0:
            raise WorkerError(f"worker {pid} exited with status {status}")
        outcome.seek(0)
        ok, value = pickle.load(outcome)
    if not ok:
        raise value
    return value
