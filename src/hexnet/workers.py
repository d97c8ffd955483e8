"""Forked worker processes: the one module that decides how hexnet splits
work over processes, and the one place it calls os.fork.

deal(calls, weights) makes a list of calls and returns their values in call
order. It deals the calls by weight, an estimate of their cost, into one
bin per process, as many as there are available CPUs and calls
(_schedule). The first bin runs in this process. Every other bin runs at
the same time in a forked copy of this process, so it sees the caller's
objects as they were at the fork and needs nothing sent to it; its outcome
(the values, or the exception a call raised) comes back pickled through an
unnamed temporary file. With one CPU, or without fork, the calls run here,
one after another. Either way a call's exception is raised in the caller,
and no worker outlives deal.

Each worker runs on a CPU of its own: at the deal, before any fork, deal
reads this process's affinity set and the CPU it runs on now, and gives
each worker another CPU of that set, which the worker pins itself to
(os.sched_setaffinity) right after the fork. Where the kernel never
migrates a forked process (a cpuset whose sched_load_balance is 0), a
worker would otherwise share its parent's CPU for the whole deal. This
process is never pinned. Where a CPU cannot be read or set, a worker runs
unpinned: where it runs never changes a value.

The calls of one deal are independent, but for one exception: a call may
talk to another call (through a pipe made before the deal) only when each
has a bin of its own, or one would wait for a call that its own bin runs
after it. deal gives each call a bin of its own when there are no more
calls than available_cpus() and their weights are equal; the first call
then runs here. simulate's CSV writer makes such a deal of two calls, the
run here and one follower that formats its rows (output.write_timeseries).

deal is the only scheduler. Each command makes one deal call, over one flat
list of jobs, and no dealt call deals again: a worker sees one available
CPU, so it never forks.
"""
from __future__ import annotations

import os
import pickle
import signal
import tempfile

from hexnet.errors import WorkerError

__all__ = ["available_cpus", "deal"]

# set in a worker right after the fork: a worker runs its calls serially
_in_worker = False


def available_cpus() -> int:
    """How many processes work may be split into: the size of this
    process's CPU affinity set; 1 without fork or affinity, and 1 inside a
    worker, so workers never fork again."""
    if _in_worker or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def deal(calls: list, weights: list[float]) -> list:
    """[fn(*args) for fn, *args in calls], the calls dealt by weight, an
    estimate of their cost, into min(available_cpus(), len(calls)) bins
    (_schedule), each bin's calls made in order, every bin but the first in
    a forked worker, each worker on a CPU of its own (_worker_cpus).

    Of the bins that raise, the first in bin order raises its exception
    here; a worker that exits without reporting (it was killed, or its
    outcome could not be pickled) raises WorkerError. Workers not yet
    reaped when deal leaves, also when an exception interrupts the wait for
    one, are killed (SIGKILL); every worker has been reaped when deal
    returns or raises.
    """
    bins = _schedule(weights, max(1, min(available_cpus(), len(calls))))
    pending = []  # (pid, outcome file) of each worker not yet reaped, in bin order
    try:
        for b, cpu in zip(bins[1:], _worker_cpus(len(bins) - 1)):
            pending.append(_fork([calls[i] for i in b], cpu))
        got = [_run_bin([calls[i] for i in bins[0]])]
        while pending:
            pid, outcome = pending[0]
            status = _reap(pid)  # an interrupt here leaves the worker pending
            del pending[0]
            got.append(_read_outcome(pid, status, outcome))
    finally:
        for pid, outcome in pending:
            with outcome:
                os.kill(pid, signal.SIGKILL)
                _reap(pid)
    values = [None] * len(calls)
    for b, bin_values in zip(bins, got):
        for i, value in zip(b, bin_values):
            values[i] = value
    return values


def _schedule(weights: list[float], n_bins: int) -> list[list[int]]:
    """Indices of deal's calls in n_bins bins: heaviest first (equal
    weights in call order), each into the least-loaded bin (of equal loads,
    the one with fewest calls, then the first), so bin 0, which deal keeps
    in this process, holds the heaviest call."""
    bins = [[] for _ in range(n_bins)]
    load = [0.0] * n_bins
    for i in sorted(range(len(weights)), key=lambda i: -weights[i]):
        b = min(range(n_bins), key=lambda b: (load[b], len(bins[b])))
        bins[b].append(i)
        load[b] += weights[i]
    return bins


def _worker_cpus(n: int) -> list:
    """A CPU for each of n workers: the first n CPUs of this process's
    affinity set but the one it runs on now (_current_cpu); None for each
    where that CPU cannot be read or a process cannot be pinned."""
    here = _current_cpu() if n and hasattr(os, "sched_setaffinity") else None
    if here is None:
        return [None] * n
    free = sorted(os.sched_getaffinity(0) - {here})[:n]
    return free + [None] * (n - len(free))


def _current_cpu() -> int | None:
    """The CPU this process runs on now, the processor field of
    /proc/self/stat; None where it cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as fh:  # the name, in (), may hold spaces
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _run_bin(calls) -> list:
    return [fn(*args) for fn, *args in calls]


def _fork(calls, cpu) -> tuple[int, object]:
    """Fork a child that pins itself to cpu (unless None), makes calls
    (_run_bin) and pickles its outcome to a fresh temporary file; return
    the child's pid and that file."""
    global _in_worker
    outcome = tempfile.TemporaryFile()
    try:
        pid = os.fork()
    except BaseException:
        outcome.close()
        raise
    if pid:
        return pid, outcome
    status = 1
    try:
        _in_worker = True
        if cpu is not None:
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:  # the CPU left the set since the deal read it
                pass
        try:
            reported = (True, _run_bin(calls))
        except Exception as exc:  # sent to the parent, which raises it
            reported = (False, exc)
        pickle.dump(reported, outcome, pickle.HIGHEST_PROTOCOL)
        outcome.flush()
        status = 0
    finally:  # never return into the caller's code or run its exit handlers
        os._exit(status)


def _reap(pid: int) -> int:
    """Wait for the worker pid to exit; return its exit code."""
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


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
