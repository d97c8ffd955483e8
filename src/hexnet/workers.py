"""Forked worker processes: the one place hexnet calls os.fork.

A worker runs one call, fn(*args), in a forked copy of this process, so it
sees the caller's objects as they were at the fork and needs nothing sent
to it. Its outcome (the return value, or the exception it raised) comes
back pickled through an unnamed temporary file. Callers split their work
over at most available_cpus() processes, themselves included; with one
CPU, or without fork, they run it all in the calling process, in the same
order.

    with start(fn, *args) as worker:
        ...                      # the caller's own share of the work
        value = worker.result()  # fn's return value, or its exception raised here

Leaving the with block without collecting the result, because the caller
raised or returned early, kills the worker (SIGKILL) and reaps it, so no
child outlives the block. contextlib.ExitStack holds several workers the
same way.
"""
from __future__ import annotations

import os
import pickle
import signal
import tempfile

from hexnet.errors import WorkerError

__all__ = ["Worker", "available_cpus", "start"]

# set in a worker right after the fork: a worker runs its share serially
_in_worker = False


def available_cpus() -> int:
    """How many processes work may be split into: the size of this
    process's CPU affinity set; 1 without fork or affinity, and 1 inside a
    worker, so workers never fork again."""
    if _in_worker or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


class Worker:
    """A forked child running one call, until result() or the end of the
    with block reaps it."""

    def __init__(self, pid: int, outcome):
        self.pid = pid
        self._outcome = outcome
        self._running = True

    def result(self):
        """Reap the child; return what the call returned, or raise the
        exception it raised. A child that exited with a nonzero status (it
        could not report, or was killed) raises WorkerError."""
        self._running = False
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        if status != 0:
            raise WorkerError(f"worker {self.pid} exited with status {status}")
        self._outcome.seek(0)
        ok, value = pickle.load(self._outcome)
        if not ok:
            raise value
        return value

    def __enter__(self) -> Worker:
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            if self._running:
                self._running = False
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
        finally:
            self._outcome.close()


def start(fn, *args) -> Worker:
    """Fork a child that runs fn(*args) and reports its outcome; use the
    returned Worker as a context manager."""
    global _in_worker
    outcome = tempfile.TemporaryFile()
    try:
        pid = os.fork()
    except BaseException:
        outcome.close()
        raise
    if pid:
        return Worker(pid, outcome)
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
