"""Forked workers: outcomes, failures, cleanup and the split of the work.

Claims covered:
    - deal returns each call's value in call order; it deals the calls into
      min(cpus, calls) bins, so it never runs more processes than CPUs;
      every bin but the first is computed in another process, which sees
      one available CPU, so it never forks again, while the caller sees
      every CPU before, during and after the deal
    - with one CPU, deal forks nothing and makes the calls here, in order;
      with no calls it returns [] and forks nothing at any CPU count
    - a worker that raises gives the same exception type and message in the
      parent, and leaves no child; a scenario error keeps its field path;
      of the bins that raise, the first in bin order raises, and a bin stops
      at its first exception
    - a worker that exits with a nonzero status raises WorkerError, which is
      not an OSError
    - a first bin that raises while a worker runs kills and reaps it, and
      so does an exception that interrupts the wait for a worker
    - shares cuts range(n) into contiguous slices, as many as the CPUs
      allow with at least min_size items each, and at least one
    - deal's schedule deals the calls heaviest first into the least-loaded
      bin, so the heaviest call runs in this process
"""
import os
import signal
import time

import pytest

from hexnet import workers
from hexnet.errors import ScenarioValidationError, WorkerError


def _tagged(tag):
    return tag, os.getpid(), workers.available_cpus()


def _fail(message):
    raise KeyError(message)


def _deal(calls):
    return workers.deal(calls, [0.0] * len(calls))


def test_worker_returns_the_value_from_another_process(force_cpus):
    forks = force_cpus(4)
    assert workers.available_cpus() == 4
    here, *there = _deal([(_tagged, tag) for tag in range(3)])
    assert here == (0, os.getpid(), 4)  # the caller sees every CPU beside its 2 workers
    assert [tag for tag, _, _ in there] == [1, 2]
    assert len({pid for _, pid, _ in there} | {os.getpid()}) == 3
    assert [cpus for _, _, cpus in there] == [1, 1]
    assert forks() == [str(os.getpid())] * 2


@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_deal_forks_one_worker_per_bin_past_the_first(force_cpus, cpus):
    # more calls than CPUs: one bin per CPU, every bin but this process's
    # in a worker that sees 1 CPU, while the caller sees all of them
    forks = force_cpus(cpus)
    values = _deal([(_tagged, tag) for tag in range(7)])
    assert [tag for tag, _, _ in values] == list(range(7))
    assert {cpus_seen for _, pid, cpus_seen in values if pid == os.getpid()} == {cpus}
    assert {cpus_seen for _, pid, cpus_seen in values if pid != os.getpid()} == {1}
    assert len({pid for _, pid, _ in values}) == cpus
    assert forks() == [str(os.getpid())] * (min(cpus, 7) - 1)
    assert workers.available_cpus() == cpus


def test_first_exception_in_call_order_from_a_shared_worker(force_cpus):
    # at 2 CPUs these weights deal calls 0 and 1 here and calls 2-4, in
    # that order, to one worker, which stops at call 2
    force_cpus(2)
    made = []
    with pytest.raises(KeyError, match="third"):
        workers.deal([(made.append, 0), (made.append, 1), (_fail, "third"), (_fail, "fourth"),
                      (made.append, 4)], [5.0, 0.0, 3.0, 1.0, 1.0])
    assert made == [0, 1]
    assert workers.available_cpus() == 2


def test_one_cpu_forks_nothing_and_runs_in_order(force_cpus):
    forks = force_cpus(1)
    made = []
    assert _deal([(made.append, i) for i in range(3)]) == [None] * 3
    assert made == [0, 1, 2]
    assert forks() == []


def test_no_calls_return_nothing_and_fork_nothing(force_cpus):
    forks = force_cpus(2)
    assert workers.deal([], []) == []
    assert forks() == []


def test_worker_exception_is_raised_in_the_parent(force_cpus):
    forks = force_cpus(2)
    with pytest.raises(KeyError, match="no such run"):
        _deal([(int,), (_fail, "no such run")])
    assert len(forks()) == 1


def _invalid(path, message):
    raise ScenarioValidationError(path, message)


def test_worker_scenario_error_keeps_its_path(force_cpus):
    force_cpus(2)
    with pytest.raises(ScenarioValidationError) as err:
        _deal([(int,), (_invalid, "field.phi", "must be positive")])
    assert err.value.path == "field.phi"
    assert str(err.value) == "field.phi: must be positive"


def test_worker_exit_status_raises_worker_error(force_cpus):
    force_cpus(2)
    with pytest.raises(WorkerError, match="exited with status 3") as err:
        _deal([(int,), (os._exit, 3)])
    assert not isinstance(err.value, OSError)


def _parent_fails():
    raise RuntimeError("parent failed")


def test_parent_error_kills_and_reaps_the_worker(force_cpus):
    force_cpus(3)
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="parent failed"):
        _deal([(_parent_fails,), (time.sleep, 60.0), (time.sleep, 60.0)])
    assert time.monotonic() - t0 < 30.0  # killed, not waited for
    with pytest.raises(ChildProcessError):  # and reaped
        os.waitpid(-1, os.WNOHANG)


class _Interrupt(Exception):
    pass


def _interrupt(signum, frame):
    raise _Interrupt


def test_an_interrupted_wait_kills_and_reaps_the_worker(force_cpus):
    # the alarm fires while this process waits for the worker: deal still
    # kills and reaps it
    force_cpus(2)
    previous = signal.signal(signal.SIGALRM, _interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        t0 = time.monotonic()
        with pytest.raises(_Interrupt):
            _deal([(time.sleep, 0.0), (time.sleep, 60.0)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - t0 < 30.0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("min_size", [1, 7, 10])
@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_shares_cover_range_contiguously(force_cpus, cpus, min_size):
    force_cpus(cpus)
    for n in range(51):
        chunks = workers.shares(n, min_size)
        assert [i for s in chunks for i in range(n)[s]] == list(range(n))
        k = min(cpus, max(1, n // min_size))  # slices, with bounds n * w // k
        bounds = [n * w // k for w in range(k + 1)]
        assert chunks == [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def test_deal_returns_values_in_call_order(force_cpus):
    for cpus in (1, 2, 3):
        forks = force_cpus(cpus)
        n_forks = len(forks())
        values = workers.deal([(_tagged, tag) for tag in range(5)], [1.0, 5.0, 2.0, 2.5, 0.0])
        assert [tag for tag, _, _ in values] == list(range(5))
        assert values[1][1] == os.getpid()  # the heaviest call runs here
        assert len({pid for _, pid, _ in values}) == cpus
        assert len(forks()) - n_forks == cpus - 1
    n_forks = len(forks())
    assert [tag for tag, _, _ in workers.deal([(_tagged, "only")], [0.0])] == ["only"]
    assert len(forks()) == n_forks  # one call: no worker, at 3 CPUs


def test_schedule_keeps_the_heaviest_run_here():
    from hexnet.workers import _schedule

    # heaviest first into the least-loaded bin (then the one with fewest
    # calls, then the first); a witness run weighs 0
    assert _schedule([1.0, 5.0, 2.0, 2.5, 0.0], 2) == [[1, 4], [3, 2, 0]]
    assert _schedule([1.0, 5.0, 2.0, 2.5, 0.0], 3) == [[1], [3, 4], [2, 0]]
    assert _schedule([0.0] * 4, 2) == [[0, 2], [1, 3]]
    assert _schedule([3.0, 0.0], 2) == [[0], [1]]
    assert _schedule([], 0) == []
