"""Forked workers: outcomes, failures, cleanup and the split of the work.

Claims covered:
    - run returns each call's value in call order; it cuts the calls into
      min(cpus, calls) contiguous groups, so it never runs more processes
      than CPUs; every group but the first is computed in another process,
      which sees one available CPU, so it never forks again
    - the first call sees the CPUs its k workers leave, cpus - k, and every
      CPU is available again once run returns or raises; so a deal nested
      in a dealt call forks only onto free CPUs
    - with one CPU, run forks nothing and makes the calls here, in order;
      with no calls it returns [] and forks nothing at any CPU count
    - a worker that raises gives the same exception type and message in the
      parent, and leaves no child; a scenario error keeps its field path
    - a worker that exits with a nonzero status raises WorkerError, which is
      not an OSError
    - a first call that raises while a worker runs kills and reaps it, and
      so does an exception that interrupts the wait for a worker
    - shares cuts range(n) into contiguous slices, as many as the CPUs
      allow with at least min_size items each, and at least one
    - deal returns each call's value in call order over min(cpus, calls)
      processes; its schedule deals the calls heaviest first into the
      least-loaded bin, so the heaviest call runs in this process
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


def test_worker_returns_the_value_from_another_process(force_cpus):
    forks = force_cpus(4)
    assert workers.available_cpus() == 4
    here, *there = workers.run([(_tagged, tag) for tag in range(3)])
    assert here == (0, os.getpid(), 4 - 2)  # the first call runs beside 2 workers
    assert [tag for tag, _, _ in there] == [1, 2]
    assert len({pid for _, pid, _ in there} | {os.getpid()}) == 3
    assert [cpus for _, _, cpus in there] == [1, 1]
    assert forks() == [str(os.getpid())] * 2


@pytest.mark.parametrize("cpus", [2, 3, 4])
@pytest.mark.parametrize("n_calls", [2, 3, 5])
def test_first_call_sees_the_cpus_its_workers_leave(force_cpus, cpus, n_calls):
    # one group per process, at most one process per CPU: with more calls
    # than CPUs the calls after the first share the processes, and every
    # call but the first sees 1 CPU (here the first group's later calls
    # run beside cpus - 1 workers)
    forks = force_cpus(cpus)
    n_workers = min(cpus, n_calls) - 1
    here, *there = workers.run([(_tagged, tag) for tag in range(n_calls)])
    assert here[2] == cpus - n_workers
    assert [cpus_seen for _, _, cpus_seen in there] == [1] * (n_calls - 1)
    assert workers.available_cpus() == cpus  # every worker reaped
    assert len(forks()) == n_workers


@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_run_cuts_the_calls_into_one_contiguous_group_per_cpu(force_cpus, cpus):
    forks = force_cpus(cpus)
    values = workers.run([(_tagged, tag) for tag in range(7)])
    assert [tag for tag, _, _ in values] == list(range(7))
    bounds = [7 * i // cpus for i in range(cpus + 1)]  # the slices of shares(7)
    pids = [pid for _, pid, _ in values]
    groups = [pids[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    assert groups[0] == [os.getpid()] * len(groups[0])
    assert [len(set(group)) for group in groups] == [1] * cpus
    assert len({group[0] for group in groups}) == cpus
    assert forks() == [str(os.getpid())] * (cpus - 1)


def test_first_exception_in_call_order_from_a_shared_worker(force_cpus):
    # at 2 CPUs calls 0 and 1 run here and calls 2-4 share one worker
    force_cpus(2)
    made = []
    with pytest.raises(KeyError, match="third"):
        workers.run([(made.append, 0), (made.append, 1), (_fail, "third"), (_fail, "fourth"),
                     (made.append, 4)])
    assert made == [0, 1]
    assert workers.available_cpus() == 2


def _deal_inside(n_calls):
    return workers.deal([(_tagged, tag) for tag in range(n_calls)], [0.0] * n_calls)


def test_nested_deal_forks_only_onto_free_cpus(force_cpus):
    # an outer deal of 2 calls at 3 CPUs leaves its first call 2: that call's
    # own deal of 2 forks 1 worker, so 3 processes run at most; the outer
    # worker sees 1 CPU and forks nothing
    forks = force_cpus(3)
    here, there = workers.deal([(_deal_inside, 2), (_deal_inside, 2)], [0.0, 0.0])
    assert len({pid for _, pid, _ in here}) == 2
    assert len({pid for _, pid, _ in there}) == 1
    assert forks() == [str(os.getpid())] * 2
    assert workers.available_cpus() == 3
    # at 2 CPUs the first call has 1 left and deals its calls here
    forks = force_cpus(2)
    n_forks = len(forks())
    here, there = workers.deal([(_deal_inside, 2), (_deal_inside, 2)], [0.0, 0.0])
    assert {pid for _, pid, _ in here} == {os.getpid()}
    assert len(forks()) - n_forks == 1


def test_one_cpu_forks_nothing_and_runs_in_order(force_cpus):
    forks = force_cpus(1)
    made = []
    assert workers.run([(made.append, i) for i in range(3)]) == [None] * 3
    assert made == [0, 1, 2]
    assert forks() == []


def test_no_calls_return_nothing_and_fork_nothing(force_cpus):
    forks = force_cpus(2)
    assert workers.run([]) == []
    assert workers.deal([], []) == []
    assert forks() == []


def test_worker_exception_is_raised_in_the_parent(force_cpus):
    forks = force_cpus(2)
    with pytest.raises(KeyError, match="no such run"):
        workers.run([(int,), (_fail, "no such run")])
    assert len(forks()) == 1
    assert workers.available_cpus() == 2  # the worker is reaped


def _invalid(path, message):
    raise ScenarioValidationError(path, message)


def test_worker_scenario_error_keeps_its_path(force_cpus):
    force_cpus(2)
    with pytest.raises(ScenarioValidationError) as err:
        workers.run([(int,), (_invalid, "field.phi", "must be positive")])
    assert err.value.path == "field.phi"
    assert str(err.value) == "field.phi: must be positive"


def test_worker_exit_status_raises_worker_error(force_cpus):
    force_cpus(2)
    with pytest.raises(WorkerError, match="exited with status 3") as err:
        workers.run([(int,), (os._exit, 3)])
    assert not isinstance(err.value, OSError)


def _parent_fails():
    raise RuntimeError("parent failed")


def test_parent_error_kills_and_reaps_the_worker(force_cpus):
    force_cpus(3)
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="parent failed"):
        workers.run([(_parent_fails,), (time.sleep, 60.0), (time.sleep, 60.0)])
    assert time.monotonic() - t0 < 30.0  # killed, not waited for
    with pytest.raises(ChildProcessError):  # and reaped
        os.waitpid(-1, os.WNOHANG)
    assert workers.available_cpus() == 3


class _Interrupt(Exception):
    pass


def _interrupt(signum, frame):
    raise _Interrupt


def test_an_interrupted_wait_kills_and_reaps_the_worker(force_cpus):
    # the alarm fires while this process waits for the worker: run still
    # kills and reaps it, and every CPU is available again
    force_cpus(2)
    previous = signal.signal(signal.SIGALRM, _interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        t0 = time.monotonic()
        with pytest.raises(_Interrupt):
            workers.run([(time.sleep, 0.0), (time.sleep, 60.0)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - t0 < 30.0
    assert workers.available_cpus() == 2
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
