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
    - each worker pins itself to one CPU of the affinity set, a CPU of its
      own that is not the one this process runs on (_current_cpu); this
      process is never pinned, also when a call raises or the wait is
      interrupted; a pin that fails, or no way to read or set a CPU, runs
      the worker unpinned with the same values
    - deal's schedule deals the calls heaviest first into the least-loaded
      bin, so the heaviest call runs in this process
"""
import os
import signal
import time

import pytest

from hexnet import workers
from hexnet.errors import ScenarioValidationError, WorkerError
from hexnet.workers import _current_cpu, _schedule


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
    # heaviest first into the least-loaded bin (then the one with fewest
    # calls, then the first); a witness run weighs 0
    assert _schedule([1.0, 5.0, 2.0, 2.5, 0.0], 2) == [[1, 4], [3, 2, 0]]
    assert _schedule([1.0, 5.0, 2.0, 2.5, 0.0], 3) == [[1], [3, 4], [2, 0]]
    assert _schedule([0.0] * 4, 2) == [[0, 2], [1, 3]]
    assert _schedule([3.0, 0.0], 2) == [[0], [1]]
    assert _schedule([], 0) == []


def _affinity():
    return os.getpid(), sorted(os.sched_getaffinity(0))


def test_each_worker_pins_itself_to_a_cpu_of_its_own(force_cpus):
    # 3 workers at 4 CPUs: each asks, once, for one CPU of the set, none
    # shared and none the one this process runs on (force_cpus fixes it)
    forks = force_cpus(4)
    values = _deal([(_tagged, tag) for tag in range(4)])
    workers_pids = {str(pid) for _, pid, _ in values[1:]}
    pins = forks.pins()
    assert {pid for pid, _ in pins} == workers_pids and len(pins) == 3
    cpus = [cpu for _, cpu_set in pins for cpu in cpu_set]
    assert all(len(cpu_set) == 1 for _, cpu_set in pins)
    assert len(set(cpus)) == 3 and set(cpus) <= set(range(4))
    assert set(cpus).isdisjoint(forks.cpus())


@pytest.mark.parametrize("case", ["returns", "raises", "interrupted"])
def test_the_parent_is_never_pinned(force_cpus, case):
    forks = force_cpus(3)
    calls = {"returns": [(int,), (int,), (int,)],
             "raises": [(_parent_fails,), (time.sleep, 60.0), (time.sleep, 60.0)],
             "interrupted": [(time.sleep, 0.0), (time.sleep, 60.0)]}[case]
    raised = None
    previous = signal.signal(signal.SIGALRM, _interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5 if case == "interrupted" else 0.0)
        try:
            _deal(calls)
        except (RuntimeError, _Interrupt) as exc:
            raised = type(exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert raised is {"returns": None, "raises": RuntimeError, "interrupted": _Interrupt}[case]
    assert len(forks()) == len(calls) - 1
    assert str(os.getpid()) not in {pid for pid, _ in forks.pins()}


def test_the_parent_keeps_its_affinity_set():
    # unforced: the worker really runs on one CPU of this process's set,
    # and this process's set is the same after the deal
    before = os.sched_getaffinity(0)
    assert _current_cpu() in before
    here, there = _deal([(_affinity,), (_affinity,)])
    assert here == (os.getpid(), sorted(before)) and os.sched_getaffinity(0) == before
    if len(before) > 1:
        assert there[0] != os.getpid() and len(there[1]) == 1 and set(there[1]) <= before


def _pin_fails(pid, cpus):
    raise OSError(22, "Invalid argument")


def _no_stat(*args, **kwargs):
    raise FileNotFoundError("/proc/self/stat")


@pytest.mark.parametrize("case", ["pin raises", "no setaffinity", "no stat"])
def test_an_unpinned_worker_returns_the_same_values(monkeypatch, force_cpus, case):
    forks = force_cpus(3)
    if case == "pin raises":
        monkeypatch.setattr(os, "sched_setaffinity", _pin_fails)
    elif case == "no setaffinity":
        monkeypatch.delattr(os, "sched_setaffinity")
    else:  # the real read, which force_cpus replaced, finds no stat file
        monkeypatch.setattr(workers, "_current_cpu", _current_cpu)
        monkeypatch.setattr(workers, "open", _no_stat, raising=False)
    values = _deal([(_tagged, tag) for tag in range(5)])
    assert [tag for tag, _, _ in values] == list(range(5))
    assert len({pid for _, pid, _ in values}) == 3 and len(forks()) == 2
    assert forks.pins() == []
