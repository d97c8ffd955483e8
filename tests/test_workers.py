"""Forked workers: outcomes, failures and cleanup.

Claims covered:
    - a worker returns its call's value, computed in another process
    - a worker that raises gives the same exception type and message in the
      parent, and leaves no child; a scenario error keeps its field path
    - a worker that exits with a nonzero status raises WorkerError, which is
      not an OSError
    - a parent that raises while a worker runs kills and reaps it
    - a worker sees one available CPU, so it never forks again
"""
import os
import time

import pytest

from hexnet import workers
from hexnet.errors import ScenarioValidationError, WorkerError


def _pid_and_cpus():
    return os.getpid(), workers.available_cpus()


def _fail(message):
    raise KeyError(message)


def test_worker_returns_the_value_from_another_process(force_cpus):
    forks = force_cpus(4)
    assert workers.available_cpus() == 4
    with workers.start(_pid_and_cpus) as worker:
        pid, cpus = worker.result()
    assert pid == worker.pid != os.getpid()
    assert cpus == 1
    assert forks() == [str(os.getpid())]


def test_worker_exception_is_raised_in_the_parent():
    with workers.start(_fail, "no such run") as worker:
        with pytest.raises(KeyError, match="no such run"):
            worker.result()


def _invalid(path, message):
    raise ScenarioValidationError(path, message)


def test_worker_scenario_error_keeps_its_path():
    with workers.start(_invalid, "field.phi", "must be positive") as worker:
        with pytest.raises(ScenarioValidationError) as err:
            worker.result()
    assert err.value.path == "field.phi"
    assert str(err.value) == "field.phi: must be positive"


def test_worker_exit_status_raises_worker_error():
    with workers.start(os._exit, 3) as worker:
        with pytest.raises(WorkerError, match="exited with status 3") as err:
            worker.result()
    assert not isinstance(err.value, OSError)


def test_parent_error_kills_and_reaps_the_worker():
    t0 = time.monotonic()
    with pytest.raises(RuntimeError):
        with workers.start(time.sleep, 60.0) as worker:
            raise RuntimeError("parent failed")
    assert time.monotonic() - t0 < 30.0  # killed, not waited for
    with pytest.raises(ProcessLookupError):
        os.kill(worker.pid, 0)
