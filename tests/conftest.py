"""Shared fixtures. The two bundled example simulations are expensive
(tens of seconds each at rtol=atol=1e-12), so they are session-scoped and
shared between the module tests and the acceptance suite.

pyproject.toml's pythonpath puts this checkout's src/ ahead of PYTHONPATH,
so a run meant for another tree (PYTHONPATH=<other tree>/src) would test
this one without a word: the session names the hexnet it imported in its
header, and refuses to start when PYTHONPATH names another tree first."""
import os
from pathlib import Path

import pytest

import hexnet
from hexnet import workers
from hexnet.integrator import IntegratorConfig, integrate
from hexnet.scenario import bundled_scenario_path, load_scenario


def shadowed_tree(pythonpath: str, imported) -> Path | None:
    """The first entry of pythonpath (os.pathsep-separated) that holds
    hexnet/__init__.py, when that file is not the imported one; else None."""
    for entry in filter(None, pythonpath.split(os.pathsep)):
        init = Path(entry) / "hexnet" / "__init__.py"
        if init.is_file():
            return None if init.resolve() == Path(imported).resolve() else Path(entry)
    return None


def pytest_configure(config):
    other = shadowed_tree(os.environ.get("PYTHONPATH", ""), hexnet.__file__)
    if other is not None:
        raise pytest.UsageError(
            f"PYTHONPATH names the hexnet tree {other}, but the tests import"
            f" {hexnet.__file__} (pyproject.toml's pythonpath comes first)"
        )


def pytest_report_header(config):
    return f"hexnet: {hexnet.__file__}"


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def force_cpus(monkeypatch, tmp_path):
    """force_cpus(n) makes n CPUs available to hexnet's workers and returns
    a function forks() that lists the pid of the caller of every os.fork
    since the first force_cpus call, in this process or in any forked one.

    os.sched_setaffinity only logs what it is asked for, so forcing more
    CPUs than the machine has pins nothing: forks.pins() lists each
    (pid, requested set) in call order. workers._current_cpu reads the
    last forced CPU, n - 1, wherever the kernel moves this process, and
    forks.cpus() lists what it read at each fork."""
    forks_log, pins_log = tmp_path / "forks.log", tmp_path / "pins.log"
    fork = os.fork

    def logged():
        with open(forks_log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {workers._current_cpu()}\n")
        return fork()

    def pin(pid, cpus):
        with open(pins_log, "a", encoding="utf-8") as fh:
            fh.write(f"{pid or os.getpid()} {' '.join(map(str, sorted(cpus)))}\n")

    def lines(log):
        return [line.split() for line in log.read_text(encoding="utf-8").splitlines()] \
            if log.exists() else []

    def forks():
        return [pid for pid, _ in lines(forks_log)]

    forks.cpus = lambda: [int(cpu) for _, cpu in lines(forks_log)]
    forks.pins = lambda: [(pid, {int(c) for c in cpus}) for pid, *cpus in lines(pins_log)]

    def force(n: int):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", pin, raising=False)
        monkeypatch.setattr(os, "fork", logged)
        monkeypatch.setattr(workers, "_current_cpu", lambda: n - 1)
        return forks

    return force


@pytest.fixture(scope="session")
def example1():
    sc = load_scenario(bundled_scenario_path("example1"))
    return sc, sc.field_params(), sc.initial_state()


@pytest.fixture(scope="session")
def example2():
    sc = load_scenario(bundled_scenario_path("example2"))
    return sc, sc.field_params(), sc.initial_state()


@pytest.fixture(scope="session")
def example1_trajectory(example1):
    sc, p, s0 = example1
    import time

    t0 = time.time()
    traj = integrate(s0, p, sc.integrator)
    return traj, time.time() - t0


@pytest.fixture(scope="session")
def example2_trajectory(example2):
    sc, p, s0 = example2
    return integrate(s0, p, sc.integrator)


@pytest.fixture(scope="session")
def example1_fine_window0(example1):
    """Finely sampled prefix covering the first active window of block 3."""
    sc, p, s0 = example1
    cfg = IntegratorConfig(t_end=140.0, sample_dt=0.005)
    return integrate(s0, p, cfg)


_SMALL_SCENARIO = """\
hierarchy:
  superstructure:
    vertices: 3
    edges: [[1, 2], [2, 3], [3, 1]]
  substructures:
    - {vertices: 3, edges: [[1, 2], [2, 3], [3, 1]]}
    - {vertices: 3, edges: [[1, 2], [2, 3], [3, 1]]}
    - {vertices: 3, edges: [[1, 2], [2, 3], [3, 1]]}
coefficients:
  c_plus: 1.0
  c_minus: -1.5
field:
  epsilon: 0.2
  psi: 5.0
initial_state:
  X: [0.9, 0.1, 0.1]
  x:
    - [0.9, 0.1, 0.1]
    - [0.9, 0.1, 0.1]
    - [0.9, 0.1, 0.1]
integrator:
  t_end: 80.0
  rtol: 1.0e-09
  atol: 1.0e-09
  sample_dt: 0.1
analysis:
  witness_deltas: [0.01]
"""


@pytest.fixture(scope="session")
def small_scenario_file(tmp_path_factory):
    """A cheap scenario for CLI and workbench tests: unit timescales except
    psi = 5, fast enough that every block walks its cycle by t = 80."""
    path = tmp_path_factory.mktemp("scen") / "small.yaml"
    path.write_text(_SMALL_SCENARIO, encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def small_scenario(small_scenario_file):
    sc = load_scenario(small_scenario_file)
    return sc, sc.field_params(), sc.initial_state()
