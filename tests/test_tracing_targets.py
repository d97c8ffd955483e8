"""The benchmark tracer's targets.

Claims covered:
    - bench/tracing.py's Tracer.installed finds every module attribute it
      wraps (no KeyError), replaces them inside its block and restores
      every original on exit, so removing or renaming a traced name fails
      here and not only in a traced benchmark run
    - under the tracer at one CPU, witness on example1 records one
      integrate span per half of each distinct run, 3 runs x 2 halves, and
      no witness span; the RHS calls counted are their evaluations
    - a lone witness run with a free CPU traces one integrate span, its
      forward half; the RHS calls the tracer counts are that span's
      evaluations, so a traced benchmark run stays consistent
    - simulate at two CPUs, beside a follower that formats rows, traces
      its one integrate span's evaluations, and its itinerary and svg
      spans, all three inside its csv span
"""
import importlib.util
import sys
from pathlib import Path

import hexnet
import hexnet.analysis
import hexnet.cli
import hexnet.integrator
import hexnet.output
import hexnet.scenario

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
OWNERS = (hexnet, hexnet.analysis, hexnet.cli, hexnet.integrator, hexnet.scenario,
          hexnet.scenario.Scenario)


def _load_tracing(monkeypatch):
    """bench/tracing.py as a module, loaded without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist_and_are_restored(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    before = [dict(vars(owner)) for owner in OWNERS]
    with tracing.Tracer().installed(hexnet):
        wrapped = {
            (owner.__name__, name)
            for owner, names in zip(OWNERS, before)
            for name, value in vars(owner).items()
            if names.get(name) is not value
        }
    assert {
        ("hexnet.analysis", "extract_itinerary"),
        ("hexnet.cli", "extract_itinerary"),
        ("hexnet.cli", "run_witness"),
        ("hexnet.cli", "write_svg_panels"),
        ("hexnet.cli", "write_timeseries"),
    } <= wrapped
    after = [dict(vars(owner)) for owner in OWNERS]
    for owner, names, names_after in zip(OWNERS, before, after):
        assert names_after.keys() == names.keys(), owner.__name__
        assert [n for n in names if names_after[n] is not names[n]] == [], owner.__name__


def test_witness_runs_trace_one_integrate_span_per_half(monkeypatch, force_cpus, capsys):
    # the witness jobs look integrate up when they are planned, so they call
    # the tracer's wrapper: example1's 9 witnesses share 3 runs, each a
    # forward and a backward integrate job, all made here at 1 CPU
    tracing = _load_tracing(monkeypatch)
    force_cpus(1)
    tracer = tracing.Tracer()
    with tracer.installed(hexnet):
        assert hexnet.cli.main(["witness", str(hexnet.bundled_scenario_path("example1"))]) == 0
    assert capsys.readouterr().out.count(": PASS") == 9
    integ = [s for s in tracer.spans if s.name == "integrate"]
    assert len(integ) == 6
    assert not any(s.name == "witness" for s in tracer.spans)
    assert tracer.rhs_calls == sum(s.counts["n_evals"] for s in integ) > 0


def test_a_lone_witness_run_traces_its_forward_half_here(monkeypatch, force_cpus, capsys,
                                                         small_scenario_file):
    # small_scenario's 3 witnesses at one delta share 1 run; with 2 CPUs
    # its backward half runs in a worker, which the tracer does not see, so
    # one integrate span is traced, and the RHS calls counted here are its
    # evaluations, as bench/run.py's trace check reads
    tracing = _load_tracing(monkeypatch)
    forks = force_cpus(2)
    tracer = tracing.Tracer()
    with tracer.installed(hexnet):
        assert hexnet.cli.main(["witness", str(small_scenario_file)]) == 0
    assert capsys.readouterr().out.count(": PASS") == 3
    assert len(forks()) == 1
    [integ] = [s for s in tracer.spans if s.name == "integrate"]
    assert tracer.rhs_calls == integ.counts["rhs_calls"] == integ.counts["n_evals"] > 0
    metrics = tracing.layer_metrics(tracer.spans, 1.0)
    assert metrics["vectorfield.evals"] == metrics["_n_evals"]


def test_simulate_traces_its_evaluations_beside_a_worker(monkeypatch, force_cpus, capsys,
                                                         tmp_path, small_scenario_file):
    # at 2 CPUs, 801 rows at 400 rows a process, simulate's one deal makes
    # the run, the last rows and the itinerary job here, inside the csv
    # span, while a follower formats the other rows: the tracer sees the
    # one integrate span, whose evaluations are the RHS calls it counts, as
    # bench/run.py's trace check reads, and the itinerary, report (the
    # itinerary's text) and svg spans, all inside the csv span
    tracing = _load_tracing(monkeypatch)
    forks = force_cpus(2)
    monkeypatch.setattr(hexnet.output, "_ROWS_PER_WRITER", 400)
    tracer = tracing.Tracer()
    with tracer.installed(hexnet):
        argv = ["simulate", str(small_scenario_file), "--out", str(tmp_path / "out"), "--plots"]
        assert hexnet.cli.main(argv) == 0
    assert capsys.readouterr().out.startswith("simulated to t=80:")
    assert len(forks()) == 1
    assert sorted(f.name for f in (tmp_path / "out").iterdir()) == [
        "itinerary.txt", "plot.svg", "timeseries.csv"]
    metrics = tracing.layer_metrics(tracer.spans, 1.0)
    assert metrics["vectorfield.evals"] == metrics["_n_evals"] > 0
    assert metrics["integrator.calls"] == 1 and metrics["integrator.samples"] == 801
    assert metrics["output.csv_s"] > metrics["integrator.busy_s"] > 0.0
    assert metrics["analysis.itinerary_s"] > 0.0 and metrics["output.svg_s"] > 0.0
    [csv] = [s for s in tracer.spans if s.name == "csv"]
    assert {s.name for s in tracer.spans if s.parent == csv.id} == {
        "integrate", "itinerary", "report", "svg"}
