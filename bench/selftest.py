"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest bench/selftest.py -q

About 30 s on a 2-core x86 machine: two traced repetitions of
generated_witness and one negative-control repetition of paper_verify.
"""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from _env import ROOT, import_hexnet  # noqa: E402

hexnet = import_hexnet()

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import CLI, Tracer, layer_metrics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEEDS = range(8)


@pytest.mark.parametrize("seed", SEEDS)
def test_generator_yields_valid_hierarchies(seed, tmp_path):
    wl = workloads.GeneratedWitness(seed, tmp_path)
    sc = hexnet.load_scenario(wl.scenario_path)  # raises on any invalid graph
    h = sc.hierarchy
    assert hexnet.validate_hierarchy(h) == []
    assert h.n_super >= 9
    assert all(3 <= n <= 6 for n in h.block_sizes)
    assert 55 <= h.dimension <= 70
    assert len(h.superstructure.edges) == workloads.GEN_N + workloads.GEN_SUPER_CHORDS
    assert wl.properties()["witnesses"] == len(h.superstructure.edges)


def test_generator_is_seeded(tmp_path):
    a = workloads.GeneratedWitness(3, tmp_path / "a").scenario_path.read_text()
    b = workloads.GeneratedWitness(3, tmp_path / "b").scenario_path.read_text()
    c = workloads.GeneratedWitness(4, tmp_path / "c").scenario_path.read_text()
    assert a == b
    assert a != c


@pytest.mark.parametrize("t_end,dt", [(80.0, 0.001), (33.0, 0.1), (40.0, 5.0), (1.0, 0.3)])
def test_grid_length_matches_integrator(t_end, dt):
    from hexnet.integrator import _sample_grid

    assert workloads.grid_length(t_end, dt) == _sample_grid(t_end, dt).shape[0]


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layer == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    for name in [*e2e, *layer, *run.LAYER_DETAIL, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name), name


def _traced_rep(wl):
    tracer = Tracer()
    tally = {"attempted": 0, "failed": 0, "problems": []}
    with tracer.installed(hexnet):
        wall, spans = run.run_once(wl, tally, tracer)
    assert tally["failed"] == 0, tally["problems"]
    assert spans[0].layer == CLI
    return layer_metrics(spans, wall)


def test_counts_repeat_for_the_same_seed(tmp_path):
    first = _traced_rep(workloads.GeneratedWitness(5, tmp_path / "a"))
    second = _traced_rep(workloads.GeneratedWitness(5, tmp_path / "b"))
    counts = ("vectorfield.evals", "integrator.calls", "integrator.steps_accepted",
              "integrator.steps_rejected", "integrator.samples", "analysis.witness_model_time")
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["vectorfield.evals"] == first["_n_evals"] > 0


def test_tracing_restores_every_wrapped_name():
    import hexnet.cli
    import hexnet.integrator

    before = (hexnet.integrator.growth_rates, hexnet.cli.integrate, hexnet.load_scenario,
              hexnet.scenario.Scenario.__dict__["field_params"])
    with Tracer().installed(hexnet):
        assert hexnet.integrator.growth_rates is not before[0]
    after = (hexnet.integrator.growth_rates, hexnet.cli.integrate, hexnet.load_scenario,
             hexnet.scenario.Scenario.__dict__["field_params"])
    assert after == before


def test_literal_orientation_fails_paper_verify(tmp_path):
    wl = workloads.PaperVerify(0, tmp_path, orientation="literal")
    wl.prepare()
    [(name, problem)] = wl.check(wl.op())
    assert name == "verify"
    assert problem is not None and "verify exited 1" in problem
