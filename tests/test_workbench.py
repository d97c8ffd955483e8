"""Scenario files, persistence and the command-line interface.

Claims covered:
    - bundled scenarios load with the published parameter values
    - defaults (unit timescales) and validation errors with field paths,
      including out-of-range coefficient overrides and non-finite verbatim
      matrices
    - importing the package loads no scipy (a test-only oracle)
    - save/load round trip is field-for-field identical; a save that fails
      leaves the previous file byte for byte, and no temporary file
    - CSV layout, full precision, bitwise-zero columns, determinism; the
      same bytes at 1, 2 or 3 CPUs, from one or two writer processes, with
      no child process or part file left behind, also when a writer fails;
      a writer child's exception is raised in the parent as itself; the
      same bytes at any number of rows per formatting block, with edge
      values inside blocks, across block ends and across the writers'
      boundary
    - the CSV's numpy formatter gives the bytes of format(x, ".17g") on
      finite float64 bit patterns of either sign, on zeros, subnormals,
      powers of ten and their neighbours, 17th-digit ties, values out of
      its range and non-finite values, and calls format itself only for
      the values it splices in
    - a failed CSV write leaves no file, and a failed rewrite leaves the
      previous file byte for byte; the file gets the mode of a plain open()
    - report.txt, itinerary.txt and plot.svg are published like the CSV: a
      write that fails part-way, or at the rename, leaves neither a partial
      target nor a temporary file
    - CLI overrides rebuild the scenario, and check its coefficients, once
    - itinerary/report rendering and SVG output are well-formed; the SVG
      shades exactly the active windows of the blocks' itinerary reports;
      its polylines render byte for byte as one f-string per point would,
      .xx5 ties included; it draws the samples np.unique of the linspace
      indices picks, at 1 to 80,001 rows; its scratch stays under 1 MB
      however many rows it reads;
      report.txt marks an itinerary with no checked pair "not exercised",
      and names a run that did not complete right after [itineraries],
      failing the verdict though every level and witness passes
    - simulate extracts the itinerary once for itinerary.txt and plot.svg
    - simulate makes one deal of one call a process, the run, its last
      rows and the itinerary job here and the other rows in one follower at
      most, and its files, stdout and exit code are the same at 1, 2 and 3
      CPUs, with and without plots; a failing itinerary job's error is
      raised as itself, alone or beside a follower, and leaves no part file
    - at 1, 2 and 3 CPUs, when simulate succeeds, or fails in the itinerary
      job, in the run, in a follower killed while it streams rows or in a
      follower's full disk, no child is left, no descriptor stays open, no
      part or temporary file is left, and the previous timeseries.csv
      stays whenever the command fails
    - the rows left when the run ends are shared by the follower and this
      process beside the itinerary job, so that the two loads come out
      even, with the bytes of one process; a follower that has formatted
      every row by then stops there; the follower exits when the main
      process is killed
    - report.txt bytes do not depend on the number of available CPUs
    - simulate, verify and witness report a killed worker as WorkerError,
      not as an input error (exit 2)
    - simulate, verify and witness each make one workers.deal call, and
      every fork comes from the main process
    - two CLI calls in one process share no state: an option given to the
      first does not reach the second, and a replaced command function is
      the one called
    - CLI exit codes: 0 ok, 1 verification/validation failure, 2 input
      error, 3 integration failure; a coefficient that loses its sign in
      the rate table is a validation failure or an input error
"""
import contextlib
import errno
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import yaml

import hexnet
from hexnet import analysis, cli, format17, integrator, output, vectorfield, workers
from hexnet.cli import main
from hexnet.errors import (
    ScenarioParseError, ScenarioSchemaError, ScenarioValidationError, WorkerError,
)
from hexnet.integrator import (
    TERMINATION_COMPLETED,
    IntegratorConfig,
    StepStats,
    Trajectory,
    integrate,
    sample_times,
)
from hexnet.output import (
    publish,
    render_itinerary,
    render_report,
    write_svg_panels,
    write_timeseries,
)
from hexnet.scenario import bundled_scenario_path, load_scenario, save_scenario
from hexnet.analysis import extract_itinerary, verify_realization
from strategies import scenarios


def test_bundled_example1_values(example1):
    sc, p, s0 = example1
    assert sc.epsilon == 0.2
    assert (sc.phi, sc.psi, sc.omega) == (0.1, 200.0, 0.05)
    assert sc.integrator.t_end == 2000.0
    assert sc.integrator.rtol == 1e-12 and sc.integrator.atol == 1e-12
    assert sc.integrator.sample_dt == 0.1
    assert sc.orientation == "eigenvalue" and sc.variant == "standard"
    assert s0.tolist() == [0.9, 0.1, 0.1, 0.999, 0.1, 0.1, 0.1, 0.999, 0.1, 0.9, 0.1, 0.3, 1e-6]
    assert p.layout.dimension == 13
    assert p.layout is p.hierarchy  # the hierarchy is the state layout


def test_bundled_example2_values(example2):
    sc, p, s0 = example2
    assert p.layout.dimension == 18
    assert p.layout.block_sizes == (3, 3, 4, 4)
    assert s0[:4].tolist() == [0.9, 0.1, 0.3, 1e-6]
    # the verbatim matrices carry the published nonuniform magnitudes
    assert sc.a[1][2] == 0.5 and sc.a[1][3] == 2.0
    assert sc.alphas[2][0][3] == -1.1 and sc.alphas[2][0][2] == -1.01


def test_defaults_unit_timescales(tmp_path):
    doc = {
        "hierarchy": {
            "superstructure": {"vertices": 3, "edges": [[1, 2], [2, 3], [3, 1]]},
            "substructures": [
                {"vertices": 2, "edges": []},
                {"vertices": 2, "edges": []},
                {"vertices": 2, "edges": []},
            ],
        },
        "initial_state": {"X": [0.9, 0.1, 0.1], "x": [[0.1, 0.1]] * 3},
        "integrator": {"t_end": 1.0},
    }
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    sc = load_scenario(path)
    assert (sc.phi, sc.psi, sc.omega) == (1.0, 1.0, 1.0)
    assert sc.epsilon == 0.2
    assert sc.integrator.rtol == 1e-12
    assert sc.near_tol == 0.1 and sc.min_dwell == 1.0
    assert sc.witness_deltas == (0.1, 0.01, 0.001)


def test_epsilon_bound_cited(tmp_path):
    text = bundled_scenario_path("example1").read_text(encoding="utf-8")
    doc = yaml.safe_load(text)
    doc["field"]["epsilon"] = 0.9
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(path)
    assert "field.epsilon" in str(err.value)
    assert "sqrt(2)/2" in str(err.value)


def test_schema_errors_carry_paths(tmp_path):
    doc = yaml.safe_load(bundled_scenario_path("example1").read_text(encoding="utf-8"))
    del doc["initial_state"]["X"]
    p1 = tmp_path / "a.yaml"
    p1.write_text(yaml.safe_dump(doc), encoding="utf-8")
    with pytest.raises(ScenarioSchemaError) as err:
        load_scenario(p1)
    assert "initial_state.X" in str(err.value)

    doc2 = yaml.safe_load(bundled_scenario_path("example1").read_text(encoding="utf-8"))
    doc2["field"]["unknown_knob"] = 1
    p2 = tmp_path / "b.yaml"
    p2.write_text(yaml.safe_dump(doc2), encoding="utf-8")
    with pytest.raises(ScenarioSchemaError) as err:
        load_scenario(p2)
    assert "field.unknown_knob" in str(err.value)


def test_initial_state_length_checked(tmp_path):
    doc = yaml.safe_load(bundled_scenario_path("example1").read_text(encoding="utf-8"))
    doc["initial_state"]["X"] = [0.9, 0.1]
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(path)
    assert "initial_state.X" in str(err.value)


def test_non_finite_t_end_rejected(tmp_path):
    doc = yaml.safe_load(bundled_scenario_path("example1").read_text(encoding="utf-8"))
    doc["integrator"]["t_end"] = float("nan")
    path = tmp_path / "d.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(path)
    assert "t_end must be finite" in str(err.value)


@pytest.mark.parametrize(
    "overrides, where",
    [
        ({"super": {"1->9": 1.0}}, "coefficients.overrides.super.1->9"),
        ({"super": {"2->2": -1.0}}, "coefficients.overrides.super.2->2"),
        ({"sub": {7: {"1->2": 1.0}}}, "coefficients.overrides.sub.7"),
        ({"sub": {0: {"1->2": 1.0}}}, "coefficients.overrides.sub.0"),
        ({"sub": {2: {"1->4": -1.0}}}, "coefficients.overrides.sub.2.1->4"),
    ],
)
def test_out_of_range_override_rejected(tmp_path, small_scenario_file, capsys, overrides, where):
    doc = yaml.safe_load(small_scenario_file.read_text(encoding="utf-8"))
    doc["coefficients"]["overrides"] = overrides
    path = tmp_path / "ov.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(path)
    assert err.value.path == where
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"invalid: {where}: ")
    for cmd in (["simulate", "--out", str(tmp_path)], ["verify", "--out", str(tmp_path)], ["witness"]):
        assert main([cmd[0], str(path), *cmd[1:]]) == 2
        assert capsys.readouterr().err.startswith(f"error: {where}: ")


_CYCLE = [[0.0, 1.0, -1.5], [-1.5, 0.0, 1.0], [1.0, -1.5, 0.0]]


def _set(*keys, value):
    """An in-place edit of the parsed small scenario: doc[k0][k1]... = value."""
    def edit(doc):
        node = doc
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
    return edit


def _drop(*keys):
    def edit(doc):
        node = doc
        for k in keys[:-1]:
            node = node[k]
        del node[keys[-1]]
    return edit


def _verbatim(**extra):
    return _set("coefficients", value={"a": _CYCLE, "alphas": [_CYCLE] * 3, **extra})


_MALFORMED = [
    ("root-list", lambda doc: [doc], ScenarioSchemaError, "<root>"),
    ("unknown-section", _set("extra", value=1), ScenarioSchemaError, "<root>.extra"),
    ("no-hierarchy", _drop("hierarchy"), ScenarioSchemaError, "<root>.hierarchy"),
    ("vertices-text", _set("hierarchy", "superstructure", "vertices", value="3"),
     ScenarioSchemaError, "hierarchy.superstructure.vertices"),
    ("edges-scalar", _set("hierarchy", "superstructure", "edges", value=5),
     ScenarioSchemaError, "hierarchy.superstructure.edges"),
    ("edge-triple", _set("hierarchy", "superstructure", "edges", value=[[1, 2, 3]]),
     ScenarioSchemaError, "hierarchy.superstructure.edges[0]"),
    ("self-loop", _set("hierarchy", "superstructure", "edges", value=[[1, 1]]),
     ScenarioValidationError, "hierarchy.superstructure"),
    ("substructures-map", _set("hierarchy", "substructures", value={"a": 1}),
     ScenarioSchemaError, "hierarchy.substructures"),
    ("substructure-count", _drop("hierarchy", "substructures", 2),
     ScenarioValidationError, "hierarchy"),
    ("coefficients-list", _set("coefficients", value=[1]), ScenarioSchemaError, "coefficients"),
    ("c-plus-text", _set("coefficients", "c_plus", value="abc"),
     ScenarioSchemaError, "coefficients.c_plus"),
    ("c-plus-sign", _set("coefficients", "c_plus", value=-1.0),
     ScenarioValidationError, "coefficients"),
    ("a-without-alphas", _set("coefficients", value={"a": _CYCLE}),
     ScenarioSchemaError, "coefficients"),
    ("a-scalar", _set("coefficients", value={"a": 5, "alphas": [_CYCLE] * 3}),
     ScenarioSchemaError, "coefficients.a"),
    ("alphas-scalar", _set("coefficients", value={"a": _CYCLE, "alphas": 5}),
     ScenarioSchemaError, "coefficients.alphas"),
    ("overrides-list", _set("coefficients", "overrides", value=[1]),
     ScenarioSchemaError, "coefficients.overrides"),
    ("super-key", _set("coefficients", "overrides", value={"super": {"12": 1.0}}),
     ScenarioSchemaError, "coefficients.overrides.super"),
    ("sub-key-text", _set("coefficients", "overrides", value={"sub": {"x": {"1->2": 1.0}}}),
     ScenarioSchemaError, "coefficients.overrides.sub"),
    ("field-list", _set("field", value=[1]), ScenarioSchemaError, "field"),
    ("field-unknown", _set("field", "knob", value=1), ScenarioSchemaError, "field.knob"),
    ("epsilon-high", _set("field", "epsilon", value=0.9),
     ScenarioValidationError, "field.epsilon"),
    ("epsilon-null", _set("field", "epsilon", value=None), ScenarioSchemaError, "field.epsilon"),
    ("phi-zero", _set("field", "phi", value=0.0), ScenarioValidationError, "field.phi"),
    ("omega-nan", _set("field", "omega", value=float("nan")),
     ScenarioValidationError, "field.omega"),
    ("variant-odd", _set("field", "variant", value="odd"), ScenarioSchemaError, "field.variant"),
    ("orientation-int", _set("field", "orientation", value=3),
     ScenarioSchemaError, "field.orientation"),
    ("no-initial-state", _drop("initial_state"), ScenarioSchemaError, "<root>.initial_state"),
    ("initial-list", _set("initial_state", value=[1]), ScenarioSchemaError, "initial_state"),
    ("X-scalar", _set("initial_state", "X", value=5), ScenarioSchemaError, "initial_state.X"),
    ("no-x", _drop("initial_state", "x"), ScenarioSchemaError, "initial_state.x"),
    ("x-entry-text", _set("initial_state", "x", value=[["a", 0.1, 0.1]] * 3),
     ScenarioSchemaError, "initial_state.x[1][0]"),
    ("x-block-length", _set("initial_state", "x", value=[[0.9, 0.1]] * 3),
     ScenarioValidationError, "initial_state.x"),
    ("X-negative", _set("initial_state", "X", value=[0.9, -0.1, 0.1]),
     ScenarioValidationError, "initial_state"),
    ("integrator-list", _set("integrator", value=[1]), ScenarioSchemaError, "integrator"),
    ("no-t-end", _drop("integrator", "t_end"), ScenarioSchemaError, "integrator.t_end"),
    ("no-integrator", _drop("integrator"), ScenarioSchemaError, "integrator.t_end"),
    ("rtol-bool", _set("integrator", "rtol", value=True), ScenarioSchemaError, "integrator.rtol"),
    ("max-step-text", _set("integrator", "max_step", value="x"),
     ScenarioSchemaError, "integrator.max_step"),
    ("direction-odd", _set("integrator", "direction", value="sideways"),
     ScenarioSchemaError, "integrator.direction"),
    ("sample-dt-zero", _set("integrator", "sample_dt", value=0.0),
     ScenarioValidationError, "integrator"),
    ("near-tol-high", _set("analysis", "near_tol", value=0.7),
     ScenarioValidationError, "analysis.near_tol"),
    ("min-dwell-negative", _set("analysis", "min_dwell", value=-1.0),
     ScenarioValidationError, "analysis.min_dwell"),
    ("deltas-empty", _set("analysis", "witness_deltas", value=[]),
     ScenarioSchemaError, "analysis.witness_deltas"),
    ("delta-text", _set("analysis", "witness_deltas", value=["a"]),
     ScenarioSchemaError, "analysis.witness_deltas[0]"),
    ("delta-high", _set("analysis", "witness_deltas", value=[2.0]),
     ScenarioValidationError, "analysis.witness_deltas"),
    # each of these used to end in a traceback or load with a key ignored or unchecked
    ("x-flat", _set("initial_state", "x", value=[0.9, 0.1, 0.1]),
     ScenarioSchemaError, "initial_state.x[1]"),
    ("sub-block-scalar", _set("coefficients", "overrides", value={"sub": {1: 5}}),
     ScenarioSchemaError, "coefficients.overrides.sub.1"),
    ("super-list", _set("coefficients", "overrides", value={"super": [1]}),
     ScenarioSchemaError, "coefficients.overrides.super"),
    ("verbatim-and-c-plus", _verbatim(c_plus=2.0), ScenarioSchemaError, "coefficients.c_plus"),
    ("verbatim-and-overrides", _verbatim(overrides={"super": {"1->2": 2.0}}),
     ScenarioSchemaError, "coefficients.overrides"),
    ("a-ragged", _verbatim(a=[[0.0, 1.0], *_CYCLE[1:]]), ScenarioSchemaError, "coefficients.a"),
    ("psi-infinite", _set("field", "psi", value=float("inf")),
     ScenarioValidationError, "field.psi"),
    # override keys: a block is a YAML integer, a pair is plain decimal digits;
    # int() used to read 1.5, true and "1" as block 1 and "0_1" as vertex 1
    ("sub-key-float", _set("coefficients", "overrides", value={"sub": {1.5: {"1->2": 1.0}}}),
     ScenarioSchemaError, "coefficients.overrides.sub"),
    ("sub-key-bool", _set("coefficients", "overrides", value={"sub": {True: {"1->2": 1.0}}}),
     ScenarioSchemaError, "coefficients.overrides.sub"),
    ("sub-key-string", _set("coefficients", "overrides", value={"sub": {"1": {"1->2": 1.0}}}),
     ScenarioSchemaError, "coefficients.overrides.sub"),
    ("super-key-underscore", _set("coefficients", "overrides", value={"super": {"0_1->2": 1.0}}),
     ScenarioSchemaError, "coefficients.overrides.super"),
    ("super-key-signed", _set("coefficients", "overrides", value={"super": {"+1->2": 1.0}}),
     ScenarioSchemaError, "coefficients.overrides.super"),
    ("sub-pair-underscore",
     _set("coefficients", "overrides", value={"sub": {1: {"1_0->2": 1.0}}}),
     ScenarioSchemaError, "coefficients.overrides.sub.1"),
]


@pytest.mark.parametrize(
    "edit, error, where", [row[1:] for row in _MALFORMED], ids=[row[0] for row in _MALFORMED]
)
def test_malformed_scenario_paths(tmp_path, small_scenario_file, capsys, edit, error, where):
    doc = yaml.safe_load(small_scenario_file.read_text(encoding="utf-8"))
    doc = edit(doc) or doc
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    with pytest.raises(error) as err:
        load_scenario(path)
    assert err.value.path == where
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"invalid: {where}: ")
    for cmd in (["simulate", "--out", str(tmp_path)], ["verify", "--out", str(tmp_path)], ["witness"]):
        assert main([cmd[0], str(path), *cmd[1:]]) == 2
        assert capsys.readouterr().err.startswith(f"error: {where}: ")


def test_non_finite_verbatim_matrix_rejected(tmp_path, small_scenario_file, capsys):
    doc = yaml.safe_load(small_scenario_file.read_text(encoding="utf-8"))
    cycle = [[0.0, 1.0, -1.5], [-1.5, 0.0, 1.0], [1.0, -1.5, 0.0]]
    doc["coefficients"] = {"a": [*cycle[:2], [1.0, -1.5, float("nan")]], "alphas": [cycle] * 3}
    path = tmp_path / "nan.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(path)
    assert err.value.path == "coefficients" and "non-finite" in str(err.value)
    assert main(["witness", str(path)]) == 2


def test_uniform_coefficient_error_names_its_block(tmp_path, small_scenario_file, capsys):
    doc = yaml.safe_load(small_scenario_file.read_text(encoding="utf-8"))
    doc["coefficients"]["overrides"] = {"sub": {2: {"1->2": -1.0}}}
    path = tmp_path / "sign.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    msg = "coefficients: alphas[2]: entry [1,2] must be positive on an edge, got -1.0"
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(path)
    assert str(err.value) == msg
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"invalid: {msg}\n"


def test_round_trip_bundled(tmp_path):
    for name in ("example1", "example2"):
        sc = load_scenario(bundled_scenario_path(name))
        out = tmp_path / f"{name}_rt.yaml"
        save_scenario(sc, out)
        again = load_scenario(out)
        assert again == sc


def test_round_trip_override_form(tmp_path, small_scenario_file):
    sc = load_scenario(small_scenario_file)
    sc2 = replace(
        sc,
        super_overrides=((0, 1, 2.5),),
        sub_overrides=((2, 0, 1, 3.5),),
        variant="bounded",
        orientation="literal",
    )
    out = tmp_path / "ov.yaml"
    save_scenario(sc2, out)
    assert load_scenario(out) == sc2


def test_failed_save_keeps_the_previous_file(tmp_path):
    sc = load_scenario(bundled_scenario_path("example1"))
    path = tmp_path / "sc.yaml"
    save_scenario(sc, path)
    previous = path.read_bytes()
    # yaml.safe_dump cannot represent a numpy scalar: the dump fails part-way
    bad = replace(sc, initial_X=(np.float64(0.5), *sc.initial_X[1:]))
    with pytest.raises(yaml.representer.RepresenterError):
        save_scenario(bad, path)
    assert path.read_bytes() == previous
    assert [f.name for f in tmp_path.iterdir()] == ["sc.yaml"]
    assert load_scenario(path) == sc


@pytest.mark.parametrize("uniform", [
    {"c_plus": 2.0}, {"c_minus": -2.0}, {"super_overrides": ((0, 1, 2.0),)},
    {"sub_overrides": ((0, 0, 1, 2.0),)},
])
def test_verbatim_scenario_rejects_uniform_values(uniform):
    # saving keeps only the verbatim matrices, so the mix would reload unequal
    sc = load_scenario(bundled_scenario_path("example2"))
    assert sc.a is not None
    with pytest.raises(ScenarioSchemaError) as err:
        replace(sc, **uniform)
    assert err.value.path == "coefficients"


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(sc=scenarios())
def test_round_trip_generated(tmp_path_factory, sc):
    path = tmp_path_factory.mktemp("rt") / "sc.yaml"
    save_scenario(sc, path)
    assert load_scenario(path) == sc


def test_timeseries_csv_layout(tmp_path, small_scenario):
    sc, p, s0 = small_scenario
    traj = integrate(s0, p, IntegratorConfig(t_end=1.0, sample_dt=0.1, rtol=1e-9, atol=1e-9))
    path = tmp_path / "ts.csv"
    write_timeseries(traj, p.layout, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,X1,X2,X3,x1_1,x1_2,x1_3,x2_1,x2_2,x2_3,x3_1,x3_2,x3_3"
    assert len(lines) == 1 + 11
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.9


def test_timeseries_masked_zero_literal(tmp_path, small_scenario):
    sc, p, s0 = small_scenario
    s = s0.copy()
    s[5] = 0.0
    traj = integrate(s, p, IntegratorConfig(t_end=1.0, sample_dt=0.5, rtol=1e-9, atol=1e-9))
    path = tmp_path / "ts0.csv"
    write_timeseries(traj, p.layout, path)
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        assert line.split(",")[6] == "0"


def test_timeseries_full_precision_round_trip(tmp_path, small_scenario):
    sc, p, s0 = small_scenario
    traj = integrate(s0, p, IntegratorConfig(t_end=2.0, sample_dt=0.25, rtol=1e-9, atol=1e-9))
    path = tmp_path / "ts17.csv"
    write_timeseries(traj, p.layout, path)
    rows = [
        [float(v) for v in line.split(",")]
        for line in path.read_text(encoding="utf-8").splitlines()[1:]
    ]
    parsed = np.array(rows)
    assert np.array_equal(parsed[:, 1:], traj.states)
    assert np.array_equal(parsed[:, 0], traj.times)


def test_timeseries_example1_shape(tmp_path, example1, example1_trajectory):
    _, p, _ = example1
    traj, _ = example1_trajectory
    path = tmp_path / "ex1.csv"
    write_timeseries(traj, p.layout, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 20001
    assert all(line.count(",") == 13 for line in lines)  # t plus 13 coordinates


def test_timeseries_t_end_zero_single_row(tmp_path, example2):
    _, p, s0 = example2
    traj = integrate(s0, p, IntegratorConfig(t_end=0.0))
    path = tmp_path / "ex2_t0.csv"
    write_timeseries(traj, p.layout, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[0].count(",") == 18  # 1 + 4 + 3 + 3 + 4 + 4 columns
    assert [float(v) for v in lines[1].split(",")[1:]] == s0.tolist()


# values exactly halfway between two 17-digit decimals: m/16 with m odd in
# [1e13, 1e14), where x·10^(16-e) is exact in float64, and m·2^-24, m·2^-25
# with m odd, where 10^(16-e) is not
_TIES = ([1e13 + m / 16 for m in (1, 3, 5, 7, 9, 11, 13, 15)] + [1e14 - 1 / 16, 1e14 - 3 / 16]
         + [m * 2.0**-24 for m in (3, 5, 7, 9, 11, 13, 15)] + [2.0**-25, 3 * 2.0**-25])


# values the numpy kernel formats and values it splices in (ties, out of
# range, negative, a power of ten whose float64 lies just below it)
_EDGE = np.array([0.0, 1e-300, 5e-324, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 1.0, -0.0,
                  1 / 3, _TIES[0], _TIES[-1], 1e17, 1e-275, 1e-7, -2.5])


def _with_edge_rows(traj, dimension):
    """traj with four rows of formatting edge cases appended."""
    extra = np.resize(_EDGE, (4, dimension))
    times = np.concatenate([traj.times, _EDGE[:4]])
    return replace(traj, times=times, states=np.vstack([traj.states, extra]))


def _per_value_rows(values: np.ndarray) -> bytes:
    """The reference: format(x, ".17g") of each value, one row per line."""
    return "".join(",".join(format(x, ".17g") for x in row) + "\n"
                   for row in values.tolist()).encode()


def _per_value_csv(traj, layout) -> bytes:
    header = ",".join(["t"] + layout.coord_names()) + "\n"
    return header.encode() + _per_value_rows(np.column_stack([traj.times, traj.states]))


def test_timeseries_matches_per_value_format(tmp_path, small_scenario):
    sc, p, s0 = small_scenario
    traj = integrate(s0, p, IntegratorConfig(t_end=1.0, sample_dt=0.25, rtol=1e-9, atol=1e-9))
    traj = _with_edge_rows(traj, p.layout.dimension)
    path = tmp_path / "fmt.csv"
    write_timeseries(traj, p.layout, path)
    assert path.read_bytes() == _per_value_csv(traj, p.layout)


def _edge_values() -> np.ndarray:
    tens = [float(f"1e{k}") for k in range(-320, 308)]
    near = [np.nextafter(v, to) for v in [*tens, 1e16, 1e17] for to in (0.0, np.inf)]
    return np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308, *tens, 1e16, 1e17, *near,
                     1e-275, np.nextafter(1e-274, 0.0), 1e-300, *_TIES, np.inf, -np.inf, np.nan])


@pytest.mark.parametrize("shape", [(1, -1), (-1, 1), (-1, 7)])
def test_format_rows_edge_values(shape):
    values = _edge_values()
    values = np.concatenate([values, -values])
    values = values[:values.size // 7 * 7].reshape(shape)
    assert format17.format_rows(values) == _per_value_rows(values)


@pytest.mark.parametrize("shift", [-1e-12, 1e-12])
def test_format_rows_does_not_trust_log10(monkeypatch, shift):
    # a log10 that errs near powers of ten puts e one too low or one too high
    # there; those values must be spliced in, not printed with shifted digits
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
    values = _edge_values().reshape(-1, 1)
    assert format17.format_rows(values) == _per_value_rows(values)


# every finite float64 magnitude, as its bit pattern, with either sign
_FINITE = st.tuples(st.booleans(), st.integers(0, 0x7FEF_FFFF_FFFF_FFFF))


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(bits=st.lists(_FINITE, min_size=1, max_size=64))
def test_format_rows_matches_format_on_finite_bit_patterns(bits):
    values = np.array([sign << 63 | magnitude for sign, magnitude in bits],
                      dtype=np.uint64).view(np.float64)
    for shape in [(1, -1), (-1, 1)]:
        assert format17.format_rows(values.reshape(shape)) == _per_value_rows(values.reshape(shape))


def test_format_rows_calls_format_only_for_spliced_values(monkeypatch):
    calls = []

    def counting(x, spec):
        calls.append(x)
        return format(x, spec)

    monkeypatch.setattr(format17, "format", counting, raising=False)
    # below 1e6 a float64 has too many fraction bits to be an exact 17-digit
    # tie; above it ties are common (every x in [1e15, 1e16) with a fraction
    # of .25 or .75 is one) and are spliced, as the ties below show
    rng = np.random.default_rng(0)
    plain = np.concatenate([[0.0, 1.0, 10.0, 0.5, 1e16],
                            np.exp(rng.uniform(np.log(1e-274), np.log(1e6), 5_000))])
    assert format17.format_rows(plain.reshape(-1, 5)) == _per_value_rows(plain.reshape(-1, 5))
    assert calls == []
    # out of range, sign bit, non-finite, ties, and float64s just below a power
    # of ten: 1e-7 prints as 9.9999999999999995e-08, and log10 of the one
    # below 1e5 rounds up to 5
    spliced = np.array([1e17, 1e-275, -1.0, -0.0, np.inf, np.nan, *_TIES, 1e-7,
                        np.nextafter(1e5, 0.0)])
    values = np.concatenate([plain[:100], spliced]).reshape(1, -1)
    assert format17.format_rows(values) == _per_value_rows(values)
    assert len(calls) == spliced.size


def _force_writers(monkeypatch, force_cpus, rows: int, writers: int):
    """Force writers CPUs and rows // writers rows a writer process, so that
    write_timeseries forks its one follower for rows at writers > 1;
    return force_cpus' function that lists the forks."""
    monkeypatch.setattr(output, "_ROWS_PER_WRITER", rows // writers)
    return force_cpus(writers)


def _fail_in(monkeypatch, where: str, error: Exception = RuntimeError("writer failed")) -> None:
    """Make _write_rows raise error in the parent or in every forked child."""
    parent, write_rows = os.getpid(), output._write_rows

    def failing(*args):
        if (os.getpid() == parent) == (where == "parent"):
            raise error
        write_rows(*args)

    monkeypatch.setattr(output, "_write_rows", failing)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("writers", [1, 2, 3])
def test_timeseries_writers_give_the_same_bytes(tmp_path, monkeypatch, force_cpus, small_scenario,
                                                writers):
    # the edge rows are the last four of nine, so they fall in a child's chunk
    sc, p, s0 = small_scenario
    traj = integrate(s0, p, IntegratorConfig(t_end=1.0, sample_dt=0.25, rtol=1e-9, atol=1e-9))
    traj = _with_edge_rows(traj, p.layout.dimension)
    out = tmp_path / "out"
    out.mkdir()
    forks = _force_writers(monkeypatch, force_cpus, traj.times.shape[0], writers)
    write_timeseries(traj, p.layout, out / "ts.csv")
    assert len(forks()) == min(writers, 2) - 1  # one follower at most
    assert (out / "ts.csv").read_bytes() == _per_value_csv(traj, p.layout)
    _assert_no_child_left()
    assert [f.name for f in out.iterdir()] == ["ts.csv"]


@pytest.mark.parametrize("block_rows", [1, 3, 512])
def test_timeseries_bytes_do_not_depend_on_block_rows(tmp_path, monkeypatch, force_cpus,
                                                      small_scenario, block_rows):
    # 1,601 rows in two writers, the child's from row 800; edge rows inside
    # blocks, across the ends of 512-row blocks (512 and 800 + 512) and
    # across the writers' boundary, each rotated to put other values in
    # each column
    sc, p, s0 = small_scenario
    traj = integrate(s0, p, IntegratorConfig(t_end=16.0, sample_dt=0.01, rtol=1e-9, atol=1e-9))
    n = traj.times.shape[0]
    states = traj.states.copy()
    for k, row in enumerate([0, 1, 2, 300, 510, 511, 512, 513, 798, 799, 800, 801,
                             1310, 1311, 1312, 1313, n - 2, n - 1]):
        states[row] = np.resize(np.roll(_EDGE, k), p.layout.dimension)
    traj = replace(traj, states=states)
    forks = _force_writers(monkeypatch, force_cpus, n, 2)
    monkeypatch.setattr(output, "_BLOCK_ROWS", block_rows)
    write_timeseries(traj, p.layout, tmp_path / "ts.csv")
    assert n == 1_601 and len(forks()) == 1
    assert (tmp_path / "ts.csv").read_bytes() == _per_value_csv(traj, p.layout)


# a child's exception is raised in the parent as itself, like the parent's own
@pytest.mark.parametrize("where, error", [("child", RuntimeError), ("parent", RuntimeError)])
def test_timeseries_writer_failure_leaves_no_child(tmp_path, monkeypatch, force_cpus,
                                                   small_scenario, where, error):
    sc, p, s0 = small_scenario
    traj = integrate(s0, p, IntegratorConfig(t_end=2.0, sample_dt=0.25, rtol=1e-9, atol=1e-9))
    out = tmp_path / "out"
    out.mkdir()
    _force_writers(monkeypatch, force_cpus, traj.times.shape[0], 3)
    _fail_in(monkeypatch, where)
    with pytest.raises(error, match="writer failed"):
        write_timeseries(traj, p.layout, out / "ts.csv")
    _assert_no_child_left()
    assert list(out.iterdir()) == []  # no truncated file, no temporary one


@pytest.mark.parametrize("where, error", [("child", RuntimeError), ("parent", RuntimeError)])
def test_timeseries_failed_rewrite_keeps_previous_file(tmp_path, monkeypatch, force_cpus,
                                                       small_scenario, where, error):
    sc, p, s0 = small_scenario
    out = tmp_path / "out"
    out.mkdir()
    path = out / "ts.csv"
    short = integrate(s0, p, IntegratorConfig(t_end=1.0, sample_dt=0.25, rtol=1e-9, atol=1e-9))
    write_timeseries(short, p.layout, path)
    before = path.read_bytes()
    traj = integrate(s0, p, IntegratorConfig(t_end=2.0, sample_dt=0.25, rtol=1e-9, atol=1e-9))
    _force_writers(monkeypatch, force_cpus, traj.times.shape[0], 3)
    _fail_in(monkeypatch, where)
    with pytest.raises(error, match="writer failed"):
        write_timeseries(traj, p.layout, path)
    _assert_no_child_left()
    assert [f.name for f in out.iterdir()] == ["ts.csv"]
    assert path.read_bytes() == before


def test_timeseries_file_mode_is_that_of_a_plain_open(tmp_path, small_scenario):
    sc, p, s0 = small_scenario
    traj = integrate(s0, p, IntegratorConfig(t_end=1.0, sample_dt=0.25, rtol=1e-9, atol=1e-9))
    write_timeseries(traj, p.layout, tmp_path / "ts.csv")
    with open(tmp_path / "plain.csv", "w"):
        pass
    assert (tmp_path / "ts.csv").stat().st_mode == (tmp_path / "plain.csv").stat().st_mode


def test_timeseries_deterministic(tmp_path, small_scenario):
    sc, p, s0 = small_scenario
    paths = []
    for tag in ("a", "b"):
        traj = integrate(s0, p, IntegratorConfig(t_end=3.0, sample_dt=0.5, rtol=1e-9, atol=1e-9))
        path = tmp_path / f"det_{tag}.csv"
        write_timeseries(traj, p.layout, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_render_itinerary_and_report(small_scenario):
    sc, p, s0 = small_scenario
    traj = integrate(s0, p, sc.integrator)
    rep = extract_itinerary(traj, p)[0]
    text = render_itinerary(rep)
    assert "superstructure" in text and "visits:" in text
    full = verify_realization(p, s0, sc.integrator, deltas=(0.01,))
    report_text = render_report(full)
    assert "verdict: PASS" in report_text
    assert "Super(1)" in report_text
    assert "edge (1,2)" in report_text


def _outcome(level, j, vertices, n_pairs, violations=()):
    visits = [analysis.Visit(v, float(i), i + 1.0) for i, v in enumerate(vertices)]
    report = analysis.ItineraryReport(level, j, visits, None, 0.1, 1.0)
    return analysis.ItineraryOutcome(report,
                                     analysis.ItineraryCheck(not violations, list(violations), n_pairs))


def _report(outcomes, termination="completed", last_time=1.0, witnesses=()):
    return analysis.RealizationReport(analysis.ResidualReport([], 0.0, 1e-12, True),
                                      analysis.CorrespondenceReport([], True),
                                      termination, last_time, outcomes, list(witnesses))


def test_render_report_marks_itineraries_without_pairs_not_exercised():
    outcomes = [
        _outcome(analysis.LEVEL_SUPER, None, [0, 1], 1),
        _outcome(analysis.LEVEL_SUB, 0, [], 0),
        _outcome(analysis.LEVEL_SUB, 1, [2], 0),
        _outcome(analysis.LEVEL_SUB, 2, [0, 2], 1, [(0, 2, 1.0)]),
    ]
    for checked, verdict in [(outcomes[:3], "PASS"), (outcomes, "FAIL")]:
        lines = render_report(_report(checked)).splitlines()
        # the verdict still counts a level with no checked pair as passed
        assert lines[1] == f"verdict: {verdict}"
        assert lines[lines.index("[itineraries]") + 1:][:len(checked)] == [
            "  scenario 1 super: visits 1,2 (1 transitions checked): PASS",
            "  scenario 1 sub 1: visits (none) (0 transitions checked): not exercised",
            "  scenario 1 sub 2: visits 3 (0 transitions checked): not exercised",
            "  scenario 1 sub 3: visits 1,3 (1 transitions checked): FAIL",
        ][:len(checked)]
    # a run that stopped short: its line comes right after the heading, and
    # it fails the verdict though every level and witness passes
    witness = analysis.WitnessResult(
        analysis.WitnessSpec(0, 1, 0.01), "standard", forward_converged=True,
        forward_distance=1e-8, forward_time=10.0, backward_diverged=True, backward_time=5.0,
        backward_coordinate=3, backward_coordinate_name="x1_1", backward_coordinate_gate=0.0)
    lines = render_report(_report(outcomes[:3], "step_failure", 0.5, [witness])).splitlines()
    assert lines[1] == "verdict: FAIL"
    assert lines[lines.index("[itineraries]") + 1:][:2] == [
        "  scenario 1: termination step_failure at t=0.5: FAIL",
        "  scenario 1 super: visits 1,2 (1 transitions checked): PASS",
    ]
    assert witness.passed and lines[-1].endswith(": PASS")


def test_report_bytes_do_not_depend_on_cpus(small_scenario, force_cpus):
    sc, p, s0 = small_scenario
    texts = []
    for cpus in (1, 2):  # witnesses after the itineraries, then in a worker alongside them
        force_cpus(cpus)
        report = verify_realization(p, s0, sc.integrator, deltas=(0.1, 0.01))
        texts.append(render_report(report).encode())
    assert texts[0] == texts[1]


@pytest.mark.parametrize("command", ["simulate", "verify", "witness"])
def test_cli_killed_worker_is_not_an_input_error(tmp_path, small_scenario_file, monkeypatch,
                                                  force_cpus, command):
    # a worker (a CSV writer or a level or witness run) killed by a signal,
    # as by the OOM killer, is no fault of the input, so it must not leave
    # through the exit-2 OSError path
    parent = os.getpid()
    module, name = (output, "_write_rows") if command == "simulate" else (analysis, "integrate")
    call = getattr(module, name)

    def killed_in_worker(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return call(*args, **kwargs)

    monkeypatch.setattr(module, name, killed_in_worker)
    if command == "simulate":
        forks = _force_writers(monkeypatch, force_cpus, 51, 2)  # t_end 5 at sample_dt 0.1
    else:
        forks = force_cpus(2)
    argv = [command, str(small_scenario_file)]
    if command == "witness":  # one subsystem per delta: two deltas, two runs, one worker
        argv += ["--delta", "0.1", "--delta", "0.01"]
    else:
        argv += ["--out", str(tmp_path / "out"), "--t-end", "5"]
    with pytest.raises(WorkerError, match=f"exited with status {-signal.SIGKILL}"):
        main(argv)
    assert forks() == [str(parent)]


def _uniform_n10_file(directory):
    """N = 10: a Hamiltonian cycle plus the chords i -> i+3 (20 edges) over
    cycles of 3 to 6 vertices, coefficients from the uniform rule, as a
    scenario file with one witness delta."""
    sizes = (3, 3, 4, 4, 4, 5, 5, 5, 6, 6)
    doc = {
        "hierarchy": {
            "superstructure": {"vertices": 10, "edges": [[i + 1, (i + step) % 10 + 1]
                                                         for step in (1, 3) for i in range(10)]},
            "substructures": [{"vertices": m, "edges": [[i + 1, (i + 1) % m + 1] for i in range(m)]}
                              for m in sizes],
        },
        "coefficients": {"c_plus": 1.0, "c_minus": -1.5},
        "field": {"epsilon": 0.2},
        "initial_state": {"X": [0.9] + [0.1] * 9, "x": [[0.9] + [0.1] * (m - 1) for m in sizes]},
        "integrator": {"t_end": 10.0},
        "analysis": {"witness_deltas": [0.01]},
    }
    path = directory / "uniform_n10.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("command, case", [
    ("simulate", "small"), ("verify", "small"),
    ("witness", "small"), ("witness", "example1"), ("witness", "uniform_n10"),
])
def test_each_command_deals_once_from_the_main_process(tmp_path, small_scenario_file, monkeypatch,
                                                       force_cpus, command, case, cpus):
    # one flat job list per command: a deal inside a dealt call would log
    # a second line, and a fork in a worker a second pid
    log = tmp_path / "deal.log"
    deal = workers.deal

    def counting(calls, weights):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return deal(calls, weights)

    monkeypatch.setattr(workers, "deal", counting)
    path = {"small": small_scenario_file, "example1": bundled_scenario_path("example1"),
            "uniform_n10": _uniform_n10_file(tmp_path)}[case]
    if command == "simulate":
        forks = _force_writers(monkeypatch, force_cpus, 51, cpus)  # t_end 5 at sample_dt 0.1
    else:
        forks = force_cpus(cpus)
    argv = [command, str(path)]
    if command != "witness":
        argv += ["--out", str(tmp_path / "out"), "--t-end", "5"]
    assert main(argv) == 0
    me = str(os.getpid())
    assert log.read_text(encoding="utf-8").split() == [me]
    # simulate deals the run and one follower, and a witness command on
    # small or uniform_n10 has one run: 2 jobs
    n_jobs = 2 if command == "simulate" or (command == "witness" and case != "example1") \
        else cpus
    assert forks() == [me] * (min(cpus, n_jobs) - 1)


def test_svg_panels(tmp_path, small_scenario):
    sc, p, s0 = small_scenario
    traj = integrate(s0, p, IntegratorConfig(t_end=20.0, sample_dt=0.1, rtol=1e-9, atol=1e-9))
    path = tmp_path / "plot.svg"
    itinerary = extract_itinerary(traj, p)
    write_svg_panels(traj, p.layout, itinerary, path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 12  # 3 + 3x3 coordinate traces
    # one shaded rect per active window of each block's report, in order
    shades = re.findall(
        r'<rect x="([\d.]+)" y="(\d+)" width="([\d.]+)" height="\d+" fill="#ffd27f"', text
    )
    windows = [(rep.j, t0, t1) for rep in itinerary[1:] for t0, t1 in rep.active_windows]
    assert len(windows) >= 3 and len(shades) == len(windows)
    t_max = traj.times[-1]
    for (x, y, width), (j, t0, t1) in zip(shades, windows):
        assert int(y) == output._MARGIN_T + (1 + j) * (output._PANEL_H + output._GAP)
        x_expected = output._MARGIN_L + t0 / t_max * output._PANEL_W
        assert float(x) == pytest.approx(x_expected, abs=0.006)
        assert float(width) == pytest.approx(
            max((t1 - t0) / t_max * output._PANEL_W, 0.5), abs=0.006
        )


def _wavy_trajectory(rows: int, dimension: int) -> Trajectory:
    """rows samples 1e-3 apart, coordinate c a sine wave in [0.05, 0.95] of
    c + 1 periods, so X stays far from the unit vectors and the gates open
    rarely; each coordinate's largest value (above 1.05) is in row 0."""
    times = np.arange(rows) * 1e-3
    phase = 2.0 * np.pi * np.arange(rows)[:, None] / rows
    states = 0.5 + 0.45 * np.sin(phase * np.arange(1, dimension + 1) + np.arange(dimension))
    states[0] = np.random.default_rng(rows).uniform(1.1, 1.5, dimension)
    return Trajectory(times, states, StepStats(), TERMINATION_COMPLETED,
                      np.ones(dimension, dtype=bool), float(times[-1]), states[-1])


@pytest.mark.parametrize("rows", [1, 2, 1_999, 2_000, 2_001, 80_001])
def test_svg_panels_draw_the_unique_linspace_samples(tmp_path, small_scenario, rows):
    # the np.unique rule as reference: the plot equals, byte for byte, the
    # plot of exactly the samples it picks, of which every one is drawn;
    # both hold the last sample (t_max) and row 0 (the y scale of each panel)
    _, p, _ = small_scenario
    traj = _wavy_trajectory(rows, p.layout.dimension)
    itinerary = extract_itinerary(traj, p)
    picked = np.unique(np.linspace(0, rows - 1, min(output._MAX_POINTS, rows)).astype(int))
    write_svg_panels(traj, p.layout, itinerary, tmp_path / "all.svg")
    write_svg_panels(replace(traj, times=traj.times[picked], states=traj.states[picked]),
                     p.layout, itinerary, tmp_path / "picked.svg")
    assert (tmp_path / "all.svg").read_bytes() == (tmp_path / "picked.svg").read_bytes()


@pytest.mark.parametrize("rows", [2_001, 200_000])
def test_svg_panels_scratch_does_not_grow_with_rows(tmp_path, small_scenario, rows):
    # the drawn samples and the parts of the text, written one by one: 0.57
    # MB; joining and encoding the whole text took 1.05 MB, and the first
    # np.unique call 1.1 MB more (it imports numpy.ma)
    _, p, _ = small_scenario
    traj = _wavy_trajectory(rows, p.layout.dimension)
    itinerary = extract_itinerary(traj, p)
    tracemalloc.start()
    try:
        write_svg_panels(traj, p.layout, itinerary, tmp_path / "plot.svg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000, peak


def _polyline_by_fstrings(ts, ys, x0, y0, w, h, t_max, y_max, color):
    """output._polyline as it was, one f-string per point: the byte reference."""
    xs = x0 + (ts / t_max) * w
    yy = y0 + h - np.clip(ys / y_max, 0.0, 1.0) * h
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, yy))
    return f'<polyline fill="none" stroke="{color}" stroke-width="1" points="{pts}"/>'


def test_polyline_matches_fstring_rendering():
    rng = np.random.default_rng(43)
    for n in (0, 1, 7, output._MAX_POINTS):
        ts = np.sort(rng.uniform(0.0, 80.0, n))
        ys = rng.uniform(-0.2, 1.3, n)
        args = (ts, ys, output._MARGIN_L, 18, output._PANEL_W, output._PANEL_H, 80.0, 1.05,
                "#1f77b4")
        assert output._polyline(*args) == _polyline_by_fstrings(*args)
    # .xx5 ties: exact in binary (0.125, 2.375) and not (0.005, 2.675), of
    # either sign; with x0 = y0 = 0 and unit scales they reach the format as is
    ties = np.array([0.125, 0.375, 2.375, 0.005, 0.015, 1.005, 2.675, 10.345, 0.0])
    ties = np.concatenate([ties, -ties, ties + rng.integers(0, 900, ties.size)])
    args = (ties, 1.0 - np.clip(np.abs(ties), 0.0, 1.0), 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, "#000")
    assert output._polyline(*args) == _polyline_by_fstrings(*args)
    assert "0.12," in output._polyline(*args)


def test_cli_simulate_extracts_the_itinerary_once(tmp_path, monkeypatch, small_scenario_file,
                                                  capsys):
    # itinerary.txt and plot.svg render one list (verify: see test_analysis);
    # the calls are logged to a file, so one made in a worker counts too
    log = tmp_path / "calls.log"
    extract = cli.extract_itinerary

    def counting(traj, *args, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{traj.last_time}\n")
        return extract(traj, *args, **kwargs)

    monkeypatch.setattr(analysis, "extract_itinerary", counting)
    monkeypatch.setattr(cli, "extract_itinerary", counting)
    argv = ["simulate", str(small_scenario_file), "--out", str(tmp_path / "out"), "--t-end", "5.0"]
    assert main(argv + ["--plots"]) == 0
    assert log.read_text(encoding="utf-8").split() == ["5.0"]


@pytest.mark.parametrize("plots", [False, True])
def test_simulate_bytes_do_not_depend_on_cpus(tmp_path, monkeypatch, force_cpus, capsys,
                                              small_scenario_file, plots):
    # one deal, from this process, of one call a process: 2,001 rows at 400
    # rows a process make 1, 2 and 2 processes, this one (the run, its rows
    # and the itinerary job) and the follower, which streams 512-row blocks
    # while the run goes on
    log = tmp_path / "deal.log"
    deal = workers.deal

    def counting(calls, weights):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {len(calls)}\n")
        return deal(calls, weights)

    monkeypatch.setattr(workers, "deal", counting)
    monkeypatch.setattr(output, "_ROWS_PER_WRITER", 400)
    argv = ["simulate", str(small_scenario_file), "--t-end", "200", "--sample-dt", "0.1"]
    runs = []
    for cpus in (1, 2, 3):
        forks = force_cpus(cpus)
        n_forks = len(forks())
        out = tmp_path / f"out-{cpus}"
        code = main(argv + ["--out", str(out)] + (["--plots"] if plots else []))
        assert len(forks()) - n_forks == min(cpus, 2) - 1
        runs.append((code, capsys.readouterr().out,
                     {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
    names = ["itinerary.txt", "plot.svg", "timeseries.csv"] if plots else \
        ["itinerary.txt", "timeseries.csv"]
    assert list(runs[0][2]) == names and runs[0][0] == 0
    assert log.read_text(encoding="utf-8").split("\n") == [f"{os.getpid()} {n}"
                                                           for n in (1, 2, 2)] + [""]
    assert runs[1:] == [runs[0]] * 2


def _svg_fails(*args):
    raise RuntimeError("svg failed")


@pytest.mark.parametrize("cpus", [1, 2])
def test_simulate_itinerary_job_failure_reaches_the_parent(tmp_path, monkeypatch, force_cpus,
                                                          small_scenario_file, cpus):
    # the job raises in this process, alone at 1 CPU and beside a follower
    # that writes rows at 2: the error is raised as itself, no child is
    # left, and the output directory holds no part or temporary file, only
    # the itinerary published before
    reference = tmp_path / "reference"
    argv = ["simulate", str(small_scenario_file), "--t-end", "20", "--plots"]
    assert main(argv + ["--out", str(reference)]) == 0
    forks = _force_writers(monkeypatch, force_cpus, 201, cpus)
    monkeypatch.setattr(cli, "write_svg_panels", _svg_fails)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="svg failed"):
        main(argv + ["--out", str(out)])
    assert len(forks()) == cpus - 1
    _assert_no_child_left()
    assert [f.name for f in out.iterdir()] == ["itinerary.txt"]
    assert (out / "itinerary.txt").read_bytes() == (reference / "itinerary.txt").read_bytes()


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@contextlib.contextmanager
def _deadline(seconds: float):
    """Raise TimeoutError here if the block has not ended within seconds:
    a command whose processes wait for each other fails, not hangs."""
    def expire(signum, frame):
        raise TimeoutError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("cpus, case", [
    *[(cpus, case) for cpus in (1, 2, 3) for case in ("ok", "job", "integrate")],
    *[(cpus, case) for cpus in (2, 3) for case in ("killed", "enospc")],
])
def test_simulate_fails_cleanly_at_any_cpu_count(tmp_path, monkeypatch, force_cpus, capsys,
                                                 small_scenario_file, cpus, case):
    # 801 rows at 801 // cpus rows a process and 16-row blocks: this
    # process and, at 2 and 3 CPUs, one follower, formatting rows while the
    # run goes on. Whatever fails (the follower killed at its first streamed
    # block, the itinerary job, the run itself, a full disk in the follower),
    # no child is left, no pipe or file stays open, no part or temporary
    # file is left, and the previous timeseries.csv stays; a run that
    # succeeds writes the bytes of one process
    argv = ["simulate", str(small_scenario_file), "--plots"]
    out, reference = tmp_path / "out", tmp_path / "reference"
    forks = force_cpus(1)
    assert main(argv + ["--out", str(reference)]) == 0
    assert main(argv + ["--out", str(out), "--t-end", "20"]) == 0
    previous = (out / "timeseries.csv").read_bytes()
    capsys.readouterr()
    force_cpus(cpus)
    monkeypatch.setattr(output, "_ROWS_PER_WRITER", 801 // cpus)
    monkeypatch.setattr(output, "_BLOCK_ROWS", 16)
    parent, write_rows, rates = os.getpid(), output._write_rows, integrator.growth_rates
    killed = tmp_path / "killed.log"
    evals = []

    def failing_rows(out, times, states):
        if os.getpid() != parent:
            if case == "enospc":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            killed.write_text(f"{times.size} {times[0]}", encoding="utf-8")
            os.kill(os.getpid(), signal.SIGKILL)
        write_rows(out, times, states)

    def failing_rates(*args):
        evals.append(None)
        if len(evals) == 6_000:  # about half of the run's 11,792
            raise RuntimeError("integrate failed")
        return rates(*args)

    if case in ("killed", "enospc"):
        monkeypatch.setattr(output, "_write_rows", failing_rows)
    elif case == "job":
        monkeypatch.setattr(cli, "write_svg_panels", _svg_fails)
    elif case == "integrate":
        monkeypatch.setattr(integrator, "growth_rates", failing_rates)
    n_forks, fds = len(forks()), _open_fds()
    with _deadline(60.0):
        if case == "ok":
            assert main(argv + ["--out", str(out)]) == 0
        elif case == "enospc":
            assert main(argv + ["--out", str(out)]) == 2
            assert capsys.readouterr().err == \
                f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        else:
            error, match = {"killed": (WorkerError, f"exited with status {-signal.SIGKILL}"),
                            "job": (RuntimeError, "svg failed"),
                            "integrate": (RuntimeError, "integrate failed")}[case]
            with pytest.raises(error, match=match):
                main(argv + ["--out", str(out)])
    assert len(forks()) - n_forks == min(cpus, 2) - 1
    _assert_no_child_left()
    assert _open_fds() == fds
    assert sorted(f.name for f in out.iterdir()) == ["itinerary.txt", "plot.svg", "timeseries.csv"]
    if case == "ok":
        for name in ("itinerary.txt", "plot.svg", "timeseries.csv"):
            assert (out / name).read_bytes() == (reference / name).read_bytes(), name
    else:
        assert (out / "timeseries.csv").read_bytes() == previous
    if case == "killed":  # the follower's first block, rows 0 to 15, streamed
        assert killed.read_text(encoding="utf-8") == "16 0.0"


@pytest.mark.parametrize("cpus, plots, mine", [
    (2, False, slice(1_208, 2_001)), (3, False, slice(1_208, 2_001)),
    (2, True, slice(2_001, 2_001)), (3, True, slice(2_001, 2_001)),
])
def test_simulate_cuts_the_rows_left_when_the_run_ends(tmp_path, monkeypatch, force_cpus, capsys,
                                                       small_scenario_file, cpus, plots, mine):
    # with no report during the run, the follower is at row 0 when it ends,
    # so all 2,001 rows are shared beside the itinerary job (414 rows'
    # worth, 5,056 with plots), at 3 CPUs as at 2: without plots the
    # follower and this process each format a slice; with plots the job
    # outweighs the rows and the follower formats every row. The bytes are
    # one process's
    argv = ["simulate", str(small_scenario_file), "--t-end", "200"] + (["--plots"] if plots else [])
    force_cpus(1)
    assert main(argv + ["--out", str(tmp_path / "one")]) == 0
    forks = force_cpus(cpus)
    n_forks = len(forks())
    monkeypatch.setattr(output, "_ROWS_PER_WRITER", 400)
    monkeypatch.setattr(output, "_reporter", lambda down: None)
    parent, write_rows, kept = os.getpid(), output._write_rows, []

    def logged(out, times, states):
        if os.getpid() == parent:  # this process's rows: the last ones
            kept.append(slice(2_001 - times.shape[0], 2_001))
        write_rows(out, times, states)

    monkeypatch.setattr(output, "_write_rows", logged)
    assert main(argv + ["--out", str(tmp_path / "many")]) == 0
    assert len(forks()) - n_forks == 1 and kept == [mine]
    one, many = (sorted((f.name, f.read_bytes()) for f in (tmp_path / d).iterdir())
                 for d in ("one", "many"))
    assert many == one


@pytest.mark.parametrize("rows, extra, loads", [
    # half of the rows and the job each: the job joins this process's rows
    (80_001, 11_200.14, [45_601, 34_400 + 11_200.14]),
    (80_001, 0.0, [40_001, 40_000]),
    (5_000, 0.0, [2_500, 2_500]),
    # too few rows for two writers: the follower formats them all
    (4_000, 560.0, [4_000, 560.0]),
    (4_999, 0.0, [4_999, 0]),
    (0, 0.0, [0, 0]),
    (0, 414.0, [0, 414.0]),
    # a job as heavy as every row: the follower still formats them all
    (6_000, 6_000.0, [6_000, 6_000.0]),
    (6_000, 6_000.5, [6_000, 6_000.5]),
])
def test_share_evens_the_two_loads(monkeypatch, rows, extra, loads):
    # the follower's share of the rows left when the run ends, and this
    # process's load, its rows and the job, at 2,500 rows a writer
    monkeypatch.setattr(output, "_ROWS_PER_WRITER", 2_500)
    share = output._share(rows, extra)
    assert isinstance(share, int) and 0 <= share <= rows
    assert [share, rows - share + extra] == pytest.approx(loads, abs=1e-6)


@pytest.mark.parametrize("cpus, rows", [(2, 3_072), (3, 4_608)])
def test_a_follower_that_has_caught_up_stops_where_it_is(tmp_path, monkeypatch, force_cpus,
                                                         small_scenario, cpus, rows):
    # a run that reports every row final and returns only once the follower
    # has formatted them all, 6 or 9 whole 512-row blocks: the follower
    # stops at the last row, this process formats none, and the bytes are
    # one process's; a hang fails at the deadline
    sc, p, s0 = small_scenario
    cfg = IntegratorConfig(t_end=(rows - 1) / 10, sample_dt=0.1, rtol=1e-9, atol=1e-9)
    traj = integrate(s0, p, cfg)
    assert traj.times.shape[0] == len(sample_times(cfg)) == rows
    out = tmp_path / "out"
    out.mkdir()
    path = out / "ts.csv"
    force_cpus(1)
    write_timeseries(traj, p.layout, path)
    expected = path.read_bytes()
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")  # publish's

    def caught_up(s0, p, cfg, states, progress):
        states[:] = traj.states
        progress(rows)
        while partial.stat().st_size < len(expected):
            time.sleep(0.01)
        return replace(traj, states=states)

    forks = force_cpus(cpus)
    with _deadline(20.0):
        write_timeseries((caught_up, s0, p, cfg), p.layout, path)
    assert len(forks()) == 1
    assert path.read_bytes() == expected
    assert [f.name for f in out.iterdir()] == ["ts.csv"]


def test_followers_end_when_the_main_process_is_killed(tmp_path, small_scenario_file):
    # a simulate of 801 rows at 3 forced CPUs and 100 rows a process,
    # killed by a signal while it integrates: its one follower, waiting for
    # rows, reads its pipe's end and exits, so it does not outlive it
    log = tmp_path / "followers.log"
    script = f"""
import os, time
from hexnet import cli, integrator, output
os.sched_getaffinity = lambda pid: {{0, 1, 2}}
os.sched_setaffinity = lambda pid, cpus: None
output._ROWS_PER_WRITER = 100
def logged(fn):
    def call(*args):
        with open({str(log)!r}, "a") as fh:
            fh.write(f"{{os.getpid()}}\\n")
        return fn(*args)
    return call
output._stream = logged(output._stream)
rates, calls = integrator.growth_rates, []
def stalled(*args):
    calls.append(None)
    if len(calls) == 1_000:
        time.sleep(600)
    return rates(*args)
integrator.growth_rates = stalled
cli.main(["simulate", {str(small_scenario_file)!r}, "--out", {str(tmp_path / "out")!r}])
"""
    src = str(Path(hexnet.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src})
    followers = []
    try:
        deadline = time.monotonic() + 60.0
        while not followers and time.monotonic() < deadline and proc.poll() is None:
            time.sleep(0.05)
            followers = log.read_text(encoding="utf-8").split() if log.exists() else []
        assert len(followers) == 1
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and any(_alive(int(pid)) for pid in followers):
            time.sleep(0.05)
        assert not any(_alive(int(pid)) for pid in followers)
    finally:
        proc.kill()
        proc.wait()
        for pid in followers:
            if _alive(int(pid)):
                os.kill(int(pid), signal.SIGKILL)


def _alive(pid: int) -> bool:
    """Whether pid is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            return fh.read().rsplit(b")", 1)[1].split()[0] not in (b"Z", b"X")
    except FileNotFoundError:
        return False


def test_import_loads_no_scipy():
    # scipy is a test-only oracle; the package must not import it
    src = str(Path(hexnet.__file__).resolve().parents[1])
    code = "import sys, hexnet, hexnet.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, cwd=src,
    )
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_validate_ok(small_scenario_file, capsys):
    assert main(["validate", str(small_scenario_file)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_cli_validate_two_cycle(tmp_path, capsys):
    doc = {
        "hierarchy": {
            "superstructure": {"vertices": 2, "edges": [[1, 2], [2, 1]]},
            "substructures": [
                {"vertices": 2, "edges": []},
                {"vertices": 2, "edges": []},
            ],
        },
        "initial_state": {"X": [0.9, 0.1], "x": [[0.1, 0.1]] * 2},
        "integrator": {"t_end": 1.0},
    }
    path = tmp_path / "twocycle.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "2-cycle" in err and "1" in err and "2" in err


def test_cli_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/nowhere.yaml"]) == 2


def test_cli_validate_unparseable(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("hierarchy: [unclosed", encoding="utf-8")
    assert main(["validate", str(path)]) == 2


def test_non_utf8_scenario_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bytes.yaml"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(ScenarioParseError) as err:
        load_scenario(path)
    assert str(err.value).startswith(f"{path}: ")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: ") and captured.out == ""


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_cli_out_names_a_file(tmp_path, small_scenario_file, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main([command, str(small_scenario_file), "--out", str(taken)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(taken) in captured.err
    assert captured.out == ""


def test_cli_simulate(tmp_path, small_scenario_file, capsys):
    out = tmp_path / "simout"
    code = main([
        "simulate", str(small_scenario_file),
        "--out", str(out), "--t-end", "5.0", "--plots",
    ])
    assert code == 0
    assert (out / "timeseries.csv").is_file()
    assert (out / "itinerary.txt").is_file()
    assert (out / "plot.svg").is_file()
    header = (out / "timeseries.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header.count(",") == 12


def test_cli_simulate_writer_failure(tmp_path, monkeypatch, force_cpus, small_scenario_file,
                                    capsys):
    # a full disk in a writer child is an OSError, raised in the parent as
    # itself; the follower writes every row, beside the itinerary job made
    # here, which publishes itinerary.txt, and timeseries.csv never appears
    forks = _force_writers(monkeypatch, force_cpus, 51, 2)  # t_end 5 at sample_dt 0.1
    _fail_in(monkeypatch, "child", OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
    out = tmp_path / "simout"
    assert main(["simulate", str(small_scenario_file), "--out", str(out), "--t-end", "5.0"]) == 2
    assert len(forks()) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    _assert_no_child_left()
    assert [f.name for f in out.iterdir()] == ["itinerary.txt"]


@pytest.mark.parametrize("previous", [None, b"previous report\n"])
def test_publish_failure_part_way_keeps_previous_state(tmp_path, previous):
    path = tmp_path / "report.txt"
    if previous is not None:
        path.write_bytes(previous)
    with pytest.raises(UnicodeEncodeError):
        with publish(path) as fh:
            fh.write("verdict: PASS\n" * 1000)
            fh.flush()  # part of the file is on disk when the write fails
            fh.write("\ud800")  # a lone surrogate has no UTF-8 encoding
    assert [f.name for f in tmp_path.iterdir()] == ([] if previous is None else ["report.txt"])
    if previous is not None:
        assert path.read_bytes() == previous


@pytest.mark.parametrize("command, name", [
    ("simulate", "itinerary.txt"), ("simulate", "plot.svg"), ("verify", "report.txt"),
])
def test_cli_text_outputs_are_published(tmp_path, monkeypatch, small_scenario_file, capsys,
                                        command, name):
    # publishing this one file fails at its rename: the file must not appear
    rename = os.replace

    def failing(src, dst):
        if Path(dst).name == name:
            raise OSError(f"{dst}: rename failed")
        rename(src, dst)

    monkeypatch.setattr(os, "replace", failing)
    out = tmp_path / "out"
    argv = [command, str(small_scenario_file), "--out", str(out), "--t-end", "5.0"]
    assert main(argv + (["--plots"] if command == "simulate" else [])) == 2
    assert "rename failed" in capsys.readouterr().err
    left = [f.name for f in out.iterdir()]
    assert name not in left
    assert [n for n in left if n.endswith(".tmp")] == []


@pytest.mark.parametrize("argv, rule_runs", [
    (["simulate", "--orientation", "literal", "--t-end", "0.5"], 8),
    (["validate"], 4),
    (["validate", "--orientation", "literal"], 8),
])
def test_cli_overrides_check_coefficients_once(tmp_path, monkeypatch, capsys, argv, rule_runs):
    # loading checks the four matrices of example1 once; overrides rebuild the set once more
    calls = []
    rule = vectorfield._equation_form

    def counted(*args):
        calls.append(args[3])
        return rule(*args)

    monkeypatch.setattr(vectorfield, "_equation_form", counted)
    command, *options = argv
    if command == "simulate":
        options += ["--out", str(tmp_path / "out")]
    main([command, str(bundled_scenario_path("example1")), *options])
    assert len(calls) == rule_runs


def test_cli_simulate_missing_scenario(tmp_path):
    assert main(["simulate", str(tmp_path / "no.yaml"), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", ["validate", "simulate", "verify", "witness"])
def test_cli_missing_file_every_command(tmp_path, capsys, command):
    missing = tmp_path / "no.yaml"
    out = ["--out", str(tmp_path)] if command in ("simulate", "verify") else []
    assert main([command, str(missing), *out]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: no such file: {missing}\n" and captured.out == ""


@pytest.mark.parametrize(
    "override",
    [["--sample-dt", "0"], ["--t-end", "-1"], ["--t-end", "nan"], ["--sample-dt", "1e-300"]],
)
def test_cli_simulate_invalid_integrator_override(tmp_path, small_scenario_file, capsys, override):
    code = main(["simulate", str(small_scenario_file), "--out", str(tmp_path), *override])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: integrator: ")


def test_cli_verify_small(tmp_path, small_scenario_file, capsys):
    out = tmp_path / "verout"
    assert main(["verify", str(small_scenario_file), "--out", str(out)]) == 0
    assert "verdict: PASS" in (out / "report.txt").read_text(encoding="utf-8")


def test_cli_verify_literal_orientation_fails(tmp_path, small_scenario_file, capsys):
    out = tmp_path / "verlit"
    code = main([
        "verify", str(small_scenario_file), "--out", str(out),
        "--orientation", "literal",
    ])
    assert code == 1
    assert "verdict: FAIL" in (out / "report.txt").read_text(encoding="utf-8")


def test_cli_verify_run_that_does_not_complete(tmp_path, capsys):
    # backward from example1's initial state the step size underflows at
    # t ~ 0.0096: verify fails under the integration exit code, as simulate does
    doc = yaml.safe_load(bundled_scenario_path("example1").read_text(encoding="utf-8"))
    doc["integrator"].update(direction="backward", t_end=50)
    path = tmp_path / "backward.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out", str(out)]) == 3
    assert main(["verify", str(path), "--out", str(out)]) == 3
    assert "verdict: FAIL" in capsys.readouterr().out
    lines = (out / "report.txt").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "verdict: FAIL"
    assert lines[lines.index("[itineraries]") + 1] == (
        "  scenario 1: termination step_failure at t=0.00958219: FAIL"
    )


def test_cli_witness(small_scenario_file, capsys):
    code = main(["witness", str(small_scenario_file), "--edge", "1", "2", "--delta", "0.01"])
    assert code == 0
    out = capsys.readouterr().out
    assert "edge (1,2)" in out and "converged" in out


def test_cli_calls_in_one_process_share_no_state(tmp_path, small_scenario_file, capsys,
                                                 monkeypatch):
    # the parser is built once per process: an option given to one call
    # must not reach the next
    scen = str(small_scenario_file)
    assert main(["witness", scen, "--delta", "0.1", "--delta", "0.01"]) == 0
    assert main(["witness", scen]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6 + 3  # 3 edges at 2 deltas, then at the scenario's 1
    assert all("delta=0.01:" in line for line in lines[6:])
    out = ["--out", str(tmp_path / "out")]
    assert main(["simulate", scen, *out, "--t-end", "5"]) == 0
    assert main(["simulate", scen, *out]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first.startswith("simulated to t=5:") and second.startswith("simulated to t=80:")
    # commands are looked up when main runs, so a replaced one is the one called
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.t_end) or 7)
    assert main(["verify", scen, "--t-end", "5"]) == 7
    assert main(["verify", scen]) == 7
    assert seen == [5.0, None]


@pytest.mark.parametrize("delta", ["2", "0", "nan"])
def test_cli_witness_delta_out_of_range(small_scenario_file, capsys, delta):
    code = main(["witness", str(small_scenario_file), "--edge", "1", "2", "--delta", delta])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: analysis.witness_deltas: ") and captured.out == ""


@pytest.mark.parametrize("command, code", [
    ("validate", 1), ("simulate", 2), ("verify", 2), ("witness", 2),
])
def test_cli_coefficient_that_loses_its_sign(tmp_path, capsys, small_scenario_file, command, code):
    # at phi = psi = 1, 1 + (1e-17 - 1) rounds to 0: the rate table refuses it
    path = tmp_path / "tiny.yaml"
    text = small_scenario_file.read_text(encoding="utf-8")
    path.write_text(text.replace("c_plus: 1.0", "c_plus: 1.0e-17"), encoding="utf-8")
    argv = [command, str(path)]
    if command in ("simulate", "verify"):
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == code
    captured = capsys.readouterr()
    prefix = "invalid: " if command == "validate" else "error: "
    assert captured.err.startswith(prefix + "coefficients: a: entry [1,2] = 1e-17 ")
    assert captured.out == "" and "Traceback" not in captured.err


def test_cli_witness_non_edge(small_scenario_file, capsys):
    assert main(["witness", str(small_scenario_file), "--edge", "1", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
