"""Scenario files, persistence and the command-line interface.

Claims covered:
    - bundled scenarios load with the published parameter values
    - defaults (unit timescales) and validation errors with field paths,
      including out-of-range coefficient overrides and non-finite verbatim
      matrices
    - importing the package loads no scipy (a test-only oracle)
    - save/load round trip is field-for-field identical
    - CSV layout, full precision, bitwise-zero columns, determinism; the
      same bytes from 1, 2 or 3 writer processes, with no child process or
      part file left behind, also when a writer fails
    - a failed CSV write leaves no file, and a failed rewrite leaves the
      previous file byte for byte; the file gets the mode of a plain open()
    - report.txt, itinerary.txt and plot.svg are published like the CSV: a
      write that fails part-way, or at the rename, leaves neither a partial
      target nor a temporary file
    - CLI overrides rebuild the scenario, and check its coefficients, once
    - itinerary/report rendering and SVG output are well-formed
    - CLI exit codes: 0 ok, 1 verification/validation failure, 2 input
      error, 3 integration failure
"""
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import yaml

import hexnet
from hexnet import output, vectorfield
from hexnet.cli import main
from hexnet.errors import ScenarioParseError, ScenarioSchemaError, ScenarioValidationError
from hexnet.integrator import IntegratorConfig, integrate
from hexnet.output import (
    publish,
    render_itinerary,
    render_report,
    write_svg_panels,
    write_timeseries,
)
from hexnet.scenario import bundled_scenario_path, load_scenario, save_scenario
from hexnet.analysis import LEVEL_SUPER, extract_itinerary, verify_realization
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


def _with_edge_rows(traj, dimension):
    """traj with four rows of formatting edge cases appended."""
    edge = [0.0, 1e-300, 5e-324, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 1.0, -0.0, 1 / 3]
    extra = np.resize(np.array(edge), (4, dimension))
    times = np.concatenate([traj.times, edge[:4]])
    return replace(traj, times=times, states=np.vstack([traj.states, extra]))


def _per_value_csv(traj, layout) -> bytes:
    rows = [",".join(format(x, ".17g") for x in (t, *row)) for t, row in zip(traj.times, traj.states)]
    header = ",".join(["t"] + layout.coord_names())
    return "".join(line + "\n" for line in [header, *rows]).encode()


def test_timeseries_matches_per_value_format(tmp_path, small_scenario):
    sc, p, s0 = small_scenario
    traj = integrate(s0, p, IntegratorConfig(t_end=1.0, sample_dt=0.25, rtol=1e-9, atol=1e-9))
    traj = _with_edge_rows(traj, p.layout.dimension)
    path = tmp_path / "fmt.csv"
    write_timeseries(traj, p.layout, path)
    assert path.read_bytes() == _per_value_csv(traj, p.layout)


def _force_writers(monkeypatch, rows: int, writers: int) -> list:
    """Make write_timeseries split rows among exactly writers processes;
    the returned list gets one entry per fork."""
    monkeypatch.setattr(output, "_ROWS_PER_WRITER", rows // writers)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(writers)), raising=False)
    forks, fork = [], os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _fail_in(monkeypatch, where: str) -> None:
    """Make _write_rows raise in the parent or in every forked child."""
    parent, write_rows = os.getpid(), output._write_rows

    def failing(*args):
        if (os.getpid() == parent) == (where == "parent"):
            raise RuntimeError("writer failed")
        write_rows(*args)

    monkeypatch.setattr(output, "_write_rows", failing)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("writers", [1, 2, 3])
def test_timeseries_writers_give_the_same_bytes(tmp_path, monkeypatch, small_scenario, writers):
    # the edge rows are the last four of nine, so they fall in a child's chunk
    sc, p, s0 = small_scenario
    traj = integrate(s0, p, IntegratorConfig(t_end=1.0, sample_dt=0.25, rtol=1e-9, atol=1e-9))
    traj = _with_edge_rows(traj, p.layout.dimension)
    forks = _force_writers(monkeypatch, traj.times.shape[0], writers)
    write_timeseries(traj, p.layout, tmp_path / "ts.csv")
    assert len(forks) == writers - 1
    assert (tmp_path / "ts.csv").read_bytes() == _per_value_csv(traj, p.layout)
    _assert_no_child_left()
    assert [f.name for f in tmp_path.iterdir()] == ["ts.csv"]


@pytest.mark.parametrize("where, error", [("child", OSError), ("parent", RuntimeError)])
def test_timeseries_writer_failure_leaves_no_child(tmp_path, monkeypatch, small_scenario,
                                                   where, error):
    sc, p, s0 = small_scenario
    traj = integrate(s0, p, IntegratorConfig(t_end=2.0, sample_dt=0.25, rtol=1e-9, atol=1e-9))
    _force_writers(monkeypatch, traj.times.shape[0], 3)
    _fail_in(monkeypatch, where)
    with pytest.raises(error):
        write_timeseries(traj, p.layout, tmp_path / "ts.csv")
    _assert_no_child_left()
    assert list(tmp_path.iterdir()) == []  # no truncated file, no temporary one


@pytest.mark.parametrize("where, error", [("child", OSError), ("parent", RuntimeError)])
def test_timeseries_failed_rewrite_keeps_previous_file(tmp_path, monkeypatch, small_scenario,
                                                       where, error):
    sc, p, s0 = small_scenario
    path = tmp_path / "ts.csv"
    short = integrate(s0, p, IntegratorConfig(t_end=1.0, sample_dt=0.25, rtol=1e-9, atol=1e-9))
    write_timeseries(short, p.layout, path)
    before = path.read_bytes()
    traj = integrate(s0, p, IntegratorConfig(t_end=2.0, sample_dt=0.25, rtol=1e-9, atol=1e-9))
    _force_writers(monkeypatch, traj.times.shape[0], 3)
    _fail_in(monkeypatch, where)
    with pytest.raises(error):
        write_timeseries(traj, p.layout, path)
    _assert_no_child_left()
    assert [f.name for f in tmp_path.iterdir()] == ["ts.csv"]
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
    rep = extract_itinerary(traj, p, LEVEL_SUPER)
    text = render_itinerary(rep)
    assert "superstructure" in text and "visits:" in text
    full = verify_realization(p, [(s0, sc.integrator)], deltas=(0.01,))
    report_text = render_report(full)
    assert "verdict: PASS" in report_text
    assert "Super(1)" in report_text
    assert "edge (1,2)" in report_text


def test_svg_panels(tmp_path, small_scenario):
    sc, p, s0 = small_scenario
    traj = integrate(s0, p, IntegratorConfig(t_end=20.0, sample_dt=0.1, rtol=1e-9, atol=1e-9))
    path = tmp_path / "plot.svg"
    write_svg_panels(traj, p, path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 12  # 3 + 3x3 coordinate traces


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


def test_cli_simulate_writer_failure(tmp_path, monkeypatch, small_scenario_file, capsys):
    _force_writers(monkeypatch, 51, 2)  # t_end 5 at sample_dt 0.1
    _fail_in(monkeypatch, "child")
    out = tmp_path / "simout"
    assert main(["simulate", str(small_scenario_file), "--out", str(out), "--t-end", "5.0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "timeseries writer" in captured.err
    _assert_no_child_left()
    assert list(out.iterdir()) == []


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


def test_cli_witness(small_scenario_file, capsys):
    code = main(["witness", str(small_scenario_file), "--edge", "1", "2", "--delta", "0.01"])
    assert code == 0
    out = capsys.readouterr().out
    assert "edge (1,2)" in out and "converged" in out


@pytest.mark.parametrize("delta", ["2", "0", "nan"])
def test_cli_witness_delta_out_of_range(small_scenario_file, capsys, delta):
    code = main(["witness", str(small_scenario_file), "--edge", "1", "2", "--delta", delta])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: analysis.witness_deltas: ") and captured.out == ""


def test_cli_witness_non_edge(small_scenario_file, capsys):
    assert main(["witness", str(small_scenario_file), "--edge", "1", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
