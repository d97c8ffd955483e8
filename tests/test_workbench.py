"""Scenario files, persistence and the command-line interface.

Claims covered:
    - bundled scenarios load with the published parameter values
    - defaults (unit timescales) and validation errors with field paths,
      including out-of-range coefficient overrides and non-finite verbatim
      matrices
    - importing the package loads no scipy (a test-only oracle)
    - save/load round trip is field-for-field identical
    - CSV layout, full precision, bitwise-zero columns, determinism
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

import yaml

import hexnet
from hexnet.cli import main
from hexnet.errors import ScenarioSchemaError, ScenarioValidationError
from hexnet.integrator import IntegratorConfig, integrate
from hexnet.output import render_itinerary, render_report, write_svg_panels, write_timeseries
from hexnet.scenario import bundled_scenario_path, load_scenario, save_scenario
from hexnet.analysis import LEVEL_SUPER, extract_itinerary, verify_realization


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


def test_cli_simulate_missing_scenario(tmp_path):
    assert main(["simulate", str(tmp_path / "no.yaml"), "--out", str(tmp_path)]) == 2


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


def test_cli_witness_non_edge(small_scenario_file, capsys):
    assert main(["witness", str(small_scenario_file), "--edge", "1", "3"]) == 2
