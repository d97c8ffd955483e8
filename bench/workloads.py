"""Seeded inputs, the timed operation and the output checks of each workload.

A workload turns ``--seed`` into scenario files under a work directory. Its
``op`` runs hexnet's CLI (``hexnet.cli.main``, in process) and public API on
those files and is the only timed part; ``check`` then reads the program's
outputs and returns one ``(operation, problem or None)`` pair per operation.

Calls into hexnet go through module attributes looked up at call time
(``hexnet.cli.main``, ``hexnet.load_scenario``, ...), so the traced run can
wrap them.
"""
from __future__ import annotations

import contextlib
import io
import random
import re
import shutil
from dataclasses import replace
from math import floor
from pathlib import Path

import yaml

import hexnet
import hexnet.cli

# paper_verify: example1 up to t = 33 covers the first activation of block 1
# (dense phase, psi = 200), the slow superstructure transition 1 -> 2 and the
# first activation of block 2: about 36,500 accepted steps, 1,100 per unit of
# model time, all inside the dense first 100 units.
PAPER_T_END = 33.0

# dense_simulate: a superstructure 3-cycle over three 3-cycles, unit
# timescales, a fine sample grid.
DENSE_T_END = 80.0
DENSE_SAMPLE_DT = 0.001
DENSE_TOL = 1e-9
DENSE_JITTER = 0.05

# generated_witness: Hamiltonian cycle plus one-way chords, N = 10 and block
# sizes 3..6 with a fixed total, so d = 55 and the cost is the same for every
# seed while the graphs differ.
GEN_N = 10
GEN_SUPER_CHORDS = 10
GEN_BLOCK_SIZES = (3, 3, 4, 4, 4, 5, 5, 5, 6, 6)
GEN_WITNESS_DELTAS = (0.01,)
RESIDUAL_TOL = 1e-12


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one hexnet command in this process; return (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hexnet.cli.main(argv)
    return code, buf.getvalue()


def grid_length(t_end: float, dt: float) -> int:
    """Number of rows of the uniform sample grid 0, dt, ..., t_end."""
    n = int(floor(t_end / dt + 1e-9)) + 1
    return n if (n - 1) * dt >= t_end - 1e-9 * max(dt, 1.0) else n + 1


def cycle_with_chords(rng: random.Random, n: int, n_chords: int) -> list[tuple[int, int]]:
    """0-based edges: a Hamiltonian cycle through a random vertex order plus
    n_chords one-way chords between vertices not yet adjacent."""
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    taken = {frozenset(e) for e in edges}
    free = [(i, k) for i in range(n) for k in range(i + 1, n) if frozenset((i, k)) not in taken]
    for i, k in rng.sample(free, n_chords):
        edges.append((i, k) if rng.random() < 0.5 else (k, i))
    return edges


def _graph_node(n: int, edges) -> dict:
    return {"vertices": n, "edges": [[i + 1, k + 1] for i, k in sorted(edges)]}


def _check_edges(visits: list[tuple[int, int | None]], edges: set[tuple[int, int]]) -> tuple[int, list]:
    """Consecutive visits inside one window must be edges; returns (pairs, violations)."""
    pairs, bad = 0, []
    for (a, wa), (b, wb) in zip(visits, visits[1:]):
        if wa != wb:
            continue
        pairs += 1
        if (a, b) not in edges:
            bad.append((a, b))
    return pairs, bad


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, orientation: str | None = None):
        self.seed = seed
        self.workdir = workdir / self.name
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.out = self.workdir / "out"
        self.overrides = ["--orientation", orientation] if orientation else []
        self.orientation = orientation
        self.scenario_path = self.make_inputs(random.Random(seed))

    def make_inputs(self, rng: random.Random) -> Path:
        raise NotImplementedError

    def setup(self):
        """The set-up a user pays before any command: load and build the field."""
        return hexnet.load_scenario(self.scenario_path).field_params()

    def properties(self) -> dict:
        params = self.setup()
        h = params.hierarchy
        return {
            "d": params.layout.dimension,
            "N": h.n_super,
            "block_sizes": list(h.block_sizes),
            "super_edges": len(h.superstructure.edges),
            "edges": len(h.superstructure.edges) + sum(len(g.edges) for g in h.substructures),
        }

    def prepare(self) -> None:
        """Remove the previous outputs (untimed), so every check reads fresh ones."""
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self):
        raise NotImplementedError

    def check(self, raw) -> list[tuple[str, str | None]]:
        raise NotImplementedError


class PaperVerify(Workload):
    name = "paper_verify"
    _SUPER_LINE = re.compile(r"scenario 1 super: visits (\S+) ")

    def make_inputs(self, rng):
        return hexnet.bundled_scenario_path("example1")

    def properties(self) -> dict:
        sample_dt = hexnet.load_scenario(self.scenario_path).integrator.sample_dt
        return {**super().properties(), "t_end": PAPER_T_END,
                "samples": grid_length(PAPER_T_END, sample_dt)}

    def op(self):
        return run_cli(["verify", str(self.scenario_path), "--t-end", repr(PAPER_T_END),
                        "--out", str(self.out), *self.overrides])

    def check(self, raw):
        code, _ = raw
        problems = []
        if code != 0:
            problems.append(f"verify exited {code}")
        report = self.out / "report.txt"
        text = report.read_text(encoding="utf-8") if report.is_file() else ""
        if "verdict: PASS" not in text:
            problems.append("report verdict is not PASS")
        m = self._SUPER_LINE.search(text)
        if m is None:
            problems.append("no superstructure itinerary in the report")
        else:
            labels = [int(v) for v in m.group(1).split(",")] if m.group(1) != "(none)" else []
            if len(labels) < 2 or labels != [i % 3 + 1 for i in range(len(labels))]:
                problems.append(f"superstructure visits {labels} do not follow 1->2->3->1")
        return [("verify", "; ".join(problems) or None)]


class DenseSimulate(Workload):
    name = "dense_simulate"
    _SECTION = re.compile(r"^\[(superstructure|substructure (\d+))\]")
    _VISIT = re.compile(r"^  vertex (\d+): t in .*?( window (\d+))?$")

    def make_inputs(self, rng):
        cycle = [(0, 1), (1, 2), (2, 0)]
        self.graphs = [set(cycle)] + [set(cycle) for _ in range(3)]

        def jitter(values):
            return [v * (1.0 + DENSE_JITTER * rng.uniform(-1.0, 1.0)) for v in values]

        X = jitter([0.9, 0.1, 0.1])
        x = [jitter([0.999, 0.1, 0.1]), jitter([0.1, 0.999, 0.1]), jitter([0.1, 0.1, 0.999])]
        self.initial_state = [*X, *(v for b in x for v in b)]
        doc = {
            "hierarchy": {
                "superstructure": _graph_node(3, cycle),
                "substructures": [_graph_node(3, cycle) for _ in range(3)],
            },
            "coefficients": {"c_plus": 1.0, "c_minus": -1.5},
            "field": {"epsilon": 0.2, "phi": 1.0, "psi": 1.0, "omega": 1.0},
            "initial_state": {"X": X, "x": x},
            "integrator": {"t_end": DENSE_T_END, "rtol": DENSE_TOL, "atol": DENSE_TOL,
                           "sample_dt": DENSE_SAMPLE_DT},
        }
        path = self.workdir / f"dense-{self.seed}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
        return path

    def properties(self) -> dict:
        return {**super().properties(), "t_end": DENSE_T_END,
                "samples": grid_length(DENSE_T_END, DENSE_SAMPLE_DT)}

    def op(self):
        return run_cli(["simulate", str(self.scenario_path), "--out", str(self.out),
                        "--plots", *self.overrides])

    def check(self, raw):
        code, _ = raw
        problems = []
        if code != 0:
            problems.append(f"simulate exited {code}")
        csv = self.out / "timeseries.csv"
        if csv.is_file():
            # stream the file, so the check adds nothing to the peak memory
            with open(csv, "rb") as fh:
                fh.readline()
                first = fh.readline().decode().split(",")
                rows = 1 + sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
            want = grid_length(DENSE_T_END, DENSE_SAMPLE_DT)
            if rows != want:
                problems.append(f"CSV has {rows} rows, grid has {want}")
            got = [float(v).hex() for v in first]
            if got != [(0.0).hex()] + [v.hex() for v in self.initial_state]:
                problems.append("CSV row 0 differs from the initial state")
        else:
            problems.append("no timeseries.csv")
        if not (self.out / "plot.svg").is_file():
            problems.append("no plot.svg")
        itin = self.out / "itinerary.txt"
        problems += self._check_itineraries(
            itin.read_text(encoding="utf-8") if itin.is_file() else ""
        )
        return [("simulate", "; ".join(problems) or None)]

    def _check_itineraries(self, text: str) -> list[str]:
        sections: dict[int, list[tuple[int, int | None]]] = {}
        current = None
        for line in text.splitlines():
            m = self._SECTION.match(line)
            if m:
                current = 0 if m.group(2) is None else int(m.group(2))
                sections[current] = []
                continue
            m = self._VISIT.match(line)
            if m and current is not None:
                win = int(m.group(3)) if m.group(3) else None
                sections[current].append((int(m.group(1)) - 1, win))
        problems = []
        if sorted(sections) != [0, 1, 2, 3]:
            return [f"itinerary sections {sorted(sections)}, expected super and 3 blocks"]
        for idx, visits in sections.items():
            pairs, bad = _check_edges(visits, self.graphs[idx])
            where = "superstructure" if idx == 0 else f"substructure {idx}"
            # unit timescales leave the blocks too slow to finish a transition
            # inside one active window; the superstructure must show several
            if idx == 0 and pairs < 2:
                problems.append(f"{where}: {pairs} transitions, expected at least 2")
            if bad:
                problems.append(f"{where}: non-edges {[(a + 1, b + 1) for a, b in bad]}")
        return problems


class GeneratedWitness(Workload):
    name = "generated_witness"
    def make_inputs(self, rng):
        sizes = list(GEN_BLOCK_SIZES)
        rng.shuffle(sizes)
        super_edges = cycle_with_chords(rng, GEN_N, GEN_SUPER_CHORDS)
        subs = [cycle_with_chords(rng, n, n - 3) for n in sizes]
        self.n_witnesses = len(super_edges) * len(GEN_WITNESS_DELTAS)
        doc = {
            "hierarchy": {
                "superstructure": _graph_node(GEN_N, super_edges),
                "substructures": [_graph_node(n, e) for n, e in zip(sizes, subs)],
            },
            "coefficients": {"c_plus": 1.0, "c_minus": -1.5},
            "field": {"epsilon": 0.2, "phi": 1.0, "psi": 1.0, "omega": 1.0},
            "initial_state": {
                "X": [0.9] + [0.1] * (GEN_N - 1),
                "x": [[0.999] + [0.1] * (n - 1) for n in sizes],
            },
            "integrator": {"t_end": 100.0, "rtol": 1e-10, "atol": 1e-10},
            "analysis": {"witness_deltas": list(GEN_WITNESS_DELTAS)},
        }
        path = self.workdir / f"generated-{self.seed}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
        return path

    def properties(self) -> dict:
        return {**super().properties(), "witnesses": self.n_witnesses}

    def op(self):
        validate = run_cli(["validate", str(self.scenario_path), *self.overrides])
        sc = hexnet.load_scenario(self.scenario_path)
        if self.orientation:
            sc = replace(sc, orientation=self.orientation)
        params = sc.field_params()
        residuals = hexnet.verify_equilibria(params, RESIDUAL_TOL)
        correspondence = hexnet.check_edge_eigen_correspondence(params)
        witness = run_cli(["witness", str(self.scenario_path), *self.overrides])
        return validate, (residuals, correspondence), witness

    def check(self, raw):
        (v_code, v_out), (residuals, correspondence), (w_code, w_out) = raw
        out = []
        out.append(("validate", None if v_code == 0 and v_out.startswith(f"ok: superstructure on {GEN_N} ")
                    else f"validate exited {v_code}: {v_out.strip()}"))
        problems = []
        if not residuals.max_residual <= RESIDUAL_TOL:
            problems.append(f"max residual {residuals.max_residual:.3e}")
        if not correspondence.passed:
            bad = [c.name for c in correspondence.checks if not c.passed]
            problems.append(f"eigen/edge mismatch at {bad[:5]}")
        out.append(("structural", "; ".join(problems) or None))
        lines = w_out.splitlines()
        failing = [ln for ln in lines if not ln.endswith(": PASS")]
        if w_code != 0 or len(lines) != self.n_witnesses or failing:
            out.append(("witness", f"witness exited {w_code}, {len(lines)} lines"
                        f" for {self.n_witnesses} witnesses, failing: {failing[:3]}"))
        else:
            out.append(("witness", None))
        return out


WORKLOADS = {w.name: w for w in (PaperVerify, DenseSimulate, GeneratedWitness)}
