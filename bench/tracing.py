"""Spans around calls into hexnet's modules, for the traced benchmark run.

``Tracer.installed()`` replaces module-level names with timing wrappers and
puts the originals back on exit; nothing is wrapped outside that block. Each
wrapped call becomes a span (layer, name, parent, start, end, counts) kept in
memory. The RHS ``hexnet.integrator.growth_rates`` runs hundreds of thousands
of times per run, so it gets no span of its own: a counter adds its calls and
time, and every integrator span records how much of both happened inside it.
"""
from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field

_clock = time.perf_counter

SCENARIO, INTEGRATOR, ANALYSIS, OUTPUT, CLI = "scenario", "integrator", "analysis", "output", "cli"


@dataclass(eq=False)
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.rhs_calls = 0
        self.rhs_time = 0.0

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, layer, name, _clock())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = _clock()
            self._stack.pop()

    def wrap(self, layer: str, name: str, fn, counts=None):
        """Span around fn; counts(args, result) -> dict is evaluated after the span."""
        def wrapped(*args, **kwargs):
            with self.span(layer, name) as s:
                result = fn(*args, **kwargs)
            if counts is not None:
                s.counts.update(counts(args, result))
            return result
        return wrapped

    def wrap_integrate(self, fn):
        def wrapped(*args, **kwargs):
            calls0, time0 = self.rhs_calls, self.rhs_time
            with self.span(INTEGRATOR, "integrate") as s:
                traj = fn(*args, **kwargs)
            s.counts.update(
                accepted=traj.stats.accepted,
                rejected=traj.stats.rejected,
                n_evals=traj.stats.n_evals,
                samples=int(traj.times.shape[0]),
                rhs_calls=self.rhs_calls - calls0,
                rhs_s=self.rhs_time - time0,
            )
            return traj
        return wrapped

    def wrap_rhs(self, fn):
        def wrapped(v, p):
            t0 = _clock()
            r = fn(v, p)
            self.rhs_time += _clock() - t0
            self.rhs_calls += 1
            return r
        return wrapped

    @contextlib.contextmanager
    def installed(self, hexnet):
        """Wrap hexnet's module-level names for the duration of the block."""
        import hexnet.analysis as analysis
        import hexnet.cli as cli
        import hexnet.integrator as integrator
        import hexnet.scenario as scenario

        def witness_counts(args, res):
            return {"model_time": res.forward_time + res.backward_time}

        def csv_counts(args, res):
            return {"bytes": os.path.getsize(args[2])}

        integrate = self.wrap_integrate(integrator.integrate)
        witness = self.wrap(ANALYSIS, "witness", analysis.run_witness, witness_counts)
        itinerary = self.wrap(ANALYSIS, "itinerary", analysis.extract_itinerary)
        residuals = self.wrap(ANALYSIS, "structural", analysis.verify_equilibria)
        correspondence = self.wrap(ANALYSIS, "structural", analysis.check_edge_eigen_correspondence)
        load = self.wrap(SCENARIO, "load", scenario.load_scenario)
        targets = [
            (integrator, "growth_rates", self.wrap_rhs(integrator.growth_rates)),
            (scenario.Scenario, "field_params",
             self.wrap(SCENARIO, "params", scenario.Scenario.field_params)),
            (analysis, "integrate", integrate),
            (analysis, "run_witness", witness),
            (analysis, "extract_itinerary", itinerary),
            (analysis, "verify_equilibria", residuals),
            (analysis, "check_edge_eigen_correspondence", correspondence),
            (hexnet, "load_scenario", load),
            (hexnet, "verify_equilibria", residuals),
            (hexnet, "check_edge_eigen_correspondence", correspondence),
            (cli, "load_scenario", load),
            (cli, "integrate", integrate),
            (cli, "run_witness", witness),
            (cli, "extract_itinerary", itinerary),
            (cli, "verify_realization",
             self.wrap(ANALYSIS, "verify_realization", cli.verify_realization)),
            (cli, "write_timeseries",
             self.wrap(OUTPUT, "csv", cli.write_timeseries, csv_counts)),
            (cli, "write_svg_panels", self.wrap(OUTPUT, "svg", cli.write_svg_panels)),
            (cli, "render_report", self.wrap(OUTPUT, "report", cli.render_report)),
            (cli, "render_itinerary", self.wrap(OUTPUT, "report", cli.render_itinerary)),
            (cli, "witness_line", self.wrap(OUTPUT, "report", cli.witness_line)),
        ]
        saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in targets]
        try:
            for obj, attr, wrapper in targets:
                setattr(obj, attr, wrapper)
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    def to_json(self) -> list[dict]:
        return [
            {"id": s.id, "parent": s.parent, "layer": s.layer, "name": s.name,
             "start": s.start, "end": s.end, **s.counts}
            for s in self.spans
        ]


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer figures of one traced repetition whose wall time is ``wall``.

    Self time is a span's duration minus its direct children's. The cli span
    is the benchmark's own span around ``hexnet.cli.main``; ``cli.other_s``
    is the wall time outside every span of another layer.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    by_id = {s.id: s for s in spans}

    def self_time(s: Span) -> float:
        return s.duration - child_time.get(s.id, 0.0)

    def total(layer, name=None, key=None):
        return sum(
            (s.counts.get(key, 0) if key else s.duration)
            for s in spans
            if s.layer == layer and (name is None or s.name == name)
        )

    def outermost(s: Span) -> bool:
        p = by_id.get(s.parent)
        return p is None or p.layer == CLI

    integ = [s for s in spans if s.layer == INTEGRATOR]
    evals = sum(s.counts["rhs_calls"] for s in integ)
    rhs_s = sum(s.counts["rhs_s"] for s in integ)
    accepted = sum(s.counts["accepted"] for s in integ)
    rejected = sum(s.counts["rejected"] for s in integ)
    integ_s = sum(s.duration for s in integ)
    witness_s = total(ANALYSIS, "witness")
    witness_integ = sum(
        s.duration for s in integ if s.parent is not None and by_id[s.parent].name == "witness"
    )
    covered = sum(s.duration for s in spans if s.layer != CLI and outermost(s))
    return {
        "scenario.load_s": sum(self_time(s) for s in spans if s.layer == SCENARIO and s.name == "load"),
        "scenario.params_s": total(SCENARIO, "params"),
        "vectorfield.evals": evals,
        "vectorfield.us_per_eval": 1e6 * rhs_s / evals if evals else 0.0,
        "vectorfield.busy_s": rhs_s,
        "integrator.calls": len(integ),
        "integrator.steps_accepted": accepted,
        "integrator.steps_rejected": rejected,
        "integrator.accept_ratio": accepted / (accepted + rejected) if accepted + rejected else 0.0,
        "integrator.busy_s": integ_s,
        "integrator.self_s": integ_s - rhs_s,
        "integrator.us_per_step": 1e6 * (integ_s - rhs_s) / accepted if accepted else 0.0,
        "integrator.samples": sum(s.counts["samples"] for s in integ),
        "analysis.self_s": sum(self_time(s) for s in spans if s.layer == ANALYSIS),
        "analysis.structural_s": total(ANALYSIS, "structural"),
        "analysis.itinerary_s": total(ANALYSIS, "itinerary"),
        "analysis.witness_s": witness_s,
        "analysis.witness_self_s": witness_s - witness_integ,
        "analysis.witness_model_time": total(ANALYSIS, "witness", "model_time"),
        "output.busy_s": total(OUTPUT),
        "output.report_s": total(OUTPUT, "report"),
        "output.csv_s": total(OUTPUT, "csv"),
        "output.csv_bytes": total(OUTPUT, "csv", "bytes"),
        "output.svg_s": total(OUTPUT, "svg"),
        "cli.other_s": wall - covered,
        "_n_evals": sum(s.counts["n_evals"] for s in integ),
    }
