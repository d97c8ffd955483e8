"""hexnet benchmark: three workloads through the CLI and public API.

    python3 bench/run.py --workload paper_verify --seed 1 --seconds 40 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  paper_verify       hexnet verify on bundled example1, t_end = 33
  dense_simulate     hexnet simulate --plots, 80,001 samples, seeded initial state
  generated_witness  hexnet validate + structural checks + hexnet witness on a
                     seeded N = 10, d = 55 hierarchy

A run repeats the workload's operation for ``--seconds``: it starts no
repetition that would likely end past that budget, checks every output
after each repetition (untimed), then times the set-up (load_scenario plus
field_params) ten times; ``setup_s`` is the median of all set-up times.

--trace 0   end-to-end metrics: wall_s (median per repetition), setup_s,
            peak_rss_mb. Nothing is wrapped. Both times are in reference
            seconds (see reference.py); the raw seconds are in the record.
--trace 1   per-layer metrics: repetitions alternate untraced and traced, the
            per-layer figures are medians over the traced ones, and
            trace.slowdown is traced over untraced median wall time. The
            spans are written to .bench_out/trace-<workload>-<seed>.json.

``--orientation literal`` forwards the paper's negative control to every
command; paper_verify must then fail every operation.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}; ``failed / attempted`` is the workload's failure share. The line
before it is a record of the run (seed, commit, nproc, versions, input
properties); both are also appended to .bench_out/results.jsonl. Exit
status 0 when every output is correct, 1 when some check failed, 2 when the
checkout holds no hexnet sources.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from _env import ROOT, SRC, MissingProgram, import_hexnet

OUT_DIR = ROOT / ".bench_out"
# set-up takes milliseconds: time it this often after every repetition, so
# its median samples the whole run rather than one moment of it
SETUP_REPS_PER_ITERATION = 10

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "scenario.load_s": "s",
    "scenario.params_s": "s",
    "vectorfield.evals": "count",
    "vectorfield.us_per_eval": "us",
    "vectorfield.busy_s": "s",
    "integrator.calls": "count",
    "integrator.steps_accepted": "count",
    "integrator.steps_rejected": "count",
    "integrator.accept_ratio": "ratio",
    "integrator.busy_s": "s",
    "integrator.self_s": "s",
    "integrator.us_per_step": "us",
    "integrator.samples": "count",
    "analysis.self_s": "s",
    "output.busy_s": "s",
    "output.report_s": "s",
    "cli.other_s": "s",
    "trace.wall_s": "s",
    "trace.slowdown": "ratio",
}
# Parts of a layer that only some workloads run; they read 0 elsewhere, so
# they go into the run record rather than the metrics.
LAYER_DETAIL = (
    "analysis.structural_s",
    "analysis.itinerary_s",
    "analysis.witness_s",
    "analysis.witness_self_s",
    "analysis.witness_model_time",
    "output.csv_s",
    "output.csv_bytes",
    "output.svg_s",
)


def source_identity() -> dict:
    """Git commit when there is one, and always a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "hexnet").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10, check=False)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def timed(fn):
    gc.collect()
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def run_once(wl, tally, tracer=None):
    """One repetition: prepare (untimed), the timed operation, the checks."""
    wl.prepare()
    if tracer is None:
        raw, wall = timed(wl.op)
    else:
        from tracing import CLI

        first = len(tracer.spans)

        def op():
            with tracer.span(CLI, wl.name):
                return wl.op()

        raw, wall = timed(op)
    for name, problem in wl.check(raw):
        tally["attempted"] += 1
        if problem is not None:
            tally["failed"] += 1
            tally["problems"].append(f"{name}: {problem}")
    return wall if tracer is None else (wall, tracer.spans[first:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--orientation", choices=("eigenvalue", "literal"))
    args = parser.parse_args(argv)

    try:
        hexnet = import_hexnet()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import reference
    import workloads
    from tracing import Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR, args.orientation)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "orientation": args.orientation or "scenario",
        **source_identity(),
        **environment(),
        "input": wl.properties(),
    }
    wl.setup()  # the first load pays one-time costs (regex compilation, caches)

    tally = {"attempted": 0, "failed": 0, "problems": []}
    deadline = time.perf_counter() + args.seconds
    walls, traced, setups, kernels = [], [], [], [reference.kernel_times()]
    tracer = Tracer() if args.trace else None
    iterations = []
    while True:
        t0 = time.perf_counter()
        walls.append(run_once(wl, tally))
        if tracer is not None:
            with tracer.installed(hexnet):
                wall, spans = run_once(wl, tally, tracer)
            traced.append((wall, layer_metrics(spans, wall)))
        setups.append([timed(wl.setup)[1] for _ in range(SETUP_REPS_PER_ITERATION)])
        kernels.append(reference.kernel_times())
        iterations.append(time.perf_counter() - t0)
        # stop when one more iteration would likely end past the deadline
        if time.perf_counter() + statistics.median(iterations) > deadline:
            break

    # each iteration is scaled by the kernel times measured on either side of it
    scale = [reference.REFERENCE_S / statistics.mean(a + b) for a, b in zip(kernels, kernels[1:])]
    record["repetitions"] = len(walls)
    record["walls_s"] = walls
    record["setup_raw_s"] = statistics.median(t for reps in setups for t in reps)
    record["kernel_s"] = kernels
    if tracer is None:
        values = {
            "wall_s": statistics.median(w * f for w, f in zip(walls, scale)),
            "setup_s": statistics.median(t * f for reps, f in zip(setups, scale) for t in reps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        per_rep = [m for _, m in traced]
        for m in per_rep:
            if m["vectorfield.evals"] != m["_n_evals"]:
                tally["problems"].append(
                    f"trace: {m['vectorfield.evals']} RHS calls seen, integrator reports {m['_n_evals']}")
        counts = ("vectorfield.evals", "integrator.calls", "integrator.steps_accepted",
                  "integrator.steps_rejected", "integrator.samples")
        if any(m[k] != per_rep[0][k] for m in per_rep for k in counts):
            tally["problems"].append("trace: counts differ between repetitions")
        values = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0] if not k.startswith("_")}
        values["trace.wall_s"] = statistics.median(w for w, _ in traced)
        values["trace.slowdown"] = values["trace.wall_s"] / statistics.median(walls)
        record["layer_detail"] = {k: values.pop(k) for k in LAYER_DETAIL}
        units = PER_LAYER_UNITS
        spans_path = OUT_DIR / f"trace-{wl.name}-{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.to_json()), encoding="utf-8")
        record["spans_file"] = str(spans_path.relative_to(ROOT))

    attempted, failed = tally["attempted"], tally["failed"]
    correct = failed == 0 and not tally["problems"]
    record["problems"] = tally["problems"][:20]
    for name, unit in units.items():
        print(f"{wl.name} {name} = {values[name]:.6g} {unit}")
    print(f"{wl.name} fail_share = {failed / attempted:.6g} ({failed}/{attempted} operations)")
    for problem in tally["problems"][:20]:
        print(f"{wl.name} FAILED {problem}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(OUT_DIR / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"record": record, "result": result}) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
