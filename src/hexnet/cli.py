"""Command-line interface: validate | simulate | verify | witness.

Exit codes: 0 success/pass, 1 verification or validation failure,
2 input error (missing/unreadable/invalid scenario), 3 integration failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import (
    LEVEL_SUB,
    LEVEL_SUPER,
    WitnessSpec,
    extract_itinerary,
    run_witness,  # unused here; kept as a module attribute that profilers wrap by name
    run_witnesses,
    verify_realization,
)
from .errors import (
    NotAnEdgeError,
    ScenarioError,
    ScenarioParseError,
    ScenarioSchemaError,
    ScenarioValidationError,
)
from .integrator import TERMINATION_COMPLETED, integrate
from .output import (
    publish,
    render_itinerary,
    render_report,
    witness_line,
    write_svg_panels,
    write_timeseries,
)
from .scenario import apply_overrides, load_scenario
from .vectorfield import ORIENTATION_EIGENVALUE, ORIENTATION_LITERAL, VARIANT_BOUNDED, VARIANT_STANDARD

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTEGRATION = 3

# command-line options that override the scenario key of the same name
_OVERRIDES = ("orientation", "variant", "t_end", "sample_dt")

_EPILOG = """exit codes:
  0  success / verification passed
  1  verification failed (or, for validate, scenario invalid)
  2  input error: file missing, unreadable or unparseable, scenario invalid,
     or --out naming something that cannot be used as a directory
  3  integration failure (divergence or step-size underflow)
"""


def _load(path, args):
    """Load a scenario and apply command-line overrides."""
    if not Path(path).is_file():
        raise ScenarioParseError(f"no such file: {path}")
    overrides = {key: getattr(args, key, None) for key in _OVERRIDES}
    if getattr(args, "delta", None):
        overrides["witness_deltas"] = tuple(args.delta)
    return apply_overrides(
        load_scenario(path), **{k: v for k, v in overrides.items() if v is not None}
    )


def cmd_validate(args) -> int:
    try:
        sc = _load(args.scenario, args)
    except (ScenarioSchemaError, ScenarioValidationError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_FAIL
    sc.field_params()  # warns when epsilon lets bump supports overlap
    h = sc.hierarchy
    print(
        f"ok: superstructure on {h.n_super} vertices,"
        f" substructure sizes {list(h.block_sizes)},"
        f" state dimension {h.dimension}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    sc = _load(args.scenario, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params = sc.field_params()
    traj = integrate(sc.initial_state(), params, sc.integrator)
    write_timeseries(traj, params.layout, out / "timeseries.csv")
    pieces = [render_itinerary(
        extract_itinerary(traj, params, LEVEL_SUPER, near_tol=sc.near_tol, min_dwell=sc.min_dwell)
    )]
    for j in range(params.layout.n_super):
        pieces.append(render_itinerary(
            extract_itinerary(traj, params, LEVEL_SUB, j=j,
                              near_tol=sc.near_tol, min_dwell=sc.min_dwell)
        ))
    with publish(out / "itinerary.txt") as fh:
        fh.write("\n".join(pieces))
    if args.plots:
        write_svg_panels(traj, params, out / "plot.svg")
    print(
        f"simulated to t={traj.last_time:g}: {traj.stats.accepted} steps accepted,"
        f" {traj.stats.rejected} rejected, termination {traj.termination}"
    )
    if traj.termination != TERMINATION_COMPLETED:
        where = ""
        if traj.diverged_coordinate is not None:
            where = f" in {params.layout.coord_names()[traj.diverged_coordinate]}"
        print(f"integration failed: {traj.termination}{where}", file=sys.stderr)
        return EXIT_INTEGRATION
    return EXIT_OK


def cmd_verify(args) -> int:
    sc = _load(args.scenario, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params = sc.field_params()
    report = verify_realization(
        params,
        [(sc.initial_state(), sc.integrator)],
        near_tol=sc.near_tol,
        min_dwell=sc.min_dwell,
        deltas=sc.witness_deltas,
    )
    text = render_report(report)
    with publish(out / "report.txt") as fh:
        fh.write(text)
    print(text, end="")
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_witness(args) -> int:
    sc = _load(args.scenario, args)
    params = sc.field_params()
    if args.edge is not None:
        edges = [(args.edge[0] - 1, args.edge[1] - 1)]
    else:
        edges = sorted(params.hierarchy.superstructure.edges)
    specs = [WitnessSpec(j, k, delta) for j, k in edges for delta in sc.witness_deltas]
    try:
        results = run_witnesses(specs, params)
    except NotAnEdgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    for res in results:
        print(witness_line(res))
    return EXIT_OK if all(res.passed for res in results) else EXIT_FAIL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hexnet",
        description="Realize hierarchies of digraphs as excitable/heteroclinic networks,"
        " simulate them, and verify the realization.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_integrator=True):
        sp.add_argument("scenario", help="scenario YAML file")
        sp.add_argument(
            "--orientation",
            choices=[ORIENTATION_EIGENVALUE, ORIENTATION_LITERAL],
            help="coefficient orientation override",
        )
        sp.add_argument(
            "--variant",
            choices=[VARIANT_STANDARD, VARIANT_BOUNDED],
            help="field variant override",
        )
        if with_integrator:
            sp.add_argument("--t-end", type=float, dest="t_end")
            sp.add_argument("--sample-dt", type=float, dest="sample_dt")

    sp = sub.add_parser("validate", help="parse and validate a scenario")
    add_common(sp, with_integrator=False)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("simulate", help="integrate and write timeseries/itineraries")
    add_common(sp)
    sp.add_argument("--out", default="out", help="output directory")
    sp.add_argument("--plots", action="store_true", help="also write SVG panels")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify", help="full realization verification")
    add_common(sp)
    sp.add_argument("--out", default="out", help="output directory")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("witness", help="run excitable-connection witnesses")
    add_common(sp, with_integrator=False)
    sp.add_argument("--edge", type=int, nargs=2, metavar=("J", "K"),
                    help="single superstructure edge (1-based)")
    sp.add_argument("--delta", type=float, action="append",
                    help="witness amplitude (repeatable)")
    sp.set_defaults(func=cmd_witness)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, OSError) as exc:  # OSError: a path named on the command line
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
