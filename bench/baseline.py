"""Regenerate the step and evaluation counts of the ROADMAP Baseline table.

Integrates both bundled scenarios over their full published horizon
(t = 2000, rtol = atol = 1e-12) and compares the counts with the recorded
ones. Each run takes about a minute on a 2-core x86 machine; this script is
run once, outside the repeated benchmark runs:

    python3 bench/baseline.py

Exit status 0 when every count matches exactly, 1 otherwise.
"""
from __future__ import annotations

import json
import sys
import time

from _env import import_hexnet

EXPECTED = {
    "example1": {"accepted": 352_120, "rejected": 971, "evals": 2_118_547},
    "example2": {"accepted": 344_268, "rejected": 949, "evals": 2_071_303},
}


def main() -> int:
    hexnet = import_hexnet()
    ok = True
    for name, want in EXPECTED.items():
        sc = hexnet.load_scenario(hexnet.bundled_scenario_path(name))
        params = sc.field_params()
        t0 = time.perf_counter()
        traj = hexnet.integrate(sc.initial_state(), params, sc.integrator)
        wall = time.perf_counter() - t0
        got = {
            "accepted": traj.stats.accepted,
            "rejected": traj.stats.rejected,
            "evals": traj.stats.n_evals,
        }
        match = got == want
        ok = ok and match
        print(json.dumps({
            "scenario": name,
            "d": params.layout.dimension,
            "t_end": sc.integrator.t_end,
            "wall_s": round(wall, 2),
            **got,
            "expected": want,
            "match": match,
        }), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
