"""Process set-up shared by the benchmark scripts.

Pins BLAS and OpenMP pools to one thread before numpy loads, and imports
hexnet from the ``src`` tree of the checkout that holds this directory, so a
run always measures the code beside it and never an installed copy.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"


class MissingProgram(RuntimeError):
    """The checkout holds no hexnet sources to benchmark."""


def import_hexnet():
    """Import hexnet from ROOT/src, refusing any other copy."""
    if not (SRC / "hexnet" / "__init__.py").is_file():
        raise MissingProgram(f"no hexnet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hexnet

    if Path(hexnet.__file__).resolve().parent != SRC / "hexnet":
        raise MissingProgram(f"hexnet imported from {hexnet.__file__}, not from {SRC}")
    return hexnet
