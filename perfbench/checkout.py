"""Locate the checkout the benchmark runs in and import armwing from it.

The benchmark always measures the package source next to it (``src/``),
never an installed copy, so that two commits compare their own code.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "armwing" / "data"
OUT = ROOT / ".perfbench"

# Linear algebra in the fit is on 30x30 matrices; a second BLAS thread only
# adds scheduling noise on a 2-core machine, and the run fails an op that
# leaves a second thread alive.  Set before numpy is imported, overriding
# the caller's environment.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class MissingSource(RuntimeError):
    """The checkout holds no armwing package to measure."""


def use_checkout_source() -> None:
    """Pin BLAS threads and put the checkout's ``src`` first on sys.path."""
    if not (SRC / "armwing" / "__init__.py").is_file():
        raise MissingSource(f"no armwing package under {SRC}")
    for key, value in BLAS_ENV.items():
        os.environ[key] = value
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def shipped_designs() -> list[Path]:
    """The two mechanism files shipped with the package."""
    return [DATA / "reference_armwing.json", DATA / "fourbar_demo.json"]
