"""Process set-up shared by the benchmark scripts.

The benchmark runs from the root of a source checkout with ``src`` on the
import path, the way the test suite does, and caps BLAS threads at the number
of cores this process may run on.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = BENCH / ".cache"

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cores() -> int:
    return len(os.sched_getaffinity(0))


def have_source() -> bool:
    return (SRC / "pcout" / "__init__.py").is_file()


def configure() -> None:
    """Cap BLAS threads and put the checkout's ``src`` first on the path.

    Must run before numpy is imported: OpenBLAS reads its thread count once,
    when it loads.
    """
    for var in _BLAS_VARS:
        os.environ[var] = str(cores())
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    CACHE.mkdir(exist_ok=True)


def child_env() -> dict:
    """Environment for a ``pcout`` child process: same thread cap, ``PYTHONPATH=src``."""
    env = dict(os.environ)
    for var in _BLAS_VARS:
        env[var] = str(cores())
    env["PYTHONPATH"] = str(SRC)
    return env
