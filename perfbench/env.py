"""Process set-up shared by the benchmark's entry scripts.

prepare() must run before numpy is imported: it pins the BLAS and OpenMP
pools to one thread and puts the checkout's own src/ first on sys.path.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# Single-threaded on purpose: the hot paths are short vectors and banded
# LAPACK calls, where extra BLAS threads add noise and no speed.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin threads and make `import failwave` load this checkout's source.

    Exits with code 2, printing nothing on stdout, when the checkout has no
    source tree or shipped scenarios to run.
    """
    for path in (SRC / "failwave" / "__init__.py", ROOT / "scenarios"):
        if not path.exists():
            print(f"perfbench: {path.relative_to(ROOT)} not found in {ROOT}", file=sys.stderr)
            sys.exit(2)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def describe() -> dict:
    """Interpreter, library and machine facts stored with every result."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
