"""Environment block of a benchmark run: interpreter and library versions,
BLAS name and thread count, CPU count and load average."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

# Every workload process runs its BLAS single-threaded: a second OpenBLAS
# thread doubles CPU time on the D = 64 mixing workload with no wall-clock gain.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def pin_blas_threads() -> None:
    """Must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _blas_threads(np) -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it exposes one."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in _OPENBLAS_THREAD_SYMBOLS:
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }
