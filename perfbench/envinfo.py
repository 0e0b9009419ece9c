"""The environment a result was measured in, recorded with every run.

The benchmark pins no thread count: each mp worker's BLAS pool is sized
by the user's environment, and that sizing is part of what is measured.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys

#: Variables that size native thread pools or change what the program runs.
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ENV_PREFIX = "REPRO_"


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # NumPy < 1.26 only prints its configuration
        return {}
    return {k: {f: v.get(f) for f in ("name", "version",
                                      "openblas configuration") if f in v}
            for k, v in deps.items() if k in ("blas", "lapack")}


def _git_sha(root: str) -> str:
    """Commit of the checkout, or ``"unknown"`` outside a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in ENV_VARS},
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith(ENV_PREFIX)},
        "git_sha": _git_sha(root),
    }
