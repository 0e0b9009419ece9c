"""Process-environment helpers for worker spawning.

Spawned workers inherit the parent's ``os.environ`` at ``Process.start``,
so the environment is how the parent configures what a worker does
before any of its code runs: native libraries (BLAS thread pools) and
the ``REPRO_*`` switches the worker reads at start-up.  Every such
change is scoped with :func:`scoped_env` so the parent's environment is
exactly as it was once the spawn is done.
"""

from __future__ import annotations

import os
from collections.abc import Iterator, Mapping
from contextlib import contextmanager

__all__ = [
    "THREAD_ENV_VARS",
    "available_cpus",
    "scoped_env",
    "thread_budget_env",
    "worker_thread_share",
]

#: The standard thread-pool variables of the BLAS/OpenMP runtimes NumPy
#: may be linked against.  Each library reads its variable once, when it
#: loads.
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def scoped_env(updates: Mapping[str, str]) -> Iterator[None]:
    """Set ``updates`` in ``os.environ`` for the ``with`` body, then restore.

    Restoration is exact: a variable that was unset is removed again and
    one that was set gets its old value back, whether the body returns or
    raises.
    """
    saved = {name: os.environ.get(name) for name in updates}
    try:
        os.environ.update(updates)
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_thread_share(cpus: int, world: int) -> int:
    """Per-worker BLAS pool size that keeps ``world`` workers within
    ``cpus`` cores; never below one thread."""
    return max(1, cpus // world)


def thread_budget_env(share: int) -> dict[str, str]:
    """``share`` for each thread variable the user has not set.

    An explicit (non-empty) setting always wins, so a user who wants a
    different pool size sets the standard variable they already know.
    """
    return {name: str(share) for name in THREAD_ENV_VARS
            if not os.environ.get(name)}
