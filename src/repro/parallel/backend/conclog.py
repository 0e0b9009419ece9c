"""Concurrency event log: the structured side channel behind DYN003.

A :class:`ConcurrencyLog` records every synchronization-relevant action a
rank takes — ring-mailbox sends/recvs (:class:`ShmChannel`), barrier
arrivals/departures (:class:`ShmBarrier`), and the issue/wait lifecycle of
:class:`~repro.parallel.backend.transport.ExchangeHandle` — as one JSON
object per event.  The offline happens-before checker
(:mod:`repro.lint.race_check`) replays these logs, reconstructs vector
clocks from the protocol edges, and flags slot-reuse races, stale barrier
generations, buffers mutated inside an issue→wait window, and handles
that were issued but never waited.

Design rules (the same ones :class:`~repro.obs.profile.OpProfiler`
follows, DESIGN decision #7):

- **Side channel, bitwise-neutral.**  Nothing on the data plane changes:
  no extra bytes on the wire, no reordered data operations.  Events that
  *publish* state to peers (send, barrier arrival) are stamped
  immediately before the single store that makes them visible, and a
  recv is stamped before its slot release — so in a correct run the
  observer's timestamp is always later than the publisher's, which is
  exactly the wall-order invariant the replay checks.
- **Off by default.**  With no log installed every instrumentation point
  costs one module-global load plus an ``is None`` check.  The mp worker
  installs a log only when ``REPRO_CONC_LOG`` names a directory; tests
  install one explicitly via :func:`install`.
- **Cheap online, smart offline.**  The online side emits only
  ``(rank, local index, monotonic timestamp)`` plus protocol identifiers
  (mailbox, slot, seq, generation, handle id); true vector clocks are
  computed during replay from program order + matched protocol edges, so
  the hot path never pays for clock piggybacking.  ``time.monotonic`` is
  CLOCK_MONOTONIC on Linux — one system-wide clock — so cross-rank
  timestamps are comparable and the replay can check that every claimed
  happens-before edge is consistent with observed wall order.

Event kinds and their fields (all events carry ``rank``/``idx``/``t``):

====================  =====================================================
``meta``              ``world`` — first line of every per-rank log file
``send``              ``src dst slot seq`` — ring-slot commit (status→FULL)
``recv``              ``src dst slot seq got_seq`` — drain (status→EMPTY)
``barrier_arrive``    ``gen`` — own generation slot bumped
``barrier_depart``    ``gen`` — all peers observed at ``gen``
``handle_issue``      ``hid htype label crc`` — collective issued
``handle_wait``       ``hid htype crc dup`` — handle completed (``dup``:
                      result was already cached — an idempotent re-wait)
``step_end``          ``step`` — one training step's frame boundary
====================  =====================================================
"""

from __future__ import annotations

import json
import os
import time
import zlib
from pathlib import Path

__all__ = [
    "ConcurrencyLog",
    "ENV_VAR",
    "active",
    "install",
    "uninstall",
    "maybe_install_from_env",
    "payload_crc",
    "load_events",
]

#: Directory for per-rank log files; presence turns instrumentation on.
ENV_VAR = "REPRO_CONC_LOG"

_ACTIVE: "ConcurrencyLog | None" = None


def active() -> "ConcurrencyLog | None":
    """The installed log, or ``None`` (the common, zero-cost case)."""
    return _ACTIVE


def install(log: "ConcurrencyLog") -> "ConcurrencyLog":
    """Make ``log`` the process-wide event sink and return it."""
    global _ACTIVE
    _ACTIVE = log
    return log


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None


def maybe_install_from_env(rank: int, world: int) -> "ConcurrencyLog | None":
    """Install a log writing to ``$REPRO_CONC_LOG/conc-rank{rank}.jsonl``.

    Returns ``None`` (and installs nothing) when the variable is unset —
    the production default.  The mp worker calls this once at startup, so
    enabling race detection is purely an environment decision; no code
    path changes.
    """
    outdir = os.environ.get(ENV_VAR)
    if not outdir:
        return None
    path = Path(outdir) / f"conc-rank{rank}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    return install(ConcurrencyLog(rank=rank, world=world, path=path))


def payload_crc(data) -> int:
    """Stable checksum of an array's bytes (order-sensitive, dtype-blind).

    Used to detect a buffer mutated between a handle's issue and its wait:
    equal content ⇒ equal crc, so a mismatch proves a write landed inside
    the in-flight window.
    """
    import numpy as np

    return zlib.crc32(np.ascontiguousarray(data).tobytes())


class ConcurrencyLog:
    """Per-rank append-only event buffer with optional JSONL persistence.

    ``emit`` stamps each event with this rank, a dense per-rank index
    (the program-order clock) and a monotonic timestamp.  ``flush``
    appends events accumulated since the previous flush to ``path`` —
    the worker flushes after every step so a crashed run still leaves a
    replayable prefix on disk.
    """

    def __init__(self, rank: int, world: int, path: str | Path | None = None):
        self.rank = rank
        self.world = world
        self.path = Path(path) if path is not None else None
        self.events: list[dict] = []
        self._flushed = 0
        self._next_hid = 0
        self.emit("meta", world=world)

    def emit(self, kind: str, **fields) -> dict:
        event = {"kind": kind, "rank": self.rank, "idx": len(self.events),
                 "t": time.monotonic(), **fields}
        self.events.append(event)
        return event

    def next_handle_id(self) -> int:
        """A per-rank-unique handle id (``id()`` recycles after GC)."""
        self._next_hid += 1
        return self._next_hid

    def flush(self) -> None:
        """Append unwritten events to ``path`` (no-op when path is None)."""
        if self.path is None or self._flushed >= len(self.events):
            return
        with open(self.path, "a", encoding="utf-8") as fh:
            for event in self.events[self._flushed:]:
                fh.write(json.dumps(event) + "\n")
        self._flushed = len(self.events)


def load_events(path: str | Path) -> list[dict]:
    """Load a recorded run: one ``conc-rank*.jsonl`` file or a directory.

    Returns the concatenation of every rank's events (per-rank order is
    preserved; cross-rank order is irrelevant — the checker rebuilds it
    from the happens-before graph).  Raises ``FileNotFoundError`` for a
    missing path and ``ValueError`` for a directory with no log files,
    so a CI job pointed at the wrong artifact fails loudly.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("conc-rank*.jsonl"))
        if not files:
            raise ValueError(f"no conc-rank*.jsonl files under {path}")
    elif path.is_file():
        files = [path]
    else:
        raise FileNotFoundError(f"no such concurrency log: {path}")
    events: list[dict] = []
    for f in files:
        with open(f, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
    return events
