"""Process-global SPMD rank context consulted by the runtime's hot loops.

The in-process runtime materializes *every* logical rank: shard loops run
``for r in range(tp)`` and collectives receive the full list of partials.
A worker process of the mp backend executes the *same* model code but owns
exactly one (dp_rank, stage, sp_rank, tp_rank) coordinate — it activates a
:class:`RankContext` and the loops collapse to its own rank via
:func:`spmd_ranks` / :func:`spmd_sp_ranks`.  The collectives then see
only the own rank's partial; they exchange it over the context's
transport and combine the messages with the same code the oracle runs.

The context is deliberately a plain module global (not a thread-local):
a worker process runs one rank, full stop, and the inproc backend never
sets it — so the oracle runs every collective with the exchange step
skipped.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

__all__ = ["RankContext", "rank_context", "set_rank_context", "active_context",
           "spmd_ranks", "spmd_sp_ranks", "global_rank"]


@dataclass
class RankContext:
    """One worker's coordinates in the DP×PP×SP×TP grid plus its transport."""

    tp: int
    pp: int
    tp_rank: int
    stage: int
    transport: object | None = None  # RankTransport; None in transport-less tests
    rng: np.random.Generator | None = None  # per-rank stream, seeded (seed, rank)
    timeout: float = 60.0
    #: Data/sequence axes, both defaulting to the degenerate 1×1 so every
    #: pre-grid construction site keeps its meaning: with ``dp == sp == 1``
    #: the rank formula collapses to the historical ``stage*tp + tp_rank``.
    dp: int = 1
    sp: int = 1
    dp_rank: int = 0
    sp_rank: int = 0

    def __post_init__(self):
        if not (0 <= self.tp_rank < self.tp):
            raise ValueError(f"tp_rank {self.tp_rank} out of range for tp={self.tp}")
        if not (0 <= self.stage < self.pp):
            raise ValueError(f"stage {self.stage} out of range for pp={self.pp}")
        if not (0 <= self.dp_rank < self.dp):
            raise ValueError(f"dp_rank {self.dp_rank} out of range for dp={self.dp}")
        if not (0 <= self.sp_rank < self.sp):
            raise ValueError(f"sp_rank {self.sp_rank} out of range for sp={self.sp}")

    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """Global rank, dp-major / tp-minor:
        ``((dp_rank*pp + stage)*sp + sp_rank)*tp + tp_rank``."""
        return global_rank(self.stage, self.tp_rank, self.tp, pp=self.pp,
                           sp=self.sp, sp_rank=self.sp_rank,
                           dp_rank=self.dp_rank)

    @property
    def records(self) -> bool:
        """Whether this rank is its stage's designated event recorder.

        The inproc oracle logs exactly one :class:`CommEvent` per logical
        collective; under SPMD every tp/sp peer executes the site, so only
        the (tp_rank 0, sp_rank 0) corner records — the merged event
        multiset then matches the oracle event-for-event.  ``dp_rank`` is
        deliberately *not* gated: each data-parallel gang runs its own
        batch shard, so each gang contributes its own copy of the stream.
        """
        return self.tp_rank == 0 and self.sp_rank == 0

    def tp_peers(self) -> list[int]:
        """Global ranks of this stage's TP group, in tp-rank order."""
        return [global_rank(self.stage, t, self.tp, pp=self.pp, sp=self.sp,
                            sp_rank=self.sp_rank, dp_rank=self.dp_rank)
                for t in range(self.tp)]

    def sp_peers(self) -> list[int]:
        """Global ranks of this stage's SP ring, in sp-rank order."""
        return [global_rank(self.stage, self.tp_rank, self.tp, pp=self.pp,
                            sp=self.sp, sp_rank=s, dp_rank=self.dp_rank)
                for s in range(self.sp)]

    def peer(self, stage: int) -> int:
        """Global rank of the same (dp, sp, tp) coordinate at another stage."""
        return global_rank(stage, self.tp_rank, self.tp, pp=self.pp,
                           sp=self.sp, sp_rank=self.sp_rank,
                           dp_rank=self.dp_rank)


def global_rank(stage: int, tp_rank: int, tp: int, *, pp: int = 1,
                sp: int = 1, sp_rank: int = 0, dp_rank: int = 0) -> int:
    """Rank in the dp-major/tp-minor grid.

    The keyword axes default to the degenerate grid, so two-axis callers
    (``global_rank(stage, tp_rank, tp)``) keep the historical
    ``stage*tp + tp_rank`` numbering bitwise.
    """
    return ((dp_rank * pp + stage) * sp + sp_rank) * tp + tp_rank


_CTX: RankContext | None = None


def rank_context() -> RankContext | None:
    """The active context, or ``None`` in the in-process oracle."""
    return _CTX


def set_rank_context(ctx: RankContext | None) -> None:
    global _CTX
    _CTX = ctx


@contextlib.contextmanager
def active_context(ctx: RankContext):
    """Scope ``ctx`` as the process's rank context (tests, worker steps)."""
    prev = rank_context()
    set_rank_context(ctx)
    try:
        yield ctx
    finally:
        set_rank_context(prev)


def spmd_ranks(tp: int) -> tuple[int, ...]:
    """The tp ranks *this* process materializes: all of them in-process,
    exactly one inside an mp worker."""
    ctx = _CTX
    if ctx is None or tp <= 1:
        return tuple(range(tp))
    return (ctx.tp_rank,)


def spmd_sp_ranks(sp: int) -> tuple[int, ...]:
    """The sp ranks *this* process materializes (mirror of :func:`spmd_ranks`)."""
    ctx = _CTX
    if ctx is None or sp <= 1:
        return tuple(range(sp))
    return (ctx.sp_rank,)
