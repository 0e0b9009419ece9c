"""Data-plane collectives as autograd ops, with exact byte accounting.

A collective receives the partials of the ranks the calling process
materializes: every rank in the in-process oracle, only the own rank
inside an mp worker, where the peers' messages arrive over the rank
context's shm transport.  Each collective has one body; the two backends
differ only in that exchange step. What makes it faithful is that

1. the *math* matches the distributed operation (all-reduce = sum of
   partials; the compressed variants combine messages exactly the way the
   paper's Megatron patch does — AE encodes before the all-reduce, the
   sparse/quantized schemes ride an all-gather and are summed after
   decompression, §3.2); and
2. every message is logged to a :class:`CommTracker` with the wire bytes a
   real NCCL implementation would move, including the *backward* messages
   (recorded from inside backward closures as the gradient crosses the
   same cut points).

The performance simulator consumes these events (or their analytic
equivalents) to produce the paper's timing tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.compression.base import BYTES_FP16, Compressor
from repro.compression.autoencoder import AutoencoderCompressor
from repro.parallel.backend.context import rank_context
from repro.tensor import Tensor
from repro.tensor.tensor import concatenate as _concatenate

__all__ = [
    "CommEvent",
    "CommTracker",
    "dense_bytes",
    "tp_all_reduce",
    "tp_broadcast",
    "pipeline_transfer",
    "dp_all_reduce",
    "sp_slice",
    "sp_seq_all_gather",
    "sp_ring_account",
]

_VALID_OPS = frozenset({"all_reduce", "all_gather", "send", "ring_exchange"})
_VALID_GROUPS = frozenset({"tp", "pp", "dp", "sp"})
_VALID_PHASES = frozenset({"forward", "backward"})


@dataclass(frozen=True)
class CommEvent:
    """One logged message (or collective round) on the simulated wire."""

    op: str  # "all_reduce" | "all_gather" | "send" | "ring_exchange"
    group: str  # "tp" | "pp" | "dp" | "sp"
    phase: str  # "forward" | "backward"
    scheme: str
    wire_bytes: int  # per-rank message payload in bytes
    world: int  # number of participating ranks
    shape: tuple[int, ...]  # uncompressed activation shape
    layer: int | None = None
    site: str = ""

    def __post_init__(self):
        # Event invariants: a malformed event corrupts the simulator's byte
        # accounting silently, so reject it at construction.
        if self.op not in _VALID_OPS:
            raise ValueError(f"unknown op {self.op!r}; valid: {sorted(_VALID_OPS)}")
        if self.group not in _VALID_GROUPS:
            raise ValueError(f"unknown group {self.group!r}; valid: {sorted(_VALID_GROUPS)}")
        if self.phase not in _VALID_PHASES:
            raise ValueError(f"unknown phase {self.phase!r}; valid: {sorted(_VALID_PHASES)}")
        if self.wire_bytes < 0:
            raise ValueError(f"wire_bytes must be >= 0, got {self.wire_bytes}")
        if self.world < 2:
            raise ValueError(f"a collective needs world >= 2, got {self.world}")
        # Note: wire_bytes may legitimately exceed the dense payload for
        # quantization of tiny tensors (group padding), so no upper bound.

    _FIELDS = frozenset({"op", "group", "phase", "scheme", "wire_bytes",
                         "world", "shape", "layer", "site"})


class CommTracker:
    """Accumulates :class:`CommEvent` records for one or more iterations.

    An optional :class:`~repro.obs.fidelity.FidelityProbe` may be attached
    as ``probe``; the collectives then report each compressed site's dense
    activation and reconstruction to it alongside the wire events.  The
    default (``probe=None``) costs one ``is None`` check per collective.
    """

    def __init__(self, enabled: bool = True, probe=None):
        self.enabled = enabled
        self.probe = probe
        self.events: list[CommEvent] = []

    def record(self, event: CommEvent) -> None:
        if self.enabled:
            self.events.append(event)

    def reset(self) -> None:
        self.events.clear()

    # ------------------------------------------------------------------
    def filtered(self, **criteria) -> list[CommEvent]:
        """Events matching all given attribute=value criteria.

        Unknown attribute names are rejected up front with a ``ValueError``
        (rather than an ``AttributeError`` surfacing mid-comprehension), so
        a typo like ``filtered(phse="forward")`` cannot read as "0 events".
        """
        unknown = set(criteria) - CommEvent._FIELDS
        if unknown:
            raise ValueError(
                f"unknown CommEvent attribute(s) {sorted(unknown)}; "
                f"valid: {sorted(CommEvent._FIELDS)}"
            )
        out = self.events
        for key, value in criteria.items():
            out = [e for e in out if getattr(e, key) == value]
        return out

    def total_bytes(self, **criteria) -> int:
        """Sum of per-rank wire bytes over matching events."""
        return sum(e.wire_bytes for e in self.filtered(**criteria))

    def count(self, **criteria) -> int:
        return len(self.filtered(**criteria))

    def summary(self) -> dict[tuple[str, str, str], int]:
        """Total wire bytes grouped by ``(group, phase, scheme)``.

        The natural shape for eyeballing one iteration: e.g.
        ``{("tp", "forward", "autoencoder"): 1920, ...}``.  Keys are
        sorted, not insertion-ordered, so serialized summaries (bench
        JSON, reports) diff stably across runs and schedule changes.
        """
        out: dict[tuple[str, str, str], int] = {}
        for e in self.events:
            key = (e.group, e.phase, e.scheme)
            out[key] = out.get(key, 0) + e.wire_bytes
        return dict(sorted(out.items()))

    def __repr__(self) -> str:
        return f"CommTracker(events={len(self.events)}, bytes={self.total_bytes()})"


def dense_bytes(shape: tuple[int, ...]) -> int:
    """Wire size of an uncompressed fp16 activation of ``shape``.

    The reference payload every compressed message is judged against; also
    used by :mod:`repro.lint.spmd_check` when validating event streams.
    """
    return int(np.prod(shape)) * BYTES_FP16


def tp_broadcast(x: Tensor, world: int, tracker: CommTracker, *, layer: int | None = None,
                 site: str = "") -> Tensor:
    """Megatron's ``f`` op: identity forward, all-reduce in backward.

    In tensor parallelism the layer input is replicated; each rank's
    backward produces a partial input-gradient that must be all-reduced.
    In-process the summation happens automatically because the same tensor
    feeds every rank's shard, so this op only *accounts* for the backward
    collective.  Inside an mp worker each tp peer holds only its own shard
    path's partial, so the backward exchanges the partials and sums them
    in rank order — the same 2-term float sums as the oracle's autograd
    accumulation, bitwise.
    """
    if world <= 1:
        return x
    shape = tuple(x.shape)
    ctx = rank_context()
    spmd = ctx is not None and ctx.tp > 1
    recording = ctx is None or ctx.records
    event = CommEvent("all_reduce", "tp", "backward", "none", dense_bytes(shape),
                      world, shape, layer, site)

    def backward(g):
        if spmd:
            peers = ctx.tp_peers()
            wire = ctx.transport.exchange_issue(
                peers, np.ascontiguousarray(g), timeout=ctx.timeout,
                label=_async_label("bwd allreduce", site, layer),
            )
            g = _sum_rank_order(wire.wait(ctx.timeout), peers)
        if recording:
            tracker.record(event)
        return (g,)

    return Tensor._make(x.data, (x,), backward)


def tp_all_reduce(
    partials: list[Tensor],
    compressor: Compressor,
    tracker: CommTracker,
    *,
    layer: int | None = None,
    site: str = "",
) -> Tensor:
    """Megatron's ``g`` op with optional compression: sum per-rank partials.

    ``partials`` holds the partials of the ranks this process materializes
    (the :func:`~repro.parallel.backend.context.spmd_ranks` rule): every
    rank in-process, only the own rank inside an mp worker.  Each rank's
    message is built the same way on both backends; an mp worker then
    exchanges its own message over the context's transport and wraps each
    peer's as a constant, and the messages are combined in rank order by
    the same code — so the result matches the oracle bitwise.

    - No compression → plain all-reduce of the dense fp16 activation.
    - AE → each rank encodes its partial, the all-reduce runs over the
      (much smaller) code, one decode after. Linearity makes this exactly
      ``dec(enc(Σ xᵢ))``.
    - Top-K / Random-K / quantization → the message is two tensors (or a
      non-float dtype), so the runtime all-gathers the compressed messages
      and sums the decompressed partials, exactly like the paper's
      ``gather-from-tensor-model-parallel-region`` fallback.

    Backward traffic is logged per scheme via ``Compressor.backward_bytes``.
    Under SPMD only the stage's designated recorder (tp rank 0) logs
    events, so the merged multiset matches the oracle event-for-event.
    """
    if not partials:
        raise ValueError("tp_all_reduce needs at least one partial")
    ctx = rank_context()
    spmd = ctx is not None and ctx.tp > 1
    if spmd and len(partials) != 1:
        raise ValueError(
            f"SPMD tp_all_reduce expects exactly the local partial, "
            f"got {len(partials)}"
        )
    world = ctx.tp if spmd else len(partials)
    ranks = (ctx.tp_rank,) if spmd else range(world)
    shape = tuple(partials[0].shape)
    for p in partials[1:]:
        if tuple(p.shape) != shape:
            raise ValueError(f"mismatched partial shapes: {shape} vs {tuple(p.shape)}")

    if world == 1:
        # No TP communication exists, so there is nothing to compress
        # (matches the paper's TP=1 rows, where only PP traffic is compressed).
        return partials[0]

    identity = _is_identity(compressor)
    learnable = not identity and (
        isinstance(compressor, AutoencoderCompressor)
        or (compressor.allreduce_compatible and compressor.learnable)
    )
    op = "all_reduce" if identity or learnable else "all_gather"
    scheme = "none" if identity else compressor.name

    if identity or learnable:
        # The message is the *raw* partial.  With a learnable codec every
        # rank replays the oracle's whole encode-sum-decode graph (peer
        # partials enter as constants).  Exchanging codes instead would
        # leave each worker with only its own encoder-gradient
        # contribution, and summing those per-rank *step totals* post hoc
        # reorders the float additions the moment gradients accumulate
        # over microbatches.
        # The logged wire bytes are still the code size — what a real
        # fused encode/all-reduce/decode would move.
        messages = list(partials)
    else:
        # All-gather path: each rank's partial is its own compression
        # site, so a stateful wrapper (error feedback) keeps one residual
        # per rank instead of clobbering a shared "default" slot per call.
        messages = []
        for r, p in zip(ranks, partials):
            rank_site = _rank_site(site, layer, r)
            rec = compressor.apply(p, site=rank_site)
            messages.append(rec)
            if tracker.probe is not None:
                tracker.probe.observe(
                    site=rank_site, scheme=scheme, group="tp",
                    original=p.data, reconstructed=rec.data,
                    wire_bytes=compressor.compressed_bytes(shape),
                    dense_bytes=dense_bytes(shape),
                    residual=_residual_of(compressor, rank_site),
                )

    codes: dict[int, Tensor] = {}
    if spmd:
        peers = ctx.tp_peers()
        wire = ctx.transport.exchange_issue(
            peers, messages[0].data, timeout=ctx.timeout,
            label=_async_label(op.replace("_", ""), site, layer))
        if learnable:
            # The own-partial encode needs no peer data: run it while the
            # exchange is in flight.  encode() is deterministic and
            # stateless, so hoisting it across the wait cannot change bits.
            codes[ctx.tp_rank] = compressor.encode(messages[0])
        gathered = wire.wait(ctx.timeout)
        messages = [messages[0] if r == ctx.tp_rank else Tensor(gathered[peer])
                    for r, peer in enumerate(peers)]

    recording = ctx is None or ctx.records
    if learnable:
        code_sum = _sum_tensors([codes[r] if r in codes else compressor.encode(m)
                                 for r, m in enumerate(messages)])
        fwd_bytes = int(np.prod(code_sum.shape)) * BYTES_FP16
        if recording:
            tracker.record(CommEvent(op, "tp", "forward", scheme, fwd_bytes,
                                     world, shape, layer, site))
        out = compressor.decode(code_sum)
        if tracker.probe is not None:
            # AE compresses the *sum* (dec(Σ enc(xᵢ)) by linearity), so the
            # meaningful error is measured on the reduced activation.
            tracker.probe.observe(
                site=_site_label(site, layer), scheme=scheme, group="tp",
                original=_sum_tensors([m.data for m in messages]),
                reconstructed=out.data,
                wire_bytes=fwd_bytes, dense_bytes=dense_bytes(shape),
            )
        bwd_bytes = compressor.backward_bytes(shape)
    else:
        out = _sum_tensors(messages)
        if identity:
            fwd_bytes = bwd_bytes = dense_bytes(shape)
        else:
            fwd_bytes = compressor.compressed_bytes(shape)
            bwd_bytes = compressor.backward_bytes(shape)
        if recording:
            tracker.record(CommEvent(op, "tp", "forward", scheme, fwd_bytes,
                                     world, shape, layer, site))
    return _with_backward_event(
        out, tracker,
        CommEvent(op, "tp", "backward", scheme, bwd_bytes, world, shape, layer, site),
        enabled=recording,
    )


def pipeline_transfer(
    x: Tensor,
    compressor: Compressor,
    tracker: CommTracker,
    *,
    boundary: int,
    layer: int | None = None,
) -> Tensor:
    """Send an activation across a pipeline-stage boundary.

    Applies the compressor's differentiable round-trip (the receiving stage
    sees the reconstruction) and logs the forward send plus the backward
    gradient message.  Inside an mp worker the codec runs rank-local, the
    reconstruction ships to the next stage's same-tp-rank peer, and only
    tp rank 0 logs the boundary's two events — the oracle records one
    logical send per boundary, not one per tp replica.  The send is staged
    in the peer's ring mailbox (blocking only when the receiver lags a
    full ring behind) and stays in flight while this stage moves on; that
    window is recorded as an ``mp.async`` span on the worker timeline.
    The receiving worker turns the payload into a gradient leaf whose grad
    is relayed back and enters this graph via ``Tensor.backward(grad)``.
    """
    shape = tuple(x.shape)
    scheme = "none" if _is_identity(compressor) else compressor.name
    fwd_bytes = compressor.compressed_bytes(shape)
    bwd_bytes = compressor.backward_bytes(shape)
    boundary_site = f"boundary{boundary}"
    ctx = rank_context()
    recording = ctx is None or ctx.records

    if recording:
        tracker.record(
            CommEvent("send", "pp", "forward", scheme, fwd_bytes, 2, shape,
                      layer, boundary_site)
        )
    if _is_identity(compressor):
        out = x
    else:
        out = compressor.apply(x, site=boundary_site)
        if tracker.probe is not None:
            tracker.probe.observe(
                site=boundary_site, scheme=scheme, group="pp",
                original=x.data, reconstructed=out.data,
                wire_bytes=fwd_bytes, dense_bytes=dense_bytes(shape),
                residual=_residual_of(compressor, boundary_site),
            )
    out = _with_backward_event(
        out, tracker,
        CommEvent("send", "pp", "backward", scheme, bwd_bytes, 2, shape,
                  layer, boundary_site),
        enabled=recording,
    )
    if ctx is not None:
        issued_at = time.monotonic()
        ctx.transport.send(ctx.peer(ctx.stage + 1), out.data,
                           timeout=ctx.timeout)
        ctx.transport.record_span(
            _async_label("pp send", boundary_site, None),
            issued_at, cat="mp.async",
        )
    return out


# ----------------------------------------------------------------------
# Data-parallel gradient all-reduce
# ----------------------------------------------------------------------
def dp_all_reduce(
    replica_grads: list[dict[str, np.ndarray]],
    compressor: Compressor | None,
    tracker: CommTracker,
    *,
    site: str = "grad",
) -> dict[str, np.ndarray]:
    """Compressible gradient all-reduce across data-parallel replicas.

    Runs at the *backend* layer (the trainer's gradient sync point) in
    both backends: the inproc oracle reduces over its replica models, the
    mp backend over its per-gang merged gradient dicts — the identical
    code path, so the two are bitwise-equivalent by construction.

    Each replica's gradients are flattened in sorted-name order into one
    vector; a stateful codec keeps one ``dp.rank{r}`` site per replica
    (error-feedback residuals and Random-K streams never alias across
    replicas — the same per-site isolation the TP all-gather path uses).
    Reconstructions are summed in rank order (bitwise-commutative at
    dp <= 2) and divided by the replica count: the result is the gradient
    of the mean loss over the full batch.

    Records exactly one :class:`CommEvent` per step — ``all_reduce`` for
    the dense path, ``all_gather`` for the gathered compressed messages,
    mirroring the TP convention.
    """
    dp = len(replica_grads)
    if dp == 1:
        return dict(replica_grads[0])
    names = sorted(replica_grads[0])
    for grads in replica_grads[1:]:
        if sorted(grads) != names:
            raise ValueError("replica gradient sets differ; cannot dp-reduce")
    shapes = [replica_grads[0][n].shape for n in names]
    flats = [
        np.concatenate([np.asarray(grads[n], dtype=np.float32).ravel()
                        for n in names])
        for grads in replica_grads
    ]
    shape = (flats[0].size,)
    if compressor is None or _is_identity(compressor):
        total = flats[0]
        for f in flats[1:]:
            total = total + f
        tracker.record(
            CommEvent("all_reduce", "dp", "backward", "none",
                      dense_bytes(shape), dp, shape, None, site)
        )
    else:
        recs = [
            compressor.apply(Tensor(f), site=f"dp.rank{r}").data
            for r, f in enumerate(flats)
        ]
        total = recs[0]
        for rec in recs[1:]:
            total = total + rec
        tracker.record(
            CommEvent("all_gather", "dp", "backward", compressor.name,
                      compressor.compressed_bytes(shape), dp, shape, None, site)
        )
    mean = total / dp
    merged: dict[str, np.ndarray] = {}
    offset = 0
    for name, pshape in zip(names, shapes):
        n = int(np.prod(pshape)) if pshape else 1
        merged[name] = mean[offset:offset + n].reshape(pshape)
        offset += n
    return merged


# ----------------------------------------------------------------------
# Ring sequence parallelism
# ----------------------------------------------------------------------
def sp_slice(x: Tensor, sp: int, sp_rank: int) -> Tensor:
    """This sp rank's sequence block of a replicated ``(b, s, h)`` activation.

    In-process this is a plain autograd slice: the backward pass scatters
    the block gradient into a zero-padded full array and the sp blocks'
    contributions accumulate into the full input gradient.  Inside an mp
    worker the backward instead *exchanges* the disjoint block gradients
    around the ring and assembles the full ``dx`` locally — the upstream
    (replicated) computation then sees the same full gradient on every
    rank.
    """
    b, s, h = x.shape
    if s % sp != 0:
        raise ValueError(f"sequence length {s} not divisible by sp={sp}")
    blk = s // sp
    lo = sp_rank * blk
    ctx = rank_context()
    if ctx is None or ctx.sp <= 1:
        return x[:, lo:lo + blk, :]

    peers = ctx.sp_peers()

    def backward(g):
        wire = ctx.transport.exchange_issue(
            peers, np.ascontiguousarray(g), timeout=ctx.timeout,
            label="sp dx gather")
        gathered = wire.wait(ctx.timeout)
        return (np.concatenate([gathered[p] for p in peers], axis=1),)

    return Tensor._make(x.data[:, lo:lo + blk, :], (x,), backward)


def sp_seq_all_gather(blocks: list[Tensor], sp: int, *, axis: int = 2,
                      reduce_backward: bool, label: str = "sp gather") -> Tensor:
    """Concatenate per-rank sequence blocks into the full tensor.

    ``reduce_backward=True`` is the K/V gather: every rank's backward
    holds a *partial* gradient of the full tensor (its own query block's
    contribution), so under SPMD the partials are exchanged and summed in
    rank order before slicing the own block — matching the oracle's
    autograd accumulation bitwise at sp <= 2.  ``reduce_backward=False``
    is the context all-gather: the downstream computation is replicated,
    so the incoming full gradient is already identical on every rank and
    the backward is a local slice with no wire traffic.
    """
    ctx = rank_context()
    if ctx is None or ctx.sp <= 1:
        if len(blocks) == 1 and sp == 1:
            return blocks[0]
        if len(blocks) != sp:
            raise ValueError(f"expected {sp} blocks in-process, got {len(blocks)}")
        return _concatenate(blocks, axis=axis)

    if len(blocks) != 1:
        raise ValueError(
            f"SPMD sp_seq_all_gather expects exactly the local block, "
            f"got {len(blocks)}"
        )
    own = blocks[0]
    peers = ctx.sp_peers()
    blk = own.shape[axis]
    lo = ctx.sp_rank * blk
    wire = ctx.transport.exchange_issue(
        peers, np.ascontiguousarray(own.data), timeout=ctx.timeout,
        label=label)
    gathered = wire.wait(ctx.timeout)
    full = np.concatenate([gathered[p] for p in peers], axis=axis)
    take = [slice(None)] * full.ndim
    take[axis] = slice(lo, lo + blk)
    take = tuple(take)

    def backward(g):
        if reduce_backward:
            wire_b = ctx.transport.exchange_issue(
                peers, np.ascontiguousarray(g), timeout=ctx.timeout,
                label=f"{label} bwd reduce")
            g = _sum_rank_order(wire_b.wait(ctx.timeout), peers)
        return (g[take],)

    return Tensor._make(full, (own,), backward)


def sp_ring_account(x: Tensor, tracker: CommTracker, *, sp: int,
                    shape: tuple[int, ...], block_shape: tuple[int, ...],
                    layer: int | None = None, site: str = "attn") -> Tensor:
    """Byte accounting for one attention-boundary ring exchange.

    One forward and one backward :class:`CommEvent` per (layer,
    microbatch), each ``3*(sp-1)*dense_bytes(block)``: the forward moves
    the K and V ring hops plus the context all-gather; the backward moves
    the dK/dV ring reduce plus the dx block gather (the context gather's
    backward is wire-free — see :func:`sp_seq_all_gather`).  Recorded by
    the designated recorder only, wrapped everywhere so backward op order
    stays identical across ranks.
    """
    wire = 3 * (sp - 1) * dense_bytes(block_shape)
    ctx = rank_context()
    recording = ctx is None or ctx.records
    if recording:
        tracker.record(
            CommEvent("ring_exchange", "sp", "forward", "none", wire, sp,
                      shape, layer, site)
        )
    return _with_backward_event(
        x, tracker,
        CommEvent("ring_exchange", "sp", "backward", "none", wire, sp,
                  shape, layer, site),
        enabled=recording,
    )


# ----------------------------------------------------------------------
def _async_label(op: str, site: str, layer: int | None) -> str:
    """Display label of one in-flight exchange in worker timelines."""
    return f"{op} {_site_label(site, layer)}"


def _site_label(site: str, layer: int | None) -> str:
    """Fully-qualified label of one TP compression site."""
    base = site or "default"
    return f"layer{layer}.{base}" if layer is not None else base


def _rank_site(site: str, layer: int | None, rank: int) -> str:
    """Stable per-rank state key for one TP compression site."""
    return f"{_site_label(site, layer)}.rank{rank}"


def _is_identity(compressor: Compressor) -> bool:
    return compressor is None or compressor.name == "none"


def _residual_of(compressor: Compressor, site: str):
    """Error-feedback residual at ``site``, or None for stateless schemes."""
    getter = getattr(compressor, "residual", None)
    return getter(site) if callable(getter) else None


def _sum_tensors(tensors: list[Tensor]) -> Tensor:
    out = tensors[0]
    for t in tensors[1:]:
        out = out + t
    return out


def _sum_rank_order(gathered: dict[int, np.ndarray], peers: list[int]) -> np.ndarray:
    """Sum exchanged arrays in ascending rank order.

    The oracle sums partials in list (= rank) order; reducing the SPMD
    exchange the same way keeps every float addition identical, which at
    tp<=2 means bitwise-identical results regardless of arrival order.
    """
    out = gathered[peers[0]]
    for peer in peers[1:]:
        out = out + gathered[peer]
    return out


def _with_backward_event(x: Tensor, tracker: CommTracker, event: CommEvent,
                         enabled: bool = True) -> Tensor:
    """Wrap ``x`` so that a gradient passing through logs ``event``.

    ``enabled=False`` (a non-recording SPMD replica) still wraps — the
    closure keeps backward op ordering identical across ranks — but skips
    the record call, leaving the event to the designated recorder.
    """

    def backward(g):
        if enabled:
            tracker.record(event)
        return (g,)

    return Tensor._make(x.data, (x,), backward)
