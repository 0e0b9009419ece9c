"""Exchange-handle lifecycle contracts: idempotent wait, sticky failure, shutdown.

These are the regression tests for the :class:`ExchangeHandle` wait
semantics: a second ``wait`` returns the cached result without touching
the wire, a failed completion stays failed with a typed error (and is
never retried into the peers' next messages), and a handle orphaned by
transport shutdown raises instead of dying on the torn-down channel map.

All ranks of a gang live in this one process: a send only stages the
payload in the peer's ring, so issuing on every rank before any wait
needs no threads.
"""

import numpy as np
import pytest

from repro.parallel.backend import BackendError, RankTransport


@pytest.fixture
def gang():
    """``gang(world)`` → one attached transport per rank, all closed after."""
    opened = []

    def make(world):
        creator = RankTransport.create(world=world)
        opened.append(creator)
        ranks = [RankTransport(creator.spec, r) for r in range(world)]
        opened.extend(ranks)
        return ranks

    yield make
    for t in reversed(opened):
        t.close()


def full(value):
    return np.full(2, value, dtype=np.float32)


class TestExchangeHandle:
    def test_wait_completes_and_is_idempotent(self, gang):
        t0, t1 = gang(2)
        handle = t0.exchange_issue([0, 1], full(0.0), timeout=1.0)
        t1.exchange_issue([0, 1], full(1.0), timeout=1.0)
        assert not handle.done
        out = handle.wait(timeout=1.0)
        assert handle.done
        assert np.array_equal(out[1], full(1.0))
        # A later message from the peer stays in the ring: the second
        # wait returns the cached gather instead of receiving again.
        t1.exchange_issue([0, 1], full(2.0), timeout=1.0)
        assert handle.wait(timeout=1.0) is out
        assert t0._channels[(1, 0)].occupancy() == 1

    def test_failed_wait_stays_failed_with_typed_error(self, gang):
        t0, _ = gang(2)
        handle = t0.exchange_issue([0, 1], full(0.0), timeout=1.0,
                                   label="silent peer")
        with pytest.raises(BackendError, match="timed out"):
            handle.wait(timeout=0.05)
        assert not handle.done
        # Every later wait raises a *typed* error naming the original
        # failure, never a result assembled from a half-drained exchange.
        with pytest.raises(BackendError, match="already failed") as exc:
            handle.wait(timeout=0.05)
        assert "silent peer" in str(exc.value)
        assert "timed out" in str(exc.value)
        assert isinstance(exc.value.__cause__, BackendError)

    def test_failure_is_never_retried(self, gang):
        t0, t1 = gang(2)
        handle = t0.exchange_issue([0, 1], full(0.0), timeout=1.0)
        with pytest.raises(BackendError):
            handle.wait(timeout=0.05)
        t1.exchange_issue([0, 1], full(1.0), timeout=1.0)  # arrives late
        with pytest.raises(BackendError, match="already failed"):
            handle.wait(timeout=1.0)
        assert t0._channels[(1, 0)].occupancy() == 1  # left unreceived

    def test_retry_after_partial_drain_cannot_mix_exchanges(self, gang):
        """Rank 0's first wait drains rank 1, then times out on rank 2.
        A retry used to receive from every peer again and return rank 1's
        *next* exchange inside this one: ``{0: 0, 1: 99, 2: 2}``."""
        t0, t1, t2 = gang(3)
        handle = t0.exchange_issue([0, 1, 2], full(0.0), timeout=1.0)
        t1.exchange_issue([0, 1, 2], full(1.0), timeout=1.0)
        with pytest.raises(BackendError, match="rank 2"):
            handle.wait(timeout=0.05)
        t1.exchange_issue([0, 1, 2], full(99.0), timeout=1.0)
        t2.exchange_issue([0, 1, 2], full(2.0), timeout=1.0)
        with pytest.raises(BackendError, match="already failed"):
            handle.wait(timeout=1.0)


class TestExchangeHandleShutdown:
    def test_wait_after_transport_close_raises_typed_error(self):
        creator = RankTransport.create(world=2)
        try:
            peer = RankTransport(creator.spec, 0)
            handle = peer.exchange_issue(
                [0, 1], np.ones(4, dtype=np.float32), timeout=1.0,
                label="orphaned exchange")
            assert not handle.done
            peer.close()
            with pytest.raises(BackendError, match="transport is closed") as exc:
                handle.wait(timeout=0.1)
            assert "orphaned exchange" in str(exc.value)
        finally:
            creator.close()
