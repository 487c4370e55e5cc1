"""Prefetched per-node streams stay exact past the prefetch.

:func:`repro.engines.batchwalk.node_streams` serves each node's first
``_PREFETCH_WORDS`` raw PCG64 words from its vector seeding pass, split
into 32-bit halves, and steps the LCG in Python ints after that.  These
tests drain streams well past that boundary against the real
``default_rng(SeedSequence(seed).spawn(n)[v])`` Generators, including
the no-consumption ``bound == 1`` draw, the full-width ``2**32`` draw
(which returns the raw half itself) and a Lemire rejection whose retry
is the first half of the first refill.  They also check that the
replication self-check notices a wrong half split.
"""

import numpy as np
import pytest

from repro.engines import batchwalk
from repro.engines.batchwalk import node_streams

#: Rejects roughly half of all 32-bit halves (threshold 2**31 - 1).
REJECTING = 2**31 + 1
PREFETCHED = 2 * batchwalk._PREFETCH_WORDS  # halves per node


def spawned(seed, n):
    return [np.random.default_rng(c)
            for c in np.random.SeedSequence(seed).spawn(n)]


def raw_halves(seed, n, words):
    """Each node's first ``2 * words`` halves in draw order, low first."""
    out = []
    for child in np.random.SeedSequence(seed).spawn(n):
        raw = np.random.PCG64(child).random_raw(words).tolist()
        out.append([h for w in raw for h in (w & 0xFFFFFFFF, w >> 32)])
    return out


def rejected(half, bound):
    return (half * bound) & 0xFFFFFFFF < (2**32 - bound) % bound


@pytest.fixture
def replicated():
    """Streams must be the replication, not the Generator fallback."""
    assert batchwalk._exact()


@pytest.mark.usefixtures("replicated")
class TestPrefetchedStreams:
    @pytest.mark.parametrize("seed", [0, 3, 2**40 + 7, 2**130 + 5])
    def test_interleaved_mix_far_past_the_prefetch(self, seed):
        n = 6
        ours, ref = node_streams(seed, n), spawned(seed, n)
        assert all(isinstance(s, batchwalk._NodeStream) for s in ours)
        bounds = (1, 2, 7, REJECTING, 2**32, 1000003, 1, 64)
        order = np.random.default_rng(seed % 101)
        drawn = [0] * n
        while min(drawn) < 4 * PREFETCHED:
            v = int(order.integers(n))
            bound = bounds[int(order.integers(len(bounds)))]
            assert ours[v].integers(bound) == int(ref[v].integers(bound)), (
                f"node {v}, draw {drawn[v]}, bound {bound}")
            drawn[v] += bound > 1

    def test_full_width_draws_return_the_halves_low_first(self):
        n = 3
        ours = node_streams(9, n)
        want = raw_halves(9, n, 2 * batchwalk._PREFETCH_WORDS)
        for v in range(n):
            got = [ours[v].integers(2**32) for _ in range(2 * PREFETCHED)]
            assert got == want[v]

    def test_rejection_straddling_the_refill(self):
        # Every node spends all but its last prefetched half, then
        # draws with a rejecting bound: where that last half is
        # rejected, the retry is the first half of the first refill.
        seed, n = 21, 40
        halves = raw_halves(seed, n, batchwalk._PREFETCH_WORDS + 1)
        straddling = [v for v in range(n)
                      if rejected(halves[v][PREFETCHED - 1], REJECTING)]
        assert 5 <= len(straddling) < n
        ours, ref = node_streams(seed, n), spawned(seed, n)
        for _ in range(PREFETCHED - 1):  # round-robin: 2**16 never rejects
            for v in range(n):
                assert ours[v].integers(2**16) == int(ref[v].integers(2**16))
        for v in range(n):
            for bound in (1, 1, REJECTING, 1, 3, 2**32):
                assert ours[v].integers(bound) == int(ref[v].integers(bound))

    def test_wrong_half_split_fails_the_self_check(self, monkeypatch):
        prefetched = batchwalk._prefetched_streams

        def high_half_first(states):
            streams = prefetched(states)
            for stream in streams:
                queue = stream._halves
                queue[0::2], queue[1::2] = queue[1::2], queue[0::2]
            return streams

        assert batchwalk._replication_self_check()
        monkeypatch.setattr(batchwalk, "_prefetched_streams", high_half_first)
        assert not batchwalk._replication_self_check()
        monkeypatch.setattr(batchwalk, "_EXACT", None)
        assert all(isinstance(s, np.random.Generator)
                   for s in node_streams(3, 4))
