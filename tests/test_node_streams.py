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

:class:`~repro.engines.arraywalk.ArrayWalk` takes the common draw
itself, from a node's prefetched halves, before that node's stream is
built.  The walk cases compare it with the oracle walker of
``tests/oracles.py`` on draws that reject, draw with bound 1 and
refill, and check that a stream built after the walk continues the
spawned Generator's stream.

:func:`~repro.engines.batchwalk.first_draws` applies the same test to
every node at once (Phase 1's colours, Turau's proposals).  It must
equal per-node ``integers`` draws on the replicated streams and on the
Generator fallback, take the stream's own route on a half that fails
the test and on an empty queue, consume nothing for ``bound == 1`` or
``0``, and leave the accepted nodes' streams unbuilt.
"""

import numpy as np
import pytest

from repro.engines import batchwalk
from repro.engines import arraywalk
from repro.engines.arraywalk import ArrayWalk, live_rows
from repro.engines.batchwalk import first_draws, node_streams
from repro.engines.phase1_replay import replay_phase1
from repro.graphs import Graph, gnp_random_graph

from tests.oracles import _FastWalk

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


def complete_bipartite(m):
    """K_{m,m+1}: no Hamiltonian cycle, so the walk runs to a dead end."""
    return Graph(2 * m + 1, [(u, m + w) for u in range(m)
                             for w in range(m + 1)])


def walk_pair(graph, kernel_rngs, oracle_rngs):
    """The same DRA walk on the array kernel and on the oracle walker."""
    common = dict(size=graph.n, initial_head=0, step_budget=10**6,
                  tree_depth=2, start_round=0)
    kernel = ArrayWalk(rows=live_rows(graph.indptr, graph.indices),
                       rngs=kernel_rngs, **common)
    oracle = _FastWalk(
        edges_of=lambda v: [(w, 0, 0) for w in graph.neighbor_list(v)],
        rngs=oracle_rngs, **common)
    kernel.run()
    oracle.run()
    for field in ("success", "fail_code", "steps", "rotations",
                  "extensions", "round", "end_round", "flood_initiator"):
        assert getattr(kernel, field) == getattr(oracle, field), field
    assert kernel.cycle() == oracle.cycle()


@pytest.mark.usefixtures("replicated")
class TestWalkDrawRoutes:
    """ArrayWalk's inlined accept test against the streams' own draws."""

    def test_rejection_bound_one_and_refill_match_the_oracle(self, monkeypatch):
        # On K_{30,31} every head draws from its shrinking row until it
        # dead-ends: rows fall to one live edge (bound 1) and nodes
        # draw past their prefetched halves (a refill).  A zero half
        # queued first at every node is rejected by any bound that is
        # not a power of two, so each node's first draw rejects.
        graph = complete_bipartite(30)
        theirs = node_streams(4, graph.n)
        for queue in theirs.halves:
            queue.append(0)
        theirs = list(theirs)  # the oracle draws through integers only
        routes = {"bound-1": 0, "rejection": 0, "refill": 0}

        class Recording(batchwalk._NodeStream):
            __slots__ = ()

            def integers(self, bound):
                queue = self._halves
                if bound == 1:
                    routes["bound-1"] += 1
                elif queue and rejected(queue[-1], bound):
                    routes["rejection"] += 1
                return super().integers(bound)

            def _refill(self):
                routes["refill"] += 1
                return super()._refill()

        # Only the kernel's streams are built after this, so the counts
        # are the draws the walk left to them.
        monkeypatch.setattr(batchwalk, "_NodeStream", Recording)
        ours = node_streams(4, graph.n)
        for queue in ours.halves:
            queue.append(0)
        walk_pair(graph, ours, theirs)
        assert all(routes.values()), routes
        assert [(s._state, s._halves) for s in ours] == [
            (s._state, s._halves) for s in theirs]

    def test_lazy_stream_continues_the_spawned_generator(self):
        # A node first drawn inside the walk (its stream not yet built)
        # and then through rngs[v].integers continues the stream of
        # default_rng(SeedSequence(seed).spawn(n)[v]).
        graph = complete_bipartite(8)
        ours = node_streams(13, graph.n)
        ref = spawned(13, graph.n)
        walk_pair(graph, ours, ref)
        inline_only = [v for v in range(graph.n)
                       if ours._built[v] is None and len(ours.halves[v]) < PREFETCHED]
        assert inline_only
        bounds = (2, 7, REJECTING, 1, 2**32, 1000003)
        for v in range(graph.n):
            for i in range(3 * PREFETCHED):
                bound = bounds[i % len(bounds)]
                assert ours[v].integers(bound) == int(ref[v].integers(bound)), (
                    f"node {v}, draw {i}")


#: ``3 * INV3 == 2**33 + 1``: with bound 3 this half's low product word
#: is 1, below the bound (the inlined test fails) but not below Lemire's
#: threshold ``(2**32 - 3) % 3 == 1`` (the stream accepts it: draw 2).
INV3 = 0xAAAAAAAB


def assert_same_streams(ours, theirs):
    n = len(theirs)
    for v in range(n):
        for i in range(2 * PREFETCHED):
            bound = (2, 7, REJECTING, 1, 2**32)[i % 5]
            assert ours[v].integers(bound) == int(theirs[v].integers(bound)), (
                f"node {v}, draw {i}")


class TestFirstDraws:
    """The vector first draw against per-node ``integers`` draws."""

    BOUNDS = [0, 1, 2, 3, 7, 64, 1000003, REJECTING, 2**31, 2**32 - 1]

    def bounds(self, n):
        return np.array([self.BOUNDS[v % len(self.BOUNDS)] for v in range(n)],
                        dtype=np.int64)

    @pytest.mark.usefixtures("replicated")
    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 7])
    def test_equals_per_node_draws_on_replicated_streams(self, seed):
        n = 60
        bounds = self.bounds(n)
        ours, ref = node_streams(seed, n), spawned(seed, n)
        got = first_draws(ours, bounds)
        want = [int(ref[v].integers(b)) if b else 0
                for v, b in enumerate(bounds.tolist())]
        assert got.dtype == np.int64 and got.tolist() == want
        assert_same_streams(ours, ref)

    def test_equals_per_node_draws_on_the_generator_fallback(self, monkeypatch):
        monkeypatch.setattr(batchwalk, "_EXACT", False)
        n, seed = 40, 8
        ours, ref = node_streams(seed, n), spawned(seed, n)
        assert all(isinstance(g, np.random.Generator) for g in ours)
        bounds = self.bounds(n)
        got = first_draws(ours, bounds)
        want = [int(ref[v].integers(b)) if b else 0
                for v, b in enumerate(bounds.tolist())]
        assert got.tolist() == want
        assert_same_streams(ours, ref)

    @pytest.mark.usefixtures("replicated")
    def test_failed_test_rejection_bound_one_and_empty_queue(self):
        # Node 0: a zero half, rejected by bound 3 (retry).  Node 1: a
        # half that fails the inlined test but that the stream accepts.
        # Node 2: bound 1.  Node 3: bound 0.  Node 4: its queue drained
        # first, so the draw refills.  Node 5: the common case.
        n, seed = 6, 31
        copies = []
        for _ in range(2):
            streams = node_streams(seed, n)
            streams.halves[0].append(0)
            streams.halves[1].append(INV3)
            for _ in range(PREFETCHED):
                streams[4].integers(2**32)
            copies.append(streams)
        ours, theirs = copies
        theirs = list(theirs)  # every draw through integers
        bounds = np.array([3, 3, 1, 0, 5, 9], dtype=np.int64)
        queued = [len(q) for q in ours.halves]
        got = first_draws(ours, bounds)
        want = [theirs[v].integers(b) if b else 0
                for v, b in enumerate(bounds.tolist())]
        assert got.tolist() == want
        assert got[1] == 2
        assert len(ours.halves[0]) == queued[0] - 2  # rejected, then retried
        assert len(ours.halves[1]) == queued[1] - 1
        assert len(ours.halves[2]) == queued[2]  # bound 1 consumes nothing
        assert len(ours.halves[3]) == queued[3]
        assert [s is not None for s in ours._built] == [
            True, True, False, False, True, False]
        assert [(s._state, s._halves) for s in ours] == [
            (s._state, s._halves) for s in theirs]

    @pytest.mark.usefixtures("replicated")
    def test_phase1_colour_draw_builds_no_stream(self, monkeypatch):
        built = []
        real = arraywalk.same_color_csr

        def spy(indptr, indices, color_of):
            built.append(sum(s is not None for s in rngs._built))
            return real(indptr, indices, color_of)

        monkeypatch.setattr(arraywalk, "same_color_csr", spy)
        graph = gnp_random_graph(256, 0.3, seed=2)
        rngs = node_streams(9, graph.n)
        ref = spawned(9, graph.n)
        res = replay_phase1(graph, rngs, 4, start_round=1)
        assert built == [0]
        # The colours are the spawned Generators' first draws: each
        # class cycle covers exactly one colour's nodes.
        colors = [1 + int(g.integers(4)) for g in ref]
        assert res.ok and sorted(res.cycles) == [1, 2, 3, 4]
        for c, cycle in res.cycles.items():
            assert sorted(cycle) == [v for v in range(graph.n)
                                     if colors[v] == c]
