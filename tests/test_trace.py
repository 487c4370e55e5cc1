"""Tests for the trace subsystem (repro.trace)."""

import pytest

from repro.congest import NetworkModel
from repro.core import run_dra
from repro.graphs import gnp_random_graph, paper_probability
from repro.kmachine.partition import VertexPartition
from repro.trace import (
    TraceRecorder,
    activity_timeline,
    kind_summary,
    node_lens,
)


def _traced_dra(n=48, seed=4, **recorder_kwargs):
    graph = gnp_random_graph(n, paper_probability(n, 0.5, 6.0), seed=seed)
    recorder = TraceRecorder(**recorder_kwargs)
    result = run_dra(graph, seed=seed,
                     network=NetworkModel(network_hook=recorder.attach))
    return result, recorder


class TestTraceRecorder:
    def test_records_all_delivered_messages(self):
        result, recorder = _traced_dra()
        assert result.success
        # Every protocol message was observed and (capacity permitting)
        # recorded; messages == trace events for an unfiltered trace.
        assert recorder.total_seen == result.messages
        assert len(recorder) == result.messages
        assert recorder.dropped == 0

    def test_rounds_are_monotone_and_positive(self):
        _, recorder = _traced_dra()
        rounds = recorder.rounds()
        assert rounds == sorted(rounds)
        assert rounds[0] >= 1

    def test_kind_filter(self):
        _, unfiltered = _traced_dra()
        _, walk_only = _traced_dra(kinds=["rw."])
        kinds = set(walk_only.by_kind())
        assert kinds  # the walk sent something
        assert all(k.startswith("rw.") for k in kinds)
        assert len(walk_only) < len(unfiltered)
        # Filtering happens pre-storage, but observation still counts.
        assert walk_only.total_seen == unfiltered.total_seen

    def test_node_filter(self):
        _, recorder = _traced_dra(nodes=[0])
        assert len(recorder) > 0
        assert all(0 in (e.src, e.dst) for e in recorder.events())

    def test_capacity_ring_buffer(self):
        _, recorder = _traced_dra(capacity=100)
        assert len(recorder) == 100
        assert recorder.dropped == recorder.total_seen - 100
        # Retained events are the most recent ones.
        all_events = _traced_dra()[1].events()
        assert recorder.events() == all_events[-100:]

    def test_involving_and_where(self):
        _, recorder = _traced_dra()
        mine = recorder.involving(3)
        assert all(3 in (e.src, e.dst) for e in mine)
        late = recorder.where(lambda e: e.round_index > 10)
        assert all(e.round_index > 10 for e in late)

    def test_by_kind_sorted_desc(self):
        _, recorder = _traced_dra()
        counts = list(recorder.by_kind().values())
        assert counts == sorted(counts, reverse=True)
        assert sum(counts) == len(recorder)

    def test_chains_with_existing_observer(self):
        # Attach on top of k-machine accounting: both observers must see
        # the full traffic of the same run.
        from repro.kmachine.simulation import _LinkAccountant

        graph = gnp_random_graph(32, paper_probability(32, 0.5, 6.0), seed=2)
        part = VertexPartition.round_robin(32, 2)
        accountant = _LinkAccountant(part, link_words=16)
        recorder = TraceRecorder()

        def hook(network):
            network.round_observer = accountant.observe
            recorder.attach(network)  # must chain, not clobber

        result = run_dra(graph, seed=2, network=NetworkModel(network_hook=hook))
        assert recorder.total_seen == result.messages
        assert (accountant.metrics.cross_words
                + accountant.metrics.local_words) > 0
        assert accountant.metrics.congest_rounds == result.rounds

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)


class TestRenderings:
    def test_activity_timeline_shows_span(self):
        _, recorder = _traced_dra()
        art = activity_timeline(recorder)
        assert "events" in art
        assert "[" in art and "]" in art

    def test_timeline_empty(self):
        assert "empty" in activity_timeline(TraceRecorder())

    def test_kind_summary_table(self):
        _, recorder = _traced_dra()
        table = kind_summary(recorder)
        assert "kind" in table
        assert "share" in table
        # Walk progress messages must appear for a successful DRA.
        assert "rw." in table

    def test_kind_summary_empty(self):
        assert "empty" in kind_summary(TraceRecorder())

    def test_node_lens_direction_arrows(self):
        _, recorder = _traced_dra()
        lens = node_lens(recorder, 0, limit=10)
        assert "->" in lens or "<-" in lens

    def test_node_lens_limit(self):
        _, recorder = _traced_dra()
        lens = node_lens(recorder, 0, limit=3)
        assert "more" in lens

    def test_node_lens_unknown_node(self):
        _, recorder = _traced_dra(nodes=[1])
        assert "no recorded traffic" in node_lens(recorder, 10**6)


class TestPhaseStructure:
    """Trace-level assertions about protocol *shape*, not just outcome."""

    def test_dra_phases_in_order(self):
        _, recorder = _traced_dra()
        kinds = recorder.by_kind()
        first_election = min(
            e.round_index for e in recorder.events() if e.kind.startswith("lm."))
        first_bfs = min(
            e.round_index for e in recorder.events() if e.kind.startswith("bt."))
        first_walk = min(
            e.round_index for e in recorder.events() if e.kind.startswith("rw."))
        assert first_election < first_bfs < first_walk
        # Election traffic is a flood: at least one message per node.
        assert kinds[next(k for k in kinds if k.startswith("lm."))] >= 48
