"""The native k-machine engine vs the Conversion-Theorem oracle.

The contract (ISSUE 5 / docs/ARCHITECTURE.md):

* ``repro.run(g, alg, engine="kmachine", ...)`` works for every
  ``kmachine_convertible`` algorithm, threading ``k_machines``,
  ``link_words`` and ``partition_seed``;
* on a shared seed tree the native engine reproduces the converted
  simulator's ``cycle`` exactly (the converted run itself never
  perturbs the protocol, so this is simultaneously congest parity);
* the native ``kmachine_rounds`` respects the Conversion Theorem's
  bound and falls as machines are added (the ``~1/k`` shape);
* the RVP is drawn from the same stream as the converted path, so both
  engines place every node identically for a given seed.

The registry-wide enforcement lives in
``tests/test_engine_parity.py::TestKmachineOracleGate``; this module
covers the behavioural surface in depth for DRA (the exactly-modelled
driver) and spot-checks the structural ones.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

import repro
from repro.engines import kmachine_dhc1
from repro.engines.kmachine_engine import DEFAULT_K_MACHINES
from repro.engines.registry import REGISTRY
from repro.graphs import gnp_random_graph, paper_probability
from repro.kmachine import (
    LinkLedger,
    VertexPartition,
    conversion_round_bound,
    run_converted_hc,
)

from tests.conftest import complete

CONVERTIBLE = ("dra", "dhc1", "dhc2", "turau")


def _dra_graph(n=96, seed=3):
    return gnp_random_graph(n, paper_probability(n, 1.0, 8.0), seed=seed)


class TestRegistrySurface:
    def test_every_convertible_algorithm_has_a_kmachine_engine(self):
        for algorithm in REGISTRY.convertible_algorithms():
            spec = REGISTRY.get(algorithm, "kmachine")
            assert {"k_machines", "link_words",
                    "partition_seed"} <= spec.supported_kwargs

    def test_issue_call_shape(self):
        # The acceptance criterion verbatim: k aliases k_machines for DRA.
        g = _dra_graph()
        result = repro.run(g, "dra", engine="kmachine", k=8, seed=1)
        assert result.engine == "kmachine"
        assert result.detail["k_machines"] == 8

    def test_defaults_applied(self):
        result = repro.run(_dra_graph(48), "dra", engine="kmachine", seed=1)
        assert result.detail["k_machines"] == DEFAULT_K_MACHINES

    def test_auto_resolution_steers_kmachine_kwargs(self):
        spec = REGISTRY.resolve("dra", "auto", require={"k_machines": 4})
        assert spec.engine == "kmachine"
        # ...but a plain run still lands on the fast engine.
        assert REGISTRY.resolve("dra", "auto").engine == "fast"


class TestDraNativeParity:
    """DRA: the exactly-modelled driver, held to the oracle tightly."""

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_cycle_rounds_and_words_match_converted(self, k):
        g = _dra_graph()
        for seed in (1, 4):
            native = repro.run(g, "dra", engine="kmachine", seed=seed,
                               k_machines=k)
            converted, km = run_converted_hc(g, algorithm="dra",
                                             k_machines=k, seed=seed)
            assert native.success and converted.success
            assert native.cycle == converted.cycle
            assert native.rounds == converted.rounds
            assert native.steps == converted.steps
            summary = native.detail["kmachine"]
            assert summary["congest_rounds"] == km.congest_rounds
            # Setup floods and walk progress are modelled message-exactly;
            # only renumbering floods use the root-based profile.
            assert summary["cross_words"] == km.cross_words
            assert summary["local_words"] == km.local_words
            assert native.detail["kmachine_rounds"] == pytest.approx(
                km.kmachine_rounds, rel=0.05)

    def test_single_machine_rounds_equal_congest(self):
        g = _dra_graph(64)
        native = repro.run(g, "dra", engine="kmachine", seed=2, k_machines=1)
        detail = native.detail["kmachine"]
        assert detail["cross_words"] == 0
        assert native.detail["kmachine_rounds"] == native.rounds

    def test_rounds_fall_as_machines_are_added(self):
        g = _dra_graph()
        series = [repro.run(g, "dra", engine="kmachine", seed=3,
                            k_machines=k).detail["kmachine_rounds"]
                  for k in (2, 4, 8, 16)]
        assert series == sorted(series, reverse=True)
        assert series[0] > 1.5 * series[-1]  # a real ~1/k shape, not noise

    def test_within_conversion_bound(self):
        g = _dra_graph()
        native = repro.run(g, "dra", engine="kmachine", seed=3, k_machines=4)
        delta_max = max(g.degree(v) for v in range(g.n))
        bound = conversion_round_bound(
            native.detail["kmachine"]["cross_words"]
            + native.detail["kmachine"]["local_words"],
            native.rounds, delta_max, k=4)
        assert native.detail["kmachine_rounds"] <= 20 * bound + 10 * native.rounds

    def test_link_words_inflate_rounds(self):
        g = _dra_graph(64)
        wide = repro.run(g, "dra", engine="kmachine", seed=2, k_machines=4,
                         link_words=32)
        narrow = repro.run(g, "dra", engine="kmachine", seed=2, k_machines=4,
                           link_words=1)
        assert narrow.cycle == wide.cycle  # cost model never touches decisions
        assert narrow.detail["kmachine_rounds"] > wide.detail["kmachine_rounds"]

    def test_failure_paths_replay(self):
        g = _dra_graph(64)
        native = repro.run(g, "dra", engine="kmachine", seed=3, k_machines=4,
                           step_budget=5)
        fast = repro.run(g, "dra", engine="fast", seed=3, step_budget=5)
        assert not native.success
        assert native.rounds == fast.rounds
        assert native.detail["fail_codes"] == fast.detail["fail_codes"]
        assert native.detail["kmachine_rounds"] >= 1

    def test_disconnected_graph_fails_cleanly(self):
        g = repro.Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        native = repro.run(g, "dra", engine="kmachine", seed=1, k_machines=2)
        assert not native.success
        assert native.detail["fail_codes"] == ["bfs-unreachable"]


class TestDraIsTheFastReplay:
    """``kmachine`` DRA, DHC2 and Turau run the ``fast`` replay once and
    charge it.

    Every ``RunResult`` field and every ``detail`` key equals the
    ``fast`` engine's, except ``engine`` and the k-machine accounting.
    The graphs reach DHC2's ``empty-partition``,
    ``partition-disconnected`` and walk failures as well as successes.
    """

    KMACHINE_KEYS = {"kmachine", "kmachine_rounds", "k_machines", "link_words"}
    KWARGS = {
        "dra": ({}, {"step_budget": 20}),
        "dhc2": ({}, {"delta": 0.75}, {"k": 3}, {"delta": 1.0}),
        "turau": ({}, {"phase_budget": 3}),
    }
    GRAPHS = {
        "n0": repro.Graph(0, []),
        "n1": repro.Graph(1, []),
        "n2": repro.Graph(2, [(0, 1)]),
        "two-triangles": repro.Graph(6, [(0, 1), (1, 2), (0, 2),
                                         (3, 4), (4, 5), (3, 5)]),
        "K6": complete(6),
        **{f"gnp-{n}-{p}-{s}": gnp_random_graph(n, p, seed=s)
           for n in (16, 48) for p in (0.15, 0.5) for s in (1, 2)},
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_equals_fast_but_for_the_kmachine_keys(self, name):
        g = self.GRAPHS[name]
        for algorithm, kwarg_sets in self.KWARGS.items():
            for seed in (0, 3, 2**40):
                for kwargs in kwarg_sets:
                    fast = repro.run(g, algorithm, engine="fast", seed=seed,
                                     **kwargs)
                    for k_machines in (1, 3):
                        native = repro.run(g, algorithm, engine="kmachine",
                                           seed=seed, k_machines=k_machines,
                                           **kwargs)
                        context = (f"{algorithm} {name} seed={seed} "
                                   f"k_machines={k_machines} {kwargs}")
                        assert native.engine == "kmachine", context
                        assert (set(native.detail)
                                == set(fast.detail) | self.KMACHINE_KEYS), context
                        detail = {key: value for key, value in native.detail.items()
                                  if key not in self.KMACHINE_KEYS}
                        assert dataclasses.replace(
                            native, engine="fast", detail=detail) == fast, context


class TestBadMachineCount:
    """A machine count below 1 is rejected by name on both k-machine paths."""

    @pytest.mark.parametrize("k_machines", [0, -3])
    def test_native(self, k_machines):
        with pytest.raises(ValueError,
                           match=f"k_machines must be at least 1, got {k_machines}"):
            repro.run(_dra_graph(16), "dra", engine="kmachine", seed=1,
                      k_machines=k_machines)

    @pytest.mark.parametrize("k_machines", [0, -3])
    def test_converted(self, k_machines):
        with pytest.raises(ValueError,
                           match=f"k_machines must be at least 1, got {k_machines}"):
            run_converted_hc(_dra_graph(16), algorithm="dra",
                             k_machines=k_machines, seed=1)


class TestPartitionThreading:
    """The RVP stream is shared with the converted path and overridable."""

    def test_same_seed_same_partition_as_converted(self):
        # The converted path draws VertexPartition.random(n, k, seed=seed);
        # the native engine must use the identical stream.
        g = _dra_graph(64)
        seed, k = 7, 4
        expected = VertexPartition.random(g.n, k, seed=seed)
        ledger = LinkLedger(expected, 16)
        native = repro.run(g, "dra", engine="kmachine", seed=seed, k_machines=k)
        _converted, km = run_converted_hc(g, algorithm="dra", k_machines=k,
                                          seed=seed)
        # Identical partitions + exact traffic model => identical word split.
        assert native.detail["kmachine"]["cross_words"] == km.cross_words
        assert ledger.k == km.k

    def test_partition_seed_override_changes_costs_not_cycle(self):
        g = _dra_graph(64)
        base = repro.run(g, "dra", engine="kmachine", seed=3, k_machines=4)
        other = repro.run(g, "dra", engine="kmachine", seed=3, k_machines=4,
                          partition_seed=99)
        assert base.cycle == other.cycle
        assert (base.detail["kmachine"]["cross_words"]
                != other.detail["kmachine"]["cross_words"])


class TestStructuralDrivers:
    """DHC1/DHC2/Turau: cycle-exact, rounds within the oracle envelope."""

    @pytest.mark.parametrize("algorithm,kwargs", [
        ("dhc2", {"delta": 0.5, "k": 4}),
        ("turau", {}),
    ])
    def test_cycle_parity_grid(self, algorithm, kwargs):
        n = 64
        p = (paper_probability(n, 0.5, 6.0) if algorithm == "dhc2"
             else min(1.0, 30 * math.log(n) / n))
        g = gnp_random_graph(n, p, seed=3)
        succeeded = 0
        for seed in (1, 3, 7):
            native = repro.run(g, algorithm, engine="kmachine", seed=seed,
                               k_machines=4, **kwargs)
            converted, km = run_converted_hc(
                g, algorithm=algorithm, k_machines=4, seed=seed, **kwargs)
            assert native.success == converted.success
            assert native.cycle == converted.cycle
            if native.success:
                succeeded += 1
                assert native.steps == converted.steps
        assert succeeded >= 2

    def test_dhc1_cycle_parity_grid(self):
        for n, gseed in ((64, 3), (100, 5)):
            p = min(1.0, 8.0 * math.log(n) / math.sqrt(n))
            g = gnp_random_graph(n, p, seed=gseed)
            for seed in (2, 9):
                native = repro.run(g, "dhc1", engine="kmachine", seed=seed,
                                   k_machines=4)
                converted, _km = run_converted_hc(
                    g, algorithm="dhc1", k_machines=4, seed=seed)
                assert native.success == converted.success
                assert native.cycle == converted.cycle
                if native.success:
                    assert native.steps == converted.steps

    def test_dhc2_rounds_match_fast_estimate(self):
        g = gnp_random_graph(96, paper_probability(96, 0.5, 6.0), seed=3)
        native = repro.run(g, "dhc2", engine="kmachine", seed=1, k=4,
                           k_machines=4, delta=0.5)
        fast = repro.run(g, "dhc2", engine="fast", seed=1, k=4, delta=0.5)
        assert native.rounds == fast.rounds

    def test_turau_rounds_match_fast_estimate(self):
        n = 64
        g = gnp_random_graph(n, min(1.0, 30 * math.log(n) / n), seed=3)
        native = repro.run(g, "turau", engine="kmachine", seed=1, k_machines=4)
        fast = repro.run(g, "turau", engine="fast", seed=1)
        assert native.rounds == fast.rounds
        assert native.detail["fail"] == fast.detail["fail"]

    def test_dhc1_ported_walk_matches_congest(self, monkeypatch):
        # The ported virtual walk over G' against the message-level
        # RotationWalk it replays: dense graphs whose hypernode walks
        # rotate and retry, plus a virtual-walk failure.  The walker is
        # found by its ``_hit`` method, and a recording subclass counts
        # the outcomes so the grid is known to exercise both port rules.
        (walker,) = [obj for obj in vars(kmachine_dhc1).values()
                     if isinstance(obj, type) and hasattr(obj, "_hit")]
        outcomes = []

        class RecordingWalk(walker):
            def _hit(self, *args):
                outcome, head = super()._hit(*args)
                outcomes.append(outcome)
                return outcome, head

        monkeypatch.setattr(kmachine_dhc1, walker.__name__, RecordingWalk)
        grid = [(gnp_random_graph(100, 0.8, seed=g), 8, seed)
                for g in (0, 1) for seed in (0, 1, 2)]
        grid.append((gnp_random_graph(48, 0.7, seed=1), 3, 1))
        successes, causes = 0, set()
        for g, k, seed in grid:
            native = repro.run(g, "dhc1", engine="kmachine", k=k, seed=seed)
            congest = repro.run(g, "dhc1", engine="congest", k=k, seed=seed)
            context = f"n={g.n} k={k} seed={seed}"
            assert native.success == congest.success, context
            assert native.cycle == congest.cycle, context
            assert native.steps == congest.steps, context
            assert native.detail.get("fail") == congest.detail.get("fail"), context
            successes += native.success
            causes.add(native.detail.get("fail"))
        assert successes >= 3
        assert "virtual-walk-1" in causes
        assert {"rotate", "retry"} <= set(outcomes)

    def test_dhc1_failures_report_charged_rounds(self):
        # A failed DHC1 run reports the rounds its ledger charged up to
        # the failure, as a successful one does; only the isolated-node
        # exit, taken before any phase, charges none.
        graphs = [gnp_random_graph(n, paper_probability(n, 0.5, 1.5), seed=s)
                  for n in (48, 64) for s in range(4)]
        graphs.append(repro.Graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)]))
        graphs.append(repro.Graph(4, [(0, 1), (1, 2), (2, 0)]))
        causes = set()
        for seed, g in enumerate(graphs):
            result = repro.run(g, "dhc1", engine="kmachine", seed=seed,
                               k_machines=4)
            if result.success:
                continue
            cause = result.detail["fail"]
            causes.add(cause)
            assert result.rounds == result.detail["kmachine"]["congest_rounds"]
            assert (result.rounds == 0) == (cause == "isolated-node"), cause
        assert {"isolated-node", "global-bfs-unreachable", "walk-1"} <= causes

    def test_too_small_graph(self):
        g = repro.Graph(2, [(0, 1)])
        native = repro.run(g, "turau", engine="kmachine", seed=1, k_machines=2)
        assert not native.success
        assert native.detail["kmachine_rounds"] == 0


class TestNativeGolden:
    """Exact native k-machine accounting, pinned.

    Each case is ``(success, kmachine_rounds, sha256 of the full
    detail["kmachine"] summary)``.  They pin what a refactor of the
    ledger's charging primitives could silently change.
    """

    # G(n, p, graph seed) per algorithm: Turau needs the denser graph.
    GRAPHS = {"dra": (192, 0.6, 11), "dhc1": (192, 0.6, 11),
              "dhc2": (192, 0.6, 11), "turau": (96, 0.9, 12)}
    KWARGS = {"dra": {}, "dhc1": {"k": 4}, "dhc2": {"delta": 0.75},
              "turau": {}}
    PINS = {
        ("dra", 2): (True, 44210, "790e9aafdc1079c8dc81dabc225bdefd"
                                  "b62ddcf784baa6a884dda4d52c3eb1be"),
        ("dra", 5): (True, 25349, "fd872d5fa46b05c28e6c702bbce19cbf"
                                  "d44f313e59679e320109ce4c2ead2737"),
        ("dhc1", 2): (True, 11236, "9f95cfc6b6f6f87e60bcfbbb2486e867"
                                   "7a87c68ca592e3b6690df1f86cdd90d0"),
        ("dhc1", 5): (True, 3912, "f85bedc927650bd03c0d7879f2e3a9a7"
                                  "3ab53f22b55ec36623b4cb9f4ea3424c"),
        ("dhc2", 2): (True, 8592, "151407f3c7dbc51c5164ead7a067cd89"
                                  "9fc72ef32ade2057d18fbb0ad20aaf9d"),
        ("dhc2", 5): (True, 3827, "7f55caccaa675f822e4947d3449c4c5a"
                                  "c8d7e05c02298d378d40e00c0d7ccb29"),
        ("turau", 2): (True, 1268, "cee933344fb1844adc1bb9eaf7cb5a09"
                                   "4a7eab991f369feeb52f5ad03b9f23a0"),
        ("turau", 5): (True, 636, "4177df30d185cc9c9a6b4311a6f0675d"
                                  "d91941e42096f58a897dab4bd5c5282a"),
    }

    @pytest.mark.parametrize("algorithm,k_machines", sorted(PINS),
                             ids=lambda v: str(v))
    def test_summary_pins(self, algorithm, k_machines):
        n, p, graph_seed = self.GRAPHS[algorithm]
        g = gnp_random_graph(n, p, seed=graph_seed)
        r = repro.run(g, algorithm, engine="kmachine", seed=3,
                      k_machines=k_machines, **self.KWARGS[algorithm])
        summary = json.dumps(r.detail["kmachine"], sort_keys=True)
        assert (r.success, r.detail["kmachine_rounds"],
                hashlib.sha256(summary.encode()).hexdigest()
                ) == self.PINS[algorithm, k_machines]


class TestLedgerInvariants:
    """Internal consistency of the machine-level accounting."""

    def test_word_totals_consistent(self):
        g = _dra_graph(64)
        native = repro.run(g, "dra", engine="kmachine", seed=5, k_machines=4)
        s = native.detail["kmachine"]
        assert s["cross_words"] >= 0 and s["local_words"] >= 0
        assert s["kmachine_rounds"] >= s["congest_rounds"]
        assert s["max_round_link_words"] <= s["cross_words"]

    @pytest.mark.parametrize("algorithm,kwargs", [
        ("dra", {}),
        ("dhc1", {"k": 4}),
        ("dhc2", {"delta": 0.65}),
        ("dhc2", {"delta": 1.0}),
        ("turau", {}),
    ], ids=lambda v: str(v))
    def test_success_charges_exactly_the_reported_rounds(self, algorithm, kwargs):
        # The ledger models the schedule ``rounds`` describes: a
        # successful run charges no CONGEST tick beyond it.  (``_finish``
        # tops up a short ledger with quiet ticks, so only an
        # over-charge can break the equality.)
        successes = 0
        for n, gseed in ((64, 1), (100, 2)):
            g = gnp_random_graph(n, 0.8, seed=gseed)
            for seed in range(4):
                for k_machines in (1, 4):
                    r = repro.run(g, algorithm, engine="kmachine", seed=seed,
                                  k_machines=k_machines, **kwargs)
                    if r.success:
                        successes += 1
                        assert r.detail["kmachine"]["congest_rounds"] == r.rounds, (
                            f"n={n} seed={seed} k_machines={k_machines}")
        assert successes >= 4

    @pytest.mark.parametrize("k_machines", [1, 4])
    def test_walk_failure_charges_exactly_the_reported_rounds(self, k_machines):
        # The failure twin: DHC2 reports a class-walk failure at the
        # failing walk's end round, so the ledger stops there too, with
        # no fail flood and no tick of an earlier class that was still
        # walking (G(48, 0.5) at seed 3).
        failures = 0
        for n, p in ((48, 0.5), (64, 0.4), (96, 0.3)):
            g = gnp_random_graph(n, p, seed=0)
            for seed in range(4):
                r = repro.run(g, "dhc2", engine="kmachine", seed=seed,
                              delta=0.5, k_machines=k_machines)
                if r.detail.get("fail", "").startswith("walk-"):
                    failures += 1
                    assert r.detail["kmachine"]["congest_rounds"] == r.rounds, (
                        f"n={n} seed={seed}")
        assert failures >= 8

    def test_link_matrix_totals(self):
        part = VertexPartition(np.array([0, 0, 1, 1]), k=2)
        ledger = LinkLedger(part, 4)
        ledger.burst(np.array([0, 1, 2]), np.array([2, 0, 3]), 3)
        m = ledger.metrics
        assert m.cross_words == 3      # only 0->2 crosses; 1->0 and 2->3 are local
        assert m.local_words == 6
        assert int(m.link_words.sum()) == m.cross_words
        assert m.congest_rounds == 1
        assert m.kmachine_rounds == 1  # 3 words fit one W=4 round

    def test_quiet_floors_one_round_per_tick(self):
        ledger = LinkLedger(VertexPartition.round_robin(8, 4), 16)
        ledger.quiet(7)
        assert ledger.metrics.kmachine_rounds == 7
        assert ledger.metrics.congest_rounds == 7

    def test_bad_link_words_rejected(self):
        with pytest.raises(ValueError, match="bandwidth"):
            LinkLedger(VertexPartition.round_robin(8, 4), 0)
