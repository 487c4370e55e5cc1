"""Seed-for-seed parity: the array kernel vs the pure-Python walker.

The ``fast`` engine (array kernel, :mod:`repro.engines.arraywalk`) and
the original pure-Python walkers must make *identical decisions*: same
RNG draws in the same order, so same success flag, cycle, steps,
rounds, and failure codes — across graph models, sizes, and densities,
on successes and failures alike.

The walkers spent their one deprecation release registered as
``engine="fast-py"``; that registry entry is retired, and they now
live on *only* as this suite's oracles in ``tests/oracles.py``
(``_dra_fast_py`` / ``_dhc2_fast_py``), imported directly rather than
dispatched through ``repro.run``.  The shipped package keeps only what
they share with the kernel engines: DRA's result assembly and DHC2's
Phase 2.

The kernel's tree helpers are also checked structurally against the
Python originals, since round accounting flows through them.
"""

import contextlib
import dataclasses
import math

import numpy as np
import pytest

import repro
from repro.core.cre import run_cre
from repro.core.rotation import FAIL_NO_EDGES
from repro.engines import arraywalk, fast, fast_cre, fast_dhc2, streams
from repro.engines.arraywalk import build_array_tree
from repro.engines.phase1_replay import build_class_forest, replay_phase1
from repro.engines.registry import REGISTRY
from repro.graphs.adjacency import csr_sources
from repro.graphs import (
    Graph,
    csr_gather,
    gnm_random_graph,
    gnp_random_graph,
    paper_probability,
    random_regular_graph,
)

from tests import oracles
from tests.conftest import generator_fallback
from tests.oracles import (
    _dhc2_fast_py,
    _dra_fast_py,
    bfs_completion_round,
    build_min_id_bfs_tree,
)

SIZES = [16, 64, 256]
MODELS = ["gnp", "gnm", "regular"]

#: Engines that count as an algorithm's parity *reference*, in
#: preference order: the message-level simulator where one exists,
#: otherwise the scalar sequential implementation.
REFERENCE_ENGINES = ("congest", "sequential")


def fallback_if(route: str, monkeypatch):
    """The forced Generator fallback on the ``generator-fallback`` route."""
    if route == "generator-fallback":
        return generator_fallback(monkeypatch)
    return contextlib.nullcontext()


def sample(model: str, n: int, factor: float, seed: int):
    """One graph per (model, n) in the paper's density parameterisation."""
    p = min(1.0, factor * math.log(n) / n)
    if model == "gnp":
        return gnp_random_graph(n, p, seed=seed)
    m = round(p * n * (n - 1) / 2)
    if model == "gnm":
        return gnm_random_graph(n, m, seed=seed)
    # Cap at the pairing model's practical range (cf. the CLI guard).
    degree = min(max(3, round(p * (n - 1))), n // 2)
    if (n * degree) % 2:
        degree += 1
    return random_regular_graph(n, degree, seed=seed)


def assert_parity(kernel, oracle, context: str, *, detail_keys=(),
                  fields=("success", "cycle", "steps", "rounds")):
    for field in fields:
        assert getattr(kernel, field) == getattr(oracle, field), (
            f"{context}: {field}")
    for key in detail_keys:
        assert kernel.detail.get(key) == oracle.detail.get(key), (
            f"{context}: detail[{key!r}]")


def dra_with_final_paths(monkeypatch, graph, seed, **kwargs):
    """DRA on the kernel and on the oracle, plus each walk's final path.

    A failed run reports no cycle, so the path the walk ended on is
    read from the walkers themselves, each through a recording
    subclass monkeypatched over the walker class.
    """
    kernel_walks, oracle_walks = [], []

    def recording(walker, walks):
        class RecordingWalk(walker):
            def run(self):
                super().run()
                walks.append(self)
        return RecordingWalk

    monkeypatch.setattr(arraywalk, "ArrayWalk",
                        recording(arraywalk.ArrayWalk, kernel_walks))
    monkeypatch.setattr(oracles, "_FastWalk",
                        recording(oracles._FastWalk, oracle_walks))
    kernel = repro.run(graph, "dra", engine="fast", seed=seed, **kwargs)
    oracle = _dra_fast_py(graph, seed=seed, **kwargs)
    assert len(kernel_walks) == len(oracle_walks) == 1
    return kernel, oracle, kernel_walks[0].cycle(), oracle_walks[0].cycle()


class TestDraParity:
    """Algorithm 1: dense graphs succeed, sparse ones fail — both must match."""

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("factor", [1.0, 8.0])
    def test_grid(self, model, n, factor):
        for seed in (1, 7):
            g = sample(model, n, factor, seed)
            kernel = repro.run(g, "dra", engine="fast", seed=seed)
            oracle = _dra_fast_py(g, seed=seed)
            assert_parity(
                kernel, oracle, f"dra {model} n={n} factor={factor} seed={seed}",
                detail_keys=("fail_codes", "rotations", "extensions", "retries"))
            assert kernel.engine == "fast" and oracle.engine == "fast-py"

    @pytest.mark.parametrize("route", ["generator-fallback", "numpy-seed"])
    def test_draw_routes(self, route, monkeypatch):
        # Both draw paths of fast: the lazily built node streams, whose
        # common draws the walk takes inline (here from an np.int64
        # seed), and the real Generators they fall back to.
        with fallback_if(route, monkeypatch):
            outcomes = set()
            for factor in (1.0, 8.0):
                for seed in (1, 7):
                    g = sample("gnp", 64, factor, seed)
                    drawn = np.int64(seed) if route == "numpy-seed" else seed
                    assert isinstance(streams.node_streams(drawn, 4)[0],
                                      np.random.Generator) == (
                        route == "generator-fallback")
                    kernel = repro.run(g, "dra", engine="fast", seed=drawn)
                    oracle = _dra_fast_py(g, seed=seed)
                    assert_parity(kernel, oracle,
                                  f"dra {route} factor={factor} seed={seed}",
                                  detail_keys=("fail_codes", "rotations",
                                               "extensions"))
                    outcomes.add(kernel.success)
            assert outcomes == {True, False}

    def test_step_budget_failure_matches(self, monkeypatch):
        g = sample("gnp", 64, 8.0, seed=3)
        for budget in (5, 40, 200):
            kernel, oracle, kernel_path, oracle_path = dra_with_final_paths(
                monkeypatch, g, 3, step_budget=budget)
            assert not kernel.success
            assert_parity(kernel, oracle, f"dra budget={budget}",
                          detail_keys=("fail_codes",))
            assert kernel_path == oracle_path

    @pytest.mark.parametrize("shape", ["star", "path"])
    def test_dead_end_failure_matches(self, shape, monkeypatch):
        # The head runs out of live edges: the walk's empty-row exit.
        n = 12
        if shape == "star":
            g = Graph(n, [(0, v) for v in range(1, n)])
        else:
            g = Graph(n, [(v, v + 1) for v in range(n - 1)])
        for seed in (1, 2, 5):
            kernel, oracle, kernel_path, oracle_path = dra_with_final_paths(
                monkeypatch, g, seed)
            assert not kernel.success
            assert kernel.detail["fail_codes"] == [FAIL_NO_EDGES]
            assert_parity(kernel, oracle, f"dra {shape} seed={seed}",
                          detail_keys=("fail_codes", "rotations",
                                       "extensions"))
            assert kernel_path == oracle_path

    def test_window_recentres_keep_parity(self, monkeypatch):
        # K_{m,m+1} has no Hamiltonian cycle, so the walk rotates until
        # it dead-ends; hundreds of shorter-side moves push the path
        # window into both buffer edges.
        m = 30
        g = Graph(2 * m + 1, [(u, m + w) for u in range(m)
                              for w in range(m + 1)])
        edges = []
        recentre = arraywalk._recentre

        def recording(buf, pos, ramp, lo, hi):
            edges.append("low" if lo < buf.size - hi else "high")
            return recentre(buf, pos, ramp, lo, hi)

        monkeypatch.setattr(arraywalk, "_recentre", recording)
        for seed in (1, 2, 3):
            before = len(edges)
            kernel, oracle, kernel_path, oracle_path = dra_with_final_paths(
                monkeypatch, g, seed, step_budget=10**6)
            assert len(edges) > before, f"seed={seed}: no re-centre"
            assert not kernel.success
            assert_parity(kernel, oracle, f"dra K_m,m+1 seed={seed}",
                          fields=("success", "cycle", "steps", "rounds"),
                          detail_keys=("fail_codes", "rotations",
                                       "extensions"))
            assert kernel.detail["rotations"] > 500
            assert kernel_path == oracle_path
        assert set(edges) == {"low", "high"}


class TestDhc2Parity:
    """Algorithm 3: partition walks + deterministic merges."""

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("n", SIZES)
    def test_grid(self, model, n):
        # Dense enough that each of the k colour classes is in the
        # walk's working regime at the larger sizes; the sparse small
        # cases exercise the failure paths.
        k = 4
        s = max(3, n // k)
        factor = 8.0 * n / s  # p = 8 ln(n)/s-ish: per-class density
        for seed in (1, 7):
            g = sample(model, n, factor, seed)
            kernel = repro.run(g, "dhc2", engine="fast", k=k, seed=seed)
            oracle = _dhc2_fast_py(g, k=k, seed=seed)
            assert_parity(kernel, oracle,
                          f"dhc2 {model} n={n} seed={seed}",
                          detail_keys=("fail", "k", "levels"))

    @pytest.mark.parametrize("route", ["generator-fallback", "numpy-seed"])
    def test_draw_routes(self, route, monkeypatch):
        # As DRA's: Phase 1's colour draws come off the prefetched
        # halves as one vector (streams.first_draws), then the class
        # walks take their common draws inline.
        with fallback_if(route, monkeypatch):
            outcomes = set()
            for factor, k in ((1.0, 8), (32.0, 4)):
                for seed in (1, 2, 7):
                    g = sample("gnp", 64, factor, seed)
                    drawn = np.int64(seed) if route == "numpy-seed" else seed
                    kernel = repro.run(g, "dhc2", engine="fast", k=k, seed=drawn)
                    oracle = _dhc2_fast_py(g, k=k, seed=seed)
                    assert_parity(kernel, oracle,
                                  f"dhc2 {route} factor={factor} seed={seed}",
                                  detail_keys=("fail", "k", "levels"))
                    outcomes.add(kernel.success)
            assert outcomes == {True, False}

    def test_sparse_failure_codes_match(self):
        for seed in (2, 9):
            g = sample("gnp", 64, 1.0, seed)
            kernel = repro.run(g, "dhc2", engine="fast", k=8, seed=seed)
            oracle = _dhc2_fast_py(g, k=8, seed=seed)
            assert_parity(kernel, oracle, f"dhc2 sparse seed={seed}",
                          detail_keys=("fail",))


class TestTurauParity:
    """Turau path merging: the array replay vs the CONGEST protocol.

    Covers the working (dense) regime and both failure modes — phase
    budget exhaustion and a missing closure edge — since the parity
    contract includes failure codes.
    """

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("n", [16, 64, 128])
    @pytest.mark.parametrize("factor", [2.0, 30.0])
    def test_grid(self, model, n, factor):
        for seed in (1, 7):
            g = sample(model, n, factor, seed)
            kernel = repro.run(g, "turau", engine="fast", seed=seed)
            oracle = repro.run(g, "turau", engine="congest", seed=seed)
            assert_parity(
                kernel, oracle, f"turau {model} n={n} factor={factor} seed={seed}",
                detail_keys=("fail", "phases", "initial_paths"),
                fields=("success", "cycle", "steps"))

    def test_tight_phase_budget_failure_matches(self):
        g = sample("gnp", 64, 30.0, seed=2)
        kernel = repro.run(g, "turau", engine="fast", seed=2, phase_budget=2)
        oracle = repro.run(g, "turau", engine="congest", seed=2, phase_budget=2)
        assert not kernel.success
        assert_parity(kernel, oracle, "turau tight budget",
                      detail_keys=("fail", "phases"),
                      fields=("success", "cycle", "steps"))

    def test_too_small_graph_matches(self):
        g = repro.Graph(2, [(0, 1)])
        kernel = repro.run(g, "turau", engine="fast", seed=1)
        oracle = repro.run(g, "turau", engine="congest", seed=1)
        assert not kernel.success and not oracle.success
        assert kernel.detail["fail"] == oracle.detail["fail"] == "too-small"


CRE_DETAIL_KEYS = ("fail", "extensions", "rotations", "cycle_extensions")

#: Degenerate CRE inputs: stranded exits (empty, star, path), cut-off
#: (two triangles), cycle extensions on tiny graphs (the star from its
#: hub, the path) and immediate closures (K6, the triangle).
DEGENERATE_GRAPHS = {
    "empty": Graph(5),
    "star": Graph(6, [(0, leaf) for leaf in range(1, 6)]),
    "path": Graph(6, [(v, v + 1) for v in range(5)]),
    "two-triangles": Graph(6, [(0, 1), (1, 2), (0, 2),
                               (3, 4), (4, 5), (3, 5)]),
    "k6": Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)]),
    "triangle": Graph(3, [(0, 1), (1, 2), (0, 2)]),
}


class TestCreParity:
    """CRE: the CSR-array replay vs the scalar sequential reference."""

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("factor", [1.0, 2.0, 8.0])
    def test_grid(self, model, n, factor):
        for seed in (1, 7):
            g = sample(model, n, factor, seed)
            kernel = repro.run(g, "cre", engine="fast", seed=seed)
            oracle = repro.run(g, "cre", engine="sequential", seed=seed)
            assert_parity(
                kernel, oracle, f"cre {model} n={n} factor={factor} seed={seed}",
                detail_keys=CRE_DETAIL_KEYS,
                fields=("success", "cycle", "steps"))

    @pytest.mark.parametrize("route", ["generator-fallback", "numpy-seed"])
    def test_draw_routes(self, route, monkeypatch):
        # Both draw paths of fast: the replicated stream (here from an
        # np.int64 seed) and the real Generator it falls back to.
        with fallback_if(route, monkeypatch):
            for factor in (1.0, 8.0):
                for seed in (1, 7):
                    g = sample("gnp", 64, factor, seed)
                    drawn = np.int64(seed) if route == "numpy-seed" else seed
                    assert isinstance(streams.trial_stream(drawn),
                                      np.random.Generator) == (
                        route == "generator-fallback")
                    kernel = repro.run(g, "cre", engine="fast", seed=drawn)
                    oracle = repro.run(g, "cre", engine="sequential", seed=seed)
                    assert_parity(
                        kernel, oracle, f"cre {route} factor={factor} seed={seed}",
                        detail_keys=CRE_DETAIL_KEYS,
                        fields=("success", "cycle", "steps"))

    @pytest.mark.parametrize("name", sorted(DEGENERATE_GRAPHS))
    def test_degenerate_graphs(self, name):
        g = DEGENERATE_GRAPHS[name]
        fails = set()
        for seed in range(16):  # seeds 11 and 14 start the star at its hub
            kernel = repro.run(g, "cre", engine="fast", seed=seed)
            oracle = repro.run(g, "cre", engine="sequential", seed=seed)
            assert_parity(
                kernel, oracle, f"cre {name} seed={seed}",
                detail_keys=CRE_DETAIL_KEYS,
                fields=("success", "cycle", "steps"))
            fails.add(kernel.detail["fail"])
        if name == "two-triangles":
            assert fails == {"cut-off"}

    def test_step_budget_failure_matches(self):
        g = sample("gnp", 64, 2.0, seed=3)
        kernel = repro.run(g, "cre", engine="fast", seed=3, step_budget=10)
        oracle = repro.run(g, "cre", engine="sequential", seed=3, step_budget=10)
        assert not kernel.success
        assert kernel.steps == oracle.steps == 10
        assert kernel.detail["fail"] == oracle.detail["fail"] == "budget"

    def test_draws_past_the_prefetch(self):
        # More extension draws than the trial stream prefetched, so its
        # half queue refills mid-walk; every RunResult field must equal
        # the reference's, which draws from a real default_rng.
        for seed in (2, 5):
            g = sample("gnp", 200, 4.0, seed)
            kernel = fast_cre._cre_fast(g, seed=seed)
            oracle = run_cre(g, seed=seed)
            assert kernel.detail["extensions"] > 2 * streams._TRIAL_PREFETCH_WORDS
            for field in dataclasses.fields(kernel):
                if field.name != "engine":
                    assert getattr(kernel, field.name) == getattr(
                        oracle, field.name), f"seed={seed}: {field.name}"


def _reference_spec(algorithm):
    engines = REGISTRY.engines_for(algorithm)
    for name in REFERENCE_ENGINES:
        if name in engines:
            return engines[name]
    return None


@pytest.mark.parametrize(
    "spec", [s for s in REGISTRY if s.parity],
    ids=lambda s: f"{s.algorithm}/{s.engine}")
class TestRegistryParityGate:
    """Every registered parity declaration is enforceable and enforced.

    Parametrised over the live registry: registering a new engine with
    a ``parity`` declaration but no reference implementation — or one
    whose declared fields diverge from its reference — fails the build
    with no edits here.  (The CI cross-algorithm parity job runs this
    module over every registered pair on the oldest and newest
    supported Pythons.)
    """

    def test_reference_engine_registered(self, spec):
        ref = _reference_spec(spec.algorithm)
        assert ref is not None, (
            f"{spec.algorithm}/{spec.engine} declares parity "
            f"{sorted(spec.parity)} but registers no reference engine "
            f"({' or '.join(REFERENCE_ENGINES)}) to hold it against")
        assert ref.engine != spec.engine

    def test_declared_fields_match_reference_seed_for_seed(self, spec):
        # Complete graph: every algorithm's best case, where at least
        # one seed must take the success path.  (n = 96 so each of
        # DHC2's k = 4 colour classes is comfortably in its walk's
        # regime; DHC1's 4-hypernode virtual walk is Monte Carlo even
        # here, so per seed the gate asserts the *outcome* matches and
        # compares the declared fields on the successes.)
        ref = _reference_spec(spec.algorithm)
        g = gnp_random_graph(96, 1.0, seed=9)
        shared = {"delta": 1.0, "k": 4}
        succeeded = 0
        for seed in (1, 5):
            fast = spec.call(g, seed=seed, **spec.filter_kwargs(shared))
            slow = ref.call(g, seed=seed, **ref.filter_kwargs(shared))
            assert fast.success == slow.success, (
                f"{spec.algorithm}/{spec.engine}: outcome diverged from "
                f"{ref.engine} at seed {seed}")
            assert fast.cycle == slow.cycle, (
                f"{spec.algorithm}/{spec.engine}: cycle diverged from "
                f"{ref.engine} at seed {seed}")
            if not fast.success:
                continue  # partial work may be accounted differently
            succeeded += 1
            for field in sorted(spec.parity):
                assert getattr(fast, field) == getattr(slow, field), (
                    f"{spec.algorithm}/{spec.engine}: declared parity "
                    f"field {field!r} diverged from {ref.engine}")
        assert succeeded, (
            f"{spec.algorithm}: the parity gate needs a succeeding "
            f"configuration; a complete graph should not fail every seed")


@pytest.mark.parametrize(
    "spec", [s for s in REGISTRY if s.engine == "kmachine"],
    ids=lambda s: s.algorithm)
class TestKmachineOracleGate:
    """Every ``engine="kmachine"`` entry is gated by the converted oracle.

    Registering a native k-machine engine for an algorithm whose
    congest spec is not ``kmachine_convertible`` — or whose native run
    diverges from the Conversion-Theorem simulator on the same seed
    tree — fails the build with no edits here, exactly as
    :class:`TestRegistryParityGate` gates the fast engines with their
    reference walkers.
    """

    def test_converted_oracle_exists(self, spec):
        congest = REGISTRY.engines_for(spec.algorithm).get("congest")
        assert congest is not None and congest.kmachine_convertible, (
            f"{spec.algorithm}/kmachine has no convertible congest oracle "
            f"to gate it; declare kmachine_convertible on the congest spec")
        assert {"k_machines", "link_words", "partition_seed"} <= \
            spec.supported_kwargs

    def test_native_matches_converted_oracle(self, spec):
        from repro.kmachine import conversion_round_bound, run_converted_hc

        g = gnp_random_graph(96, 1.0, seed=9)
        shared = {"delta": 1.0, "k": 4}
        algo_kwargs = {kw: shared[kw] for kw in ("delta", "k")
                       if kw in REGISTRY.get(spec.algorithm,
                                             "congest").supported_kwargs}
        checked = 0
        for seed in (1, 5):
            native = spec.call(g, seed=seed, k_machines=4,
                               **spec.filter_kwargs(shared))
            converted, km = run_converted_hc(
                g, algorithm=spec.algorithm, k_machines=4, seed=seed,
                **algo_kwargs)
            assert native.success == converted.success
            assert native.cycle == converted.cycle, (
                f"{spec.algorithm}/kmachine: cycle diverged from the "
                f"converted oracle at seed {seed}")
            if not native.success:
                continue
            checked += 1
            delta_max = max(g.degree(v) for v in range(g.n))
            bound = conversion_round_bound(
                converted.messages, converted.rounds, delta_max, k=4)
            native_rounds = native.detail["kmachine_rounds"]
            # The same generous envelope TestConversionBound grants the
            # converted measurement itself.
            assert native_rounds <= 20 * bound + 10 * converted.rounds, (
                f"{spec.algorithm}/kmachine: {native_rounds} machine "
                f"rounds exceed the Conversion-Theorem envelope")
            assert native_rounds <= 4 * km.kmachine_rounds + 64, (
                f"{spec.algorithm}/kmachine: native charge drifted from "
                f"the converted oracle ({native_rounds} vs "
                f"{km.kmachine_rounds})")
        assert checked, (
            f"{spec.algorithm}/kmachine: no succeeding seed to gate on")


class TestFastPyRetirement:
    """The deprecation release is over: fast-py is no longer dispatchable."""

    def test_fast_py_absent_from_registry(self):
        assert "fast-py" not in REGISTRY.engine_names()
        with pytest.raises(ValueError, match="no 'fast-py' engine"):
            REGISTRY.get("dra", "fast-py")

    def test_oracles_stay_importable(self):
        g = sample("gnp", 16, 8.0, seed=1)
        assert _dra_fast_py(g, seed=1).engine == "fast-py"
        for module, names in ((fast, ("_dra_fast_py", "_FastWalk",
                                      "SpanningTree", "build_min_id_bfs_tree",
                                      "bfs_completion_round")),
                              (fast_dhc2, ("_dhc2_fast_py",))):
            for name in names:
                assert not hasattr(module, name), f"{module.__name__}.{name}"


class TestTreeHelpers:
    """The kernel's vectorised tree math vs the Python originals."""

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("seed", [1, 4])
    def test_tree_and_timing_match(self, n, seed):
        g = sample("gnp", n, 4.0, seed)
        members = list(range(n))
        py = build_min_id_bfs_tree(members, g.neighbor_list, root=0)
        arr = build_array_tree(g.indptr, g.indices,
                               np.arange(n, dtype=np.int64), root=0)
        if py is None:
            assert arr is None
            return
        assert arr is not None
        assert arr.tree_depth == py.tree_depth
        assert [int(arr.depth[v]) for v in members] == [py.depth[v] for v in members]
        assert [int(arr.parent[v]) for v in members] == [py.parent[v] for v in members]
        start = 17
        assert arr.completion_round(start) == bfs_completion_round(
            py, g.neighbor_list, start)
        for v in (0, n // 2, n - 1):
            assert arr.eccentricity(v) == py.eccentricity(v)

    def test_unreachable_returns_none(self):
        g = repro.Graph(4, [(0, 1), (2, 3)])
        assert build_array_tree(g.indptr, g.indices,
                                np.arange(4, dtype=np.int64), root=0) is None


class TestPhase1ReplayPin:
    """The shared Phase-1 replay core preserves every consumer's streams.

    DHC2/fast, DHC2/kmachine, and DHC1/kmachine all run Phase 1 through
    :mod:`repro.engines.phase1_replay`; these pins were recorded from
    the pre-extraction per-engine implementations, so any change to the
    shared core's draw order, class order, or failure accounting shows
    up here as a concrete divergence rather than a silent re-baseline.
    """

    PINS = [
        # (algorithm, engine, kwargs, seed, success, steps, rounds, cycle_hash)
        ("dhc2", "fast", {"k": 4}, 3, True, 257, 2182, "54a9e90c9f2a02dd"),
        ("dhc2", "kmachine", {"k": 4}, 3, True, 257, 2182,
         "54a9e90c9f2a02dd"),
        ("dhc1", "kmachine", {"k": 4}, 0, True, 5, 1621,
         "ae16ec33024eda91"),
    ]

    @pytest.mark.parametrize("algo,engine,kwargs,seed,success,steps,rounds,chash",
                             PINS, ids=lambda v: str(v))
    def test_success_pins(self, algo, engine, kwargs, seed, success, steps,
                          rounds, chash):
        import hashlib
        import json

        g = gnp_random_graph(192, 0.6, seed=11)
        r = repro.run(g, algo, engine=engine, seed=seed, **kwargs)
        assert r.success == success
        assert r.steps == steps
        assert r.rounds == rounds
        got = hashlib.sha256(json.dumps(r.cycle).encode()).hexdigest()[:16]
        assert got == chash

    def test_walk_failure_pin(self):
        # Failure paths route through the same core: the fail reason,
        # the round it is charged to, and the k-machine ledger total
        # must all reproduce the pre-extraction numbers.
        g = gnp_random_graph(192, 0.35, seed=11)
        r = repro.run(g, "dhc2", engine="fast", seed=9, k=4)
        assert (r.success, r.steps, r.rounds) == (False, 0, 1039)
        assert r.detail["fail"] == "walk-1"
        r = repro.run(g, "dhc1", engine="kmachine", seed=0, k=6)
        assert not r.success and r.detail["fail"] == "walk-1"
        assert r.detail["kmachine_rounds"] == 802

    def test_fast_matches_kmachine_through_shared_core(self):
        # Not a pin: whatever the core does, both consumers must agree
        # on the Phase-1-determined fields for any seed.
        g = gnp_random_graph(128, 0.7, seed=4)
        for seed in (0, 1, 2):
            fast = repro.run(g, "dhc2", engine="fast", seed=seed, k=4)
            native = repro.run(g, "dhc2", engine="kmachine", seed=seed, k=4)
            assert fast.success == native.success
            assert fast.cycle == native.cycle
            assert fast.steps == native.steps


def _isolated_graph() -> Graph:
    """G(24, 0.3) on ids 3..26 of 30 nodes: 0-2 and 27-29 are isolated."""
    inner = gnp_random_graph(24, 0.3, seed=2)
    return Graph(30, inner.edge_array() + 3)


class TestPhase1Forest:
    """Phase 1's one forest equals a per-class ``build_array_tree``.

    :func:`~repro.engines.phase1_replay.build_class_forest` grows every
    colour class's tree in one BFS; each class must come out as the
    single-root build on its own members would: depth and parent at
    the members, tree depth, completion rounds, and the eccentricity
    from every member.  The cases cover an empty class, classes split
    into components, and isolated nodes.
    """

    START = 7

    CASES = {
        # name: (graph factory, run seed, colours)
        "empty-class": (lambda: gnp_random_graph(
            32, paper_probability(32, 0.5, 1.0), seed=0), 0, 12),
        "split-class": (lambda: gnp_random_graph(
            32, paper_probability(32, 0.5, 1.0), seed=0), 1, 5),
        "isolated-nodes": (_isolated_graph, 0, 4),
        "dense": (lambda: gnp_random_graph(96, 0.3, seed=5), 2, 4),
    }

    @classmethod
    def forest(cls, name):
        """``(colors, color_of, indptr, indices, forest)`` of one case."""
        make, seed, colors = cls.CASES[name]
        graph = make()
        rngs = streams.node_streams(seed, graph.n)
        color_of = 1 + streams.first_draws(
            rngs, np.full(graph.n, colors, dtype=np.int64))
        indptr, indices = arraywalk.same_color_csr(
            graph.indptr, graph.indices, color_of)
        return colors, color_of, indptr, indices, build_class_forest(
            indptr, indices, color_of, colors, cls.START)

    @staticmethod
    def components(color_of, colors, forest):
        """Per class: its members, and those its forest tree reached."""
        for c in range(1, colors + 1):
            members = np.flatnonzero(color_of == c)
            yield members, members[forest.depth[members] >= 0]

    def test_case_premises(self):
        forest = self.forest("empty-class")[-1]
        assert forest.sizes[2] == 0
        forest = self.forest("split-class")[-1]
        assert (forest.sizes[4], forest.spans[4]) == (5, 2)
        forest = self.forest("isolated-nodes")[-1]
        # Class 4's root, node 0, is isolated: its tree is one node.
        assert (forest.roots[4], forest.spans[4], forest.sizes[4]) == (0, 1, 7)
        forest = self.forest("dense")[-1]
        assert (forest.spans == forest.sizes).all()

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_classes_match_single_root_builds(self, name):
        colors, color_of, ip, ix, forest = self.forest(name)
        for c, (members, reached) in enumerate(
                self.components(color_of, colors, forest), 1):
            assert forest.sizes[c] == members.size
            if members.size == 0:
                assert forest.spans[c] == 0
                continue
            root = int(members[0])
            assert forest.roots[c] == root
            assert forest.spans[c] == reached.size
            if build_array_tree(ip, ix, members, root) is None:
                assert reached.size < members.size
            # The root's component, built alone, is the forest's tree.
            want = build_array_tree(ip, ix, reached, root)
            np.testing.assert_array_equal(forest.depth[reached],
                                          want.depth[reached])
            np.testing.assert_array_equal(forest.parent[reached],
                                          want.parent[reached])
            assert forest.heights[c] == want.tree_depth
            np.testing.assert_array_equal(
                forest.done[reached],
                want.completion_times(self.START)[reached])

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_eccentricity_from_every_member(self, name):
        # Round i starts one flood in every class with more than i
        # reached members, at its i-th one.
        colors, color_of, ip, ix, forest = self.forest(name)
        comps = [reached for _, reached in
                 self.components(color_of, colors, forest) if reached.size]
        trees = [build_array_tree(ip, ix, comp, int(comp[0]))
                 for comp in comps]
        for i in range(max(comp.size for comp in comps)):
            live = [k for k, comp in enumerate(comps) if comp.size > i]
            starts = np.array([comps[k][i] for k in live], dtype=np.int64)
            got = arraywalk.tree_eccentricities(forest.parent, starts)
            want = [trees[k].eccentricity(int(comps[k][i])) for k in live]
            assert got.tolist() == want

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_multi_start_equals_single_starts(self, name):
        colors, color_of, _, _, forest = self.forest(name)
        comps = [reached for _, reached in
                 self.components(color_of, colors, forest) if reached.size]
        rng = np.random.default_rng(3)
        for _ in range(5):
            starts = np.array([rng.choice(comp) for comp in comps],
                              dtype=np.int64)
            got = arraywalk.tree_eccentricities(forest.parent, starts)
            single = [int(arraywalk.tree_eccentricities(
                forest.parent, starts[k:k + 1])[0])
                for k in range(starts.size)]
            assert got.tolist() == single

    @pytest.mark.parametrize("p,seed,ok,floods", [
        (0.3, 7, True, [3, 2, 2, 2]), (0.35, 9, False, [4])],
        ids=["success", "walk-fail"])
    def test_replay_trace_matches_single_root_builds(self, p, seed, ok, floods):
        # Every walked class's trace record, the failing walk's too: its
        # own tree, its completion rounds (0 outside the class) and its
        # flood cost (unequal across the classes of the first case).
        g = gnp_random_graph(192, p, seed=11)
        color_of = 1 + streams.first_draws(
            streams.node_streams(seed, g.n), np.full(g.n, 4, dtype=np.int64))
        records: list = []
        res = replay_phase1(g, streams.node_streams(seed, g.n), 4,
                            start_round=self.START, trace=records)
        assert res.ok == ok
        assert [record[-1] for record in records] == floods
        for c, (tree, done, walk, _steps, flood_ecc) in enumerate(records, 1):
            members = np.flatnonzero(color_of == c)
            want = build_array_tree(res.indptr, res.indices, members,
                                    int(members[0]))
            assert tree.root == want.root
            np.testing.assert_array_equal(tree.members, members)
            assert tree.tree_depth == want.tree_depth
            np.testing.assert_array_equal(tree.depth, want.depth)
            np.testing.assert_array_equal(tree.parent, want.parent)
            np.testing.assert_array_equal(done,
                                          want.completion_times(self.START))
            assert flood_ecc == want.eccentricity(walk.flood_initiator)


class TestFastBatchParity:
    """``fast-batch`` is seed-for-seed identical to per-trial ``fast``.

    Through the registry's ``call_batch``, these tests hold every
    RunResult field (including failure codes and step/rotation
    counters in ``detail``) against a serial loop over the same
    (graph, seed) pairs — on mixed-outcome and single-trial batches.
    """

    FIELDS = ("success", "cycle", "steps", "rounds", "detail")

    @staticmethod
    def _mixed_batch(n, trials, *, factors=(1.0, 8.0, 14.0)):
        graphs, seeds = [], []
        for i in range(trials):
            graphs.append(sample("gnp", n, factors[i % len(factors)],
                                 seed=300 + i))
            seeds.append(50 + i)
        return graphs, seeds

    def assert_batch_parity(self, algorithm, graphs, seeds, context,
                            **kwargs):
        spec = REGISTRY.get(algorithm, "fast-batch")
        serial = REGISTRY.get(algorithm, "fast")
        got = spec.call_batch(graphs, seeds=seeds, **kwargs)
        assert len(got) == len(graphs)
        outcomes = set()
        for i, (g, s, res) in enumerate(zip(graphs, seeds, got)):
            want = serial.call(g, seed=s, **kwargs)
            outcomes.add(want.success)
            assert res.engine == "fast-batch"
            for field in self.FIELDS:
                assert getattr(res, field) == getattr(want, field), (
                    f"{context}: trial {i} field {field}")
        return outcomes

    @pytest.mark.parametrize("algorithm", ["dra", "cre"])
    @pytest.mark.parametrize("n", [16, 96])
    def test_mixed_outcome_batch(self, algorithm, n):
        graphs, seeds = self._mixed_batch(n, 9)
        outcomes = self.assert_batch_parity(
            algorithm, graphs, seeds, f"{algorithm} n={n}")
        if n == 96:
            # The density mix must actually exercise both paths.
            assert outcomes == {True, False}

    @pytest.mark.parametrize("n", [16, 96])
    def test_dhc2_mixed_outcome_batch(self, n):
        # Factor 30 caps p at 1.0 -> dense successes; the sparse end
        # exercises empty / disconnected partitions and walk failures.
        graphs, seeds = self._mixed_batch(n, 9, factors=(1.0, 8.0, 30.0))
        outcomes = self.assert_batch_parity(
            "dhc2", graphs, seeds, f"dhc2 n={n}")
        if n == 96:
            assert outcomes == {True, False}

    @pytest.mark.parametrize("n", [16, 96])
    def test_turau_mixed_outcome_batch(self, n):
        graphs, seeds = self._mixed_batch(n, 9, factors=(2.0, 8.0, 14.0))
        outcomes = self.assert_batch_parity(
            "turau", graphs, seeds, f"turau n={n}")
        if n == 96:
            assert outcomes == {True, False}

    def test_dhc2_explicit_k_batch(self):
        # k > what default_color_count picks forces tiny colour
        # classes: empty partitions and sub-3-node class walks.
        graphs, seeds = self._mixed_batch(12, 6, factors=(3.0,))
        self.assert_batch_parity("dhc2", graphs, seeds, "dhc2 k=5", k=5)

    def test_turau_phase_budget_batch(self):
        self.assert_batch_parity(
            "turau", *self._mixed_batch(48, 4, factors=(10.0,)),
            "turau budget", phase_budget=2)

    def test_turau_too_small_batch(self):
        graphs = [sample("gnp", 2, 1.0, seed=5), sample("gnp", 2, 1.0, seed=6)]
        self.assert_batch_parity("turau", graphs, [3, 4], "turau n=2")

    @pytest.mark.parametrize("n", [3, 4, 10])
    def test_turau_edgeless_batch(self, n):
        # No node has an edge, so every draw pass has zero lanes.
        self.assert_batch_parity("turau", [Graph(n), Graph(n)], [1, 2],
                                 f"turau edgeless n={n}")

    @pytest.mark.parametrize("algorithm", ["dra", "cre", "dhc2", "turau"])
    def test_single_trial_batch(self, algorithm):
        graphs, seeds = self._mixed_batch(64, 1, factors=(8.0,))
        self.assert_batch_parity(algorithm, graphs, seeds,
                                 f"{algorithm} B=1")

    def test_step_budget_batch(self):
        graphs, seeds = self._mixed_batch(64, 4, factors=(8.0,))
        self.assert_batch_parity("dra", graphs, seeds, "dra budget",
                                 step_budget=7)

    def test_same_n_required(self):
        spec = REGISTRY.get("dra", "fast-batch")
        graphs = [sample("gnp", 16, 8.0, 1), sample("gnp", 32, 8.0, 1)]
        with pytest.raises(ValueError, match="same-n"):
            spec.call_batch(graphs, seeds=[1, 2])
        with pytest.raises(ValueError, match="one seed per graph"):
            spec.call_batch(graphs[:1], seeds=[1, 2])


class TestCsrHelpers:
    def test_csr_gather_matches_slices(self):
        g = sample("gnp", 64, 4.0, seed=5)
        nodes = np.array([3, 17, 17, 60], dtype=np.int64)
        expected = np.concatenate([g.neighbors(int(v)) for v in nodes])
        assert np.array_equal(
            csr_gather(g.indptr, g.indices, nodes), expected)

    @staticmethod
    def same_color_rows(graph, color_of):
        """Per-row reference: each node's same-colour neighbours."""
        return [[w for w in graph.neighbor_list(v) if color_of[w] == color_of[v]]
                for v in range(graph.n)]

    @pytest.mark.parametrize("case", [
        "isolated-inside", "isolated-last", "isolated-first", "edgeless",
        "no-nodes", "gnp"])
    def test_same_color_csr_matches_filtered_csr(self, case):
        graph = {
            "isolated-inside": Graph(7, [(0, 1), (0, 4), (1, 4), (4, 6), (5, 6)]),
            "isolated-last": Graph(8, [(0, 1), (1, 2), (0, 3), (2, 3), (3, 4)]),
            "isolated-first": Graph(5, [(1, 2), (2, 3), (3, 4), (1, 4)]),
            "edgeless": Graph(6, []),
            "no-nodes": Graph(0, []),
            "gnp": sample("gnp", 256, 2.0, seed=3),
        }[case]
        for k in (1, 2, 3):
            color_of = 1 + np.random.default_rng(k).integers(
                k, size=graph.n).astype(np.int64)
            src = csr_sources(graph.indptr)
            want = arraywalk.filtered_csr(
                graph.indptr, graph.indices,
                color_of[src] == color_of[graph.indices])
            got = arraywalk.same_color_csr(graph.indptr, graph.indices, color_of)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
                assert a.dtype == b.dtype
            indptr, indices = got
            assert indptr.dtype == np.int64 and indptr.size == graph.n + 1
            rows = [indices[a:b].tolist() for a, b in zip(indptr, indptr[1:])]
            assert rows == self.same_color_rows(graph, color_of)
