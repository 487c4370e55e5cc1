"""Canary: the numpy draws every record depends on, pinned by fingerprint.

Graph generation, seeding and every engine's per-node streams read
numpy's ``Generator`` methods and ``SeedSequence`` spawning, and
numpy does not promise that these streams stay the same across
feature releases (NEP 19).  A release that moves one of them would
otherwise fail every records-digest pin at once with no named cause;
here it fails the one case named after the call that moved.

Each fingerprint is the first 16 hex digits of a SHA-256 over the
call's outputs, a few seeds and sizes each, taken as int64 or uint64.
"""

import hashlib

import numpy as np
import pytest

SEEDS = (0, 7, 2**40 + 3)


def _binomial():
    # graphs.gnp and batch_gnp draw a graph's edge count this way.
    for seed in SEEDS:
        for total, p in ((1128, 0.5), (130_816, 0.05), (523_776, 0.001)):
            yield np.int64(np.random.default_rng(seed).binomial(total, p))


def _permutation():
    # The dense branch of graphs._sampling.sample_distinct.
    for seed in SEEDS:
        for upper in (10, 1000):
            yield np.random.default_rng(seed).permutation(upper)


def _integers_small():
    # Walk, BFS tie-break and partition draws: scalar and vector forms.
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        yield np.array([rng.integers(bound) for bound in (1, 2, 3, 7, 48, 1000)])
        yield rng.integers(0, 48, size=64)
        yield rng.integers(0, 1000, size=32, dtype=np.int64)


def _integers_near_2_32():
    # Edge-index draws of graphs._sampling on large pair pools.
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for upper in (2**31 + 1, 2**32 - 5, 2**32, 2**32 + 1):
            yield rng.integers(0, upper, size=16, dtype=np.int64)
            yield np.int64(rng.integers(upper))


def _choice():
    # The sparse branch of graphs._sampling.sample_distinct.
    for seed in SEEDS:
        for population, k in ((100, 10), (5000, 4000), (70_000, 3)):
            yield np.random.default_rng(seed).choice(population, k, replace=False)


def _spawn():
    # Per-node streams: SeedSequence(seed).spawn(n) children's state.
    for seed in SEEDS:
        for n in (1, 5, 64):
            for child in np.random.SeedSequence(seed).spawn(n):
                yield child.generate_state(4, np.uint64)
        yield np.random.SeedSequence(seed).generate_state(1, np.uint64)


CALLS = {
    "Generator.binomial": (_binomial, "280362b5837ab9cd"),
    "Generator.permutation": (_permutation, "f12f13c25d10610c"),
    "Generator.integers(small bounds)": (_integers_small, "6d7b0320990fe359"),
    "Generator.integers(bounds near 2**32)": (_integers_near_2_32,
                                              "761e9863888b73e4"),
    "Generator.choice(replace=False)": (_choice, "bb3a0b954008f2c4"),
    "SeedSequence.spawn(n).generate_state": (_spawn, "75f99e0d072433ab"),
}


def fingerprint(outputs) -> str:
    digest = hashlib.sha256()
    for out in outputs:
        out = np.asarray(out)
        dtype = np.uint64 if out.dtype == np.uint64 else np.int64
        digest.update(np.ascontiguousarray(out, dtype=dtype).tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("call", sorted(CALLS))
def test_numpy_draws_are_pinned(call):
    draws, pinned = CALLS[call]
    got = fingerprint(draws())
    assert got == pinned, (
        f"numpy {np.__version__} moved {call}: fingerprint {got}, pinned "
        f"{pinned}; every records digest that reads this call moves with it")
