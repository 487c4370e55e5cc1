"""The coupon-collector process behind Theorem 2.

The proof of Theorem 2 relates the rotation walk to a relaxed process:
"every node has equal probability 1/n to be chosen in every step of
growing the path", i.e. collecting n coupons at 1/n each, followed by a
geometric wait for the closing edge.  This module computes that
relaxed process in closed form (its expected length, the two failure
bounds of the proof and the step budget they give) and simulates it
step by step.  Theorem 2's 7·n·ln n is an upper bound on the relaxed
process itself.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "expected_coupon_steps",
    "coupon_failure_bound",
    "closure_failure_bound",
    "simulate_relaxed_walk",
    "theorem2_budget",
]


def expected_coupon_steps(n: int) -> float:
    """Expected steps to collect ``n`` coupons at 1/n each: ``n * H_n``."""
    if n <= 0:
        return 0.0
    harmonic = sum(1.0 / i for i in range(1, n + 1))
    return n * harmonic


def coupon_failure_bound(n: int, steps: float) -> float:
    """Union bound on missing any coupon after ``steps`` draws.

    The proof's E1 computation: ``n * (1 - 1/n)^steps <= n * e^(-steps/n)``.
    With ``steps = 4 n ln n`` this is ``n^-3`` — the paper's figure.
    """
    if n <= 1:
        return 0.0
    return min(1.0, n * math.exp(-steps / n))


def closure_failure_bound(n: int, steps: float) -> float:
    """Probability the closing edge is missed for ``steps`` further draws.

    The proof's second phase: each step closes with probability 1/n, so
    ``(1 - 1/n)^steps <= e^(-steps/n)`` (``n^-3`` at ``3 n ln n``).
    """
    if n <= 1:
        return 0.0
    return min(1.0, math.exp(-steps / n))


def theorem2_budget(n: int, *, alpha: float = 3.0) -> float:
    """Steps after which the relaxed process fails with prob ``O(n^-alpha)``.

    The paper proves failure ``O(1/n^3)`` at ``7 n ln n`` steps and
    notes the technique extends to any ``alpha``; solving the two
    bounds above gives ``(alpha + 1) n ln n + alpha n ln n`` steps.
    """
    if n < 2:
        return 1.0
    return (2 * alpha + 1) * n * math.log(n)


def simulate_relaxed_walk(
    n: int, *, rng: np.random.Generator | int = 0, step_cap: int | None = None,
) -> tuple[bool, int]:
    """Run the relaxed process once; returns ``(closed, steps_used)``.

    Phase 1 draws uniform nodes until all are seen; phase 2 draws until
    the 1/n closing event fires.  ``step_cap`` defaults to Theorem 2's
    ``7 n ln n``.
    """
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    if n < 3:
        return False, 0
    cap = step_cap if step_cap is not None else int(7 * n * math.log(n)) + 1
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    collected = 1
    steps = 0
    while steps < cap:
        steps += 1
        draw = int(gen.integers(n))
        if not seen[draw]:
            seen[draw] = True
            collected += 1
            if collected == n:
                break
    if collected < n:
        return False, steps
    while steps < cap:
        steps += 1
        if int(gen.integers(n)) == 0:  # the closing edge event
            return True, steps
    return False, steps
