"""Theoretical bounds from the paper, as executable formulas.

Two distinct uses:

1. *Round budgets inside the protocols.*  CONGEST nodes know ``n`` (and
   the model parameters), so they can compute whp bounds locally and use
   them as deadlines — e.g. how long to flood during leader election.
   Budgets are deliberately generous (failure turns into an *observable*
   protocol failure, which experiment E6 measures).

2. *Predicted curves for the benchmarks.*  Each experiment
   (``benchmarks/bench_e*.py``, indexed by paper claim in
   docs/BENCHMARKS.md) compares a measured series against the
   corresponding ``predicted_*`` function up to a fitted constant.

References into the paper: Theorem 1 and 2 (DRA/DHC1), Theorem 10
(DHC2), Theorems 17/19 (Upcast), the diameter facts of [5] (Chung–Lu),
[2] (Bollobás, "Fact 2") and [17] (Klee–Larman, "Fact 3").
"""

from __future__ import annotations

import math

__all__ = [
    "dra_step_budget",
    "diameter_bound_sparse",
    "diameter_budget",
    "bfs_deadline",
    "class_size_cap",
    "predicted_dra_steps",
    "predicted_dhc1_rounds",
    "predicted_dhc2_rounds",
    "predicted_upcast_rounds",
    "klee_larman_diameter",
    "partition_size_bounds",
    "fit_power_law",
]


def dra_step_budget(n_sub: int, *, factor: float = 7.0, slack: int = 64) -> int:
    """Theorem 2's step budget ``7 n ln n`` for a DRA run on ``n_sub`` nodes.

    ``factor`` follows the theorem; the additive ``slack`` keeps tiny
    subgraphs (where ``ln n`` is below 1) from starving.
    """
    if n_sub < 1:
        return slack
    return int(factor * n_sub * max(1.0, math.log(n_sub))) + slack


def diameter_bound_sparse(n_sub: int, *, factor: float = 6.0, slack: int = 8) -> int:
    """A whp diameter upper bound for G(n', p') at/above the HC threshold.

    Chung–Lu [5] give ``Theta(ln n / ln ln n)`` for ``p = Theta(ln n/n)``;
    denser graphs only shrink the diameter, so this is a safe budget for
    every subgraph our protocols broadcast over.  The constants are
    generous on purpose (see module docstring).
    """
    if n_sub < 3:
        return 1 + slack
    scale = math.log(n_sub) / max(1.0, math.log(math.log(n_sub)))
    return int(factor * scale) + slack


def diameter_budget(n_sub: int) -> int:
    """Round budget for one flood/broadcast over a subgraph of size ``n_sub``."""
    return diameter_bound_sparse(n_sub)


def bfs_deadline(start: int, budget: int) -> int:
    """The round by which a BFS build begun at ``start`` must commit.

    ``budget`` is the diameter budget of the participant graph: the
    explore wave, the done convergecast and the commit broadcast each
    fit in one budget, plus slack.  Reaching the deadline first marks
    the build failed (a disconnected partition).
    """
    return start + 3 * budget + 8


def class_size_cap(n: int, colors: int) -> int:
    """The size a Phase-1 colour class budgets its floods for.

    Lemma 4/7 keep every class below twice its mean ``n / colors``
    whp; the floor of 3 is the smallest class a rotation walk can close.
    """
    return max(3, (2 * n) // max(1, colors))


def dra_round_budget(n_sub: int, step_budget: int | None = None) -> int:
    """A safe ``max_rounds`` for one DRA run on ``n_sub`` participants.

    Worst case every step is a rotation costing one tree flood
    (``2 * tree_depth + 2`` rounds); setup (election + BFS) adds a few
    diameters.  Real executions are far below this — it is a watchdog,
    not a prediction (see :func:`predicted_dra_steps` for the shape).
    """
    if step_budget is None:
        step_budget = dra_step_budget(n_sub)
    diam = diameter_budget(n_sub)
    return 6 * diam + step_budget * (2 * diam + 4) + 128


def predicted_dra_steps(n_sub: int) -> float:
    """Theorem 2 shape: steps = O(n ln n)."""
    return n_sub * max(1.0, math.log(n_sub))


def predicted_dhc1_rounds(n: int) -> float:
    """Theorem 1 shape: ``sqrt(n) * (ln n)^2 / ln ln n`` rounds."""
    if n < 3:
        return 1.0
    return math.sqrt(n) * math.log(n) ** 2 / max(1.0, math.log(math.log(n)))


def predicted_dhc2_rounds(n: int, delta: float) -> float:
    """Theorem 10 shape: ``n**delta * (ln n)^2 / ln ln n`` rounds."""
    if n < 3:
        return 1.0
    return n**delta * math.log(n) ** 2 / max(1.0, math.log(math.log(n)))


def predicted_upcast_rounds(n: int, p: float) -> float:
    """Theorem 19 shape: ``log n / p`` rounds."""
    if n < 3 or p <= 0:
        return 1.0
    return math.log(n) / p


def klee_larman_diameter(eps: float) -> int:
    """Fact 3 [17]: diameter ``ceil(1/eps)`` whp for ``p = c log n / n**(1-eps)``."""
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    return math.ceil(1.0 / eps)


def partition_size_bounds(n: int, colors: int) -> tuple[float, float]:
    """Lemma 4/7 concentration window ``[1/2, 3/2] * n/colors``."""
    if colors < 1:
        raise ValueError("need at least one colour")
    expected = n / colors
    return 0.5 * expected, 1.5 * expected


def fit_power_law(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Least-squares fit ``y = a * x**b`` in log space; returns ``(a, b)``.

    Used by the scaling experiments (E2/E3/E5) to extract the measured
    exponent and compare against the theorem's prediction.  Raises
    ``ValueError`` unless the xs have at least two distinct values; a
    prefactor too large for a float is returned as ``math.inf``.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) pairs to fit")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("power-law fit requires positive data")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    mx = sum(lx) / n
    my = sum(ly) / n
    sxx = sum((v - mx) ** 2 for v in lx)
    if sxx == 0:
        raise ValueError("power-law fit needs at least two distinct x values")
    sxy = sum((u - mx) * (v - my) for u, v in zip(lx, ly))
    b = sxy / sxx
    try:
        a = math.exp(my - b * mx)
    except OverflowError:  # a steep fit over close xs; b is still exact
        a = math.inf
    return a, b
