#!/usr/bin/env python
"""Mini scaling study: reproduce the shape of Theorem 10 interactively.

Sweeps n at two densities on the fast engine (decision-identical to
the CONGEST simulator; see "The array kernel layer" in
docs/ARCHITECTURE.md) and fits the round-complexity
exponent, printing the comparison against the paper's O~(n^delta).

The sweep runs through the harness orchestration layer — the same
grid/runner/seed-tree machinery as ``repro sweep`` — on a worker pool
whose workers pull small chunks as they free up, so no worker idles
behind the n=2048 column, and the numbers reproduce bit for bit serial
or parallel.

Run:  python examples/scaling_study.py
"""

import repro
from repro.analysis import fit_power_law
from repro.graphs import gnp_random_graph, paper_probability
from repro.harness import ParallelTrialRunner, group_by

ATTEMPTS = 4  # graph re-samples per n (sparse corners can miss)


class Dhc2Trial:
    """One (n, attempt) trial at a fixed delta; picklable for workers."""

    def __init__(self, delta: float, c: float):
        self.delta = delta
        self.c = c

    def __call__(self, point: dict, seed: int):
        n = point["n"]
        p = paper_probability(n, self.delta, self.c)
        g = gnp_random_graph(n, p, seed=seed)
        return repro.run(g, "dhc2", engine="fast", delta=self.delta,
                         seed=seed + 1)


def sweep(delta: float, sizes: list[int], c: float = 8.0) -> None:
    print(f"\ndelta = {delta:.2f}  (p = {c} ln n / n^{delta:.2f})")
    runner = ParallelTrialRunner(Dhc2Trial(delta, c), master_seed=1729)
    trials = runner.run([{"n": n} for n in sizes], trials=ATTEMPTS)

    ns, rounds = [], []
    for n, bucket in group_by(trials, "n").items():
        # First successful attempt per n, like an interactive retry loop.
        hit = next((t for t in bucket if t.success), None)
        shown = hit if hit is not None else bucket[-1]
        print(f"  n={n:>5}  rounds={int(shown.metrics['rounds']):>7}  "
              f"{'ok' if shown.success else 'FAILED'}  "
              f"({sum(t.success for t in bucket)}/{len(bucket)} attempts ok)")
        if hit is not None:
            ns.append(float(n))
            rounds.append(float(hit.metrics["rounds"]))
    if len(ns) >= 2:
        _a, b = fit_power_law(ns, rounds)
        print(f"  fitted exponent: {b:.3f}   (paper: {delta:.2f} x polylog factors)")


def main() -> None:
    print("DHC2 round-complexity scaling (Theorem 10: O~(n^delta))")
    sweep(0.5, [256, 576, 1024, 2048])
    sweep(2 / 3, [216, 512, 1000])


if __name__ == "__main__":
    main()
