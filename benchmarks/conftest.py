"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one experiment from the paper-figure index
in ``docs/BENCHMARKS.md``: it prints the paper-style series through
:func:`show`, which renders it with
:func:`repro.reporting.render_table` (visible with ``pytest
benchmarks/ --benchmark-only -s``), attaches the series to the
pytest-benchmark record via ``extra_info``, and asserts the *shape*
the paper predicts (fitted exponents, orderings, crossovers) — not
absolute numbers.

Monte Carlo sweeps go through :func:`harness_sweep` — the same
runner/store/seed-tree layer (:mod:`repro.harness`) the CLI and
examples use — instead of hand-rolled seed loops, so benchmark trials
share the library's determinism guarantees and can be parallelised
without touching the experiment code.
"""

from __future__ import annotations

import math

from repro.analysis import fit_power_law
from repro.harness import MemoryStore, ParallelTrialRunner, TrialRunner
from repro.reporting import render_table


def harness_sweep(trial_fn, points, *, trials, master_seed, jobs=1):
    """Run a benchmark sweep through the harness orchestration layer.

    ``trial_fn(point, seed)`` follows the
    :class:`~repro.harness.TrialRunner` contract (return a
    ``RunResult`` or a mapping with ``success``).  Records land in a
    :class:`~repro.harness.MemoryStore` (benchmarks re-run from
    scratch by design); seeds derive from ``(master_seed, point #,
    trial #)`` whatever ``jobs`` says, so a benchmark's
    numbers are identical serial or parallel.
    """
    store = MemoryStore()
    if jobs and jobs > 1:
        runner = ParallelTrialRunner(trial_fn, master_seed=master_seed,
                                     store=store, jobs=jobs)
    else:
        runner = TrialRunner(trial_fn, master_seed=master_seed, store=store)
    return runner.run(points, trials=trials)


def show(title: str, header: list[str], rows: list[tuple]) -> None:
    """Print an experiment table through :func:`render_table`.

    The title opens with a blank line, so under ``pytest -s`` the table
    does not run on from the progress dots.
    """
    print(render_table(header, rows, title=f"\n=== {title} ===", precision=4))


def fitted_exponent(xs: list[float], ys: list[float]) -> float:
    """Least-squares power-law exponent of a measured series."""
    _a, b = fit_power_law(xs, ys)
    return b


def polylog_corrected(ys: list[float], ns: list[float]) -> list[float]:
    """Divide out the paper's ``ln^2 n / ln ln n`` polylog factor so the
    fitted exponent isolates the ``n**delta`` part of the bound."""
    out = []
    for y, n in zip(ys, ns):
        corr = math.log(n) ** 2 / max(1.0, math.log(math.log(n)))
        out.append(y / corr)
    return out
