#!/usr/bin/env python
"""Advisory bench-regression check: a fresh run vs a committed baseline.

Usage::

    python benchmarks/check_bench.py FRESH.json BASELINE.json \
        [--tolerance 0.5] [--drift 0.25]

Walks both JSON payloads in parallel and compares every numeric leaf
present in *both* (paths only one side has — e.g. a smoke run's reduced
size grid — are skipped and counted).  A list whose elements are all
numbers (and at least two of them) is treated as *repeated samples of
one measurement* and collapsed to its median before comparison — so
benchmarks can record every repeat honestly while the advisory check
sees one noise-damped value per leaf instead of racing element 0 of a
fresh run against element 0 of the baseline.  Mixed or single-element
lists still flatten element-wise (``path.0``, ``path.1``, ...):

* **rate-like** leaves (key contains ``per_sec`` or ``speedup``):
  lower is worse; a regression is ``fresh < baseline * (1 - tolerance)``.
  The band is wide by default because smoke timings on shared CI
  runners are noisy — this is an advisory tripwire, not a perf gate.
* **cost-like** leaves (key contains ``seconds``, ``setup_fraction``,
  ``overhead_fraction``, ``latency``, or a ``_p90``/``_p99``
  percentile marker): higher is worse; a regression is
  ``fresh > baseline * (1 + tolerance)``.  The percentile markers let
  benchmarks gate on *distribution tails* from harness metrics
  payloads (``latency_p90_s``, ``latency_p99_s``, ...) instead of
  only scalar medians — a p99 blow-up with a healthy median is
  exactly the regression a median-only check misses.
* **count-like** leaves (rounds, words, sizes — everything else):
  deterministic given the seed tree, so any relative drift beyond
  ``--drift`` means the *behaviour* changed, which is exactly what a
  committed ``BENCH_*.json`` exists to catch.

Exit status: 0 when everything in-band, 2 on any regression/drift,
1 on unusable inputs.  CI wires this into the perf-smoke steps with
``continue-on-error`` and a ``::warning::`` annotation — advisory, not
gating (see .github/workflows/ci.yml).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

RATE_MARKERS = ("per_sec", "speedup")

#: Inverse-rate leaves: wall-clock costs, setup/overhead shares, and
#: latency distribution fields (including p90/p99 percentile tails
#: from harness metrics payloads), where a *higher* fresh value is the
#: regression.  Rate markers take precedence (``trials_per_sec_p90``
#: would still be rate-like).
COST_MARKERS = ("seconds", "setup_fraction", "overhead_fraction",
                "latency", "_p90", "_p99")

#: Top-level payload keys that describe the run's *configuration*
#: (size grids, seeds, density constants).  A smoke run legitimately
#: overrides these, so they carry no regression signal.
CONFIG_KEYS = frozenset({
    "sizes", "native_sizes", "ks", "seed", "c", "delta", "trials",
    "shared_n", "congest_max", "dhc2_max",
    "n", "drops", "churn",
})


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def numeric_leaves(payload, prefix=""):
    """Flatten to {dotted.path: float} over int/float leaves.

    All-numeric lists of two or more elements are repeated samples of
    one measurement: they collapse to their median at the list's own
    path (see the module docstring).
    """
    out = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            out.update(numeric_leaves(value, f"{prefix}{key}."))
    elif isinstance(payload, list):
        if len(payload) >= 2 and all(_is_number(v) for v in payload):
            out[prefix[:-1]] = float(statistics.median(payload))
        else:
            for index, value in enumerate(payload):
                out.update(numeric_leaves(value, f"{prefix}{index}."))
    elif _is_number(payload):
        out[prefix[:-1]] = float(payload)
    return out


def compare(fresh: dict, baseline: dict, tolerance: float,
            drift: float) -> tuple[list[str], int, int]:
    """(problems, compared, skipped) over the shared numeric leaves."""
    fresh_leaves = {p: v for p, v in numeric_leaves(fresh).items()
                    if p.split(".", 1)[0] not in CONFIG_KEYS}
    base_leaves = {p: v for p, v in numeric_leaves(baseline).items()
                   if p.split(".", 1)[0] not in CONFIG_KEYS}
    shared = sorted(set(fresh_leaves) & set(base_leaves))
    skipped = len(set(fresh_leaves) ^ set(base_leaves))
    problems = []
    for path in shared:
        new, old = fresh_leaves[path], base_leaves[path]
        is_rate = any(marker in path for marker in RATE_MARKERS)
        is_cost = not is_rate and any(m in path for m in COST_MARKERS)
        if is_rate:
            floor = old * (1.0 - tolerance)
            if new < floor:
                problems.append(
                    f"rate regression at {path}: {new:g} < {floor:g} "
                    f"(baseline {old:g}, tolerance {tolerance:.0%})")
        elif is_cost:
            ceiling = old * (1.0 + tolerance)
            if new > ceiling:
                problems.append(
                    f"cost regression at {path}: {new:g} > {ceiling:g} "
                    f"(baseline {old:g}, tolerance {tolerance:.0%})")
        elif old != 0 and abs(new - old) / abs(old) > drift:
            problems.append(
                f"count drift at {path}: {new:g} vs baseline {old:g} "
                f"(> {drift:.0%})")
        elif old == 0 and new != 0:
            problems.append(f"count drift at {path}: {new:g} vs baseline 0")
    return problems, len(shared), skipped


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="JSON payload from the fresh run")
    parser.add_argument("baseline", help="committed BENCH_*.json baseline")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="allowed fractional slowdown on rate-like "
                             "leaves (default 0.5 = half the baseline rate)")
    parser.add_argument("--drift", type=float, default=0.25,
                        help="allowed relative drift on count-like leaves")
    args = parser.parse_args(argv)

    try:
        fresh = json.loads(Path(args.fresh).read_text())
        baseline = json.loads(Path(args.baseline).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"check_bench: unusable input: {exc}", file=sys.stderr)
        return 1

    problems, compared, skipped = compare(fresh, baseline, args.tolerance,
                                          args.drift)
    label = f"{Path(args.fresh).name} vs {Path(args.baseline).name}"
    if not compared:
        print(f"check_bench: {label}: no shared numeric leaves "
              f"({skipped} unmatched) — nothing to compare", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"check_bench: {problem}", file=sys.stderr)
    print(f"check_bench: {label}: {compared} leaves compared, "
          f"{skipped} unmatched, {len(problems)} out of band")
    return 2 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
