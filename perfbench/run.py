"""Benchmark entry point for the ``repro sweep`` path.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dra-fast-n1024 --seed 1 \\
        --seconds 20 --trace 0

Prints a human-readable report, then as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ledger with
``--trace 1``.  Exits 1 when the correctness gate fails and 2 when the
checkout holds no program source.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import sys
import traceback
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Native thread pools pinned to one thread, so only ``--jobs`` adds cores.
PINNED = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
#: Program knobs removed, so every run uses the numpy kernels and the
#: default batch edge budget.
UNSET = ("REPRO_JIT", "REPRO_JIT_THREADS", "REPRO_BATCH_EDGE_BUDGET")


def pin_environment() -> None:
    """Apply :data:`PINNED` / :data:`UNSET` (before numpy is imported)."""
    os.environ.update(PINNED)
    for name in UNSET:
        os.environ.pop(name, None)


def build_parser() -> argparse.ArgumentParser:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    source = ROOT / "src" / "repro" / "__init__.py"
    if not source.is_file():
        print(f"perfbench: no program source at {source}", file=sys.stderr)
        return 2
    pin_environment()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    args = build_parser().parse_args(argv)

    import numpy
    import repro

    from perfbench.measure import measure
    from perfbench.workloads import WORKLOADS, nproc

    if Path(repro.__file__).resolve() != source.resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {source}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workload = replace(workload, jobs=min(workload.jobs, nproc()))
    environment = {
        "nproc": nproc(), "jobs": workload.jobs,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        **{name: os.environ.get(name) for name in (*PINNED, *UNSET)},
    }
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        outcome = measure(workload, args.seed, args.seconds, bool(args.trace),
                          workdir, root=ROOT)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": workload.trials,
                          "failed": workload.trials, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("environment " + json.dumps(environment, sort_keys=True))
    for line in outcome.report:
        print(line)
    print(outcome.result_line())
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
