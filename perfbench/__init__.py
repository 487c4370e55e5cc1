"""The repository benchmark: ``repro sweep`` workloads timed end to end,
plus a per-layer ledger recorded from outside the program.

Entry point: ``python3 perfbench/run.py`` (see ``perfbench/README.md``).
"""
