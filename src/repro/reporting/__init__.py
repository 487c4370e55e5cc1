"""Plain-text tables: the one table renderer of the package.

:func:`~repro.reporting.table.render_table` aligns rows under a header
and formats each cell with :func:`~repro.reporting.table.format_cell`.
The CLI's text output (``repro run``, ``sweep``, ``engines``,
``graph`` and ``bounds``), :mod:`repro.trace`'s per-kind traffic
table, the examples and every benchmark (through
``benchmarks/conftest.show``) print through it.
"""

from repro.reporting.table import render_table

__all__ = ["render_table"]
