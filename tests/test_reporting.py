"""Tests for the reporting subpackage (the table renderer) and for
``benchmarks/conftest.show``, which prints every benchmark table through it."""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reporting import render_table
from repro.reporting.table import format_cell

_CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


def _benchmark_show():
    # Loaded under its own name: ``conftest`` is this suite's module.
    spec = importlib.util.spec_from_file_location("benchmarks_conftest", _CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.show


class TestFormatCell:
    def test_integral_float_drops_decimals(self):
        assert format_cell(42.0) == "42"

    def test_precision_applied(self):
        assert format_cell(3.14159, precision=3) == "3.14"

    def test_bool_stays_bool(self):
        assert format_cell(True) == "True"

    def test_strings_pass_through(self):
        assert format_cell("dhc2") == "dhc2"


class TestRenderTable:
    def test_alignment(self):
        out = render_table(["n", "rounds"], [[64, 112], [4096, 23057]])
        lines = out.splitlines()
        assert lines[0].startswith("n")
        assert lines[1].startswith("---")
        # Columns align: 'rounds' starts at the same index everywhere.
        col = lines[0].index("rounds")
        assert lines[2][col:].strip() == "112"
        assert lines[3][col:].strip() == "23057"

    def test_title(self):
        out = render_table(["a"], [[1]], title="E1")
        assert out.splitlines()[0] == "E1"

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            render_table(["a", "b"], [[1]])

    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 10**6), st.floats(0.1, 1e6)),
            min_size=1, max_size=8),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_row_renders(self, rows):
        out = render_table(["x", "y"], rows)
        assert len(out.splitlines()) == 2 + len(rows)



class TestBenchmarkShow:
    def test_prints_render_table(self, capsys):
        header, rows = ["n", "rounds", "ratio"], [(64, 112, 1.75), (256, 230.0, 0.8984)]
        _benchmark_show()("E1", header, rows)
        expected = render_table(header, rows, title="\n=== E1 ===", precision=4)
        assert capsys.readouterr().out == expected + "\n"

    def test_floats_keep_four_significant_digits(self, capsys):
        _benchmark_show()("E2", ["x", "y"], [(3.14159265, 42.0)])
        row = capsys.readouterr().out.splitlines()[-1]
        assert row.split() == ["3.142", "42"]

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            _benchmark_show()("E3", ["a", "b"], [(1,)])
