"""The ``>>>`` examples in ``repro``'s docstrings run and print what they show.

Every module under ``src/repro`` whose source holds an example is
collected here, so an example added later runs without registering it.
"""

import doctest
import importlib
from pathlib import Path

import pytest

import repro

_ROOT = Path(repro.__file__).parent


def _modules_with_examples() -> list[str]:
    names = []
    for path in sorted(_ROOT.rglob("*.py")):
        if ">>>" not in path.read_text(encoding="utf-8"):
            continue
        parts = path.relative_to(_ROOT.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


MODULES = _modules_with_examples()


def test_examples_are_collected():
    assert "repro.graphs.adjacency" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    module = importlib.import_module(name)
    runner = doctest.DocTestRunner()
    report: list[str] = []
    for test in doctest.DocTestFinder().find(module):
        runner.run(test, out=report.append)
    assert runner.tries > 0, f"{name} has no runnable examples"
    assert runner.failures == 0, "".join(report)
