"""``scripts/check_docs.py``: broken markdown links and doc names in code."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_docs.py"


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def clean_tree(root: Path) -> Path:
    """A repo whose links and code references all resolve."""
    (root / "docs").mkdir()
    (root / "docs" / "GUIDE.md").write_text("# Guide\n\n## Layers\n")
    (root / "README.md").write_text(
        "See [the guide](docs/GUIDE.md#layers) and [the repo](https://x.org).\n")
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "mod.py").write_text(
        '"""Layers: see docs/GUIDE.md and README.md."""\n')
    return root


def test_clean_tree_passes(check_docs, tmp_path, capsys):
    assert check_docs.main([str(clean_tree(tmp_path))]) == 0
    assert "0 broken" in capsys.readouterr().out


def test_broken_markdown_link_fails(check_docs, tmp_path, capsys):
    root = clean_tree(tmp_path)
    (root / "docs" / "GUIDE.md").write_text(
        "# Guide\n\n[gone](MISSING.md) and [no heading](../README.md#nope)\n")
    assert check_docs.main([str(root)]) == 1
    err = capsys.readouterr().err
    assert "docs/GUIDE.md:3: MISSING.md does not exist" in err
    assert "../README.md#nope: no such heading" in err


@pytest.mark.parametrize("folder", ["src", "benchmarks", "examples", "scripts"])
def test_broken_code_reference_fails(check_docs, tmp_path, capsys, folder):
    root = clean_tree(tmp_path)
    (root / folder).mkdir(exist_ok=True)
    (root / folder / "job.py").write_text(
        "# The rule is recorded in DESIGN.md,\n# and in docs/README.md.\n")
    assert check_docs.main([str(root)]) == 1
    err = capsys.readouterr().err
    assert f"{folder}/job.py:1: DESIGN.md does not exist" in err
    assert f"{folder}/job.py:2: docs/README.md does not exist" in err


def test_code_outside_the_code_folders_is_not_read(check_docs, tmp_path):
    root = clean_tree(tmp_path)
    (root / "tests").mkdir()
    (root / "tests" / "test_x.py").write_text("# DESIGN.md\n")
    assert check_docs.main([str(root)]) == 0
