"""Documentation consistency: README code blocks actually run."""

from __future__ import annotations

import importlib.util
import pathlib
import re

import pytest


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
DESIGN = README.parent / "DESIGN.md"
EXAMPLES = sorted((README.parent / "examples").glob("*.py"))


def python_blocks() -> list[str]:
    text = README.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def test_readme_exists_with_key_sections():
    text = README.read_text()
    for heading in ("## Install", "## Quickstart", "## Architecture",
                    "## Reproducing the paper's evaluation", "## Limitations"):
        assert heading in text


def test_readme_python_blocks_execute():
    blocks = python_blocks()
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, "<README>", "exec"), {})  # noqa: S102


def test_readme_mentions_every_figure_bench():
    from repro.experiments.reporting import _sections

    text = README.read_text()
    for section in _sections():
        assert f"`{section.key}`" in text, section.key


def test_design_doc_covers_experiments_and_substitutions():
    text = DESIGN.read_text()
    for marker in ("Fig. 3", "Fig. 9(a)", "Table I", "Fig. 12", "Fig. 14",
                   "Fig. 16", "substitution", "Graphlet"):
        assert marker.lower() in text.lower(), marker


def test_examples_listed_in_readme_exist():
    text = README.read_text()
    examples_dir = README.parent / "examples"
    for match in re.findall(r"examples/(\w+)\.py", text):
        assert (examples_dir / f"{match}.py").exists(), match


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    """Every example resolves the public names it imports; ``main()``
    stays unrun because the module is not ``__main__``."""
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
