"""The package's public surface: exported names and the README's library examples."""

from __future__ import annotations

import re
from pathlib import Path

import mcfgkit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exported_names_are_bound_once():
    assert len(mcfgkit.__all__) == len(set(mcfgkit.__all__))
    missing = [name for name in mcfgkit.__all__ if not hasattr(mcfgkit, name)]
    assert missing == []


def test_readme_library_examples_run():
    # the python blocks under "## Library use" build on each other, so they
    # run in order in one namespace
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
