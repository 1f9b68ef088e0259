"""The package's surface is the README "Library" section.

The section's Python blocks run as written, in one namespace, in
order (the second reads the ``rep`` the first builds), and
``poincarelab.__all__`` names exactly what they import from the package,
plus ``__version__``; a submodule they import (``gridlab``) is reached
through its module, not exported.
"""

import ast
import contextlib
import importlib.util
import io
import re
from pathlib import Path

import poincarelab

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_blocks() -> list[str]:
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def _imported_names(blocks) -> set[str]:
    """What the blocks import from the package itself, submodules aside."""
    names = set()
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "poincarelab":
                names.update(alias.name for alias in node.names)
    return {n for n in names
            if importlib.util.find_spec(f"poincarelab.{n}") is None}


def test_library_examples_run():
    blocks = _library_blocks()
    assert len(blocks) >= 2
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].all_passed()


def test_exports_are_what_the_library_section_imports():
    names = _imported_names(_library_blocks())
    assert names
    assert len(poincarelab.__all__) == len(set(poincarelab.__all__))
    assert set(poincarelab.__all__) == names | {"__version__"}
    assert all(hasattr(poincarelab, name) for name in poincarelab.__all__)
