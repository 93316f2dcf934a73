"""Every imported name is read: the package, the tests and the scripts import nothing unused.

``perfbench/`` is left out; ``__init__.py`` imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted([p for p in (ROOT / "src" / "negclap").glob("*.py") if p.name != "__init__.py"]
                 + [*(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_finds_a_name_that_is_never_read():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from typing import Iterator, Sequence\n"
              "def f(xs: Sequence[int]) -> None:\n    np.sum(xs)\n")
    assert unused_imports(source) == [(2, "os"), (4, "Iterator")]


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
