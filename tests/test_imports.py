"""Every imported name is read: the package, the tests and the scripts import nothing unused.
Every function, class and method the package defines is read by the package.

``perfbench/`` is left out; ``__init__.py`` imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(p for p in (ROOT / "src" / "negclap").glob("*.py") if p.name != "__init__.py")
# pyproject.toml's console script, which Python reads
ENTRY_POINTS = {"cli.entrypoint"}
# definitions no package module reads, kept for a reader outside the package
UNREAD_KEPT = {
    # perfbench, which is frozen, encodes the test split's Caption objects with it
    # (workloads._checked_retrieval)
    "model.encode_text_batch",
    # the scalar definition of the bucket hash, which the array hashing is tested against
    "model.hash_bucket",
}
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


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level function and class, and ``module.Class.name``
    of each method, that no module of ``sources`` (module name -> source) reads.

    A function or class is read when its name is loaded or read as an
    attribute, a method when it is read as an attribute.  Dunders are left
    out: Python calls them.
    """
    defined, names, attributes = [], set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name, False))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{item.name}", item.name, True)
                            for item in node.body if isinstance(item, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return sorted(qualified for qualified, name, method in defined
                  if not (name.startswith("__") and name.endswith("__"))
                  and name not in attributes and (method or name not in names))


def test_finds_a_definition_that_is_never_read():
    sources = {"a": ("class C:\n    def used(self): pass\n    def unused(self): pass\n"
                     "    def __len__(self): return 0\n"
                     "def f(): return C().used\ndef g(): pass\ndef h(): pass\n"),
               "b": "from a import f\nf()\nimport a\na.g()\n"}
    assert unread_definitions(sources) == ["a.C.unused", "a.h"]


def test_every_package_definition_is_read():
    unread = unread_definitions({p.stem: p.read_text(encoding="utf-8") for p in PACKAGE})
    assert UNREAD_KEPT <= set(unread)  # a kept entry no longer unread leaves the list
    assert [name for name in unread if name not in UNREAD_KEPT | ENTRY_POINTS] == []
