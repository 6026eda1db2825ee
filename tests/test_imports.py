"""Every module-level import in ``src/ducg`` is used by its module, and so is
every module-level private name: a ``_``-prefixed function, class or constant
that nothing reads is left over from a deletion. So is a ``_``-prefixed
attribute that the package stores (``self._name = …``) and never reads.

``__init__.py`` is left out of the per-module checks: its imports are the
package's re-exports.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).resolve().parents[1] / "src" / "ducg").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def _loads(node: ast.AST) -> Counter:
    return Counter(
        n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    )


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unused_private_names(source: str) -> list[str]:
    """Module-level ``_``-prefixed functions, classes and constants that the
    module never reads; a definition's reads of itself (recursion) do not count."""
    tree = ast.parse(source)
    loads = _loads(tree)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _is_private(node.name):
                defined.append(node.name)
                loads[node.name] -= _loads(node)[node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name) and _is_private(t.id)]
    return [name for name in defined if loads[name] <= 0]


def unread_private_attributes(sources: list[str]) -> list[str]:
    """``_``-prefixed attributes that some source stores and none reads, an
    attribute read anywhere counting for every object."""
    stored, loaded = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and _is_private(node.attr):
                if isinstance(node.ctx, ast.Store):
                    stored.add(node.attr)
                elif isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
    return sorted(stored - loaded)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = "from typing import Iterator, Mapping\nimport os.path\n\nx: Mapping = {}\n"
    assert unused_imports(source) == ["Iterator", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_private_name(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


def test_unused_private_name_is_found():
    source = (
        "_LIMIT = 3\n_CAP: int = 2\n__all__ = []\n\n"
        "def _walk(n):\n    return _walk(n - 1) if n else _LIMIT\n\n"
        "class _Node:\n    pass\n\n"
        "def _used():\n    return _Node()\n\n"
        "def public():\n    return _used()\n"
    )
    assert unused_private_names(source) == ["_CAP", "_walk"]


def test_package_reads_every_private_attribute():
    assert unread_private_attributes([p.read_text(encoding="utf-8") for p in PACKAGE]) == []


def test_unread_private_attribute_is_found():
    session = (
        "from collections import OrderedDict\n\n"
        "class Session:\n"
        "    def __init__(self):\n"
        "        self._roots = {}\n"
        "        self._rankings = OrderedDict()\n"
        "        self._ticks = 0\n\n"
        "    def tick(self):\n"
        "        self._ticks += 1\n"
        "        return self._roots\n"
    )
    reader = "def cache_of(s):\n    s._cache = {}\n    return s._cache\n"
    assert unread_private_attributes([session, reader]) == ["_rankings", "_ticks"]
