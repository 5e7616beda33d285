"""Every name a module under src/widir imports is used in that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "widir"


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, as `line: name`.

    A name counts as read when it appears as a name in the code or in a
    string that parses as an expression: a quoted annotation, an `__all__`
    entry. `from __future__` imports are exempt.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as "RunManifest" or "dict[str, Foo]"
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import a.b\n"
        "from typing import Mapping, Sequence\n"
        "from .x import Used, Quoted, Listed\n"
        "__all__ = ['Listed']\n"
        "def f(m: Mapping) -> 'Quoted':\n"
        "    return Used, a.b.c\n"
    )
    assert unused_imports(source) == ["2: os", "3: np", "5: Sequence"]
