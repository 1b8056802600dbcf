"""Every name a package module imports is used in that module.

No linter ships with the project, so this is the check that keeps dead
imports out.  ``__init__.py`` is exempt: its imports are the public API.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hytccp"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
        # a quoted annotation such as "Agent" names a type too
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    quoted = ast.walk(ast.parse(part.value, mode="eval"))
                    used |= {n.id for n in quoted if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_detector_finds_an_unused_name():
    source = "import os, re\nfrom typing import List, Tuple\nx: List['re.Pattern'] = []\ny = 'Tuple'\n"
    assert unused_imports(source) == ["Tuple", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
