"""Every name a pinchopt module imports is used in that module, so a deleted
helper leaves no import behind.  Stdlib only: there is no linter in CI."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pinchopt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.name
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\nprint(path)\n")
    assert _unused_imports(tree) == ["math", "sep"]
