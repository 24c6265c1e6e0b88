"""Every imported name is used, checked by parsing the sources, not running them."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the package __init__ re-exports the names it imports
SOURCES = sorted([*(p for p in (ROOT / "src" / "vbi").glob("*.py") if p.name != "__init__.py"),
                  *(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


def _unused_imports(tree):
    """Names bound by an import statement that no expression reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(source):
    tree = ast.parse(source.read_text(), filename=str(source))
    assert _unused_imports(tree) == []
