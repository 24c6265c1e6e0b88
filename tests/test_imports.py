"""Every imported name is used, and every library function or class has a
caller outside the tests, checked by parsing the sources, not running them."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the package __init__ re-exports the names it imports
LIBRARY = sorted(p for p in (ROOT / "src" / "vbi").glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = sorted([*LIBRARY, *(ROOT / "tests").glob("*.py"), *DEMOS])
# library names no library code or demo calls, on purpose: the oracles tests
# compare against, a helper kept for a planned caller, the console-script
# entry point, and the counter the benchmark reads through getattr
UNCALLED = {"GaussianLocationModel", "flow_inverse", "ansatz_log_density", "log_joint",
            "dd_single_spin_term", "surrogate_information_gain", "entry",
            "variance_floor_count"}


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


def _read_names(node):
    """Names read under ``node``, as a bare name or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_library_names_have_a_non_test_caller():
    reads, definitions = Counter(), []
    for source in [*LIBRARY, *DEMOS]:
        tree = ast.parse(source.read_text(), filename=str(source))
        reads.update(_read_names(tree))
        if source in LIBRARY:
            definitions += [node for node in tree.body
                            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    # a read inside the name's own definition (recursion) is not a caller
    uncalled = {node.name for node in definitions
                if reads[node.name] == Counter(_read_names(node))[node.name]}
    assert sorted(uncalled - UNCALLED) == []
