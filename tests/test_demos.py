"""The demos' vbi imports resolve, checked by parsing the scripts, not running them."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _vbi_imports(tree):
    """(module, name) for every `from vbi... import name`, name None for `import vbi...`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "vbi":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "vbi")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_vbi_imports_resolve(demo):
    imports = list(_vbi_imports(ast.parse(demo.read_text(), filename=str(demo))))
    assert imports, f"{demo.name} imports nothing from vbi"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        try:  # `from package import submodule` imports the submodule
            importlib.import_module(f"{module_name}.{name}")
        except ModuleNotFoundError:
            pytest.fail(f"{demo.name}: cannot import {name!r} from {module_name}")
