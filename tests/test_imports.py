"""Every imported name is used, every library function, class, constant and
method has a reader outside the tests, every defaulted parameter is passed
by some caller outside the tests, and every name the README quotes exists,
checked by parsing the sources, not running them."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the package __init__ re-exports the names it imports
LIBRARY = sorted(p for p in (ROOT / "src" / "vbi").glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCHMARKS = sorted(p for p in (ROOT / "benchmarks").glob("*.py")
                    if not p.name.startswith("test_"))
SOURCES = sorted([*LIBRARY, *(ROOT / "tests").glob("*.py"), *DEMOS])
# library names no library code or demo calls, on purpose: the oracles tests
# compare against, a helper kept for a planned caller, and the counter the
# benchmark reads through getattr
UNCALLED = {"GaussianLocationModel", "flow_inverse", "ansatz_log_density", "log_joint",
            "dd_single_spin_term", "surrogate_information_gain", "variance_floor_count"}
# library methods no library code or demo calls, on purpose: the tests draw
# integer data through the seeded stream
UNCALLED_METHODS = {"RngStream.integers"}
# defaulted parameters no library code, demo or benchmark passes, on purpose
UNPASSED = {
    "surrogate_information_gain.prior": "adaptive measurement waits on ROADMAP item 5",
    "surrogate_information_gain.phi": "adaptive measurement waits on ROADMAP item 5",
    "surrogate_information_gain.repetitions": "adaptive measurement waits on ROADMAP item 5",
    "GaussianLocationModel.__init__.noise_std": "the criterion-1 oracle's tests set it",
    "TrainTrace.smoothed_elbo.window": "the criterion-1 tests read a fixed 100-step tail",
}


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


def test_library_never_calls_hasattr():
    """Models share one interface, so no library code switches on an attribute's presence."""
    calls = [f"{source.name}:{node.lineno}"
             for source in (ROOT / "src" / "vbi").glob("*.py")
             for node in ast.walk(ast.parse(source.read_text(), filename=str(source)))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "hasattr"]
    assert calls == []


def test_library_reaches_outcome_probabilities_through_the_model():
    """Outside ``likelihoods`` a model's probabilities come from its ``outcome_prob``,
    so every caller scores with the model's own settings."""
    kernels = {"dd_outcome_prob", "toy_outcome_prob"}
    reads = [f"{source.name}:{node.lineno}"
             for source in (ROOT / "src" / "vbi").glob("*.py")
             if source.name not in ("likelihoods.py", "__init__.py")
             for node in ast.walk(ast.parse(source.read_text(), filename=str(source)))
             if (getattr(node, "id", None) in kernels or getattr(node, "attr", None) in kernels
                 or isinstance(node, ast.alias) and node.name in kernels)]
    assert reads == []


def _read_names(node):
    """Names read under ``node``, as a bare name or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _module_names(tree):
    """(name, defining node) of each module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node


def test_library_names_have_a_non_test_caller():
    reads, definitions = Counter(), []
    for source in [*LIBRARY, *DEMOS]:
        tree = ast.parse(source.read_text(), filename=str(source))
        reads.update(_read_names(tree))
        if source in LIBRARY:
            definitions += list(_module_names(tree))
    # a read inside the name's own definition (recursion) is not a caller
    uncalled = {name for name, node in definitions
                if reads[name] == Counter(_read_names(node))[name]}
    assert sorted(uncalled - UNCALLED) == []


def _methods(tree):
    """(Class.method, defining node) of each method of each class, dunders aside."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                    yield f"{cls.name}.{node.name}", node


def test_library_methods_have_a_non_test_caller():
    """The method-level twin of the check above; a method counts as called when
    its name is read anywhere outside its own definition."""
    reads, methods = Counter(), []
    for source in [*LIBRARY, *DEMOS]:
        tree = ast.parse(source.read_text(), filename=str(source))
        reads.update(_read_names(tree))
        if source in LIBRARY:
            methods += list(_methods(tree))
    uncalled = {qualname for qualname, node in methods
                if reads[node.name] == Counter(_read_names(node))[node.name]}
    assert sorted(uncalled - UNCALLED_METHODS) == []
    # an allowlisted method that gained a caller leaves the list
    assert sorted(UNCALLED_METHODS - uncalled) == []


def _functions(node, owner=None):
    """(qualified name, the name its calls use, the positional parameters callers
    pass, function node) of every function defined under ``node``, nested ones too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _functions(child, child)
        elif isinstance(child, ast.FunctionDef):
            args = child.args
            positional = args.posonlyargs + args.args
            method = isinstance(owner, ast.ClassDef)
            if method and not any(getattr(d, "id", None) == "staticmethod"
                                  for d in child.decorator_list):
                positional = positional[1:]          # self or cls
            called_as = owner.name if method and child.name == "__init__" else child.name
            qualname = f"{owner.name}.{child.name}" if owner is not None else child.name
            yield qualname, called_as, positional, child
            yield from _functions(child, child)
        else:
            yield from _functions(child, owner)


def _passes(call, param, index) -> bool:
    """Whether ``call`` passes ``param``, by keyword, ``**`` or position ``index``."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    star = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)), None)
    return index < len(call.args) if star is None else star <= index


def test_defaulted_parameters_are_passed():
    calls = {}
    for source in [*LIBRARY, *DEMOS, *BENCHMARKS]:
        for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    # a call counts by name alone, so any function of that name may be the callee;
    # a recursive call counts as a caller
    unpassed = set()
    for source in LIBRARY:
        tree = ast.parse(source.read_text(), filename=str(source))
        for qualname, called_as, positional, fn in _functions(tree):
            args = fn.args
            first = len(positional) - len(args.defaults)
            defaulted = [(p.arg, i) for i, p in enumerate(positional) if i >= first]
            defaulted += [(p.arg, None) for p, default in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            unpassed.update(f"{qualname}.{param}" for param, index in defaulted
                            if not any(_passes(call, param, index)
                                       for call in calls.get(called_as, [])))
    assert sorted(unpassed - UNPASSED.keys()) == []
    # an allowlisted parameter that gained a caller leaves the list
    assert sorted(UNPASSED.keys() - unpassed) == []


def test_readme_names_exist_in_the_library():
    """Each backticked identifier or dotted name of README.md (a call's name
    too) is, part by part, the package, a module or a word of the library's
    sources, so a rename or a deletion cannot leave the README naming what is
    gone."""
    prose = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    modules = sorted((ROOT / "src" / "vbi").glob("*.py"))
    words = {"vbi", *(p.stem for p in modules),
             *re.findall(r"\w+", "\n".join(p.read_text() for p in modules))}
    name = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")
    stale = sorted({match[1] for span in re.findall(r"`([^`\n]+)`", prose)
                    if (match := name.fullmatch(span))
                    and not set(match[1].split(".")) <= words})
    assert stale == []
