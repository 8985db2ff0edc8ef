"""The package's declared dependencies cover what it imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parents[1]


def module_imports(path: Path) -> set[str]:
    """The top-level names of every absolute import in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def imported_top_level_modules(package: Path) -> set[str]:
    """The top-level names of every absolute import in the package's modules."""
    return set().union(*(module_imports(path) for path in package.rglob("*.py")))


def test_every_third_party_import_is_a_declared_dependency():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    # a requirement's name runs up to its version specifier; both names here are also the module names
    declared = {re.match(r"[A-Za-z0-9._-]+", r).group().lower().replace("-", "_") for r in requirements}
    imported = imported_top_level_modules(ROOT / "src" / "mlcvqkd")
    third_party = imported - set(sys.stdlib_module_names) - {"mlcvqkd"}
    assert "numpy" in third_party  # the scan found the imports
    assert sorted(third_party - declared) == []


def test_only_the_errors_module_imports_numbers():
    # errors.integer and errors.real_number hold the one integer and one real-number rule
    package = ROOT / "src" / "mlcvqkd"
    importers = sorted(path.name for path in package.rglob("*.py") if "numbers" in module_imports(path))
    assert importers == ["errors.py"]


def test_only_the_errors_module_converts_arrays():
    # errors.array holds the one array rule; every public array argument goes through it
    package = ROOT / "src" / "mlcvqkd"
    converters = sorted(
        path.name for path in package.rglob("*.py")
        if any(isinstance(node, ast.Attribute) and node.attr == "asarray"
               for node in ast.walk(ast.parse(path.read_text(), str(path))))
    )
    assert converters == ["errors.py"]


def isinstance_class_names(tree) -> set[str]:
    """The class names that the isinstance calls of one module test against."""
    def names(node):
        if isinstance(node, ast.Tuple):
            return {name for element in node.elts for name in names(element)}
        if isinstance(node, ast.Attribute):  # qmlc.QmlcParams
            return {node.attr}
        return {node.id} if isinstance(node, ast.Name) else set()

    return {name for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2 for name in names(node.args[1])}


def test_only_the_errors_module_checks_for_a_package_class():
    # errors.instance holds the one type check of an object argument
    package = ROOT / "src" / "mlcvqkd"
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in package.rglob("*.py")}
    classes = {node.name for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert {"KeyRateParams", "TrainedClassifier", "AttackScenario"} <= classes  # the scan found the classes
    checkers = {name for name, tree in trees.items() if isinstance_class_names(tree) & classes}
    assert checkers <= {"errors.py"}


def called_name(node) -> str | None:
    """The name a call calls: Protocol for Protocol(...) and keyrate.Protocol(...)."""
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return node.func.id if isinstance(node.func, ast.Name) else None


def test_only_the_errors_module_looks_up_a_package_enum():
    # errors.member holds the one enum lookup; a config value reaches its dataclass unchanged
    package = ROOT / "src" / "mlcvqkd"
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in package.rglob("*.py")}
    enums = {node.name for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             and any(isinstance(base, ast.Name) and base.id == "Enum" for base in node.bases)}
    assert {"Protocol", "ModulationKind"} <= enums  # the scan found the enums
    lookups = sorted(f"{name}:{node.lineno} {called_name(node)}" for name, tree in trees.items()
                     for node in ast.walk(tree) if isinstance(node, ast.Call) and node.args
                     and called_name(node) in enums and name != "errors.py")
    assert lookups == []


def enclosing_functions(path: Path, name: str) -> list[str]:
    """The innermost function around each use of a name in one module,
    '<module>' for a use outside every function."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == name) or \
                    (isinstance(child, ast.Attribute) and child.attr == name):
                found.append(where)
            visit(child, where)

    visit(ast.parse(path.read_text(), str(path)), "<module>")
    return found


def test_only_train_and_posterior_ratios_search_neighbours():
    # the search returns each query's neighbours as a set in index order, which suits callers that count
    # label carriers among them; a new caller could rely on an order the search no longer gives
    package = ROOT / "src" / "mlcvqkd"
    callers = sorted({f"{path.name}:{where}" for path in package.rglob("*.py")
                      for where in enclosing_functions(path, "_neighbor_indices")})
    assert callers == ["classifier.py:posterior_ratios", "classifier.py:train"]
