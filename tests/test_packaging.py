"""The package's declared dependencies cover what it imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level_modules(package: Path) -> set[str]:
    """The top-level names of every absolute import in the package's modules."""
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names


def test_every_third_party_import_is_a_declared_dependency():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    # a requirement's name runs up to its version specifier; both names here are also the module names
    declared = {re.match(r"[A-Za-z0-9._-]+", r).group().lower().replace("-", "_") for r in requirements}
    imported = imported_top_level_modules(ROOT / "src" / "mlcvqkd")
    third_party = imported - set(sys.stdlib_module_names) - {"mlcvqkd"}
    assert "numpy" in third_party  # the scan found the imports
    assert sorted(third_party - declared) == []
