"""The runtime dependencies declared in pyproject.toml are installed and complete."""

import ast
import importlib
import importlib.metadata
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def normalized(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def declared_dependencies() -> set:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = (re.match(r"[A-Za-z0-9._-]+", req).group() for req in project["dependencies"])
    return {normalized(name) for name in names}


def top_level_imports(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_declared_dependencies_import_and_cover_every_import_under_src():
    declared = declared_dependencies()
    providers = importlib.metadata.packages_distributions()
    modules_of = {}
    for module, distributions in providers.items():
        for distribution in distributions:
            modules_of.setdefault(normalized(distribution), set()).add(module)
    for distribution in declared:
        assert modules_of.get(distribution), f"{distribution} is declared but not installed"
        for module in modules_of[distribution]:
            importlib.import_module(module)

    imported = set().union(*map(top_level_imports, (ROOT / "src").rglob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"impact_games"}
    for module in third_party:
        distributions = {normalized(name) for name in providers.get(module, ())}
        assert distributions & declared, f"{module} is imported under src/ but not declared"
