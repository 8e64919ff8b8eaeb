import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import impact_games

SUBMODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(impact_games.__path__, "impact_games.")
)


@pytest.mark.parametrize("module_name", ["impact_games"] + SUBMODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("module_name", ["impact_games"] + SUBMODULES)
def test_every_imported_name_is_used_or_exported(module_name):
    module = importlib.import_module(module_name)
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used - set(getattr(module, "__all__", [])))
    assert not unused, f"{module_name} imports {unused} and never uses them"
