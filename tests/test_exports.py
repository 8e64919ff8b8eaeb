import ast
import importlib
import pkgutil
import re
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


DOC_REFERENCE = re.compile(r":(?:func|class|meth|attr|mod):`~?([\w.]+)`")


def resolves(module, dotted: str) -> bool:
    """Whether a docstring reference names an attribute reachable from the module.

    The first name is looked up on the module, on the package, among the
    package's submodules, or on a class the module defines; each further name
    is an attribute of the one before.
    """
    first, *rest = dotted.split(".")
    classes = [value for value in vars(module).values() if isinstance(value, type)]
    roots = [module, impact_games] + [
        cls for cls in classes if cls.__module__ == module.__name__
    ]
    for root in roots:
        target = getattr(root, first, None)
        if target is None and root is impact_games and f"impact_games.{first}" in SUBMODULES:
            target = importlib.import_module(f"impact_games.{first}")
        for name in rest:
            target = getattr(target, name, None)
        if target is not None:
            return True
    return False


@pytest.mark.parametrize("module_name", ["impact_games"] + SUBMODULES)
def test_every_docstring_reference_resolves(module_name):
    module = importlib.import_module(module_name)
    references = DOC_REFERENCE.findall(Path(module.__file__).read_text())
    unresolved = sorted({name for name in references if not resolves(module, name)})
    assert not unresolved, f"{module_name} docstrings cite undefined names {unresolved}"
