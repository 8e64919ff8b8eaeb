import importlib
import pkgutil

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
