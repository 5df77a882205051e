import importlib
import pkgutil

import pytest

import snakeplan

MODULES = sorted(info.name for info in pkgutil.iter_modules(snakeplan.__path__))


@pytest.mark.parametrize("name", ["snakeplan"] + [f"snakeplan.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []
