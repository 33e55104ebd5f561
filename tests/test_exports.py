import importlib
import pkgutil

import pytest

import fmgeig

MODULES = ["fmgeig"] + [
    "fmgeig." + info.name for info in pkgutil.iter_modules(fmgeig.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # perfbench's tracer skips an ``__all__`` name that does not resolve, so
    # a stale export would silently drop a traced function.
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [attr for attr in exported if not hasattr(module, attr)] == []
