"""Every chunkreader module's public list names things that exist."""

import importlib
import pkgutil

import pytest

import chunkreader

MODULES = sorted(info.name for info in pkgutil.iter_modules(chunkreader.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve_and_star_import_succeeds(name):
    module = importlib.import_module(f"chunkreader.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from chunkreader.{name} import *", namespace)
    assert set(getattr(module, "__all__", ())) <= set(namespace)
