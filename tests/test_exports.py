"""Every exported name resolves, so a star import cannot break on a stale
entry left behind when a name is deleted."""

import importlib
import inspect
import pkgutil

import pytest

import spinlift

MODULES = sorted(f"spinlift.{m.name}" for m in pkgutil.iter_modules(spinlift.__path__))


@pytest.mark.parametrize("name", ["spinlift", *MODULES])
def test_exports_resolve(name):
    module = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    exported = getattr(module, "__all__", None)
    if exported is None:
        # the package has no __all__: it re-exports its modules' exports
        exported = [n for n, v in vars(module).items()
                    if not n.startswith("_") and not inspect.ismodule(v)]
        module_exports = {n for m in MODULES for n in importlib.import_module(m).__all__}
        assert [n for n in exported if n not in module_exports] == []
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if n not in namespace] == []
