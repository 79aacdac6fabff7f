import importlib
import pkgutil

import pytest

import graph_calculus

MODULES = ["graph_calculus"] + [
    info.name for info in pkgutil.iter_modules(graph_calculus.__path__, "graph_calculus.")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a star import raises AttributeError for a name in __all__ that the
    # module no longer defines, so a deleted export cannot linger
    module = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(getattr(module, "__all__", ())) <= set(namespace)
