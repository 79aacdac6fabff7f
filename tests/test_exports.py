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


PACKAGE_MODULES = [
    graph_calculus.calculus,
    graph_calculus.convergence,
    graph_calculus.graph_core,
    graph_calculus.manifolds,
    graph_calculus.verification,
]


def test_package_reexports_its_modules_lists():
    assert graph_calculus.__all__ == ["__version__"] + [
        name for module in PACKAGE_MODULES for name in module.__all__
    ]


def test_no_name_is_exported_by_two_modules():
    # the package star-imports each list, so a second owner would silently shadow the first
    names = [name for module in PACKAGE_MODULES for name in module.__all__]
    assert len(names) == len(set(names))
