"""Discrete calculus on Gaussian-kernel graphs and a manifold convergence lab.

Each public name is listed once, in its module's __all__; the package
re-exports those lists.
"""

__version__ = "0.1.0"

from . import calculus, convergence, graph_core, manifolds, verification
from .calculus import *  # noqa: F403
from .convergence import *  # noqa: F403
from .graph_core import *  # noqa: F403
from .manifolds import *  # noqa: F403
from .verification import *  # noqa: F403

__all__ = [
    "__version__",
    *calculus.__all__,
    *convergence.__all__,
    *graph_core.__all__,
    *manifolds.__all__,
    *verification.__all__,
]
