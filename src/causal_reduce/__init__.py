"""Informative-variable identification and graph reduction for causal DAGs,
with exact discrete-network evaluation of the associated estimators.

The package exports exactly the names each module lists in its
``__all__``; a module's other public names are imported from the module."""

from .graph import *  # noqa: F403
from .taxonomy import *  # noqa: F403
from .criteria import *  # noqa: F403
from .reduction import *  # noqa: F403
from .equivalence import *  # noqa: F403
from .bn import *  # noqa: F403
from .functionals import *  # noqa: F403
from .formula import *  # noqa: F403
from .simulate import *  # noqa: F403

__version__ = "0.1.0"
