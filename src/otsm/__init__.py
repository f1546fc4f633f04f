"""Orthogonal trace-sum maximization: solver, certificate, and builders.

Maximize ``sum_{i<j} tr(O_i^T S_ij O_j)`` over tuples of orthonormal-frame
blocks.  The package provides the proximal block-relaxation solver with a
monotone objective and stationary limit points, a post-hoc semidefinite
certificate of global optimality, problem builders for multi-set
agreement/correlation analysis, generalized orthogonal alignment, and
orthogonal least squares, a seeded benchmark harness, and a command-line
front end (``otsm``).  The package re-exports each module's ``__all__``.
"""

from . import builders, certificate, core, experiment, formats, solver
from . import cli  # noqa: F401  benchmarks/workloads.py calls otsm.cli.*
from .builders import *  # noqa: F403
from .certificate import *  # noqa: F403
from .core import *  # noqa: F403
from .experiment import *  # noqa: F403
from .formats import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core.__all__,
    *solver.__all__,
    *certificate.__all__,
    *builders.__all__,
    *experiment.__all__,
    *formats.__all__,
]
