"""Dense linear-system solvers built on relaxed Jacobi and Gauss-Seidel
sweeps, with hybrid evolutionary variants that self-adapt the relaxation
factor, seeded benchmark problem generators, and a benchmark harness.
Re-exports the ``__all__`` of every module but ``cli``, the console entry point.
"""

from . import bench, evolution, iteration, linalg, problems
from .bench import *  # noqa: F403
from .evolution import *  # noqa: F403
from .iteration import *  # noqa: F403
from .linalg import *  # noqa: F403
from .problems import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*bench.__all__, *evolution.__all__, *iteration.__all__,
           *linalg.__all__, *problems.__all__]
