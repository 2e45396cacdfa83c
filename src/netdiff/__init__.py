"""Interacting diffusions on locally finite graphs.

Exact Gaussian analytics for linear systems, Euler path-space simulation
with change-of-measure reweighting, truncation approximations,
conditional-independence diagnostics, and a discrete factorization lab.
"""

# Each module's ``__all__`` is its public API; the package re-exports them all.
from . import coefficients, config, discrete, engine, gaussian, graphs, independence, initials
from .coefficients import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403
from .discrete import *  # noqa: F401,F403
from .engine import *  # noqa: F401,F403
from .gaussian import *  # noqa: F401,F403
from .graphs import *  # noqa: F401,F403
from .independence import *  # noqa: F401,F403
from .initials import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (coefficients, config, discrete, engine, gaussian, graphs, independence, initials)
    for name in module.__all__
)
