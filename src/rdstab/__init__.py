"""Backstepping boundary feedback for the 1D reaction-diffusion equation.

Design and simulate finite-dimensional boundary feedback controllers for

    u_t - nu u_xx - alpha u + u^3 = 0  on (0, L),  u(0) = 0,  u(L) = g,

by transforming the plant into a modally damped target system through an
invertible Volterra-type transform.  The package tabulates the transform
kernel, builds the discrete forward and inverse transforms, checks the
admissibility of the (mu, N) pair, evaluates the feedback law, and time
steps the linear or cubic model with Crank-Nicolson.
"""

__version__ = "0.1.0"

# each module's __all__ is its public API; the package re-exports all of them
from . import cli, controller, errors, grid, kernel, simulator, spectral, transform
from .errors import *  # noqa: F401,F403
from .grid import *  # noqa: F401,F403
from .kernel import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .transform import *  # noqa: F401,F403
from .controller import *  # noqa: F401,F403
from .simulator import *  # noqa: F401,F403
from .cli import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name
    for module in (errors, grid, kernel, spectral, transform, controller, simulator, cli)
    for name in module.__all__
]
