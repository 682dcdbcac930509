"""Interaction-free measurement simulator.

A photon repeatedly cycles through a polarization interferometer whose one
arm may hold a partially absorbing particle.  The package evolves the
photon's 3-state density matrix (|H>, |V>, absorbed |B>) through N cycles
under two particle models, provides the no-particle and perfect-absorber
closed forms, cross-checks everything against a Monte Carlo trajectory
oracle, and exposes CSV parameter sweeps through a CLI.
"""

from . import evolution, operators, oracle, sweep, verify
from .evolution import *
from .operators import *
from .oracle import *
from .sweep import *
from .verify import *

__version__ = "0.1.0"

# one += per module, the form type checkers read for a star-exported __all__
__all__ = ["__version__"]
__all__ += evolution.__all__
__all__ += operators.__all__
__all__ += oracle.__all__
__all__ += sweep.__all__
__all__ += verify.__all__
