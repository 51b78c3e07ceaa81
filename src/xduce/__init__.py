"""Design-space calculator for cavity electro-optic quantum transduction.

Closed-form conversion efficiency and cooperativity, an independent
steady-state scattering oracle, heralded-entanglement photon statistics
with a reproducible Monte Carlo cross-check, and power/quality-factor
sweeps. See the README for the command line front end.
"""

# Each module lists the names it exports in its own __all__; the package
# re-exports exactly those.
from . import core, errors, herald, scattering, sweep
from .core import *
from .errors import *
from .herald import *
from .scattering import *
from .sweep import *

__all__ = []
__all__ += core.__all__
__all__ += errors.__all__
__all__ += herald.__all__
__all__ += scattering.__all__
__all__ += sweep.__all__
