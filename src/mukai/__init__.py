"""Exact-arithmetic Mukai lattice computations for threefolds and K3 members.

The package works in truncated even cohomology with ``fractions.Fraction``
coefficients.  It provides graded ring arithmetic on Calabi-Yau and quasi-Fano
threefolds, Chern characters and Mukai vectors, Euler pairings, restriction to
an anticanonical K3 member, virtual moduli dimensions, flag validation with
doubling and gluing checks, a Casson-Donaldson value registry, and a small
Schubert calculus engine on Grassmannians of lines.
"""

from . import chern, errors, flags, moduli, pairings, rings, schubert
from .chern import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .flags import *  # noqa: F401,F403
from .moduli import *  # noqa: F401,F403
from .pairings import *  # noqa: F401,F403
from .rings import *  # noqa: F401,F403
from .schubert import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    name for layer in (chern, errors, flags, moduli, pairings, rings, schubert)
    for name in layer.__all__
)
