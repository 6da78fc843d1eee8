"""Exact construction and verification of rime, Cremmer-Gervais and
classical Yang-Baxter matrices.

The package builds every matrix family over exact rationals and checks
each identity they satisfy with literally zero residuals, the exponential
laws that the idempotent and nilpotent relations integrate to among them.
Only the unitary limit, the degeneration of the coefficient grid as
beta -> 0, is read in floating point.

The package namespace re-exports exactly each module's ``__all__``.
"""

from . import core, families, limits, verify
from .core import *
from .families import *
from .limits import *
from .verify import *

__version__ = "0.1.0"

__all__ = [*core.__all__, *families.__all__, *limits.__all__, *verify.__all__, "__version__"]
