"""Verification laboratory for mass-shell representations.

Exact symbolic operators for the ten continuous generators and the two
discrete symmetries of each catalogued representation, mechanical
verification of the full relation set, a commutant solver deciding
irreducibility, and a momentum-grid harness cross-checking the algebra
numerically.
"""

from .catalog import build, full_verification
from .commutant import irreducibility_verdict
from .gridlab import Grid, convergence_study

__version__ = "0.1.0"

# The names the README "Library" section imports from the package; the
# rest of the library is reached through its modules.
__all__ = [
    "build",
    "full_verification",
    "irreducibility_verdict",
    "Grid",
    "convergence_study",
    "__version__",
]
