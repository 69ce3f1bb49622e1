"""iqcontrol: measurement-assisted control of finite-level quantum systems.

The package simulates a three-stage control scheme: amplify the weight of
a target eigenstate or subspace with amplitude-amplification operators,
collapse onto it with a projective measurement, and hand the collapsed
state to a caller-supplied coherent pulse.  A connectivity-graph analysis
of the coupling matrix decides which subspaces are worth targeting, and a
built-in 5-level hydrogen model provides two worked cases.

Basis labels are 1-based throughout the public API; internal units set
hbar = 1.  Each layer module's ``__all__`` lists its public names, and the
package republishes their union.
"""

__version__ = "0.10.27"

from . import algorithms, amplification, controllability, core, errors, hydrogen, measurement
from .core import *
from .controllability import *
from .amplification import *
from .measurement import *
from .algorithms import *
from .hydrogen import *
from .errors import *

__all__ = [
    "__version__", *core.__all__, *controllability.__all__, *amplification.__all__,
    *measurement.__all__, *algorithms.__all__, *hydrogen.__all__, *errors.__all__,
]
