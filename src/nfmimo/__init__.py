"""nfmimo: matrix-free near-field MIMO radar simulation and l1-regularized
3D reconstruction via proximal gradient iterations, full-batch or minibatch."""

__version__ = "0.1.0"

from .geometry import *
from .forward import *
from .solver import *
from .metrics import *
from .phantoms import *
