"""Truncated odd-class symbol calculus on the circle with KP-hierarchy
solvers and verification pipelines.  Each layer's `__all__` is the list of
its public names."""

from .loopfn import *
from .symbol import *
from .tseries import *
from .factorization import *
from .zerocurv import *
from .kp2 import *

__version__ = "0.1.0"
