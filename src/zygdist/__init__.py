"""Multiscale analysis of Zygmund-class functions and measures.

The package measures how far a function (or measure) sampled at dyadic
resolution is from the smoother subspaces characterised by square-type
functionals: it computes second-difference seminorms, level-set densities over
the dyadic tree and cone counts, builds near-optimal approximants by
truncating the jumps of the associated dyadic martingale, and numerically
checks the quantitative inequalities that drive those constructions.
"""

from zygdist.approximation import *
from zygdist.dyadic import *
from zygdist.functionals import *
from zygdist.generators import *
from zygdist.martingale import *
from zygdist.measures import *
from zygdist.verification import *

# importing a submodule binds its name here; each module's own __all__ is
# the one list of its exports
__all__ = [
    *approximation.__all__,
    *dyadic.__all__,
    *functionals.__all__,
    *generators.__all__,
    *martingale.__all__,
    *measures.__all__,
    *verification.__all__,
]

__version__ = "0.1.0"
