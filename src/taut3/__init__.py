"""taut3: desk-scale 3-manifold invariants.

Flat SU(2) representation moduli and torsion sums, an unsigned Casson-style
count, lattice Chern-Simons stationarity checks, Godbillon-Vey integrals of
codimension-1 foliations on the 3-torus, and leafwise torsion for the product
foliation.

The package exports the names of the README's quick start; everything else is
imported from its module (`taut3.cli`, `taut3.foliation_gv`, ...).
"""

__version__ = "0.1.0"

from .presentations import builtin_presentation
from .su2reps import enumerate_reps

__all__ = ["builtin_presentation", "enumerate_reps", "torsion_sum"]


def __getattr__(name):
    """`torsion_sum`, imported on first access, so that a process that never
    reads it (`taut3 reps`) never loads `twisted_torsion`."""
    if name != "torsion_sum":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .twisted_torsion import torsion_sum

    globals()[name] = torsion_sum
    return torsion_sum
