"""taut3: desk-scale 3-manifold invariants.

Flat SU(2) representation moduli and torsion sums, an unsigned Casson-style
count, lattice Chern-Simons stationarity checks, Godbillon-Vey integrals of
codimension-1 foliations on the 3-torus, leafwise torsion for the product
foliation, and degree-1 cyclic cocycles on a Fourier model of C(S^1).

The package exports the names of the README's quick start; everything else is
imported from its module (`taut3.cli`, `taut3.foliation_gv`, ...).
"""

__version__ = "0.1.0"

from .presentations import builtin_presentation
from .su2reps import enumerate_reps
from .twisted_torsion import torsion_sum

__all__ = ["builtin_presentation", "enumerate_reps", "torsion_sum"]
