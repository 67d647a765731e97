"""taut3: desk-scale 3-manifold invariants.

Flat SU(2) representation moduli and torsion sums, an unsigned Casson-style
count, lattice Chern-Simons stationarity checks, Godbillon-Vey integrals of
codimension-1 foliations on the 3-torus, leafwise torsion for the product
foliation, and degree-1 cyclic cocycles on a Fourier model of C(S^1).
"""

__version__ = "0.1.0"  # defined first: taut3.cache keys its entries by it

from .presentations import (
    GroupPresentation,
    HomologySummary,
    ParameterError,
    builtin_presentation,
    homology_h1,
)
from .su2reps import (
    ModuliNotFiniteError,
    RegularityError,
    RepModuli,
    Su2Rep,
    casson_count,
    enumerate_reps,
)
from .twisted_torsion import (
    TwistedComplex,
    UnsupportedFamilyError,
    build_twisted_complex,
    cw_structure,
    fox_derivative,
    rs_torsion,
    torsion_sum,
    twisted_laplacians,
)
from .zeta import circle_laplacian_log_det, zeta_log_det
from .chern_simons import (
    LatticeConnection,
    action_gradient,
    cs_action,
    curvature,
    stationarity_check,
)
from .foliation_gv import (
    DiscreteForm,
    FoliationSpec,
    SingularityError,
    TautnessError,
    form_from_functions,
    gv_integral,
    gv_invariant,
    integrability_residual,
    solve_theta,
    tautness_check,
)
from .leafwise import (
    LeafwiseForm,
    LeafwiseModel,
    UnsupportedFoliationError,
    d_f,
    foliation_torsion_sum,
    leafwise_torsion,
    tangential_cs3_degeneracy,
    tangential_laplacian,
)
from .cyclic import (
    CyclicCochain,
    TrigPoly,
    current_to_cocycle,
    cyclic_lambda,
    fundamental_cocycle,
    hochschild_b,
    k_pairing,
    tfcc_sum,
)
from .manifest import Manifest, ManifestError, load_manifest, validate_manifest
from .reports import InvariantReport

__all__ = [name for name in dir() if not name.startswith("_")]
