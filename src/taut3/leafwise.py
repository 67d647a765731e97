"""Leafwise torsion of the product foliation of T^3 by flat unit-square 2-torus leaves.

The leafwise Laplacian on functions of a leaf has the eigenvalues
4 pi^2 (m^2 + n^2), (m, n) in Z^2, and its zeta function is
zeta_Delta(s) = 4 (4 pi^2)^(-s) zeta(s) beta(s).  Kronecker's first limit
formula gives the zeta-regularised determinant in closed form,
log det' Delta = 4 log eta(i) = 4 log(Gamma(1/4) / (2 pi^(3/4))), and
zeta_Delta(0) = -1 (Ray-Singer, "Analytic torsion for complex manifolds",
Ann. of Math. 98, 1973).  The model does not depend on the transverse
coordinate, so one leaf is the whole answer.

Degree weights (c0, c1, c2), independent scalings of the 0-, 1- and 2-form
inner products, scale Delta_0 by c1/c0 and Delta_2 by c2/c1, and a scaling a
moves log det' by zeta_Delta(0) log a = -log a; the nonzero spectrum of
Delta_1 is the union of those of Delta_0 and Delta_2.  The torsion
log T = (1/2) sum_k (-1)^k k log det' Delta_k is then (1/2) log(c1^2 / (c0 c2)):
zero for a genuine leaf metric, where c1^2 = c0 c2 by the star isomorphism,
and metric-dependent otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# log det' of the unit-square torus Laplacian on functions
LOG_DET_LAPLACIAN = 4.0 * math.log(math.gamma(0.25) / (2.0 * math.pi**0.75))
METRIC_LIKE_TOLERANCE = 1e-14  # largest |log(c0 c2 / c1^2)| of metric-like weights


@dataclass(frozen=True)
class LeafwiseTorsionResult:
    log_t: float
    betti: tuple
    metric_dependent: bool
    per_degree_log_dets: tuple


def leafwise_torsion(weights=(1.0, 1.0, 1.0)) -> LeafwiseTorsionResult:
    """The zeta-regularised log det' of the three leafwise Laplacians and
    log T, with the degree weights (c0, c1, c2)."""
    c0, c1, c2 = (float(w) for w in weights)
    if min(c0, c1, c2) <= 0:
        raise ValueError("weights must be positive")
    log_det_0 = LOG_DET_LAPLACIAN - math.log(c1 / c0)
    log_det_2 = LOG_DET_LAPLACIAN - math.log(c2 / c1)
    skew = math.log(c1**2 / (c0 * c2))
    return LeafwiseTorsionResult(
        log_t=0.5 * skew,
        betti=(1, 2, 1),  # H*(T^2)
        metric_dependent=abs(skew) > METRIC_LIKE_TOLERANCE,
        per_degree_log_dets=(log_det_0, log_det_0 + log_det_2, log_det_2),
    )
