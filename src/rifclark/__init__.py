"""Clark measures of degree-(n,1) rational inner functions on the bidisk.

The library builds phi = ptilde / p from a stable polynomial
p = p1(z1) + z2 p2(z1), locates its boundary singularities, computes each
unimodular level set and Clark measure in closed form (a weighted curve
piece plus finitely many line masses), classifies generic versus
exceptional values, checks unitarity of the Clark embedding and extreme
points, and constructs sums-of-squares decompositions.  Everything is
cross-checked by quadrature suites in rifclark.verification.
"""

from .agler import (
    AglerPieces,
    GramReport,
    SosPiece,
    compute_Q,
    exceptional_R,
    gram_isometry_check,
    orthonormality_check,
    sos_residual,
)
from .catalog import CatalogEntry, entries, get, names
from .clark import (
    AlphaClass,
    AlphaKind,
    ClarkMeasure,
    ExtremeDecision,
    ExtremeStatus,
    LevelSetSample,
    Unitarity,
    clark_measure,
    classify_alpha,
    classify_extreme,
    classify_unitary,
    integrate,
    level_set_sample,
)
from .errors import DomainError, NumericError, RifClarkError
from .polynomials import (
    BlaschkeProduct,
    TrigPoly,
    UniPoly,
    blaschke_from_rational,
    circle_nodes,
    fejer_riesz,
    roots,
)
from .quadrature import (
    pointmass_probe,
    poisson2,
)
from .rif import (
    BiPolyN1,
    Rif,
    Singularity,
    is_saturated,
    phi_eval,
    reflect,
    validate,
)
from .verification import SuiteResult, alpha_sweep, run_suites, suite_names

__version__ = "0.1.0"

__all__ = [
    "AglerPieces",
    "AlphaClass",
    "AlphaKind",
    "BiPolyN1",
    "BlaschkeProduct",
    "CatalogEntry",
    "ClarkMeasure",
    "DomainError",
    "ExtremeDecision",
    "ExtremeStatus",
    "GramReport",
    "LevelSetSample",
    "NumericError",
    "Rif",
    "RifClarkError",
    "Singularity",
    "SosPiece",
    "SuiteResult",
    "TrigPoly",
    "UniPoly",
    "Unitarity",
    "alpha_sweep",
    "blaschke_from_rational",
    "circle_nodes",
    "clark_measure",
    "classify_alpha",
    "classify_extreme",
    "classify_unitary",
    "compute_Q",
    "entries",
    "exceptional_R",
    "fejer_riesz",
    "get",
    "gram_isometry_check",
    "integrate",
    "is_saturated",
    "level_set_sample",
    "names",
    "orthonormality_check",
    "phi_eval",
    "pointmass_probe",
    "poisson2",
    "reflect",
    "roots",
    "run_suites",
    "sos_residual",
    "suite_names",
    "validate",
    "__version__",
]
