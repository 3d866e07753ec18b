"""Exact arithmetic and renormalization tools for interval exchange maps.

Everything downstream of the quadratic number type stays exact: orbits,
first-return induction, strip decompositions, Bratteli diagrams, dimension
groups, and invariant-measure estimates all compute over Q(sqrt(d)) with
no floating point in any decision.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ClosedTransversalRequired,
    ConsistencyViolation,
    DegenerateAt,
    DepthExceeded,
    HorizonExceedsDepth,
    IetlabError,
    InvalidPermutation,
    MixedRadicand,
    NonPositiveLength,
    NotAdmissible,
    NotVerifiedIDOC,
    OutOfDomain,
    ParseError,
    Reducible,
    ReturnTimeExceeded,
    ShapeViolation,
)
from .exactnum import (
    QuadReal,
    format_quad,
    parse_quad,
    quad,
    quad_approx,
    quad_floor,
    quad_sign,
    radical,
)
from .iet import (
    IdocResult,
    Iet,
    OrbitPoint,
    Permutation,
    idoc_check,
    iet_new,
    irreducible,
    orbit,
    orbit_point,
    permutation,
)
from .induction import (
    AdmissibilityResult,
    AdmissibleInterval,
    DEFAULT_MAX_STEPS,
    InductionStep,
    basic_interval,
    first_return_blocks,
    induce,
    is_admissible,
    shrink_sequence,
    whole_interval,
)
from .intmat import column_sums, det, identity, mat_mul
from .ktheory import (
    BratteliDiagram,
    BratteliLevel,
    DimensionGroup,
    GroupElement,
    LSigma,
    Tower,
    TowerPartition,
    bratteli,
    coinvariant_shift,
    dimension_group,
    dual_cone_test,
    export_bratteli,
    l_sigma,
    orbit_classes,
    positivity,
    strip_class_matrix,
    strip_coordinates,
    towers,
)
from .measures import (
    Certificate,
    ConeApprox,
    MeasureVector,
    cone_approx,
    empirical_measure,
    unique_ergodicity_certificate,
)
from .render import render_strip_level
from .suspension import (
    Floor,
    Marker,
    SingularityProfile,
    Singularity,
    Strip,
    StripLevel,
    singularity_profile,
    strip_decomposition,
)

__version__ = "0.1.0"

# Every public name imported above; the submodules bound by those imports are left out.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
