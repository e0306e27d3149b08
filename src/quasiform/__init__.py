"""Computer algebra for quasilinear quadratic forms in characteristic 2.

The package works over iterated rational function fields F2(x1, ..., xn)
and their finite inseparable extensions, models diagonal forms
q = a1*X1^2 + ... + ad*Xd^2, and provides exact decision procedures for
their isotropy, splitting, similarity, and birational geometry.
"""

from types import ModuleType as _ModuleType

from .birational import (
    DominationVerdict,
    FiberMap,
    RegularityReport,
    RulingCertificate,
    RulingDecomposition,
    construct_ruling,
    decide_birational,
    decide_stably_equivalent,
    essdim_domination_check,
    is_isotropic_over,
    is_regular_quadric,
    unique_self_map_check,
)
from .errors import (
    BadCodimension,
    BadDecomposition,
    DimensionMismatch,
    DimensionTooSmall,
    DivisionByZero,
    DslSyntaxError,
    EmbeddingFailure,
    InconsistencyDetected,
    IndexMismatch,
    IsotropicInput,
    IsSquare,
    NameCollision,
    NotRuled,
    QuasiformError,
    ResourceLimit,
    TowerDepthExceeded,
    UndeclaredVariable,
    UnknownVariable,
    ZeroCoefficient,
    ZeroElement,
    ZeroGenerator,
    ZeroSlot,
)
from .fieldtower import (
    FieldTower,
    TowerElem,
    TowerHom,
)
from .forms import (
    FormInvariants,
    QuasilinearForm,
    anisotropic_part,
    decide_similar,
    generic_subform,
    invariants,
    is_anisotropic,
    is_isometric,
    isotropic_vectors_basis,
    total_index,
)
from .gf2poly import Poly, RatFn, poly_gcd, poly_lcm
from .maps import RationalMap, projectively_equal
from .pfister import (
    NormField,
    QuasiPfisterForm,
    SpecialRulingCertificate,
    albert_multiply,
    is_quasi_pfister_neighbor,
    norm_degree,
    norm_field_slots,
    quasi_pfister,
    special_neighbor_ruling,
)
from .splitting import (
    FunctionFieldData,
    SplittingPattern,
    check_hl_bound,
    essential_dimension,
    first_witt_index,
    function_field,
    hl_bound,
    splitting_pattern,
    total_index_over,
)
from .sqlinalg import (
    isotropic_kernel_basis,
    k2_membership,
    k2_rank,
    kernel_from_coefficients,
    span_saturate,
    square_nullspace,
    tower_linear_solve,
    tower_square_root,
)

__version__ = "0.1.0"

# The public API is exactly the names imported above.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType))
