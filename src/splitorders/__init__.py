"""Split orders in M_n over a local field, and their polytopes.

A split order is described by an integer exponent matrix nu with zero
diagonal; it is an order exactly when nu[i][k] + nu[k][j] >= nu[i][j]
for all triples.  The same matrix cuts out a compact polytope of
difference constraints in an apartment of the affine building for SL_n,
and the package verifies, at desk scale, that orders and reduced
polytopes are two descriptions of one object: the intersection of the
maximal orders sitting at the polytope's lattice points.

The dvr module realizes everything inside M_n(Q) with a p-adic
valuation, so all checks are exact.
"""

from .apartments import (
    Apartment,
    GeneralSplitOrder,
    divisor_invariance_check,
    general_membership,
    incident,
    incident_lattices,
    intersect_in_apartment,
    lattice_basis,
)
from .correspondence import (
    ApartmentVertex,
    RoundtripReport,
    intersect_maximal,
    maximal_order_exponents,
    maximal_orders_containing,
    verify_roundtrip,
)
from .dvr import (
    INFINITE,
    HermiteForm,
    LocalMatrix,
    LocalScalar,
    conjugate,
    diagonal_witness,
    elementary_divisors,
    hermite_normal_form,
    in_split_order,
    lambda_membership,
    rational_valuation,
    ring_closure_check,
    sample_split_order_element,
)
from .errors import (
    AlreadyDiagonalError,
    DimensionMismatchError,
    EmptyPolytopeError,
    EmptyVertexListError,
    EnumerationLimitError,
    NegativeCycleError,
    NonIntegralInputError,
    NonZeroDiagonalError,
    NotAnOrderError,
    SingularConjugatorError,
    SingularInputError,
    SplitOrderError,
    UnsupportedDimensionError,
)
from .exponent import (
    ExponentMatrix,
    first_violation,
    has_containing_maximal,
    hijikata_normal_form,
    is_order,
    minplus_closure,
    order_hull,
)
from .fuzz import FuzzConfig, FuzzReport, run_fuzz
from .polytope import (
    contains,
    difference_range,
    enumerate_lattice_points,
    is_reduced,
    max_difference,
)
from .render import apartment_to_plane, render_polytope_svg

__version__ = "0.1.0"

__all__ = [
    "AlreadyDiagonalError",
    "Apartment",
    "ApartmentVertex",
    "DimensionMismatchError",
    "EmptyPolytopeError",
    "EmptyVertexListError",
    "EnumerationLimitError",
    "ExponentMatrix",
    "FuzzConfig",
    "FuzzReport",
    "GeneralSplitOrder",
    "HermiteForm",
    "INFINITE",
    "LocalMatrix",
    "LocalScalar",
    "NegativeCycleError",
    "NonIntegralInputError",
    "NonZeroDiagonalError",
    "NotAnOrderError",
    "RoundtripReport",
    "SingularConjugatorError",
    "SingularInputError",
    "SplitOrderError",
    "UnsupportedDimensionError",
    "apartment_to_plane",
    "conjugate",
    "contains",
    "diagonal_witness",
    "difference_range",
    "divisor_invariance_check",
    "elementary_divisors",
    "enumerate_lattice_points",
    "first_violation",
    "general_membership",
    "has_containing_maximal",
    "hermite_normal_form",
    "hijikata_normal_form",
    "in_split_order",
    "incident",
    "incident_lattices",
    "intersect_in_apartment",
    "intersect_maximal",
    "is_order",
    "is_reduced",
    "lambda_membership",
    "lattice_basis",
    "max_difference",
    "maximal_order_exponents",
    "maximal_orders_containing",
    "minplus_closure",
    "order_hull",
    "rational_valuation",
    "render_polytope_svg",
    "ring_closure_check",
    "run_fuzz",
    "sample_split_order_element",
    "verify_roundtrip",
]
