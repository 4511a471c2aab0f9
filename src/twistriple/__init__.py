"""Finite real spectral triples over the two-point algebra, with twists.

The package verifies and constructs the low-dimensional (C^2, C^3, C^4)
spectral triples over the algebra of functions on two points: reality
axioms with twisted order-one, epsilon'- and regularity conditions, gauge
and chiral gauge fluctuations, conformal rescalings with their induced
twists, and the spectral distance between the two points.
"""

from .algebra import REP_C2, REP_C3, REP_C4, Representation, embed, projection_e
from .axioms import (
    CheckEntry,
    CheckReport,
    RealStructure,
    SignTriple,
    SpectralTriple,
    Twist,
    check_all,
    check_epsilon_prime,
    check_grading,
    check_order_zero,
    check_twisted_order_one,
    check_twisted_regularity,
    is_irreducible,
    ko_dimension,
)
from .catalog import (
    C3_CONFORMAL,
    C3_PERM,
    C3_UNTWISTED,
    C4_CONFORMAL,
    C4_PERM,
    C4_UNTWISTED,
    CatalogConstraintError,
    DiracFamily,
    ScanReport,
    build_c3,
    build_c4,
    build_c4_perm_conformal_composite,
    build_conformal,
    build_family,
    catalog_family,
    derive_family,
    fluctuated_distance_formula,
    fluctuation_orbit_params,
    identify_family,
    scan_c2_nonexistence,
)
from .conformal import (
    ConformalFactor,
    TwistCompositionError,
    check_gauge_conformal_compat,
    compose_twist,
    equivalent_commutant_factor,
    rescale,
)
from .distance import DistanceResult, distance_bruteforce, fluctuated_distance_check, spectral_distance
from .documents import DocumentError, from_document, load, loads, save, to_document
from .forms import (
    OneForm,
    antihermitian_one_form,
    fluctuate,
    fluctuate_chiral,
    is_fluctuation_of,
    is_selfadjoint_form,
    omega1_equal,
    one_form,
    selfadjoint_one_form,
)
from .linalg import (
    DEFAULT_TOL,
    Antiunitary,
    ToleranceConfig,
    commutant_dimension,
    commutator,
    operator_norm,
    solve_linear_family,
)

__version__ = "0.1.0"
