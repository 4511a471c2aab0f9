"""Finite real spectral triples over the two-point algebra, with twists.

The package verifies and constructs the low-dimensional (C^2, C^3, C^4)
spectral triples over the algebra of functions on two points: reality
axioms with twisted order-one, epsilon'- and regularity conditions, gauge
and chiral gauge fluctuations, conformal rescalings with their induced
twists, and the spectral distance between the two points.

The names below are imported from their submodules on first access
(PEP 562), so `import twistriple` loads no submodule and each `twistriple`
command pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names the package re-exports from it
_EXPORTS = {
    "algebra": ("REP_C2", "REP_C3", "REP_C4", "Representation", "embed", "projection_e"),
    "axioms": (
        "CheckEntry", "CheckReport", "RealStructure", "SpectralTriple", "Twist", "check_all",
        "check_epsilon_prime", "check_grading", "check_order_zero", "check_twisted_order_one",
        "check_twisted_regularity", "is_irreducible",
    ),
    "catalog": (
        "C3_CONFORMAL", "C3_PERM", "C3_UNTWISTED", "C4_CONFORMAL", "C4_PERM", "C4_UNTWISTED",
        "CatalogConstraintError", "DiracFamily", "ScanReport", "build_c3", "build_c4",
        "build_c4_perm_conformal_composite", "build_conformal", "build_family", "catalog_family",
        "derive_family", "fluctuated_distance_formula", "fluctuation_orbit_params",
        "identify_family", "scan_c2_nonexistence",
    ),
    "conformal": (
        "ConformalFactor", "TwistCompositionError", "check_gauge_conformal_compat",
        "equivalent_commutant_factor", "rescale",
    ),
    "distance": ("DistanceResult", "distance_bruteforce", "fluctuated_distance_check",
                 "spectral_distance"),
    "documents": ("DocumentError", "from_document", "load", "loads", "save", "to_document"),
    "forms": (
        "OneForm", "antihermitian_one_form", "fluctuate", "fluctuate_chiral", "is_fluctuation_of",
        "is_selfadjoint_form", "omega1_equal", "one_form", "selfadjoint_one_form",
    ),
    "linalg": (
        "DEFAULT_TOL", "Antiunitary", "ToleranceConfig", "commutant_dimension", "commutator",
        "operator_norm", "solve_linear_family",
    ),
    "signs": ("SignTriple", "ko_dimension"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module_name = _MODULE_OF.get(name)
    if module_name is None:
        if name in _EXPORTS:  # `twistriple.linalg` without an import of it first
            return importlib.import_module(f"{__name__}.{name}")
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{module_name}")
    # Bind every name of the module at once, as the eager import did: the
    # namespace keeps the objects it first saw even if a module attribute is
    # rebound later.
    globals().update({n: getattr(module, n) for n in _EXPORTS[module_name]})
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
