"""Exact q-expansions, MLDEs, and M-module structure for SL(2,Z) forms.

Every public name is exported lazily (PEP 562): ``from modforms import X``
imports X's home module on first access and caches X here, so importing the
package loads no submodule and a caller pays only for the layers it uses.
"""

import importlib

#: Home module -> the public names it defines.
_EXPORTS = {
    "classical": (
        "PolynomialQR",
        "delta",
        "dim_M",
        "eisenstein",
        "eta_power",
        "euler_product",
        "from_qexpansion",
        "monomial_basis",
        "serre_derivative",
        "serre_derivative_poly",
        "to_qexpansion",
    ),
    "errors": (
        "AmbiguousTruncation",
        "CannotExtend",
        "DependentGenerators",
        "InsufficientTruncation",
        "IrrationalRoots",
        "ModformError",
        "NonConvergent",
        "NonIntegralOffset",
        "NonIntegralWeight",
        "NotARoot",
        "NotIndecomposable",
        "NotInM",
        "OddWeight",
        "OrderTooLarge",
        "OutOfRange",
        "ResonantRoot",
        "RootsNotDistinct",
        "RootsOutOfRange",
        "SingularSampleMatrix",
    ),
    "mlde": (
        "MLDE",
        "IndicialData",
        "ResidualReport",
        "fundamental_system",
        "indicial_polynomial",
        "mlde_from_exponents",
        "solve_frobenius",
        "verify_solution",
        "weight_relation_check",
    ),
    "qseries": ("DEFAULT_TERMS", "QExpansion"),
    "skew": ("SkewPolynomial", "d"),
    "structure": (
        "FreeBasisReport",
        "PoincareSeries",
        "TwoDimClass",
        "all_2dim_classes",
        "character_module",
        "classify_2dim",
        "coker_ps_difference",
        "cyclic_criterion",
        "free_basis_verify",
        "growth_bound",
        "ps_coefficient",
        "ps_cyclic",
        "ps_from_weights",
    ),
    "vvmf": (
        "VVMF",
        "RelationReport",
        "RepData",
        "ValidationReport",
        "check_relations",
        "default_sample_points",
        "evaluate_vec",
        "is_essential",
        "module_action",
        "recover_rho_S",
        "serre_vvmf",
        "validate",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

#: Submodules reachable as attributes of the package without importing them first.
_SUBMODULES = frozenset(_EXPORTS) | {"linalg"}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
