"""The package: its lazy exports resolve to their home objects, and the benchmark's cache walk reaches every cache."""

import functools
import gc
import importlib
import pkgutil
import sys
from fractions import Fraction

import pytest

import modforms

#: Home module -> every public name the package exported when it imported its modules eagerly.
EXPORTED = {
    "classical": [
        "PolynomialQR", "delta", "dim_M", "eisenstein", "eta_power", "euler_product", "from_qexpansion",
        "monomial_basis", "serre_derivative", "serre_derivative_poly", "to_qexpansion",
    ],
    "errors": [
        "AmbiguousTruncation", "CannotExtend", "DependentGenerators", "InsufficientTruncation", "IrrationalRoots",
        "ModformError", "NonConvergent", "NonIntegralOffset", "NonIntegralWeight", "NotARoot", "NotIndecomposable",
        "NotInM", "OddWeight", "OrderTooLarge", "OutOfRange", "ResonantRoot", "RootsNotDistinct", "RootsOutOfRange",
        "SingularSampleMatrix",
    ],
    "mlde": [
        "MLDE", "IndicialData", "ResidualReport", "fundamental_system", "indicial_polynomial", "mlde_from_exponents",
        "solve_frobenius", "verify_solution", "weight_relation_check",
    ],
    "qseries": ["DEFAULT_TERMS", "QExpansion"],
    "skew": ["SkewPolynomial", "d"],
    "structure": [
        "FreeBasisReport", "PoincareSeries", "TwoDimClass", "all_2dim_classes", "character_module", "classify_2dim",
        "coker_ps_difference", "cyclic_criterion", "free_basis_verify", "growth_bound", "ps_coefficient", "ps_cyclic",
        "ps_from_weights",
    ],
    "vvmf": [
        "VVMF", "RelationReport", "RepData", "ValidationReport", "check_relations", "default_sample_points",
        "evaluate_vec", "is_essential", "module_action", "recover_rho_S", "serre_vvmf", "validate",
    ],
}
NAMES = [(home, name) for home, names in EXPORTED.items() for name in names]
SUBMODULES = ["classical", "errors", "linalg", "mlde", "qseries", "skew", "structure", "vvmf"]


@pytest.mark.parametrize("home,name", NAMES, ids=[name for _, name in NAMES])
def test_name_resolves_to_its_home_object(home, name):
    assert getattr(modforms, name) is getattr(importlib.import_module(f"modforms.{home}"), name)


def test_all_lists_exactly_the_api():
    assert sorted(modforms.__all__) == sorted(name for _, name in NAMES)


def test_star_import_and_dir_cover_every_name():
    namespace = {}
    exec("from modforms import *", namespace)
    names = {name for _, name in NAMES}
    assert names <= set(namespace)
    assert names <= set(dir(modforms))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'modforms' has no attribute 'nope'$"):
        modforms.nope
    with pytest.raises(ImportError):
        exec("from modforms import nope", {})


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodules_stay_importable(name):
    namespace = {}
    exec(f"from modforms import {name}", namespace)
    assert namespace[name] is importlib.import_module(f"modforms.{name}") is getattr(modforms, name)


def test_cache_walk_empties_every_library_cache():
    # perfbench's Library.clear_caches walks module globals, then __wrapped__, then calls cache_clear;
    # a cache that walk cannot reach would carry warm-up state into a timed phase
    for info in pkgutil.iter_modules(modforms.__path__):
        importlib.import_module(f"modforms.{info.name}")
    from modforms.classical import eta_power
    from modforms.mlde import fundamental_system, mlde_from_exponents, verify_solution

    eq = mlde_from_exponents([Fraction(1, 12), Fraction(5, 12), Fraction(9, 12)])
    assert all(verify_solution(eq, f, 12).ok for f in fundamental_system(eq, 12).components)
    eta_power(2, 8)
    caches = [
        obj for obj in gc.get_objects()
        if isinstance(obj, functools._lru_cache_wrapper) and obj.__module__.startswith("modforms")
    ]
    warm = {cache.__qualname__ for cache in caches if cache.cache_info().currsize}
    assert {"_serre_tower", "_theta_form", "_monomial", "eisenstein", "eta_power", "euler_product"} <= warm
    for name, mod in list(sys.modules.items()):
        if name.startswith("modforms"):
            for obj in list(vars(mod).values()):
                while obj is not None and not hasattr(obj, "cache_clear"):
                    obj = getattr(obj, "__wrapped__", None)
                if obj is not None:
                    obj.cache_clear()
    assert [cache.__qualname__ for cache in caches if cache.cache_info().currsize] == []
