"""Exact q-expansions, MLDEs, and M-module structure for SL(2,Z) forms."""

from .classical import (
    EtaPower,
    PolynomialQR,
    delta,
    dim_M,
    eisenstein,
    eta_power,
    euler_product,
    from_qexpansion,
    monomial_basis,
    serre_derivative,
    serre_derivative_poly,
    to_qexpansion,
)
from .errors import (
    AmbiguousTruncation,
    CannotExtend,
    DependentGenerators,
    InsufficientTruncation,
    IrrationalRoots,
    ModformError,
    NonConvergent,
    NonIntegralOffset,
    NonIntegralWeight,
    NotARoot,
    NotIndecomposable,
    NotInM,
    OddWeight,
    OrderTooLarge,
    OutOfRange,
    ResonantRoot,
    RootsNotDistinct,
    RootsOutOfRange,
    SingularSampleMatrix,
)
from .mlde import (
    MLDE,
    IndicialData,
    ResidualReport,
    fundamental_system,
    indicial_polynomial,
    mlde_from_exponents,
    solve_frobenius,
    verify_solution,
    weight_relation_check,
)
from .qseries import DEFAULT_TERMS, QExpansion
from .skew import SkewPolynomial, d
from .structure import (
    FreeBasisReport,
    FundamentalWeights,
    PoincareSeries,
    TwoDimClass,
    all_2dim_classes,
    character_module,
    classify_2dim,
    coker_ps_difference,
    cyclic_criterion,
    free_basis_verify,
    growth_bound,
    ps_coefficient,
    ps_cyclic,
    ps_from_weights,
)
from .vvmf import (
    VVMF,
    RelationReport,
    RepData,
    ValidationReport,
    check_relations,
    default_sample_points,
    evaluate_vec,
    is_essential,
    module_action,
    recover_rho_S,
    serre_vvmf,
    validate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
