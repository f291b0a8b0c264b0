"""Exact finite-dimensional nonunitary representations of the Poincare algebra.

Builds angular-momentum, boost, vector, and momentum matrices for two-block
spin representations (A,B)+(C,D) in exact radical arithmetic, with three
independent construction routes and a zero-tolerance verifier for all 45
commutation rules.
"""

from .radical import RadicalScalar, normalize_radical, sqrt_of_rational, ZERO, ONE, I_UNIT
from .spins import Spin, SpinPair
from .matrix import Matrix, commutator, anticommutator
from .generators import (
    GeneratorSet,
    direct_sum,
    irrep_generators,
    ladder_coeff_r,
    ladder_coeff_s,
    rotation_rep,
)
from .vectors import (
    CaseTag,
    FreeParams,
    NoSolutionError,
    SELECTION_RULE,
    TUCoefficients,
    VectorSet,
    classify_case,
    closed_form_vectors,
    pattern_vectors,
    recursion_solve,
    vectors_from_coefficients,
)
from .cg import (
    RatioFit,
    RatioMismatch,
    cg_block,
    cg_vector_matrices,
    clebsch_gordan,
    equivalence_ratio,
)
from .momentum import momentum_from_vectors, noncommutativity_witness, translation_combination
from .verify import (
    RuleReport,
    check_lorentz,
    check_poincare,
    check_translations,
    check_vector_rules,
    sweep,
)
from .probes import CliffordReport, check_clifford, finite_covariance_check, matrix_exp

__all__ = [
    "RadicalScalar", "normalize_radical", "sqrt_of_rational", "ZERO", "ONE", "I_UNIT",
    "Spin", "SpinPair",
    "Matrix", "commutator", "anticommutator",
    "GeneratorSet", "direct_sum", "irrep_generators",
    "ladder_coeff_r", "ladder_coeff_s", "rotation_rep",
    "CaseTag", "FreeParams", "NoSolutionError", "SELECTION_RULE",
    "TUCoefficients", "VectorSet", "classify_case", "closed_form_vectors",
    "pattern_vectors", "recursion_solve", "vectors_from_coefficients",
    "RatioFit", "RatioMismatch",
    "cg_block", "cg_vector_matrices", "clebsch_gordan",
    "equivalence_ratio",
    "momentum_from_vectors", "noncommutativity_witness",
    "translation_combination",
    "CliffordReport", "RuleReport", "check_clifford", "check_lorentz",
    "check_poincare", "check_translations", "check_vector_rules",
    "finite_covariance_check", "matrix_exp", "sweep",
]

__version__ = "0.1.0"
