"""Exact norm-form solving and unit reduction in real quadratic orders Z[sqrt(m)]."""

from .pell import CFExpansion, cf_sqrt, fundamental_unit, is_unit, rd_unit
from .qint import DomainError, PerfectSquareError, QuadInt, is_square
from .rdtheory import (
    Counterexample,
    NormClassifier,
    RDForm,
    VerificationReport,
    Witness,
    allowed_set,
    class_number_witness,
    is_prime,
    prop26_generators,
    prop_radicand,
    rd_classify,
    verify_prop,
)
from .reduction import (
    ReductionResult,
    reduce_half,
    reduce_window,
    unit_inverse,
)
from .solve import (
    SolutionSet,
    coeff_bounds,
    is_representable,
    solve_norm,
)

__version__ = "0.1.0"

__all__ = [
    "CFExpansion",
    "Counterexample",
    "DomainError",
    "NormClassifier",
    "PerfectSquareError",
    "QuadInt",
    "RDForm",
    "ReductionResult",
    "SolutionSet",
    "VerificationReport",
    "Witness",
    "allowed_set",
    "cf_sqrt",
    "class_number_witness",
    "coeff_bounds",
    "fundamental_unit",
    "is_prime",
    "is_representable",
    "is_square",
    "is_unit",
    "prop26_generators",
    "prop_radicand",
    "rd_classify",
    "rd_unit",
    "reduce_half",
    "reduce_window",
    "solve_norm",
    "unit_inverse",
    "verify_prop",
]
