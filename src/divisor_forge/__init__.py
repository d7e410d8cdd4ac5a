"""divisor_forge: exact Weil/Cartier divisor calculus on normal varieties
presented as quotients of multigraded polynomial rings over the rationals."""

from .checks import (
    CheckReport,
    is_cartier,
    is_linearly_equivalent,
    is_principal,
    is_q_cartier,
    is_snc,
    non_cartier_locus,
)
from .correspondence import (
    canonical_divisor,
    divisor_of_fractional_ideal,
    divisor_with_section,
    effective_ideal,
    find_element_of_degree,
    sheaf_of,
)
from .divisors import WeilDivisor
from .errors import (
    DecompositionIncomplete,
    DivisorForgeError,
    FactorCoefficientsExceeded,
    FactorDegreeExceeded,
    GradingNotPositive,
    HeightNotOne,
    NonIntegralCoercion,
    NoSolution,
    NotCompleteIntersection,
    ParseError,
    PrimalityUncertain,
    Refusal,
    RingMismatch,
    ScriptError,
    WorkExceeded,
)
from .fractional import FractionalIdeal, reflexify
from .geometry import base_locus, map_to_projective_space, pullback
from .ideals import (
    Ideal,
    factor_polynomial,
    graded_piece_basis,
    ideal,
    irrelevant_ideal,
    max_symbolic_containment,
    minimal_height_one_primes,
    symbolic_power,
    unit_ideal,
)
from .ring import Grading, Polynomial, QuotientRing, RingMap, polynomial
from .smith import smith_normal_form, solve_diophantine

__all__ = [
    "CheckReport",
    "DecompositionIncomplete",
    "DivisorForgeError",
    "FactorCoefficientsExceeded",
    "FactorDegreeExceeded",
    "FractionalIdeal",
    "Grading",
    "GradingNotPositive",
    "HeightNotOne",
    "Ideal",
    "NoSolution",
    "NonIntegralCoercion",
    "NotCompleteIntersection",
    "ParseError",
    "Polynomial",
    "PrimalityUncertain",
    "QuotientRing",
    "Refusal",
    "RingMap",
    "RingMismatch",
    "ScriptError",
    "WeilDivisor",
    "WorkExceeded",
    "base_locus",
    "canonical_divisor",
    "divisor_of_fractional_ideal",
    "divisor_with_section",
    "effective_ideal",
    "factor_polynomial",
    "find_element_of_degree",
    "graded_piece_basis",
    "ideal",
    "irrelevant_ideal",
    "is_cartier",
    "is_linearly_equivalent",
    "is_principal",
    "is_q_cartier",
    "is_snc",
    "map_to_projective_space",
    "max_symbolic_containment",
    "minimal_height_one_primes",
    "non_cartier_locus",
    "polynomial",
    "pullback",
    "reflexify",
    "sheaf_of",
    "smith_normal_form",
    "solve_diophantine",
    "symbolic_power",
    "unit_ideal",
]

__version__ = "0.1.0"
