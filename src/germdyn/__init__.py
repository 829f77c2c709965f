"""Exact arithmetic for superattracting plane germs.

Curve families indexed by binary sequences, local intersection
multiplicities, Newton-staircase multiplicities, and valuative attraction
rates, all over exact integer, dyadic, and rational arithmetic.
"""

from .bipoly import BiPoly, BudgetExceeded, ZeroPolynomial, bipoly_gcd, resultant_x
from .bitseq import BitSeq, first_difference, parse_bitseq
from .curvefamily import (
    CoeffTable,
    GrowthSpec,
    build_theoremA_pair,
    coeff,
    curve,
    lemma_sum_check,
    mult_coeffwise,
    mult_formula,
    mu_theoremA,
    section3_recursion_check,
    verify_bound,
    verify_functoriality,
)
from .dyadic import Dyadic
from .intersect import (
    INFINITE,
    GenericSampler,
    MapGerm,
    PlaneCurve,
    local_mult,
    mu_sequence,
    pullback,
    samuel_via_generic,
)
from .proximity import ExceptionalLattice, ProximityChart, intersection_matrix, skewness
from .recurrence import NoRecurrenceFound, RecurrenceModel, detect_recursion
from .series import AtLeast, USeries
from .staircase import (
    MonomialIdeal2,
    colength_power,
    containment_index,
    hilbert_samuel_fit,
    minkowski_check,
    mixed,
    product,
    samuel,
)
from .valuation import (
    AsymptoticRate,
    MonomialValuation,
    attraction_rate,
    c_infinity,
    c_sequence,
    growth_envelope_check,
)

__version__ = "0.1.0"
