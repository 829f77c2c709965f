"""Exact arithmetic for superattracting plane germs.

Curve families indexed by binary sequences, local intersection
multiplicities, Newton-staircase multiplicities, and valuative attraction
rates, all over exact integer, dyadic, and rational arithmetic.

Importing the package loads none of its modules.  A name listed in
``_EXPORTS`` (``germdyn.BiPoly``, ``from germdyn import mu_sequence``) or one
of its modules (``germdyn.intersect``) is imported on first use (PEP 562),
and is the very object its defining module holds.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "bipoly": ("BiPoly", "MapGerm", "ZeroPolynomial", "bipoly_gcd", "resultant_x"),
    "bitseq": ("BitSeq", "first_difference", "parse_bitseq"),
    "bounds": ("AtLeast", "BudgetExceeded"),
    "curvefamily": (
        "CoeffTable",
        "GrowthSpec",
        "build_theoremA_pair",
        "coeff",
        "curve",
        "lemma_sum_check",
        "mult_coeffwise",
        "mult_formula",
        "mu_theoremA",
        "section3_recursion_check",
        "verify_bound",
        "verify_functoriality",
    ),
    "dyadic": ("Dyadic",),
    "intersect": (
        "INFINITE",
        "GenericSampler",
        "PlaneCurve",
        "local_mult",
        "mu_sequence",
        "pullback",
        "samuel_via_generic",
    ),
    "proximity": ("ExceptionalLattice", "ProximityChart", "intersection_matrix", "skewness"),
    "recurrence": ("NoRecurrenceFound", "RecurrenceModel", "detect_recursion"),
    "series": ("USeries",),
    "staircase": (
        "MonomialIdeal2",
        "colength_power",
        "containment_index",
        "hilbert_samuel_fit",
        "minkowski_check",
        "mixed",
        "product",
        "samuel",
    ),
    "valuation": (
        "AsymptoticRate",
        "MonomialValuation",
        "attraction_rate",
        "c_infinity",
        "c_sequence",
        "growth_envelope_check",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(import_module("." + _HOME[name], __name__), name)
    if name in _EXPORTS:
        return import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
