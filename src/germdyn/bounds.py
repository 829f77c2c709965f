"""What every layer shares: a certified lower bound, the error of an
exceeded budget and the default budget.  They live apart from ``series`` so
that code which only raises or returns them (``bipoly``, ``bitseq``, the
CLI) does not load the series arithmetic; ``series`` re-exports the types.
"""

from __future__ import annotations

DEFAULT_BUDGET = 10**6  # of every ``budget`` parameter; the CLI's --budget default


class BudgetExceeded(RuntimeError):
    """Raised when a sparse term-count budget or a bit-size budget is
    exceeded."""


class AtLeast:
    """Sentinel for a certified lower bound: the value is at least ``bound``.

    Stands for an order of vanishing when every known coefficient vanishes,
    a first-difference index or first one-bit when none lies below the
    horizon, and a contact order past the compared range; deliberately not
    an integer so it cannot silently enter arithmetic.
    """

    __slots__ = ("bound",)

    def __init__(self, bound: int):
        self.bound = bound

    def __eq__(self, other):
        return isinstance(other, AtLeast) and self.bound == other.bound

    def __hash__(self):
        return hash(("AtLeast", self.bound))

    def __repr__(self):
        return "AtLeast(%s)" % self.bound
