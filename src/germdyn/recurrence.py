"""Detection of eventual integral linear recursions in integer sequences.

A model of order k asserts u(n+k) = c1*u(n+k-1) + ... + ck*u(n) with integer
coefficients from some onset index onward.  Detection solves a small linear
system on trailing terms by fraction-free elimination over Z and then
verifies the relation across the whole tail, including a mandatory holdout
block.
"""

from __future__ import annotations


class NoRecurrenceFound(RuntimeError):
    pass


class RecurrenceModel:
    """Order, integer coefficients (c1..ck), and onset index."""

    __slots__ = ("order", "coeffs", "onset")

    def __init__(self, order: int, coeffs: list[int], onset: int):
        self.order = order
        self.coeffs = list(coeffs)
        self.onset = onset

    def predicts(self, seq, n: int) -> bool:
        """Does the relation hold at position n (predicting seq[n + order])?"""
        k = self.order
        return seq[n + k] == sum(
            self.coeffs[i] * seq[n + k - 1 - i] for i in range(k)
        )

    def char_poly(self) -> list[int]:
        """Monic characteristic polynomial, highest degree first."""
        return [1] + [-c for c in self.coeffs]

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [str(c) for c in self.coeffs],
            "onset": self.onset,
            "char_poly": [str(c) for c in self.char_poly()],
        }

    def __repr__(self):
        return "RecurrenceModel(order=%d, coeffs=%r, onset=%d)" % (
            self.order,
            self.coeffs,
            self.onset,
        )


def _solve_exact(rows: list[list[int]], rhs: list[int]):
    """Fraction-free Gauss-Jordan elimination over Z: (d, x) with
    rows . x = d * rhs and d = +-det(rows) != 0; None when singular.  Each
    step divides exactly by the previous pivot (Bareiss)."""
    k = len(rhs)
    aug = [list(rows[i]) + [rhs[i]] for i in range(k)]
    prev = 1
    for col in range(k):
        piv = next((r for r in range(col, k) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        top, p = aug[col], aug[col][col]
        for r in range(k):
            if r != col:
                f = aug[r][col]
                aug[r] = [(p * a - f * b) // prev for a, b in zip(aug[r], top)]
        prev = p
    return prev, [aug[i][k] for i in range(k)]


def detect_recursion(seq: list[int], max_order: int, holdout: int) -> RecurrenceModel:
    """Minimal-order integral recursion validated on the final holdout terms.

    Order k fits on 2k terms before the holdout block, so ``max_order`` is
    capped at half of them (at least 1; too few terms raise ValueError).
    Orders are tried in increasing order; for each, the coefficients come
    from an exact solve on the last equations before the holdout block, the
    onset is the least index after which the relation is exact, and the
    model must reproduce every holdout term.
    """
    if holdout < 0:
        raise ValueError("holdout must be >= 0")
    seq = list(seq)
    max_order = min(max_order, max(1, (len(seq) - holdout) // 2))
    if len(seq) < 2 * max_order + holdout:
        raise ValueError("sequence too short for requested order and holdout")
    if all(v == 0 for v in seq):
        return RecurrenceModel(1, [0], 0)
    fit_end = len(seq) - holdout  # equations use indices < fit_end
    for k in range(1, max_order + 1):
        model = _fit_order(seq, k, fit_end)
        # the onset follows the last index, holdout included, that the model
        # fails to predict; it must leave the holdout terms predicted
        if model is not None and model.onset + k <= fit_end:
            return model
    raise NoRecurrenceFound(
        "no integral recursion of order <= %d fits" % max_order
    )


def _fit_order(seq, k, fit_end):
    # slide the k-equation window backwards until the system is solvable
    top = fit_end - k  # last usable equation index n satisfies n + k < fit_end
    for start in range(top - k, -1, -1):
        eqs = range(start, start + k)
        sol = _solve_exact([[seq[n + k - 1 - i] for i in range(k)] for n in eqs],
                           [seq[n + k] for n in eqs])
        if sol is None:
            continue
        d, x = sol
        if any(c % d for c in x):  # a non-integral solution
            return None
        model = RecurrenceModel(k, [c // d for c in x], 0)
        onset = _minimal_onset(model, seq)
        if onset is None:
            return None
        model.onset = onset
        return model
    return None


def _minimal_onset(model, seq):
    k = model.order
    last_bad = -1
    for n in range(len(seq) - k):
        if not model.predicts(seq, n):
            last_bad = n
    onset = last_bad + 1
    if onset + k >= len(seq):
        return None
    return onset
