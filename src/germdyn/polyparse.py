"""A small recursive-descent parser for the polynomial input grammar.

Accepts integer or rational coefficients, variables x and y, operators
+ - * ^, parentheses, and implicit multiplication ("2x y^3" or "2*x*y^3").
Map germs are written as a parenthesized pair "(x^2 - y^4, y^4)".
Every product and power the parser expands is held to a term budget, as
``BiPoly.compose`` holds its own, so that no input expands unbounded before
a computation's budget is read.
"""

from __future__ import annotations

from fractions import Fraction

from .bipoly import BiPoly, _check_budget
from .bounds import DEFAULT_BUDGET


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


class _Parser:
    def __init__(self, text: str, budget: int):
        self.text = text
        self.pos = 0
        self.budget = budget

    def error(self, msg):
        raise ParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error("expected %r" % ch)
        self.pos += 1

    def parse_expr(self) -> BiPoly:
        sign = 1
        if self.peek() in ("+", "-"):
            if self.peek() == "-":
                sign = -1
            self.pos += 1
        acc = self.parse_term() * sign
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            t = self.parse_term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def parse_term(self) -> BiPoly:
        acc = self.parse_factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
            elif not (ch and (ch in "xy(" or ch.isdigit())):
                return acc
            # an explicit or an implicit multiplication
            acc = acc * self.parse_factor()
            _check_budget(acc, self.budget)

    def parse_factor(self) -> BiPoly:
        base = self.parse_base()
        if self.peek() == "^":
            self.pos += 1
            n = self.parse_int()
            if n < 0:
                self.error("negative exponent")
            return base.power(n, self.budget)
        return base

    def parse_base(self) -> BiPoly:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if ch == "x":
            self.pos += 1
            return BiPoly.x()
        if ch == "y":
            self.pos += 1
            return BiPoly.y()
        if ch.isdigit():
            num = self.parse_int()
            if self.peek() == "/":
                self.pos += 1
                den = self.parse_int()
                if den == 0:
                    self.error("zero denominator")
                return BiPoly.const(Fraction(num, den))
            return BiPoly.const(num)
        self.error("expected a number, variable, or parenthesized expression")

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def parse_poly(text: str, budget: int = DEFAULT_BUDGET) -> BiPoly:
    """One polynomial; BudgetExceeded when a product or power it expands
    has more than ``budget`` terms."""
    p = _Parser(text, budget)
    try:
        result = p.parse_expr()
    except RecursionError:
        raise ParseError("parentheses nested too deeply", p.pos) from None
    if not p.at_end():
        p.error("trailing input")
    return result


def parse_poly_list(text: str, budget: int = DEFAULT_BUDGET) -> list[BiPoly]:
    """Comma-separated polynomials, respecting parenthesis nesting."""
    parts = split_top_level(text)
    return [parse_poly(part, budget) for part in parts]


def parse_map(text: str, budget: int = DEFAULT_BUDGET) -> tuple[BiPoly, BiPoly]:
    """A pair "(P, Q)" or "P, Q"."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1]
        if len(split_top_level(inner)) == 2:
            text = inner
    parts = split_top_level(text)
    if len(parts) != 2:
        raise ParseError("expected exactly two components", 0)
    return parse_poly(parts[0], budget), parse_poly(parts[1], budget)


def split_top_level(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses", i)
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ParseError("unbalanced parentheses", len(text))
    parts.append(text[start:])
    return [p for p in parts if p.strip()]
