"""Spans and counters recorded from outside germdyn, by wrapping the public
entry points of each module in the benchmark's child process.

``install()`` replaces every entry point at every site that binds it: the
defining module, each module that did ``from .x import name``, and the class
for methods.  Wrapping only the defining module would leave call sites such
as ``cli.verify_bound`` or ``intersect.bipoly_gcd`` unobserved.

A span is ``[name, start, end, parent_index, op_id]``.  Spans stay in memory
until the process ends; ``summary()`` folds them into per-layer calls,
inclusive time and self time, and ``dump()`` writes them out.
"""

from __future__ import annotations

import json
import sys
import time

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.op = -1

    def count(self, key: str, n: int = 1):
        self.counters[key] = self.counters.get(key, 0) + n

    def peak(self, key: str, value: int):
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def timed(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, result)`` records counters."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _now()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict:
        """{"layers": {name: [calls, inclusive_s, self_s]}, "counters": {...}}.

        Inclusive time counts a span only when no ancestor has the same name,
        so nested calls of one entry point are not counted twice.  Self time
        is a span's duration minus the durations of its direct children.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: dict[str, list] = {}
        for idx, (name, start, end, parent, _) in enumerate(spans):
            row = layers.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[2] += (end - start) - child_time[idx]
            outermost = True
            p = parent
            while p >= 0:
                if spans[p][0] == name:
                    outermost = False
                    break
                p = spans[p][3]
            if outermost:
                row[1] += end - start
        return {"layers": layers, "counters": dict(self.counters)}

    def dump(self, path: str, pass_no: int):
        """Append this process's spans to ``path`` as one JSON line."""
        with open(path, "a") as fh:
            fh.write(json.dumps({"pass": pass_no, "spans": self.spans}) + "\n")


def _patch_function(modules, owner, attr, wrapper_for):
    """Replace ``owner.attr`` at every module global that is bound to it."""
    original = getattr(owner, attr)
    wrapper = wrapper_for(original)
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, wrapper)


def _patch_method(cls, attr, wrapper_for):
    setattr(cls, attr, wrapper_for(cls.__dict__[attr]))


def install(tracer: Tracer):
    """Wrap germdyn's entry points; germdyn and germdyn.cli must be imported."""
    from germdyn import (bipoly, bitseq, curvefamily, dyadic, intersect,
                         polyparse, proximity, recurrence, series, staircase,
                         valuation)
    from germdyn.intersect import INFINITE

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "germdyn" or name.startswith("germdyn."))]
    t = tracer

    def timed(name, after=None):
        return lambda fn: t.timed(name, fn, after)

    # curve family
    _patch_method(curvefamily.CoeffTable, "row", timed(
        "curvefamily.row",
        lambda a, r: t.count("curvefamily.row.coeffs_requested", a[2])))
    for attr, name in (("verify_bound", "curvefamily.verify_bound"),
                       ("verify_functoriality", "curvefamily.verify_functoriality"),
                       ("lemma_sum_check", "curvefamily.lemma"),
                       ("lemma_sum_check_range", "curvefamily.lemma"),
                       ("mult_coeffwise", "curvefamily.mult_coeffwise")):
        _patch_function(modules, curvefamily, attr, timed(name))

    # series and dyadic arithmetic
    _patch_method(series.USeries, "__mul__", timed(
        "series.mul",
        lambda a, r: t.count("series.mul.slot_pairs", a[0].trunc * a[1].trunc)))
    for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__neg__", "__abs__", "halve", "__eq__", "__lt__",
                 "__le__", "__gt__", "__ge__", "abs_leq"):
        _patch_method(dyadic.Dyadic, attr, lambda fn: t.counted("dyadic.ops", fn))

    # binary sequences
    _patch_function(modules, bitseq, "first_difference",
                    timed("bitseq.first_difference"))
    _patch_method(bitseq.BitSeq, "shift_by", timed("bitseq.shift_by"))

    # bivariate polynomials
    _patch_method(bipoly.BiPoly, "compose", timed(
        "bipoly.compose",
        lambda a, r: t.count("bipoly.compose.out_terms", len(r.terms))))
    _patch_method(bipoly.BiPoly, "__mul__", timed("bipoly.mul"))
    _patch_method(bipoly.BiPoly, "__rmul__", timed("bipoly.mul"))
    _patch_function(modules, bipoly, "bipoly_gcd", timed(
        "bipoly.gcd",
        lambda a, r: t.count("bipoly.gcd.nontrivial", 0 if r.is_constant() else 1)))

    def after_resultant(a, r):
        t.peak("bipoly.resultant.max_dim", a[0].degree_x() + a[1].degree_x())
        if any(r):
            t.count("bipoly.resultant.nonzero")

    _patch_function(modules, bipoly, "resultant_x",
                    timed("bipoly.resultant", after_resultant))

    # local multiplicities: the decision path is read off the public calls a
    # local_mult call makes (shear draws, resultants) and its result
    _patch_method(intersect.GenericSampler, "unimodular",
                  lambda fn: t.counted("intersect.shear.draws", fn))
    inner = intersect.local_mult_detailed

    def local_mult_detailed(*args, **kwargs):
        c = t.counters
        draws0 = c.get("intersect.shear.draws", 0)
        res0 = len(t.spans)
        nonzero0 = c.get("bipoly.resultant.nonzero", 0)
        value, fallback = traced_inner(*args, **kwargs)
        draws = c.get("intersect.shear.draws", 0) - draws0
        resultants = sum(1 for s in t.spans[res0:] if s[0] == "bipoly.resultant")
        if value is INFINITE:
            path = "infinite"
        elif draws:
            path = "shear"
            t.count("intersect.shear.useful",
                    c.get("bipoly.resultant.nonzero", 0) - nonzero0)
        elif resultants:
            path = "fiber"
        else:
            path = "graph"
        t.count("intersect.path." + path)
        if fallback:
            t.count("intersect.randomness_fallback")
        return value, fallback

    traced_inner = t.timed("intersect.local_mult", inner)
    _patch_function(modules, intersect, "local_mult_detailed",
                    lambda fn: local_mult_detailed)
    _patch_function(modules, intersect, "mu_sequence", timed("intersect.mu_sequence"))

    # dynamics
    _patch_function(modules, valuation, "c_sequence", timed("valuation.c_sequence"))
    _patch_function(modules, valuation, "c_infinity", timed("valuation.c_infinity"))
    _patch_function(modules, recurrence, "detect_recursion",
                    timed("recurrence.detect_recursion"))

    # staircases, proximity, parsing
    _patch_function(modules, staircase, "colength_power",
                    timed("staircase.colength_power"))
    _patch_function(modules, staircase, "samuel", timed("staircase.samuel"))
    _patch_function(modules, proximity, "intersection_matrix",
                    timed("proximity.intersection_matrix"))
    for attr in ("parse_poly", "parse_poly_list", "parse_map"):
        _patch_function(modules, polyparse, attr, timed("polyparse.parse"))
