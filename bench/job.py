"""Child process of the benchmark.  It imports germdyn from the ``src``
directory on PYTHONPATH and runs one of:

  job.py cli SPANS PASS OP -- ARGV...   one germdyn CLI invocation
  job.py lib SPANS PASS                 one pass of the library batch
  job.py setup WORKLOAD                 import and parse inputs, then exit

The workload spec for ``lib`` and ``setup`` arrives as JSON on stdin.
SPANS is ``-`` for an untraced run, else the file the spans are appended
to; the traced child also writes its per-layer summary to stderr after
TRACE_MARK.
"""

from __future__ import annotations

import json
import sys
import time

TRACE_MARK = "GERMDYN-BENCH-TRACE "
# a library pass times the reference task before every REF_EVERY-th call
REF_EVERY = 50

_now = time.perf_counter


def reference_seconds() -> float:
    """Time a fixed task that uses no germdyn code: sparse products of
    big-integer dictionaries, the kind of work germdyn does most.  The
    benchmark scales its times by it (see run.py)."""
    t0 = _now()
    a = {(i, j): (7 * i + 3 * j) ** 5 for i in range(12) for j in range(12)}
    out = {}
    for (i, j), c in a.items():
        for (k, m), d in a.items():
            key = (i + k, j + m)
            out[key] = out.get(key, 0) + c * d
    return _now() - t0


def _tracer(spans_path):
    if spans_path == "-":
        return None
    import germdyn.cli  # noqa: F401  (bind every import site before patching)
    from spans import Tracer, install

    tracer = Tracer()
    install(tracer)
    return tracer


def _finish_trace(tracer, spans_path, pass_no):
    if tracer is not None:
        tracer.dump(spans_path, pass_no)
        sys.stderr.write(TRACE_MARK + json.dumps(tracer.summary()) + "\n")


def run_cli(spans_path, pass_no, op_id, argv):
    tracer = _tracer(spans_path)
    from germdyn.cli import main

    if tracer is None:
        return main(argv)
    tracer.op = op_id
    try:
        return tracer.timed("cli", main)(argv)
    finally:
        sys.stdout.flush()
        _finish_trace(tracer, spans_path, pass_no)


# -- library batch (the multiplicity workload) --------------------------------

def _curve(terms):
    from germdyn.bipoly import BiPoly
    from germdyn.intersect import PlaneCurve

    return PlaneCurve(BiPoly({(i, j): c for i, j, c in terms}))


def build_lib_ops(spec):
    """The pass as a list of (fn, args); inputs are built here, untimed."""
    from germdyn.bipoly import BiPoly
    from germdyn.intersect import (GenericSampler, MapGerm, PlaneCurve,
                                   local_mult, mu_sequence, samuel_via_generic)
    from germdyn.polyparse import parse_map, parse_poly_list
    from germdyn.proximity import ProximityChart, intersection_matrix, skewness
    from germdyn.staircase import MonomialIdeal2, hilbert_samuel_fit, samuel

    ops = []
    sam = GenericSampler(spec["sampler_seed"])
    for p, q, r in spec["triples"]:
        P, Q, R = _curve(p), _curve(q), _curve(r)
        QR = PlaneCurve(Q.poly * R.poly)
        ops += [(local_mult, (P, Q, sam)), (local_mult, (Q, P, sam)),
                (local_mult, (P, R, sam)), (local_mult, (P, QR, sam))]
    for job in spec["mu"]:
        F = MapGerm(*parse_map(job["map"]))
        gens = parse_poly_list(job["ideal"])
        s = GenericSampler(job["seed"])
        z, w = s.draw_vector(len(gens)), s.draw_vector(len(gens))
        ops.append((mu_sequence, (F, gens, z, w, job["nmax"], s)))
    for job in spec["ideals"]:
        ideal = MonomialIdeal2(job["gens"])
        gens = [BiPoly.monomial(1, i, j) for i, j in ideal.gens]
        ops += [(samuel, (ideal,)), (hilbert_samuel_fit, (ideal, 1, job["fit_hi"])),
                (samuel_via_generic, (gens, GenericSampler(job["seed"])))]
    for job in spec["charts"]:
        chart = ProximityChart(job["r"], job["prox"], job["axis"])
        ops.append((intersection_matrix, (chart,)))
        for i, j in job["pairs"]:
            ops.append((skewness, (chart, i, j)))
    return ops


def _encode(value):
    from germdyn.intersect import INFINITE
    from germdyn.proximity import ExceptionalLattice

    if value is INFINITE:
        return "inf"
    if isinstance(value, ExceptionalLattice):
        return {"N": value.N, "b": value.b,
                "dual": [[str(v) for v in row] for row in value.dual]}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    if isinstance(value, int):
        return value
    return str(value)


def run_lib(spans_path, pass_no, spec):
    tracer = _tracer(spans_path)
    import germdyn  # noqa: F401

    ops = build_lib_ops(spec)
    times, results, refs = [], [], []
    now = _now
    start = now()
    for op_id, (fn, args) in enumerate(ops):
        if op_id % REF_EVERY == 0:
            refs.append(reference_seconds())
        if tracer is not None:
            tracer.op = op_id
        t0 = now()
        try:
            value = _encode(fn(*args))
        except Exception as exc:  # a failed operation is reported, not fatal
            value = {"error": "%s: %s" % (type(exc).__name__, exc)}
        times.append(now() - t0)
        results.append(value)
    wall = now() - start - sum(refs)
    json.dump({"wall": wall, "times": times, "refs": refs, "results": results},
              sys.stdout)
    sys.stdout.write("\n")
    sys.stdout.flush()
    _finish_trace(tracer, spans_path, pass_no)
    return 0


# -- set-up: import and parse the inputs, nothing else ------------------------

def run_setup(workload, spec):
    """What the program does before its work begins: import the CLI and
    parse each job's arguments, or, for the library batch, build its inputs."""
    from germdyn import cli

    if workload == "multiplicity":
        build_lib_ops(spec)
        return 0
    parser = cli.build_parser()
    for argv in spec["jobs"]:
        parser.parse_args(argv)
    return 0


def main():
    mode = sys.argv[1]
    if mode == "cli":
        spans_path, pass_no, op_id = sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
        if sys.argv[5] != "--":
            raise SystemExit("usage: job.py cli SPANS PASS OP -- ARGV...")
        return run_cli(spans_path, pass_no, op_id, sys.argv[6:])
    spec = json.load(sys.stdin)
    if mode == "lib":
        return run_lib(sys.argv[2], int(sys.argv[3]), spec)
    if mode == "setup":
        return run_setup(sys.argv[2], spec)
    raise SystemExit("unknown mode %r" % mode)


if __name__ == "__main__":
    sys.exit(main())
