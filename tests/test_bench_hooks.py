"""The traced benchmark wraps germdyn's entry points by name (``bench/spans.py``
``install``).  This guard runs that installation in a fresh process, so that
deleting or renaming a name it patches fails here and not only in a traced
benchmark run.  The benchmark's own ``multiplicity`` checks run here too, in
process, so that a broken law or a changed golden mu fails the test suite and
not only a benchmark run."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import germdyn

SRC = os.path.dirname(os.path.dirname(germdyn.__file__))
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# installs the tracer as a traced benchmark child does, then makes two
# local_mult calls, whose wrapper unpacks local_mult_detailed's pair (a
# singular pair and a smooth transversal one, decided by its cones), one
# Hilbert-Samuel fit (eight colength_power calls, each one round of the DP
# on the staircase the ideal keeps) and one lattice build
PROBE = """\
import json
import germdyn, germdyn.cli
from spans import Tracer, install
tracer = Tracer()
install(tracer)
from germdyn.intersect import PlaneCurve, local_mult
from germdyn.polyparse import parse_poly
from germdyn.proximity import ProximityChart, intersection_matrix
from germdyn.staircase import MonomialIdeal2, hilbert_samuel_fit
value = local_mult(PlaneCurve(parse_poly("y^2 - x^3")),
                   PlaneCurve(parse_poly("y^2 - x^3 + x^4")))
smooth = local_mult(PlaneCurve(parse_poly("x + y^2")), PlaneCurve(parse_poly("y + x^2")))
fit = hilbert_samuel_fit(MonomialIdeal2([(3, 0), (1, 1), (0, 2)]), 1, 8)
lattice = intersection_matrix(ProximityChart(3, [(2, 1), (3, 2), (3, 1)]))
summary = tracer.summary()
print(json.dumps([[str(value), str(smooth)], fit, lattice.b, summary["layers"],
                  summary["counters"]]))
"""


def test_benchmark_tracer_installs_on_the_current_names():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([SRC, BENCH])}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    values, fit, b, layers, counters = json.loads(proc.stdout)
    assert (values, fit, b) == (["8", "1"], 5, [1, 1, 2])
    # no decision step, the cones' O(1) read of two smooth curves included,
    # bypasses the traced entry point: each call is timed and gets one path
    assert layers["intersect.local_mult"][0] == 2
    assert sum(n for k, n in counters.items() if k.startswith("intersect.path.")) == 2
    # the bench reads <layer>.calls and <layer>.s off [calls, inclusive_s, self_s]
    assert layers["staircase.colength_power"][0] == 8
    assert layers["proximity.intersection_matrix"][0] == 1
    for name in ("staircase.colength_power", "proximity.intersection_matrix"):
        assert layers[name][1] > 0, (name, layers[name])


def bench_module(name):
    """A module of the benchmark directory, loaded under a private name so
    that the import path is left alone; the files are only read."""
    spec = importlib.util.spec_from_file_location("bench_" + name,
                                                  os.path.join(BENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 7])
def test_the_benchmark_multiplicity_checks_fail_no_operation(seed):
    workloads, job = bench_module("workloads"), bench_module("job")
    with open(os.path.join(BENCH, "golden.json")) as fh:
        golden = json.load(fh)
    # the benchmark hands its child the spec as JSON
    spec = json.loads(json.dumps(workloads.multiplicity_spec(seed)))
    results = [job._encode(fn(*args)) for fn, args in job.build_lib_ops(spec)]
    assert len(results) > 1800
    assert workloads.check_multiplicity(spec, results, golden) == set()
