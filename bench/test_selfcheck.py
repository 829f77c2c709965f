"""Self-checks of the benchmark itself (not part of the package's tests):

    python3 -m pytest -q bench/test_selfcheck.py

Runs each workload traced, twice with the same seed, and checks that every
per-layer counter is nonzero on the workload named for it, zero on a
workload that bypasses it, and repeats exactly.  Takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH.parent


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def traced(workload):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    report, last = proc.stdout.strip().splitlines()[-2:]
    return json.loads(report), json.loads(last)


@pytest.fixture(scope="module")
def runs():
    return {w: (traced(w), traced(w)) for w in workloads.WORKLOADS}


def test_traced_runs_pass_their_checks(runs):
    for first, second in runs.values():
        for report, result in (first, second):
            assert result["correct"] and result["failed"] == 0, report["failures"]
            assert set(result["metrics"]) == {m for m, _ in run.layer_metrics()}


def test_counts_repeat_exactly(runs):
    for (_, a), (_, b) in runs.values():
        counts = {k for k, v in a["metrics"].items() if v["unit"] in ("count", "ratio")}
        assert {k: a["metrics"][k] for k in counts} == {k: b["metrics"][k] for k in counts}


def test_layer_map_names_the_listed_metrics():
    names = {m for m, _ in run.layer_metrics()}
    assert set(run.LAYER_WORKLOADS) <= names
    assert names - set(run.LAYER_WORKLOADS) == {"intersect.randomness_fallback",
                                                "process.cpu_s"}


def test_counters_nonzero_where_named_and_zero_where_bypassed(runs):
    for metric, (named, bypass) in run.LAYER_WORKLOADS.items():
        assert runs[named][0][1]["metrics"][metric]["value"] > 0, (metric, named)
        assert runs[bypass][0][1]["metrics"][metric]["value"] == 0, (metric, bypass)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "family", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_coefficient_oracle_matches_known_row():
    row = workloads.coefficient_oracle(workloads.Seq("", "0"), 6)
    assert row == [1, Fraction(-1, 2), Fraction(-1, 8), Fraction(-1, 16),
                   Fraction(-5, 128), Fraction(57, 256)]


def test_inputs_depend_only_on_seed():
    assert ([j.argv for j in workloads.family_jobs(7)]
            == [j.argv for j in workloads.family_jobs(7)])
    assert workloads.multiplicity_spec(7) == workloads.multiplicity_spec(7)
    assert workloads.multiplicity_spec(7) != workloads.multiplicity_spec(8)
    for seed in range(20):
        assert len(workloads.family_jobs(seed)) == len(workloads.family_jobs(0))
        assert len(workloads.iterate_jobs(seed)) == len(workloads.iterate_jobs(0))


def test_tail_percentile_leaves_ten_operations_beyond():
    for n in (39, 51, 2001):
        p = run.tail_percentile(n)
        assert n * (100 - p) / 100 >= 10 > n * (100 - p - 1) / 100


def test_scale_times_uses_the_bracketing_reference_samples():
    nominal = run.REF_NOMINAL_S
    # one sample per CLI job: job i is scaled by samples i-1, i and i+1
    assert run.scale_times([1.0, 1.0, 1.0], [nominal] * 3, 1) == [1.0, 1.0, 1.0]
    times = run.scale_times([1.0, 1.0, 1.0], [nominal, 2 * nominal, 2 * nominal], 1)
    assert times == pytest.approx([1 / 1.5, 0.5, 0.5])
    # one sample per group of calls in a library pass
    times = run.scale_times([1.0] * 6, [nominal, nominal, 4 * nominal], 2)
    assert times == pytest.approx([1.0, 1.0, 1.0, 1.0, 0.4, 0.4])
