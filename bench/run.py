"""The germdyn benchmark.

    python3 bench/run.py --workload {family,iterate,multiplicity,all}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; germdyn is imported from ``src``.
A run repeats one pass of the workload (the same seeded operations every
time) for about S seconds, with at least two passes.  Every CLI job is its own ``germdyn`` process and every library pass
is its own process, so no operation benefits from state an earlier one left
behind.  Outputs are checked after each pass.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes, and reports the per-layer metrics and the tracing overhead.  The last line of stdout is the result object; the lines before it
are a report with every metric, its unit and the run's metadata.

The end-to-end times are scaled to a fixed host speed, because this shared
host's speed drifts by a fifth over minutes: before every CLI job, and
before every job.REF_EVERY calls of a library pass, the benchmark times a
fixed pure-Python task of its own (``job.reference_seconds``), and each
operation's time is multiplied by REF_NOMINAL_S over the median of the three
reference times nearest to it (see ``scale_times``).  The unscaled figures
are in the report's ``meta``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from job import REF_EVERY, TRACE_MARK, reference_seconds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
JOB = BENCH / "job.py"
OUT = ROOT / ".bench_out"
# untraced runs take set-up samples throughout, so that their median sees
# the machine at the same moments as the passes do: one before every
# SETUP_EVERY-th CLI job, and SETUP_SAMPLES before each library pass
SETUP_EVERY = 4
SETUP_SAMPLES = 3
JOB_TIMEOUT = 120
MIN_PASSES = 2
# a typical time of the reference task on a 2-core VM (it read 4.5-9.7 ms
# there); scaled times are those of a host that runs the task in this time
REF_NOMINAL_S = 0.007

now = time.perf_counter


def child_env() -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def scale_times(times, refs, every):
    """Scale each operation's time to the host speed REF_NOMINAL_S stands
    for.  ``refs[c]`` was taken just before operations c*every to
    (c+1)*every - 1; an operation is scaled by the median of the reference
    times of its own group and the two next to it, which bracket it."""
    out = []
    for i, t in enumerate(times):
        c = min(i // every, len(refs) - 1)
        out.append(t * REF_NOMINAL_S / statistics.median(refs[max(0, c - 1):c + 2]))
    return out


def pin_to_one_cpu():
    """Run the benchmark and every child on one CPU, so that the reference
    task sees the CPU the operations run on."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def children_usage():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss


def run_child(args, stdin=None):
    """Run job.py and wait for it; returns (seconds, exit, stdout, stderr)."""
    t0 = now()
    try:
        proc = subprocess.run([sys.executable, str(JOB)] + args, input=stdin,
                              capture_output=True, env=child_env(),
                              timeout=JOB_TIMEOUT, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        return now() - t0, None, exc.stdout or b"", b"timeout"
    return now() - t0, proc.returncode, proc.stdout, proc.stderr


def trace_summary(stderr: bytes):
    for line in reversed(stderr.decode(errors="replace").splitlines()):
        if line.startswith(TRACE_MARK):
            return json.loads(line[len(TRACE_MARK):])
    return None


def merge_summary(total: dict, part):
    if part is None:
        total["missing"] = total.get("missing", 0) + 1
        return
    for name, (calls, incl, self_s) in part["layers"].items():
        row = total["layers"].setdefault(name, [0, 0.0, 0.0])
        row[0] += calls
        row[1] += incl
        row[2] += self_s
    for key, value in part["counters"].items():
        if key.endswith("max_dim"):
            total["counters"][key] = max(total["counters"].get(key, 0), value)
        else:
            total["counters"][key] = total["counters"].get(key, 0) + value


# -- one pass ----------------------------------------------------------------

class Workload:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.kind = workloads.WORKLOADS[name]
        self.golden = json.loads((BENCH / "golden.json").read_text())
        self.spec = self.generate()
        self.ops_per_pass = (len(self.spec["jobs"]) if self.kind == "cli"
                             else len(lib_op_kinds(self.spec)))
        # operations per reference sample
        self.ref_every = 1 if self.kind == "cli" else REF_EVERY

    def generate(self) -> dict:
        if self.name == "family":
            return {"jobs": workloads.family_jobs(self.seed)}
        if self.name == "iterate":
            return {"jobs": workloads.iterate_jobs(self.seed)}
        return workloads.multiplicity_spec(self.seed)

    def stdin_spec(self) -> bytes:
        if self.kind == "cli":
            return json.dumps({"jobs": [j.argv for j in self.spec["jobs"]]}).encode()
        return json.dumps(self.spec).encode()

    def setup_seconds(self) -> float:
        """Input generation plus a fresh process that imports germdyn and
        parses those inputs: what a run pays before its first operation."""
        t0 = now()
        self.generate()
        spec = self.stdin_spec()
        gen = now() - t0
        seconds, code, _, err = run_child(["setup", self.name], spec)
        if code != 0:
            raise RuntimeError("set-up failed: %s" % err.decode(errors="replace")[-500:])
        return gen + seconds

    def run_pass(self, pass_no: int, spans, setups=None):
        """(wall_s, op_times_s, reference_times_s, failures, trace_summary or
        None).  Set-up samples are appended to ``setups`` when it is a list;
        their time is not part of the pass."""
        target = str(spans) if spans else "-"
        summary = {"layers": {}, "counters": {}} if spans else None
        if self.kind == "cli":
            outputs, times, refs = [], [], []
            paused = 0.0
            t0 = now()
            for op_id, job in enumerate(self.spec["jobs"]):
                if setups is not None and op_id % SETUP_EVERY == 0:
                    setups.append(self.setup_seconds())
                    paused += setups[-1]
                refs.append(reference_seconds())
                paused += refs[-1]
                seconds, code, out, err = run_child(
                    ["cli", target, str(pass_no), str(op_id), "--"] + job.argv)
                times.append(seconds)
                outputs.append((code, out, err))
            wall = now() - t0 - paused
            failures = []
            for job, (code, out, err) in zip(self.spec["jobs"], outputs):
                reason = ("timeout" if code is None
                          else workloads.check_cli(job, code, out, self.golden))
                if reason:
                    failures.append("%s: %s" % (" ".join(job.argv), reason))
                if spans:
                    merge_summary(summary, trace_summary(err))
            return wall, times, refs, failures, summary
        if setups is not None:
            setups += [self.setup_seconds() for _ in range(SETUP_SAMPLES)]
        seconds, code, out, err = run_child(["lib", target, str(pass_no)],
                                            self.stdin_spec())
        if code != 0:
            detail = err.decode(errors="replace")[-500:]
            return seconds, [seconds] * self.ops_per_pass, [REF_NOMINAL_S], \
                ["library pass exited %s: %s" % (code, detail)] * self.ops_per_pass, summary
        data = json.loads(out)
        bad = workloads.check_multiplicity(self.spec, data["results"], self.golden)
        failures = ["op %d (%s): %r" % (i, lib_op_kinds(self.spec)[i], data["results"][i])
                    for i in sorted(bad)]
        if spans:
            merge_summary(summary, trace_summary(err))
        return data["wall"], data["times"], data["refs"], failures, summary


def lib_op_kinds(spec) -> list[str]:
    kinds = ["local_mult"] * (4 * len(spec["triples"]))
    kinds += ["mu_sequence"] * len(spec["mu"])
    kinds += ["samuel", "hilbert_samuel_fit", "samuel_via_generic"] * len(spec["ideals"])
    for chart in spec["charts"]:
        kinds += ["intersection_matrix"] + ["skewness"] * len(chart["pairs"])
    return kinds


# -- metrics -----------------------------------------------------------------

def tail_percentile(ops_per_pass: int) -> int:
    """Highest whole percentile with at least ten of one pass's operations
    beyond it; fixed per workload because the pass size is."""
    return math.floor(100 * (ops_per_pass - 10) / ops_per_pass)


def nearest_rank(sorted_vals, pct: float) -> float:
    k = max(1, math.ceil(pct / 100 * len(sorted_vals)))
    return sorted_vals[k - 1]


def layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


# metric -> (workload it is named for, workload that bypasses it), per
# NOTES.md; the metrics left out (intersect.randomness_fallback,
# process.cpu_s) have no such pair
LAYER_WORKLOADS = {
    "curvefamily.row.calls": ("family", "multiplicity"),
    "curvefamily.row.s": ("family", "multiplicity"),
    "curvefamily.row.coeffs_requested": ("family", "multiplicity"),
    "curvefamily.verify_bound.s": ("family", "multiplicity"),
    "curvefamily.verify_functoriality.s": ("family", "multiplicity"),
    "curvefamily.lemma.s": ("family", "multiplicity"),
    "curvefamily.mult_coeffwise.s": ("family", "multiplicity"),
    "series.mul.calls": ("family", "iterate"),
    "series.mul.s": ("family", "iterate"),
    "series.mul.slot_pairs": ("family", "iterate"),
    "dyadic.ops": ("family", "multiplicity"),
    "bitseq.first_difference.calls": ("family", "iterate"),
    "bitseq.first_difference.s": ("family", "iterate"),
    "bitseq.shift_by.s": ("family", "iterate"),
    "bipoly.compose.calls": ("iterate", "family"),
    "bipoly.compose.s": ("iterate", "family"),
    "bipoly.compose.out_terms": ("iterate", "family"),
    "bipoly.mul.calls": ("iterate", "family"),
    "bipoly.mul.s": ("iterate", "family"),
    "bipoly.gcd.calls": ("multiplicity", "family"),
    "bipoly.gcd.s": ("multiplicity", "family"),
    "bipoly.gcd.nontrivial_ratio": ("multiplicity", "family"),
    "bipoly.resultant.calls": ("multiplicity", "family"),
    "bipoly.resultant.s": ("multiplicity", "family"),
    "bipoly.resultant.max_dim": ("multiplicity", "family"),
    "intersect.local_mult.calls": ("multiplicity", "family"),
    "intersect.local_mult.self_s": ("multiplicity", "family"),
    "intersect.path.graph": ("multiplicity", "family"),
    "intersect.path.fiber": ("multiplicity", "family"),
    "intersect.path.shear": ("multiplicity", "family"),
    "intersect.path.infinite": ("multiplicity", "family"),
    "intersect.shear.draws": ("multiplicity", "family"),
    "intersect.shear.useful_ratio": ("multiplicity", "family"),
    "intersect.mu_sequence.s": ("multiplicity", "family"),
    "valuation.c_sequence.s": ("iterate", "multiplicity"),
    "valuation.c_infinity.s": ("iterate", "multiplicity"),
    "recurrence.detect_recursion.calls": ("iterate", "multiplicity"),
    "recurrence.detect_recursion.s": ("iterate", "multiplicity"),
    "staircase.colength_power.calls": ("multiplicity", "iterate"),
    "staircase.colength_power.s": ("multiplicity", "iterate"),
    "staircase.samuel.s": ("multiplicity", "iterate"),
    "proximity.intersection_matrix.calls": ("multiplicity", "iterate"),
    "proximity.intersection_matrix.s": ("multiplicity", "iterate"),
    "polyparse.parse.s": ("iterate", "family"),
    "cli.self_s": ("family", "multiplicity"),
}


def layer_values(first: dict, mean: dict, cpu_s: float) -> dict:
    """Counts from the first traced pass (every pass repeats them exactly);
    times are the mean per traced pass."""
    layers, counters = first["layers"], first["counters"]

    def calls(name):
        return layers.get(name, [0])[0]

    def incl(name):
        return mean["layers"].get(name, [0, 0.0, 0.0])[1]

    def self_time(name):
        return mean["layers"].get(name, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for metric, _ in layer_metrics():
        head, _, field = metric.rpartition(".")
        if metric == "process.cpu_s":
            out[metric] = cpu_s
        elif metric == "cli.self_s":
            out[metric] = self_time("cli")
        elif metric == "intersect.local_mult.self_s":
            out[metric] = self_time("intersect.local_mult")
        elif metric == "bipoly.gcd.nontrivial_ratio":
            out[metric] = ratio(counters.get("bipoly.gcd.nontrivial", 0),
                                calls("bipoly.gcd"))
        elif metric == "intersect.shear.useful_ratio":
            out[metric] = ratio(counters.get("intersect.shear.useful", 0),
                                counters.get("intersect.shear.draws", 0))
        elif field == "calls":
            out[metric] = calls(head)
        elif field == "s":
            out[metric] = incl(head)
        else:
            out[metric] = counters.get(metric, 0)
    return out


def source_meta() -> dict:
    files = sorted((SRC / "germdyn").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "src_lines": lines}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    wl = Workload(name, seed)
    setups = []
    spans = None
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / ("spans-%s-seed%d.jsonl" % (name, seed))
        spans.write_text("")
    walls, pass_times, failures, traced = [], [], [], []
    raw_times, ref_medians, scaled_setups = [], [], []
    cpu_traced = 0.0
    start = now()
    pass_no = 0
    while True:
        # traced runs alternate untraced and traced passes, so that drift in
        # machine speed falls on both sides of the overhead ratio
        tracing = trace and pass_no % 2 == 1
        cpu0, _ = children_usage()
        setups_before = len(setups)
        wall, op_times, refs, fails, summary = wl.run_pass(
            pass_no, spans if tracing else None, None if trace else setups)
        cpu1, rss = children_usage()
        failures += fails
        if tracing:
            traced.append((wall, summary))
            cpu_traced += cpu1 - cpu0
        else:
            ref_medians.append(statistics.median(refs))
            walls.append(wall)
            raw_times += op_times
            pass_times.append(scale_times(op_times, refs, wl.ref_every))
            scaled_setups += [t * REF_NOMINAL_S / ref_medians[-1]
                              for t in setups[setups_before:]]
        pass_no += 1
        elapsed = now() - start
        enough = len(traced) >= 1 if trace else len(walls) >= MIN_PASSES
        # stop when the next pass would overrun by more than half a pass, so a
        # run lasts about --seconds whatever the pass length
        if enough and elapsed + elapsed / pass_no / 2 > seconds:
            break
    attempted = pass_no * wl.ops_per_pass
    result = {
        "workload": name, "seed": seed, "passes": pass_no,
        "ops_per_pass": wl.ops_per_pass, "attempted": attempted,
        "failed": len(failures), "failures": failures[:20],
        "meta": dict(source_meta(), python=platform.python_version(),
                     nproc=os.cpu_count(), seed=seed, workload=name,
                     run_seconds=seconds),
    }
    if trace:
        summaries = [s for _, s in traced]
        mean = {"layers": {}, "counters": {}}
        for s in summaries:
            merge_summary(mean, s)
        for row in mean["layers"].values():
            row[1] /= len(summaries)
            row[2] /= len(summaries)
        traced_wall = statistics.mean(w for w, _ in traced)
        result["meta"]["trace_overhead"] = traced_wall / statistics.mean(walls) - 1
        result["meta"]["traced_wall_s"] = traced_wall
        result["meta"]["untraced_wall_s"] = statistics.mean(walls)
        result["meta"]["trace_missing"] = sum(s.get("missing", 0) for s in summaries)
        result["meta"]["spans_file"] = str(spans.relative_to(ROOT))
        result["layer_self_s"] = {k: v[2] for k, v in sorted(mean["layers"].items())}
        values = layer_values(summaries[0], mean, cpu_traced / len(summaries))
        result["metrics"] = {m: {"value": values[m], "unit": u}
                             for m, u in layer_metrics()}
        return result
    # each operation's scaled time is its median over the run's passes
    ops = sorted(statistics.median(op) for op in zip(*pass_times))
    raw_times.sort()
    pct = tail_percentile(wl.ops_per_pass)
    result["meta"].update(
        tail_percentile=pct, op_count=len(ops), setup_samples=len(setups),
        reference_ms=[1e3 * r for r in ref_medians], unscaled={
            "setup_s": statistics.median(setups),
            "wall_s": statistics.mean(walls),
            "op_p50_ms": 1e3 * statistics.median(raw_times),
            "op_tail_ms": 1e3 * nearest_rank(raw_times, pct)})
    result["metrics"] = {
        "setup_s": {"value": statistics.median(scaled_setups), "unit": "s"},
        "wall_s": {"value": sum(ops), "unit": "s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(ops), "unit": "ms"},
        "op_tail_ms": {"value": 1e3 * nearest_rank(ops, pct), "unit": "ms"},
        "peak_rss_mb": {"value": rss / 1024, "unit": "MB"},
    }
    result["report"] = dict(result["metrics"], fail_ratio={
        "value": len(failures) / attempted, "unit": "ratio"},
        op_tail_percentile={"value": pct, "unit": "%"},
        op_count={"value": len(ops), "unit": "count"})
    return result


def final_line(result: dict) -> dict:
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result["metrics"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "germdyn" / "__init__.py").is_file():
        sys.stderr.write("error: no germdyn sources under %s\n" % SRC)
        return 2
    if args.workload == "all":
        return run_all(args)
    pin_to_one_cpu()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({k: v for k, v in result.items() if k != "metrics"}))
    print(json.dumps(final_line(result)))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        report_line, last = proc.stdout.strip().splitlines()[-2:]
        report, result = json.loads(report_line), json.loads(last)
        shown = report.get("report", result["metrics"])
        print(json.dumps({"workload": name, "metrics": shown, "meta": report["meta"],
                          "failures": report["failures"]}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, key)] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
