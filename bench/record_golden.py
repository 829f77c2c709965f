"""Record bench/golden.json: the sha256 of stdout and the exit code of every
CLI job the default seed runs, of every seed-independent iterate job any
seed can draw (c-seq and c-inf outputs depend only on their arguments), and
the multiplicity sequence of every (map, ideal, nmax) any seed can draw.

    python3 bench/record_golden.py

Run it only on a commit whose outputs are the reference; the benchmark
checks every later run against what it writes.
"""

from __future__ import annotations

import hashlib
import json
import sys

import workloads
from run import BENCH, run_child

DEFAULT_SEED = 0


def run_cli(argv):
    _, code, out, err = run_child(["cli", "-", "0", "0", "--"] + argv)
    if code is None:
        raise SystemExit("timeout: %s" % " ".join(argv))
    return code, out


def main() -> int:
    golden = {"default_seed": DEFAULT_SEED, "sha256": {}, "mu": {}}

    def record(argv):
        code, out = run_cli(argv)
        golden["sha256"][workloads.argv_key(argv)] = [hashlib.sha256(out).hexdigest(), code]
        return code, out

    fixed, pipelines = workloads.iterate_catalogue()
    for argv in fixed:
        code, _ = record(argv)
        if code != 0:
            raise SystemExit("exit %d: %s" % (code, " ".join(argv)))
    for argv in pipelines:
        code, out = record(argv)
        data = json.loads(out)
        if code != 0 or data.get("result") != "PASS":
            raise SystemExit("pipeline failed: %s" % " ".join(argv))
        map_text, ideal, nmax = argv[2], argv[4], int(argv[6])
        golden["mu"][workloads.mu_key(map_text, ideal, nmax)] = data["mu"]
    argv = ["mu-seq", "--map", workloads.PAPER_MAP, "--ideal", workloads.MU_IDEAL,
            "--nmax", str(workloads.MU_NMAX)]
    code, out = run_cli(argv)
    if code != 0:
        raise SystemExit("mu-seq failed")
    key = workloads.mu_key(workloads.PAPER_MAP, workloads.MU_IDEAL, workloads.MU_NMAX)
    golden["mu"][key] = json.loads(out)["mu"]

    bad = []
    for job in (workloads.family_jobs(DEFAULT_SEED)
                + workloads.iterate_jobs(DEFAULT_SEED)):
        code, out = record(job.argv)
        reason = workloads.check_cli(job, code, out, golden)
        if reason:
            bad.append("%s: %s" % (" ".join(job.argv), reason))
    if bad:
        sys.stderr.write("\n".join(bad) + "\n")
        return 1
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print("recorded %d outputs and %d sequences" % (len(golden["sha256"]), len(golden["mu"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
