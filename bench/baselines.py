"""Time the ROADMAP's hand-measured scaling points once each, through the
same child process the benchmark uses, and print a Markdown table.

    python3 bench/baselines.py

These points are too long for a benchmark pass (see NOTES.md); the table
sets today's numbers beside the ROADMAP's.
"""

from __future__ import annotations

import sys

from run import run_child
from workloads import PAPER_MAP

POINTS = [
    ("pipeline --nmax 5", ["pipeline", "--map", PAPER_MAP, "--ideal", "x, y", "--nmax", "5"]),
    ("pipeline --nmax 6", ["pipeline", "--map", PAPER_MAP, "--ideal", "x, y", "--nmax", "6"]),
    ("c-seq --nmax 6", ["c-seq", "--map", PAPER_MAP, "--nmax", "6"]),
    ("c-seq --nmax 7", ["c-seq", "--map", PAPER_MAP, "--nmax", "7"]),
    ("verify lemma --n 10000", ["verify", "lemma", "--n", "10000"]),
    ("verify bound --n 2000 (row to N=2000)",
     ["verify", "bound", "--seq", "0110:(10)", "--n", "2000"]),
    ("verify functoriality --n 4000",
     ["verify", "functoriality", "--seq", "0110:(10)", "--n", "4000"]),
]


def main() -> int:
    print("| job | seconds | exit |")
    print("|---|---|---|")
    for label, argv in POINTS:
        seconds, code, _, _ = run_child(["cli", "-", "0", "0", "--"] + argv)
        print("| `%s` | %.2f | %s |" % (label, seconds, code))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
