"""Golden replay: every CLI job recorded in bench/golden.json, run in
process through the CLI, must reproduce the recorded stdout byte for byte
(by sha256) and the recorded exit code.  Every job must reach main's table
parse, and argparse, which main runs only for an argv the table parse
declines, must answer every job alike, stderr included.

The file is only read here; bench/record_golden.py writes it.
"""

import hashlib
import json
from pathlib import Path

from unittest import mock

import pytest

from germdyn import cli
from germdyn.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"
COMMANDS = ("curve", "verify", "arnold", "c-seq", "c-inf", "pipeline")


def _jobs():
    recorded = json.loads(GOLDEN.read_text())["sha256"]
    return [(json.loads(key), digest, code)
            for key, (digest, code) in sorted(recorded.items())]


JOBS = _jobs()


def test_golden_covers_the_cli_commands():
    assert len(JOBS) == 170
    assert {argv[0] for argv, _, _ in JOBS} == set(COMMANDS)


def test_every_golden_job_reaches_the_table_parse():
    # the benchmark's jobs, --seed after the leaf included, skip argparse
    declined = [argv for argv, _, _ in JOBS if cli._table_parse(argv) is None]
    assert declined == []


@pytest.mark.parametrize("argv,digest,code", JOBS,
                         ids=[" ".join(argv) for argv, _, _ in JOBS])
def test_golden_output(capsys, argv, digest, code):
    assert main(list(argv)) == code
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    with mock.patch.object(cli, "_table_parse", lambda argv: None):
        assert main(list(argv)) == code
    assert capsys.readouterr() == (out, err)
