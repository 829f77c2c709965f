"""In-process fuzzing of the CLI: every drawn argv ends in exit code 0-3 and
never in an exception, a json result (code 0 or 1) is valid JSON, main
answers as it does when argparse parses every argv, and the table parse
accepts only what argparse accepts, into the namespace argparse gives."""

import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from germdyn import cli
from germdyn.cli import COMMANDS, GLOBALS, main

LEAVES = [(path, arguments) for path, _, handler, arguments in COMMANDS
          if handler is not None]
GROUPS = [path for path, _, handler, _ in COMMANDS if handler is None]
LEAF_OF = {handler: path for path, _, handler, _ in COMMANDS if handler is not None}

garbage = st.text(max_size=12)
small = st.integers(-3, 3).map(str)
MAPS = ["(x^2 - y^4, y^4)", "(x^2 + y^3, x y)", "(y^2, x^2 - y^3)", "(y, x y)",
        "(x^2, y^2)", "(x, y)", "(0, y)", "(x^2 - y^4)"]
IDEALS = ["x, y", "x^2, y^3", "x - 2 y, y^2", "x, x", "x y", "1", "x^2 + y",
          "y - x^2, x^3", "x^3, y^2", "x^2, x y, y^2"]
SEQS = ["0", "1", "001", ":(01)", "0110:(10)", ":1...", "", "2"]

# flags whose default is expensive are always passed, with a small value
ALWAYS = {"--n", "--nmax", "--horizon", "--coeff-horizon"}
VALUES = {
    "--nmax": st.sampled_from(["3", "2", "1", "0", "-1"]),
    "--n": st.integers(-2, 60).map(str),
    "--witnesses": st.integers(-1, 2).map(str),
    "--horizon": st.integers(-1, 40).map(str),
    "--coeff-horizon": st.integers(-1, 60).map(str),
    "--max-order": small,
    "--holdout": small,
    "--i": small,
    "--j": small,
    "--map": st.sampled_from(MAPS),
    "--ideal": st.sampled_from(IDEALS),
    "--ideal-a": st.sampled_from(IDEALS),
    "--ideal-b": st.sampled_from(IDEALS),
    "--seq": st.sampled_from(SEQS),
    "--a": st.sampled_from(SEQS),
    "--b": st.sampled_from(SEQS),
    "--nu": st.sampled_from(["pow:2", "pow:0", "tower:2", "factorial", "table:TABLE",
                             "table:/nonexistent", "pow:x"]),
    "--wx": st.sampled_from(["1", "2", "1/2", "3", "0", "x", "1/0"]),
    "--wy": st.sampled_from(["1", "3", "2/3", "2", "-1", "1/0"]),
    "--terms": st.sampled_from(["1,2,4,8,16,32", "1,1,2,3,5,8,13,21", "1", "", "a,b"]),
    "--chart": st.sampled_from(["CHART", "/nonexistent/chart.json"]),
}
GLOBAL_VALUES = {
    "--seed": small,
    "--format": st.sampled_from(["json", "csv", "text", "json", "xml"]),
    "--budget": st.sampled_from(["-1", "0", "2", "50", "1000000"]),
}


@st.composite
def argvs(draw):
    leaf = draw(st.integers(0, len(LEAVES) + len(GROUPS)))
    if leaf < len(LEAVES):
        path, arguments = LEAVES[leaf]
        argv = list(path)
        for flag, _ in arguments:
            # one flag in ten is left out, one value in ten is garbage
            value = draw(VALUES[flag] if draw(st.integers(0, 9)) else garbage)
            if flag in ALWAYS or draw(st.integers(0, 9)):
                argv += [flag, value]
    elif leaf < len(LEAVES) + len(GROUPS):
        argv = list(GROUPS[leaf - len(LEAVES)])  # a group without its leaf
    else:
        argv = [draw(st.sampled_from(["frobnicate", "", "Curve"]))]
    before, after = [], []
    fmt = "json"
    for flag, _, _ in GLOBALS:
        if flag in GLOBAL_VALUES and draw(st.booleans()):
            value = draw(GLOBAL_VALUES[flag])
            fmt = value if flag == "--format" else fmt
            (before if draw(st.booleans()) else after).extend([flag, value])
    return before + argv + after, fmt


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """CHART names a valid chart, TABLE a growth table too short for arnold."""
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "chart.json").write_text(
        json.dumps({"points": 4, "proximate": [[2, 1], [3, 2], [4, 3], [4, 2]]}))
    (tmp / "table.txt").write_text("1\n2\n")
    return {"CHART": str(tmp / "chart.json"), "TABLE": str(tmp / "table.txt")}


def with_files(argv, files):
    for name, path in files.items():
        argv = [a.replace(name, path) for a in argv]
    return argv


def outcome(argv):
    """(exit code, stdout, stderr) of one in-process run of main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def full_parser_outcome(argv):
    """The outcome with the table parse switched off, so argparse parses."""
    with mock.patch.object(cli, "_table_parse", lambda argv: None):
        return outcome(argv)


def argparse_namespace(argv):
    """vars of the full parser's namespace, or None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=300, deadline=None)
@given(drawn=argvs())
@example(drawn=(["arnold", "--nu", "table:TABLE", "--witnesses", "2"], "json"))
def test_every_argv_ends_in_an_exit_code(files, drawn):
    argv, fmt = drawn
    code, out, err = outcome(with_files(argv, files))
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code in (0, 1) and fmt == "json":
        json.loads(out)


@settings(max_examples=150, deadline=None)
@given(drawn=argvs())
def test_the_leaf_parser_answers_as_the_full_parser(files, drawn):
    argv = with_files(drawn[0], files)
    assert outcome(argv) == full_parser_outcome(argv), argv


MAP_ARGS = ["--map", "(x^2 + y^3, x y)", "--nmax", "2"]


@pytest.mark.parametrize("argv", [
    ["c-seq", *MAP_ARGS, "extra", "--more"],  # trailing extra arguments
    ["--seed=3", "c-seq", *MAP_ARGS],
    ["c-seq", "--seed=3", *MAP_ARGS],
    ["--seed=x", "c-seq", *MAP_ARGS],
    ["--bud", "5", "c-seq", *MAP_ARGS],  # an abbreviated flag before the leaf
    ["c-seq", "--bud", "5", *MAP_ARGS],
    ["c-seq", "--nm", "2", "--map", "(x^2 + y^3, x y)"],
    ["-h", "c-seq"],
    ["c-seq", "-h"],
    ["curve", "-h", "coeffs"],
    ["curve", "coeffs", "-h"],
    ["curve", "--seed", "1", "coeffs", "--seq", "0", "--n", "2"],
    ["curve", "--format", "xml", "coeffs", "--seq", "0", "--n", "2"],
    ["--format", "xml", "c-seq", *MAP_ARGS],
    ["--format", "csv", "--budget", "3", "c-seq", *MAP_ARGS],
    ["--seed", "-1", "arnold", "--nu", "pow:2"],
    ["--out", "--format", "c-seq", *MAP_ARGS],
    ["--", "c-seq", *MAP_ARGS],
    ["c-seq", "--", *MAP_ARGS],
    ["c-seq", "--nmax"],
    ["c-seq", *MAP_ARGS, "--nmax", "3"],  # a repeated flag
    ["--seed", "1", "c-seq", *MAP_ARGS, "--seed", "2"],
    ["c-seq", "--nmax", "2", "--map", "(x^2 + y^3, x y)", "--wx", ""],
    ["--nmax", "2", "c-seq", "--map", "(x^2 + y^3, x y)"],  # a leaf flag too early
    ["recursion", "--terms", "1,2,4,8,16,32", "--max-order", "-5"],
    ["c-seq"],
    ["curve"],
    ["curve", "coefs"],
    ["--seed"],
    [],
], ids=" ".join)
def test_the_leaf_parser_answers_as_the_full_parser_on_edge_cases(argv):
    assert outcome(argv) == full_parser_outcome(argv)


@settings(max_examples=300, deadline=None)
@given(drawn=argvs())
@example(drawn=(["curve", "--seed", "1", "coeffs", "--seq", "0", "--n", "2"], "json"))
def test_the_table_parse_gives_the_argparse_namespace(drawn):
    argv = drawn[0]
    ns = cli._table_parse(argv)
    if ns is None:
        return
    assert vars(ns) == argparse_namespace(argv), argv
    # so the handler is the one of the COMMANDS row argparse dispatched to
    assert LEAF_OF[ns.handler][-1] == ns.command
