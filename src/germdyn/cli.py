"""Batch command-line front end.

Every command is deterministic: the same invocation produces byte-identical
output.  Each leaf command has one handler, which COMMANDS names by module
and function (the handlers live in ``cli_family``, ``cli_maps`` and
``cli_ideals``); it takes the parsed arguments and returns ``(payload, ok,
csv_rows)``: the result dict, False when a check failed or a stage could not
be decided, and the CSV rows (None when the command has no CSV rendering).
Handlers write nothing and raise ValueError on bad input.  ``main`` alone
renders json, csv or text, honours ``--out`` and picks the exit code: 0 all
checks pass, 1 a check failed (witness in the output) or a stage could not be
decided (a {"stage", "error"} payload), 2 a usage, parse or input-file error,
3 a computation budget was exceeded.  No failure ends in a traceback.

A job loads and compiles only what its command runs.  ``main`` reads a
well-formed leaf invocation straight from COMMANDS and GLOBALS
(``_table_parse``) into the namespace argparse would give, then imports the
one handler module it needs, and a handler imports the modules it runs in its
own body.  Anything else (help, an abbreviated flag, ``--flag=value``, a value
starting with ``-``, a repeated flag, every error) goes to the argparse
parser of ``build_parser``, so argparse, the only source of help and error
text, is imported only for those.
"""

from __future__ import annotations

import io
import json
import sys
from importlib import import_module
from types import SimpleNamespace

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _render_text(payload, indent=0):
    lines = []
    pad = "  " * indent
    for key in payload:
        val = payload[key]
        if isinstance(val, dict):
            lines.append("%s%s:" % (pad, key))
            lines.append(_render_text(val, indent + 1).rstrip("\n"))
        elif isinstance(val, list):
            lines.append("%s%s: %s" % (pad, key, json.dumps(val)))
        else:
            lines.append("%s%s: %s" % (pad, key, val))
    return "\n".join(lines) + "\n"


# -- argument wiring --------------------------------------------------------

_INT = {"type": int}
_REQ = {"required": True}
_REQ_INT = {"type": int, "required": True}

# (flag, argparse options, default).  The parser gives every global flag the
# default SUPPRESS, so a value parsed before the subcommand is not clobbered
# by the subparser's defaults; main fills in the defaults below.
GLOBALS = (
    ("--seed", {"type": int, "help": "sampler seed"}, 0),
    ("--format", {"choices": ["json", "csv", "text"]}, "json"),
    ("--out", {"help": "output path (default stdout)"}, None),
    ("--budget", {"type": int, "help": "term-count budget for the products and powers of "
                  "the polynomial parser, term-count and power-table budget for "
                  "compositions and for the weight windows of c-seq, c-inf and "
                  "pipeline, width budget for those windows, coefficient "
                  "budget for the jets of mu-seq and pipeline and "
                  "for the coefficient rows of curve and verify, range budget "
                  "for verify lemma, entry budget for the r x r matrices of "
                  "skewness, and, for arnold, bit-size budget for "
                  "growth values and shift budget for the finite-contact "
                  "certificate"}, 10**6),
)

# (path, help, handler, arguments).  The handler is "module.function" in this
# package; a row without a handler is a command group, and its leaves follow
# it.  Each argument is (flag, argparse options).
COMMANDS = (
    (("curve",), "coefficients and pair multiplicities", None, ()),
    (("curve", "coeffs"), None, "cli_family.cmd_curve_coeffs",
     (("--seq", _REQ), ("--n", _REQ_INT))),
    (("curve", "mult"), None, "cli_family.cmd_curve_mult",
     (("--a", _REQ), ("--b", _REQ), ("--horizon", {**_INT, "default": 64}),
      ("--coeff-horizon", {**_INT, "default": 400}))),
    (("verify",), "exact verification suites", None, ()),
    (("verify", "functoriality"), None, "cli_family.cmd_verify_functoriality",
     (("--seq", _REQ), ("--n", {**_INT, "default": 2000}))),
    (("verify", "bound"), None, "cli_family.cmd_verify_bound",
     (("--seq", _REQ), ("--n", {**_INT, "default": 2000}))),
    (("verify", "lemma"), None, "cli_family.cmd_verify_lemma",
     (("--n", {**_INT, "default": 10000}),)),
    (("verify", "section3"), None, "cli_family.cmd_verify_section3",
     (("--a", _REQ), ("--b", _REQ), ("--horizon", {**_INT, "default": 64}))),
    (("arnold",), "fast-growth witness construction", "cli_family.cmd_arnold",
     (("--nu", _REQ), ("--witnesses", {**_INT, "default": 3}))),
    (("mu-seq",), "multiplicity sequence of iterates", "cli_maps.cmd_mu_seq",
     (("--map", _REQ), ("--ideal", _REQ), ("--nmax", _REQ_INT))),
    (("samuel",), "staircase multiplicity", "cli_ideals.cmd_samuel", (("--ideal", _REQ),)),
    (("mixed",), "mixed multiplicity by polarization", "cli_ideals.cmd_mixed",
     (("--ideal-a", _REQ), ("--ideal-b", _REQ))),
    (("c-seq",), "attraction rates along iterates", "cli_maps.cmd_c_seq",
     (("--map", _REQ), ("--wx", {"default": "1"}), ("--wy", {"default": "1"}),
      ("--nmax", _REQ_INT))),
    (("c-inf",), "asymptotic attraction rate", "cli_maps.cmd_c_inf",
     (("--map", _REQ), ("--nmax", {**_INT, "default": 6}))),
    (("skewness",), "tree height from a proximity chart", "cli_ideals.cmd_skewness",
     (("--chart", {**_REQ, "help": "path to chart JSON"}), ("--i", _REQ_INT),
      ("--j", _REQ_INT))),
    (("recursion",), "detect an integral linear recursion", "cli_maps.cmd_recursion",
     (("--terms", {**_REQ, "help": "comma-separated integers"}),
      ("--max-order", {**_INT, "default": 4}), ("--holdout", {**_INT, "default": 2}))),
    (("pipeline",), "mu sequence, recursion, rate, bounds", "cli_maps.cmd_pipeline",
     (("--map", _REQ), ("--ideal", _REQ), ("--nmax", _REQ_INT),
      ("--max-order", {**_INT, "default": 3}))),
)


def build_parser():
    """The argparse parser of the CLI.  ``main`` runs it on every argv that
    ``_table_parse`` declines; it is the source of all help and error text."""
    import argparse

    common = argparse.ArgumentParser(add_help=False)
    for flag, options, _ in GLOBALS:
        common.add_argument(flag, default=argparse.SUPPRESS, **options)
    ap = argparse.ArgumentParser(
        prog="germdyn",
        description="Exact curve-family, multiplicity, and attraction-rate "
        "computations for plane germs.",
        parents=[common],
    )
    subparsers = {(): ap.add_subparsers(dest="command", required=True)}
    for path, help_text, handler, arguments in COMMANDS:
        # a parser added with help=None would still get a line of its own in
        # its group's help, so a leaf without help passes none
        kw = {} if help_text is None else {"help": help_text}
        p = subparsers[path[:-1]].add_parser(path[-1], parents=[common], **kw)
        if handler is None:
            subparsers[path] = p.add_subparsers(dest="command", required=True)
            continue
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return ap


def _table_parse(argv):
    """The namespace ``build_parser()`` gives argv, read from COMMANDS and
    GLOBALS without argparse, or None when argv is not a well-formed leaf
    invocation: the words of one leaf path, and flags each given at most once,
    spelt exactly and followed by a value that does not start with "-" and
    passes the flag's type and choices.  Global flags may come anywhere,
    the leaf's own flags after it, and each required flag must be given."""
    rows = {path: (handler, arguments) for path, _, handler, arguments in COMMANDS}
    flags = {flag: options for flag, options, _ in GLOBALS}
    path, handler, given = (), None, {}
    words = iter(argv)
    for word in words:
        if word in flags:
            value = next(words, "-")
            if value.startswith("-") or word in given:
                return None
            given[word] = value
        elif word.startswith("-") or handler is not None:
            return None  # an unknown flag, or a word after the leaf
        else:
            path += (word,)
            if path not in rows:
                return None
            handler, arguments = rows[path]
            if handler is not None:
                flags.update(arguments)
    if handler is None:
        return None
    ns = {"command": path[-1], "handler": handler}
    for flag, options in arguments:
        if options.get("required") and flag not in given:
            return None
        ns[flag[2:].replace("-", "_")] = options.get("default")
    for flag, value in given.items():
        options = flags[flag]
        if "type" in options:
            try:
                value = options["type"](value)
            except (TypeError, ValueError):
                return None
        if value not in options.get("choices", (value,)):
            return None
        ns[flag[2:].replace("-", "_")] = value
    return SimpleNamespace(**ns)


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # outputs legitimately contain very large exact integers
        sys.set_int_max_str_digits(10**7)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _table_parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    for flag, _, default in GLOBALS:
        vars(args).setdefault(flag[2:], default)
    from .bounds import BudgetExceeded

    module, _, name = args.handler.rpartition(".")
    handler = getattr(import_module("." + module, __package__), name)
    try:
        if args.budget < 0:
            raise ValueError("--budget must be >= 0")
        payload, ok, csv_rows = handler(args)
        if args.format == "json":
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        elif args.format == "text":
            text = _render_text(payload)
        elif csv_rows is None:
            raise ValueError("this command has no CSV rendering")
        else:
            import csv  # imported here: every other format starts faster without it

            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(csv_rows)
            text = buf.getvalue()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        sys.stderr.write("budget exceeded: %s\n" % exc)
        return EXIT_BUDGET
    return EXIT_OK if ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
