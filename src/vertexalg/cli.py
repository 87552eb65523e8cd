"""Command-line front end.

Exit codes: 0 success (all checks pass), 1 expression parse error,
2 configuration or validation error, 3 suite failure, 4 resource limit
reached (the rewriting step budget, the recursion limit, or a size too
large to allocate, such as a `dim` or `basis` degree that does not fit in
memory).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import fock
from .basis import basis_words, component_dims, dim_component
from .parser import ParseError, parse_element, parse_integer, parse_weight
from .rewrite import StepBudgetExceeded, normal_form
from .signature import Signature, SignatureError, format_weight, load_config
from .suites import verify_boson_fermion, verify_dong, verify_locfun, verify_presentation
from .words import format_element, format_word, product

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_SUITE = 3
EXIT_RESOURCE = 4


def _load(path: str) -> Signature:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_config(fh.read())
    except OSError as exc:
        raise SignatureError(f"cannot read configuration {path!r}: {exc}") from None


def _int_param(name: str, text: str, least: int = None) -> int:
    try:
        value = parse_integer(text)
    except ValueError:
        raise SignatureError(f"{name} must be an integer, got {text!r}") from None
    if least is not None and value < least:
        raise SignatureError(f"{name} must be at least {least}, got {value}")
    return value


def _deg2_range(text: str):
    lo, dots, hi = text.partition("..")
    lo = _int_param("deg2", lo)
    hi = _int_param("deg2", hi) if dots else lo
    if hi < lo:
        raise SignatureError(f"deg2 range {text!r} is empty")
    return range(lo, hi + 1)


def _emit_report(args, report) -> int:
    if args.format == "machine":
        print(report.render_machine())
    else:
        print(report.render_text())
    return EXIT_OK if report.all_pass else EXIT_SUITE


# Each subcommand maps (signature, args) to (payload, text): `run` prints the
# payload as one JSON record in machine format and the text otherwise.


def _cmd_normal_form(sig: Signature, args):
    outcome = normal_form(sig, parse_element(sig, args.expr))
    text = format_element(sig, outcome.result)
    return {"result": text, "steps": outcome.steps, "q_kills": outcome.q_kills}, text


def _cmd_basis(sig: Signature, args):
    lam = parse_weight(sig, args.weight)
    deg2 = _int_param("deg2", args.deg2)
    dim_component(sig, lam, deg2)  # a degree too large to count fails here, before enumerating
    words = [format_word(sig, w) for w in basis_words(sig, lam, deg2)]
    return {"weight": format_weight(sig, lam), "deg2": deg2, "words": words}, "\n".join(words)


def _cmd_dim(sig: Signature, args):
    lam = parse_weight(sig, args.weight)
    degs = list(_deg2_range(args.range))
    dims = component_dims(sig, lam, degs)
    return {"weight": format_weight(sig, lam), "deg2": degs, "dims": dims}, ",".join(str(d) for d in dims)


def _cmd_product(sig: Signature, args):
    left = parse_element(sig, args.left)
    mode = _int_param("mode", args.mode)
    right = parse_element(sig, args.right)
    text = format_element(sig, product(sig, left, mode, right))
    return {"mode": mode, "result": text}, text


def _cmd_embed(sig: Signature, args):
    image = fock.embed(sig, parse_element(sig, args.expr))
    text = fock.format_fock(sig, image)
    states = [
        {
            "coeff": str(image.terms[st]),
            "heis": [[sig.generators[g], k] for k, g in st[0]],
            "charge": list(st[1]),
        }
        for st in sorted(image.terms)
    ]
    return {"result": text, "states": states}, text


# Each subcommand: its function, help text and positional arguments after
# the configuration file.  `run` loads the configuration and calls the
# function with the signature and the parsed arguments.
COMMANDS = {
    "normal-form": (_cmd_normal_form, "reduce an element onto the basis", ("expr",)),
    "basis": (_cmd_basis, "list basic words of a component", ("weight", "deg2")),
    "dim": (_cmd_dim, "dimensions over a doubled-degree range", ("weight", "range")),
    "product": (_cmd_product, "product of two elements", ("left", "mode", "right")),
    "embed": (_cmd_embed, "image in the lattice Fock space", ("expr",)),
}
_ARG_HELP = {"range": "deg2 range, e.g. 4..12"}

# Each verify suite: its function, the configuration file it reads (the
# wording after "needs"; None if it reads none) and its integer parameters as
# (name, least), passed in order.  Parameters not given keep the function's
# defaults.  A trailing `...` repeats the last one: locfun reads any number of
# lengths and passes them as one tuple.
SUITES = {
    "dong": (verify_dong, "a configuration file", (("k_max", 0),)),
    "locfun": (verify_locfun, "a configuration file", (("length", 1), ...)),
    "presentation": (verify_presentation, "a lattice configuration file", ()),
    "boson-fermion": (verify_boson_fermion, None, (("k_max", 1), ("d_max", 0))),
}


def _run_suite(suite: str, params: list):
    if suite not in SUITES:
        raise SignatureError(f"unknown suite {suite!r} ({', '.join(SUITES)})")
    func, needs, ints = SUITES[suite]
    many = ... in ints
    ints = [p for p in ints if p is not ...]
    reads = ["config"] * bool(needs) + [name for name, _ in ints]
    if not many and len(params) > len(reads):
        raise SignatureError(f"verify {suite} reads at most {', '.join(reads)}; got {len(params)} parameters")
    args = []
    if needs:
        if not params:
            raise SignatureError(f"verify {suite} needs {needs}")
        args.append(_load(params[0]))
        params = params[1:]
    if many:
        ints *= len(params)
    values = [_int_param(name, text, least) for (name, least), text in zip(ints, params)]
    return func(*args, tuple(values)) if many and values else func(*args, *values)


# argparse strips a literal `--` out of positional arguments, differently in
# different Python versions; it reads this stand-in instead, which no command
# line can hold, and `_undash` gives the argument back.
_DASHES = "\0--"


def _undash(text: str) -> str:
    return "--" if text == _DASHES else text


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="vertexalg",
        description="Exact calculator for free and lattice vertex algebras.",
    )
    parser.add_argument(
        "--format",
        choices=("text", "machine"),
        default="text",
        help="text output or one JSON record per result line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (func, text, positionals) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for arg in ("config",) + positionals:
            p.add_argument(arg, type=_undash, help=_ARG_HELP.get(arg))
        p.set_defaults(func=func)

    for suite, text in (
        ("dong", "locality order closed form vs brute force"),
        ("locfun", "locality function of the conformal algebra"),
    ):
        p = sub.add_parser(suite, help=f"{text} (same as verify {suite})")
        p.add_argument("params", nargs="*", type=_undash)
        p.set_defaults(suite=suite)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", type=_undash)
    p.add_argument("params", nargs="*", type=_undash)

    return parser


def _dash_positionals(parser: argparse.ArgumentParser, argv: list) -> list:
    """Put `--` after the subcommand, so that a positional argument may begin
    with `-` (a weight such as -a+2b, an expression such as -a(-1)vac).

    Subcommands take no options of their own, so nothing is lost; a `--`
    before the subcommand ends the options and is dropped, and what follows
    it is the subcommand even when it begins with `-`; every literal `--`
    after the subcommand is a positional argument like any other, and a help
    request is left to argparse.
    """
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        if argv[i] == "--":  # the end of the options: the subcommand comes next
            argv = argv[:i] + argv[i + 1 :]
            if argv[i:] and argv[i].startswith("-"):  # argparse would read it as an option; no subcommand matches
                try:  # argparse's own check, so the message reads as for any unknown subcommand
                    parser._check_value(parser._subparsers._group_actions[0], argv[i])
                except argparse.ArgumentError as exc:
                    parser.error(str(exc))
            break
        i += 2 if argv[i] == "--format" else 1
    if i >= len(argv):
        return argv
    rest = [_DASHES if a == "--" else a for a in argv[i + 1 :]]
    if any(a in ("-h", "--help") for a in rest):
        return argv[: i + 1] + rest
    return argv[: i + 1] + ["--"] + rest


def run(argv=None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(_dash_positionals(parser, sys.argv[1:] if argv is None else list(argv)))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(map(_undash, extra))}")
    try:
        if "suite" in args:
            return _emit_report(args, _run_suite(args.suite, args.params))
        payload, text = args.func(_load(args.config), args)
        if args.format == "machine":
            print(json.dumps({"command": args.command, **payload}, sort_keys=True))
        elif text:
            print(text)
        return EXIT_OK
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (StepBudgetExceeded, RecursionError, OverflowError, MemoryError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
