"""Command-line front end.

Exit codes: 0 success (all checks pass), 1 expression parse error,
2 configuration or validation error, 3 suite failure, 4 resource limit
(the rewriting step budget or the recursion limit) reached.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import fock
from .basis import basis_words, dim_component
from .parser import ParseError, parse_element, parse_weight
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
        value = int(text)
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


def _emit(args, payload: dict, text: str):
    if args.format == "machine":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _emit_report(args, report) -> int:
    if args.format == "machine":
        print(report.render_machine())
    else:
        print(report.render_text())
    return EXIT_OK if report.all_pass else EXIT_SUITE


def _cmd_normal_form(args) -> int:
    sig = _load(args.config)
    element = parse_element(sig, args.expr)
    outcome = normal_form(sig, element)
    text = format_element(sig, outcome.result)
    _emit(
        args,
        {
            "command": "normal-form",
            "result": text,
            "steps": outcome.steps,
            "q_kills": outcome.q_kills,
        },
        text,
    )
    return EXIT_OK


def _cmd_basis(args) -> int:
    sig = _load(args.config)
    lam = parse_weight(sig, args.weight)
    words = basis_words(sig, lam, args.deg2)
    if args.format == "machine":
        print(
            json.dumps(
                {
                    "command": "basis",
                    "weight": format_weight(sig, lam),
                    "deg2": args.deg2,
                    "words": [format_word(sig, w) for w in words],
                },
                sort_keys=True,
            )
        )
    else:
        for w in words:
            print(format_word(sig, w))
    return EXIT_OK


def _cmd_dim(args) -> int:
    sig = _load(args.config)
    lam = parse_weight(sig, args.weight)
    degs = list(_deg2_range(args.range))
    dims = [dim_component(sig, lam, d) for d in degs]
    _emit(
        args,
        {
            "command": "dim",
            "weight": format_weight(sig, lam),
            "deg2": degs,
            "dims": dims,
        },
        ",".join(str(d) for d in dims),
    )
    return EXIT_OK


def _cmd_product(args) -> int:
    sig = _load(args.config)
    left = parse_element(sig, args.left)
    right = parse_element(sig, args.right)
    result = product(sig, left, args.mode, right)
    text = format_element(sig, result)
    _emit(args, {"command": "product", "mode": args.mode, "result": text}, text)
    return EXIT_OK


def _cmd_embed(args) -> int:
    sig = _load(args.config)
    element = parse_element(sig, args.expr)
    image = fock.embed(sig, element)
    text = fock.format_fock(sig, image)
    states = [
        {
            "coeff": str(image.terms[st]),
            "heis": [[sig.generators[g], k] for k, g in st[0]],
            "charge": list(st[1]),
        }
        for st in sorted(image.terms)
    ]
    _emit(args, {"command": "embed", "result": text, "states": states}, text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    suite = args.suite
    # the parameters each suite reads; locfun reads any number of lengths
    reads = {"dong": ("config", "k_max"), "presentation": ("config",), "boson-fermion": ("k_max", "d_max")}
    reads = reads.get(suite)
    if reads and len(args.params) > len(reads):
        raise SignatureError(f"verify {suite} reads at most {', '.join(reads)}; got {len(args.params)} parameters")
    if suite == "dong":
        if not args.params:
            raise SignatureError("verify dong needs a configuration file")
        sig = _load(args.params[0])
        k_max = _int_param("k_max", args.params[1], 0) if len(args.params) > 1 else 4
        return _emit_report(args, verify_dong(sig, k_max))
    if suite == "locfun":
        if not args.params:
            raise SignatureError("verify locfun needs a configuration file")
        sig = _load(args.params[0])
        lengths = tuple(_int_param("length", p, 1) for p in args.params[1:]) or (2, 3, 4)
        return _emit_report(args, verify_locfun(sig, lengths))
    if suite == "presentation":
        if not args.params:
            raise SignatureError("verify presentation needs a lattice configuration file")
        sig = _load(args.params[0])
        return _emit_report(args, verify_presentation(sig))
    if suite == "boson-fermion":
        k_max = _int_param("k_max", args.params[0], 1) if args.params else 4
        d_max = _int_param("d_max", args.params[1], 0) if len(args.params) > 1 else 6
        return _emit_report(args, verify_boson_fermion(k_max, d_max))
    raise SignatureError(
        f"unknown suite {suite!r} (dong, locfun, presentation, boson-fermion)"
    )


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

    p = sub.add_parser("normal-form", help="reduce an element onto the basis")
    p.add_argument("config")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_normal_form)

    p = sub.add_parser("basis", help="list basic words of a component")
    p.add_argument("config")
    p.add_argument("weight")
    p.add_argument("deg2", type=int)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("dim", help="dimensions over a doubled-degree range")
    p.add_argument("config")
    p.add_argument("weight")
    p.add_argument("range", help="deg2 range, e.g. 4..12")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("product", help="product of two elements")
    p.add_argument("config")
    p.add_argument("left")
    p.add_argument("mode", type=int)
    p.add_argument("right")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("embed", help="image in the lattice Fock space")
    p.add_argument("config")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_embed)

    for suite, text in (
        ("dong", "locality order closed form vs brute force"),
        ("locfun", "locality function of the conformal algebra"),
    ):
        p = sub.add_parser(suite, help=f"{text} (same as verify {suite})")
        p.add_argument("params", nargs="*")
        p.set_defaults(func=_cmd_verify, suite=suite)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite")
    p.add_argument("params", nargs="*")
    p.set_defaults(func=_cmd_verify)

    return parser


def _dash_positionals(argv: list) -> list:
    """Put `--` after the subcommand, so that a positional argument may begin
    with `-` (a weight such as -a+2b, an expression such as -a(-1)vac).

    Subcommands take no options of their own, so nothing is lost; a help
    request or an explicit `--` is left to argparse.
    """
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        i += 2 if argv[i] == "--format" else 1
    rest = argv[i + 1 :]
    if i >= len(argv) or any(a in ("--", "-h", "--help") for a in rest):
        return argv
    return argv[: i + 1] + ["--"] + rest


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_dash_positionals(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SignatureError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (StepBudgetExceeded, RecursionError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
