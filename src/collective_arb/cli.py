"""Command-line interface.

    collective-arb validate <file>
    collective-arb analyze <file> [--na|--nca|--ftap|--price|--fairness|--all]
                                  [--json <out>] [--dump-lp]
    collective-arb examples [name] [--dir DIR]

Exit codes: 0 analysis completed (whether or not arbitrage was found),
1 validation error or an output file that cannot be written, 2 internal
invariant violation (a certificate failed exact re-verification).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from . import lp
from .errors import InternalInvariantError, ValidationError
from .examples_builtin import example_names, write_example
from .model_io import load_model
from .report import ALL_SECTIONS, analyze, render_json, render_text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collective-arb",
        description="Collective arbitrage detection and cooperative pricing "
                    "on finite multi-agent markets (exact rational arithmetic).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="audit a model file")
    p_validate.add_argument("path")

    p_analyze = sub.add_parser("analyze", help="run detection and pricing")
    p_analyze.add_argument("path")
    for section in ALL_SECTIONS:
        p_analyze.add_argument(f"--{section}", action="store_true",
                               help=f"include the {section} section")
    p_analyze.add_argument("--all", action="store_true",
                           help="include every section (default)")
    p_analyze.add_argument("--json", metavar="OUT",
                           help="also write the JSON report to OUT ('-' for stdout)")
    p_analyze.add_argument("--dump-lp", action="store_true",
                           help="print every linear program solved")

    p_examples = sub.add_parser("examples", help="list or write built-in models")
    p_examples.add_argument("name", nargs="?")
    p_examples.add_argument("--dir", default=".", help="output directory")
    return parser


def _write_failed(path: str, err: OSError) -> int:
    print(f"invalid: {path}: cannot write the file: {err}", file=sys.stderr)
    return 1


def cmd_validate(args) -> int:
    try:
        model = load_model(args.path)
    except ValidationError as e:
        print(f"invalid: {e}", file=sys.stderr)
        return 1
    market = model.market
    print(f"ok: {market.n_atoms} atoms, T={market.T}, {market.n_agents} agents, "
          f"{len(market.assets)} assets"
          + (", exchange cone present" if model.exchange is not None else "")
          + (", claims present" if model.claims is not None else ""))
    return 0


def cmd_analyze(args) -> int:
    try:
        model = load_model(args.path)
    except ValidationError as e:
        print(f"invalid: {e}", file=sys.stderr)
        return 1
    sections = [s for s in ALL_SECTIONS if getattr(args, s)]
    if args.all or not sections:
        sections = list(ALL_SECTIONS)
    programs = []
    listing = lp.observe(lambda program, outcome: programs.append(program))
    try:
        with listing if args.dump_lp else nullcontext():
            report = analyze(model, sections)
    except InternalInvariantError as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return 2
    for k, program in enumerate(programs):
        print(f"--- LP {k + 1} ---\n{program.to_text()}")
    sys.stdout.write(render_text(report))
    if args.json == "-":
        sys.stdout.write(render_json(report))
    elif args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(render_json(report))
        except OSError as e:
            return _write_failed(args.json, e)
    return 0


def cmd_examples(args) -> int:
    if args.name is None:
        for name in example_names():
            print(name)
        return 0
    try:
        path = write_example(args.name, args.dir)
    except KeyError:
        print(f"unknown example {args.name!r}; available: "
              f"{', '.join(example_names())}", file=sys.stderr)
        return 1
    except OSError as e:
        return _write_failed(args.dir, e)
    print(path)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args)
    if args.command == "analyze":
        return cmd_analyze(args)
    return cmd_examples(args)


if __name__ == "__main__":
    sys.exit(main())
