"""Command-line front end.

Exit codes: 0 on success, 1 on usage or parse errors, 2 on domain errors
(size mismatch, color mismatch, level mismatch, bound exceeded); the error
message names the violated precondition.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from operator import attrgetter

from . import oracles
from .closure import construct_closure, construct_colored_closure, construct_spatial_closure
from .errors import ParseError, PartitionError
from .ops import CORNERS, compose, involution, reflect_vertical, rotate, tensor
from .textio import (
    colored_to_json,
    parse_colored,
    parse_partition,
    parse_spatial,
    partition_to_json,
    render_colored,
    render_partition,
    render_spatial,
    spatial_to_json,
)
from .words import parse_word, partition_of_word

_CORNER_ALIASES = {"tl": "top-left", "tr": "top-right", "bl": "bottom-left", "br": "bottom-right"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits with 2 by default; usage problems are exit 1 here
        raise _UsageError(message)


def _emit(values, args, render, to_json):
    """Print the count of `values` under --count, else one JSON array or a
    text line per value, as --format asks."""
    if args.count:
        print(len(values))
    elif args.format == "json":
        print(json.dumps([to_json(x) for x in values]))
    else:
        for x in values:
            print(render(x))


def _cmd_unary(args):
    p = parse_partition(args.partition)
    if args.command == "normalize":
        result = p
    elif args.command == "involution":
        result = involution(p)
    elif args.command == "reflect":
        result = reflect_vertical(p)
    else:
        result = rotate(p, _CORNER_ALIASES.get(args.corner, args.corner))
    print(render_partition(result, args.format))
    return 0


def _cmd_binary(args):
    p = parse_partition(args.p)
    q = parse_partition(args.q)
    op = tensor if args.command == "tensor" else compose
    print(render_partition(op(p, q), args.format))
    return 0


def _cmd_generate(args):
    # The constructors are read from the module at call time, so that the
    # benchmark's traced run can wrap them.
    if args.colored:
        parse, render, to_json = parse_colored, render_colored, colored_to_json
        construct = construct_colored_closure
    elif args.levels is not None:
        parse, render, to_json = parse_spatial, render_spatial, spatial_to_json
        construct = partial(construct_spatial_closure, levels=args.levels)
    else:
        parse, render, to_json = parse_partition, render_partition, partition_to_json
        construct = construct_closure
    closure = construct([parse(g) for g in args.generators], args.bound)

    if args.exact_size is not None:
        members = sorted(closure.members_of_size(args.exact_size), key=attrgetter("sort_key"))
    else:
        members = closure.sorted_members()
    _emit(members, args, render, to_json)
    return 0


def _cmd_embed_word(args):
    print(render_partition(partition_of_word(parse_word(args.word)), args.format))
    return 0


def _cmd_enumerate(args):
    parts = oracles.enumerate_all(args.upper, args.lower)
    if args.predicate == "nc":
        parts = {p for p in parts if oracles.is_noncrossing(p)}
    elif args.predicate == "pair":
        parts = {p for p in parts if oracles.is_pair_partition(p)}
    parts = sorted(parts, key=attrgetter("sort_key"))
    _emit(parts, args, render_partition, partition_to_json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="partcat",
        description="Operate on two-row set partitions and generate bounded closures.",
    )
    common = _Parser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output encoding"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name in ("normalize", "involution", "reflect"):
        s = sub.add_parser(name, parents=[common])
        s.add_argument("partition")
        s.set_defaults(func=_cmd_unary)

    s = sub.add_parser("rotate", parents=[common])
    s.add_argument(
        "--corner",
        required=True,
        choices=tuple(_CORNER_ALIASES) + CORNERS,
        help="which end point moves (tl, tr, bl, br or the long names)",
    )
    s.add_argument("partition")
    s.set_defaults(func=_cmd_unary)

    for name in ("tensor", "compose"):
        s = sub.add_parser(name, parents=[common])
        s.add_argument("p")
        s.add_argument("q")
        s.set_defaults(func=_cmd_binary)

    s = sub.add_parser(
        "generate",
        parents=[common],
        help="saturate generators plus base partitions under a size bound",
    )
    s.add_argument("generators", nargs="*", metavar="GENERATOR")
    s.add_argument("--bound", type=int, required=True, help="size cap for every member")
    s.add_argument("--exact-size", type=int, default=None, help="emit only members of this size")
    s.add_argument("--count", action="store_true", help="print the cardinality only")
    kind = s.add_mutually_exclusive_group()
    kind.add_argument("--colored", action="store_true", help="generators are colored partitions")
    kind.add_argument("--levels", type=int, default=None, help="generators are spatial partitions on this many levels")
    s.set_defaults(func=_cmd_generate)

    s = sub.add_parser("embed-word", parents=[common])
    s.add_argument("word", help="free-group word, e.g. 'x1 x2 x1^-1'")
    s.set_defaults(func=_cmd_embed_word)

    s = sub.add_parser("enumerate", parents=[common])
    s.add_argument("--upper", type=int, required=True)
    s.add_argument("--lower", type=int, required=True)
    s.add_argument("--predicate", choices=("nc", "pair"), default=None)
    s.add_argument("--count", action="store_true")
    s.set_defaults(func=_cmd_enumerate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    except PartitionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
