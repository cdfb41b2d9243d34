"""Command line front end.

Four subcommands: ``gen`` writes operation tables in the .qnd format,
``classify`` prints a report for one table, ``tree`` renders the orbit tree
(indented text or DOT), and ``verify`` runs the fact suite over a corpus.

Exit codes are stable for scripting: 0 success, 1 usage or bad parameters,
2 malformed or axiom-violating input, 3 a cap on an exhaustive enumeration
was hit (only the census has a flag, verify --cap-enumeration), 4 the verify
suite found a failing fact.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Sequence

from . import classify, core, corpus, qndfile
from .core import Quandle
from .errors import CapExceeded, ParseError, QuandleError
from .orbitseries import OrbitTreeNode, orbit_tree

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_CAP = 3
EXIT_VERIFY = 4


class _UsageError(Exception):
    """Bad generation parameters caught after argparse has done its part."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage problems; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_params(family: str, params: Sequence[str], count: int) -> list[int]:
    if len(params) != count:
        plural = "s" if count != 1 else ""
        raise _UsageError(f"{family} takes {count} integer parameter{plural}, got {len(params)}")
    values = []
    for param in params:
        try:
            values.append(int(param))
        except ValueError:
            raise _UsageError(f"{family}: parameter {param!r} is not an integer") from None
    return values


def _build_member(family: str, params: Sequence[str]) -> Quandle:
    """Construct one flat family member; see _generate for union/product."""
    if family == "trivial":
        (n,) = _int_params(family, params, 1)
        return core.trivial(n)
    if family == "dihedral":
        (n,) = _int_params(family, params, 1)
        return core.dihedral(n)
    if family == "affine":
        n, t = _int_params(family, params, 2)
        return core.affine(n, t)
    if family == "conj":
        if not 1 <= len(params) <= 2:
            raise _UsageError("conj takes a builtin group name and an optional exponent")
        group = corpus.builtin_group(params[0])
        exponent = 1
        if len(params) == 2:
            try:
                exponent = int(params[1])
            except ValueError:
                raise _UsageError(f"conj: exponent {params[1]!r} is not an integer") from None
        return core.conj(group, exponent, label=f"conj({params[0]}, k={exponent})")
    if family == "builtin":
        if len(params) != 1:
            raise _UsageError("builtin takes exactly one registry name")
        return corpus.builtin_quandle(params[0])
    raise _UsageError(f"unknown family {family!r}")


_COMPOSITES = {"union": core.disjoint_union, "product": core.direct_product}


def _member_from_spec(spec: str) -> Quandle:
    """Parse a flat colon spec such as dihedral:4 or conj:q8-group:2."""
    family, _, rest = spec.partition(":")
    if family in _COMPOSITES:
        raise _UsageError(f"member specs cannot nest, got {spec!r}")
    params = rest.split(":") if rest else []
    return _build_member(family, params)


def _generate(family: str, params: Sequence[str]) -> Quandle:
    if family in _COMPOSITES:
        if len(params) < 2:
            raise _UsageError(f"{family} takes at least two member specs like dihedral:4")
        members = [_member_from_spec(spec) for spec in params]
        return _COMPOSITES[family](*members)
    return _build_member(family, params)


def _load(path: str) -> Quandle:
    """Parse a .qnd file, or standard input for "-".

    Bytes that do not decode are malformed input (ParseError, exit 2), not a
    usage error, although UnicodeDecodeError is a ValueError.
    """
    stdin = path == "-"
    try:
        text = sys.stdin.read() if stdin else Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return qndfile.parse(text, label="stdin" if stdin else Path(path).stem)


def cmd_gen(args: argparse.Namespace) -> int:
    q = _generate(args.family, args.params)
    text = qndfile.serialize(q)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    q = _load(args.path)
    report = classify.classify(q)
    if args.json:
        sys.stdout.write(json.dumps(dataclasses.asdict(report), indent=2) + "\n")
        return EXIT_OK
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        if isinstance(value, tuple):
            value = " ".join(str(item) for item in value)
        sys.stdout.write(f"{field.name}: {value}\n")
    return EXIT_OK


def _subset_label(subset: tuple[int, ...]) -> str:
    return "{" + ",".join(str(member + 1) for member in subset) + "}"


def _tree_dot(root: OrbitTreeNode) -> list[str]:
    lines = ["digraph orbit_tree {", "  node [shape=box];"]
    names: dict[int, str] = {}
    for i, node in enumerate(root.nodes()):
        names[id(node)] = f"n{i}"
        lines.append(f'  n{i} [label="{_subset_label(node.subset)} ({node.size})"];')
    for node in root.nodes():
        for child in node.children:
            lines.append(f"  {names[id(node)]} -> {names[id(child)]};")
    lines.append("}")
    return lines


def cmd_tree(args: argparse.Namespace) -> int:
    q = _load(args.path)
    root = orbit_tree(q)
    if args.dot:
        sys.stdout.write("\n".join(_tree_dot(root)) + "\n")
    else:
        for node in root.nodes():
            sys.stdout.write("  " * node.depth
                             + f"{_subset_label(node.subset)} size {node.size}\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    spec = corpus.CorpusSpec(
        exhaustive_up_to=args.max_order if args.exhaustive else 0,
        enumeration_cap=args.cap_enumeration,
    )
    members = corpus.default_corpus(spec)
    report = classify.verify_suite(members, corpus.builtin_groups())
    sys.stdout.write(report.summary() + "\n")
    return EXIT_OK if report.ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quandles",
                     description="Generate, classify, and verify finite quandles.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    gen = sub.add_parser("gen", help="write an operation table in .qnd form")
    gen.add_argument("family",
                     choices=("trivial", "dihedral", "affine", "conj", "union",
                              "product", "builtin"))
    gen.add_argument("params", nargs="*", metavar="PARAM",
                     help="family parameters; union/product take flat specs like dihedral:4")
    gen.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    gen.set_defaults(func=cmd_gen)

    cls = sub.add_parser("classify", help="print a classification report")
    cls.add_argument("path", help=".qnd file, or - for stdin")
    cls.add_argument("--json", action="store_true",
                     help="machine readable report; absent degrees are null")
    cls.set_defaults(func=cmd_classify)

    tree = sub.add_parser("tree", help="render the orbit tree")
    tree.add_argument("path", help=".qnd file, or - for stdin")
    tree.add_argument("--dot", action="store_true", help="emit a DOT digraph")
    tree.set_defaults(func=cmd_tree)

    verify = sub.add_parser("verify", help="run the fact suite over a corpus")
    verify.add_argument("--max-order", type=int, default=5, metavar="N",
                        help="census bound used with --exhaustive (default 5)")
    verify.add_argument("--exhaustive", action="store_true",
                        help="add the complete census of orders up to --max-order")
    verify.add_argument("--cap-enumeration", type=int,
                        default=corpus.DEFAULT_ENUMERATION_CAP, metavar="N",
                        help="largest order the census generator accepts")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (_UsageError, ValueError, OSError, QuandleError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        if isinstance(exc, CapExceeded):
            return EXIT_CAP
        return EXIT_INVALID if isinstance(exc, QuandleError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
