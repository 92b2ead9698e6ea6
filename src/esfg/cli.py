"""Command-line surface: one ``esfg`` binary with subcommands.

Exit codes: 0 success/verified, 1 property violation, 2 usage or input
error.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .bijection import SIZE_LIMITS, check_size, es_to_fg, fg_to_es
from .documents import (
    DocumentError,
    StructureDocument,
    export_dot,
    from_event_structure,
    from_full_graph,
    parse_document,
    representation_document,
    serialize_document,
)
from .enumeration import count_es, count_fg, emit_structures
from .event_structure import EventStructureError, es_failures
from .fullgraph import FullGraphError, fg_failures
from .oeis import OeisCheck, OeisError, fetch_bfile
from .representation import build_representation
from .setfamily import family_failures
from .verify import run_theorem_suite

OK, VIOLATION, USAGE = 0, 1, 2


def _read_document(path: str) -> StructureDocument:
    if path == "-":
        return parse_document(sys.stdin.read())
    return parse_document(Path(path).read_bytes())


def _write_output(data: bytes, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.buffer.write(data)
        if not data.endswith(b"\n"):
            sys.stdout.buffer.write(b"\n")
    else:
        Path(out).write_bytes(data)


def _document_failures(doc: StructureDocument) -> tuple[str, ...]:
    overlap = doc.kind == "fg"
    checks = fg_failures if overlap else es_failures
    problems = checks(doc.causality, doc.conflict)
    if doc.family is not None:
        family = family_failures(doc.family, doc.causality, doc.conflict, overlap=overlap)
        problems += tuple("family-" + problem for problem in family)
    return problems


def _refuse_size(n: int, slow: bool, work: str) -> bool:
    """Whether n is the largest the work accepts and came without --slow;
    if so, says so on stderr.  Sizes that ``check_size`` rejects raise its
    ``ValueError`` (exit 2)."""
    check_size(n, work)
    if n < SIZE_LIMITS[work] or slow:
        return False
    print(f"n={n} is best-effort; pass --slow to run it", file=sys.stderr)
    return True


def cmd_check(args: argparse.Namespace) -> int:
    doc = _read_document(args.file)
    problems = _document_failures(doc)
    if problems:
        for problem in problems:
            print(problem)
        return VIOLATION
    print(f"valid {doc.kind} document ({len(doc.causality.field)} vertices)")
    return OK


def cmd_represent(args: argparse.Namespace) -> int:
    doc = _read_document(args.file)
    if doc.kind == "fg":
        print("represent expects an es document", file=sys.stderr)
        return USAGE
    certificate = build_representation(doc.causality, doc.conflict)
    out = representation_document(doc.causality, doc.conflict, certificate.family)
    _write_output(serialize_document(out, canonical=not args.pretty), args.output)
    return OK


def cmd_convert(args: argparse.Namespace) -> int:
    doc = _read_document(args.file)
    if args.to == "fg":
        if doc.kind == "fg":
            print("input is already a fg document", file=sys.stderr)
            return USAGE
        graph = es_to_fg(doc.to_event_structure())
        out = from_full_graph(graph)
    else:
        if doc.kind != "fg":
            print("convert --to es expects a fg document", file=sys.stderr)
            return USAGE
        structure = fg_to_es(doc.to_full_graph())
        out = from_event_structure(structure)
    _write_output(serialize_document(out, canonical=not args.pretty), args.output)
    return OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    if _refuse_size(args.n, args.slow, "count" if args.count_only else "list"):
        return USAGE
    if args.count_only:
        total = count_es(args.n) if args.kind == "es" else count_fg(args.n)
        print(total)
        return OK
    if args.emit:
        directory = Path(args.emit)
        directory.mkdir(parents=True, exist_ok=True)
        index = 0

        def write(data: bytes) -> None:
            nonlocal index
            (directory / f"{args.kind}-n{args.n}-{index:06d}.json").write_bytes(data)
            index += 1

        total = emit_structures(args.n, args.kind, write)
        print(total)
        return OK
    total = emit_structures(
        args.n, args.kind, lambda data: sys.stdout.buffer.write(data + b"\n")
    )
    print(total, file=sys.stderr)
    return OK


def cmd_verify(args: argparse.Namespace) -> int:
    if _refuse_size(args.n, args.slow, "verify"):
        return USAGE
    report = run_theorem_suite(args.n)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{check.name}: {status} ({check.detail})")
    return OK if report.passed else VIOLATION


def cmd_dot(args: argparse.Namespace) -> int:
    doc = _read_document(args.file)
    if args.hasse and not doc.causality.is_partial_order:
        print("violation: --hasse needs a partial order", file=sys.stderr)
        return VIOLATION
    _write_output(export_dot(doc, hasse=args.hasse).encode(), args.output)
    return OK


def cmd_oeis(args: argparse.Namespace) -> int:
    if _refuse_size(args.upto, args.slow, "count"):
        return USAGE
    fetched = fetch_bfile(args.sequence, args.cache, offline=args.offline)
    counter = count_es if args.kind == "es" else count_fg
    local = tuple(counter(k) for k in range(args.upto + 1))
    check = OeisCheck(args.sequence, fetched, local)
    comparable = min(len(check.local_terms), len(check.fetched_terms))
    print(f"local ({args.kind}):  {list(check.local_terms)}")
    print(f"fetched ({args.sequence}): {list(check.fetched_terms[: args.upto + 1])}")
    if check.is_full_match:
        print(f"match: full prefix of length {check.match_prefix_length}")
    else:
        print(
            f"MISMATCH at position {check.match_prefix_length} "
            f"(compared {comparable} terms)"
        )
    return OK


@cache  # built once per process; parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esfg",
        description="Event structures, full graphs, representations, enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    counts = f"{SIZE_LIMITS['count']} for counts"
    listing = f"{SIZE_LIMITS['list']} for listing"

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", nargs="?", default="-", help="input document or -")
        p.add_argument("-o", "--output", default=None, help="output path or -")
        p.add_argument("--pretty", action="store_true", help="indented output")

    p = sub.add_parser("check", help="validate a structure document")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("represent", help="build a representation for an es document")
    add_io(p)
    p.set_defaults(handler=cmd_represent)

    p = sub.add_parser("convert", help="convert between es and fg documents")
    p.add_argument("--to", choices=("es", "fg"), required=True)
    add_io(p)
    p.set_defaults(handler=cmd_convert)

    p = sub.add_parser("enumerate", help="enumerate labeled structures of size n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("es", "fg"), required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--emit", metavar="DIR", default=None)
    p.add_argument(
        "--slow", action="store_true", help=f"allow the largest n: {counts}, {listing}"
    )
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("verify", help="run the verification suite up to size n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--slow", action="store_true", help=f"allow n={SIZE_LIMITS['verify']}")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("dot", help="render a document as a mixed graph in DOT")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--hasse", action="store_true", help="transitively reduce arrows")
    p.set_defaults(handler=cmd_dot)

    p = sub.add_parser("oeis", help="cross-check counts against an OEIS b-file")
    p.add_argument("--sequence", required=True, metavar="AXXXXXX")
    p.add_argument("--kind", choices=("es", "fg"), required=True)
    p.add_argument("--upto", type=int, required=True)
    p.add_argument("--offline", action="store_true", help="require a cache hit")
    p.add_argument("--cache", default=None, help="cache directory override")
    p.add_argument("--slow", action="store_true", help=f"allow the largest n: {counts}")
    p.set_defaults(handler=cmd_oeis)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except DocumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return USAGE
    except OeisError as exc:
        print(f"oeis error: {exc}", file=sys.stderr)
        return USAGE
    except (EventStructureError, FullGraphError) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return VIOLATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    raise SystemExit(main())
