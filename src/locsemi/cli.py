"""Command-line front door.

Exit codes: 0 success or verdict-true, 1 verdict-false on check subcommands,
2 usage, parse, domain or capacity errors.  Reports are plain text, one fact
per line.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable, Iterable, Iterator

from . import checks, constructions, enumeration, fixtures, predicates, quiver
from .errors import DomainError, MagmaError, NotAssociative, ParseError
from .magma import FinitePartialMagma, parse_magma, serialize_magma


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _print_report(report: checks.ClassReport) -> None:
    print(report.render())
    print("left_identities: " + " ".join(report.left_identities))
    print("right_identities: " + " ".join(report.right_identities))
    print("identities: " + " ".join(report.identities))
    print("left_zeros: " + " ".join(report.left_zeros))
    print("right_zeros: " + " ".join(report.right_zeros))
    print("zeros: " + " ".join(report.zeros))


def _entries(text: str, whole: Callable[[str, list[str]], bool]) -> Iterator[str]:
    """The entries of an argv list.  Whitespace, which no label holds, splits it
    into pieces; a piece is one entry when ``whole(piece, parts)`` holds, parts
    its nonempty comma parts, and else its parts are the entries."""
    for piece in text.split():
        parts = [x for x in piece.split(",") if x]
        yield from [piece] if whole(piece, parts) else parts


def _parse_set(text: str, m: FinitePartialMagma) -> frozenset[str]:
    """The labels of m that a ``--set`` value names: a piece names its comma parts
    when each is a label, and else names itself if it is a label, such as ``{1,2}``."""
    carrier = set(m.elements)
    return frozenset(_entries(
        text, lambda piece, parts: piece in carrier and not carrier.issuperset(parts)))


def _cmd_classify(args) -> int:
    _print_report(checks.classify(parse_magma(_read(args.file))))
    return 0


def _cmd_polar(args) -> int:
    m = parse_magma(_read(args.file))
    U = _parse_set(args.set, m)
    side = "left" if args.left else "right"
    result = m.left_polar(U) if args.left else m.right_polar(U)
    print(f"{side}_polar {{{','.join(sorted(U))}}}: {' '.join(sorted(result))}")
    return 0


def _cmd_complete(args) -> int:
    m = parse_magma(_read(args.file))
    try:
        total = constructions.complete_to_semigroup_with_zero(m, args.zero)
    except NotAssociative as exc:
        print(f"NOT-ASSOCIATIVE ({','.join(exc.triple)}) lhs={exc.lhs} rhs={exc.rhs}")
        return 1
    sys.stdout.write(constructions.serialize_semigroup_with_zero(total))
    return 0


def _cmd_adjoin(args) -> int:
    m = parse_magma(_read(args.file))
    if args.identity is not None:
        out = constructions.adjoin_identity(m, args.identity)
    else:
        out = constructions.adjoin_zero(m, args.zero)
    sys.stdout.write(serialize_magma(out))
    return 0


def _cmd_generate(args) -> int:
    m = parse_magma(_read(args.file))
    closure = constructions.generated_sub_locality_semigroup(m, _parse_set(args.set, m))
    print("generated: " + " ".join(sorted(closure)))
    return 0


def _cmd_ideal(args) -> int:
    m = parse_magma(_read(args.file))
    A = _parse_set(args.set, m)
    closed = checks.is_sub_locality_semigroup(m, A)
    left = checks.is_left_locality_ideal(m, A)
    right = checks.is_right_locality_ideal(m, A)
    # is_locality_ideal's verdict, from the two already computed
    verdicts = [("sub_locality_semigroup", closed), ("left_ideal", left),
                ("right_ideal", right), ("ideal", left and right)]
    for name, v in verdicts:
        print(checks.render_verdict(name, v))
    return 0 if verdicts[-1][1].ok else 1


def _cmd_quiver_paths(args) -> int:
    q = quiver.parse_quiver(_read(args.file))
    paths, boundary = quiver.path_boundary(q, args.max_len)
    for p in paths:
        print(f"path {p.label}: {p.source} -> {p.target} length={p.length}")
    print(f"total: {len(paths)}")
    for a, b in boundary:
        print(f"boundary: {a} {b}")
    return 0


def _name_values(entries: Iterable[str], kind: str, shape: str) -> dict[str, str]:
    """{name: value} of ``name=value`` entries; an entry without '=', or one whose
    name an earlier entry gave, raises."""
    out = {}
    for entry in entries:
        name, eq, value = entry.partition("=")
        if not eq:
            raise MagmaError(f"{kind} entry {entry!r} is not {shape}")
        if name in out:
            raise MagmaError(f"{kind} entry {entry!r} names {name!r} a second time")
        out[name] = value
    return out


def _cmd_quiver_free_ext(args) -> int:
    q = quiver.parse_quiver(_read(args.file))
    target = parse_magma(_read(args.target))
    # a piece whose value is a target label is one entry, such as g={1,2}
    labels = set(target.elements)
    f = _name_values(_entries(args.map, lambda piece, parts: piece.partition("=")[2] in labels),
                     "map", "name=value")
    paths, value, verdict = quiver._free_property(q, target, f, args.max_len)
    for p in paths:
        print(f"fbar {p.label} = {value[p.arrows]}")
    print(checks.render_verdict("free_property", verdict))
    return 0 if verdict.ok else 1


def _cmd_enumerate_census(args) -> int:
    if args.jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {args.jobs}")
    if args.sample is not None:
        if args.dedup:
            raise DomainError("--dedup cannot be combined with --sample")
        rows = enumeration.sample_census(args.size, args.sample, args.seed)
        print(f"sampled census size={args.size} count={args.sample} seed={args.seed}")
    else:
        rows = enumeration.census(args.size, dedup=args.dedup)
        kind = "dedup" if args.dedup else "raw"
        print(f"census size={args.size} mode={kind}")
    print(enumeration.format_census_table(rows))
    return 0


def _parse_flags(text: str) -> dict[str, bool]:
    out = {}
    for k, v in _name_values(_entries(text, lambda piece, parts: False),
                             "flag", "name=yes|no").items():
        if v not in ("yes", "no"):
            raise MagmaError(f"flag value for {k!r} must be yes or no")
        out[k] = v == "yes"
    return out


def _cmd_enumerate_find(args) -> int:
    found = enumeration.find_witness(_parse_flags(args.flags), args.size)
    if found is None:
        print("not found")
        return 1
    sys.stdout.write(serialize_magma(found))
    return 0


def _cmd_builtin_coprime(args) -> int:
    p = predicates.coprime_magma()
    if args.check:
        v = predicates.sampled_verdict(p, args.bound, args.check)
        print(checks.render_verdict(args.check, v) + f" within bound {args.bound}")
        return 0 if v.ok else 1
    _print_report(predicates.sampled_classify(p, args.bound))
    return 0


def _cmd_builtin_powerset(args) -> int:
    if args.size < 0:
        raise DomainError(f"powerset size must be non-negative, got {args.size}")
    m = predicates.powerset_magma(set(range(1, args.size + 1)), args.op)
    _print_report(checks.classify(m))
    return 0


def _cmd_builtin_totient(args) -> int:
    v = predicates.totient_hom_check(args.bound)
    print(checks.render_verdict("totient_hom", v) + f" bound={args.bound}")
    return 0 if v.ok else 1


def _cmd_examples(args) -> int:
    sys.stdout.write(fixtures.fixture_text(args.name))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser tree, built on the first ``run`` and kept for the process.

    Parsing leaves no state in it: every call fills a fresh namespace.
    """
    parser = argparse.ArgumentParser(
        prog="locsemi",
        description="check, build and enumerate partial multiplicative structures")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="class report for a magma file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("polar", help="left or right polar subset")
    p.add_argument("file")
    side = p.add_mutually_exclusive_group(required=True)
    side.add_argument("--left", action="store_true")
    side.add_argument("--right", action="store_true")
    p.add_argument("--set", required=True, help="comma- or space-separated labels, may be empty")
    p.set_defaults(func=_cmd_polar)

    p = sub.add_parser("complete", help="totalize the product with a fresh zero")
    p.add_argument("file")
    p.add_argument("--zero", default="0")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("adjoin", help="adjoin a fresh identity or zero")
    p.add_argument("file")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--identity")
    which.add_argument("--zero")
    p.set_defaults(func=_cmd_adjoin)

    p = sub.add_parser("generate", help="generated closed subset")
    p.add_argument("file")
    p.add_argument("--set", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("ideal", help="sub-structure and ideal verdicts for a subset")
    p.add_argument("file")
    p.add_argument("--set", required=True)
    p.set_defaults(func=_cmd_ideal)

    qp = sub.add_parser("quiver", help="path operations on a quiver file")
    qsub = qp.add_subparsers(dest="quiver_command", required=True)
    p = qsub.add_parser("paths", help="list paths up to a length bound")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=_cmd_quiver_paths)
    p = qsub.add_parser("free-ext", help="extend an arrow map into a refined target")
    p.add_argument("file")
    p.add_argument("--target", required=True, help="magma file for the target")
    p.add_argument("--map", required=True, help="arrow=element,... assignments")
    p.add_argument("--max-len", type=int, default=4)
    p.set_defaults(func=_cmd_quiver_free_ext)

    ep = sub.add_parser("enumerate", help="exhaustive census and witness search")
    esub = ep.add_subparsers(dest="enumerate_command", required=True)
    p = esub.add_parser("census", help="classify the whole search space")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; the census runs in one process")
    p.add_argument("--dedup", action="store_true",
                   help="count isomorphism classes instead of raw tables (not with --sample)")
    p.add_argument("--sample", type=int, default=None,
                   help="sample this many random tables instead of enumerating")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_enumerate_census)
    p = esub.add_parser("find", help="first structure matching a flag pattern")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--flags", required=True, help="locality=yes,partial=no,...")
    p.set_defaults(func=_cmd_enumerate_find)

    bp = sub.add_parser("builtin", help="bundled predicate-defined structures")
    bsub = bp.add_subparsers(dest="builtin_command", required=True)
    p = bsub.add_parser("coprime", help="bounded scan of the coprimality structure")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--check", choices=list(checks._CLASS_SCANS))
    p.set_defaults(func=_cmd_builtin_coprime)
    p = bsub.add_parser("powerset", help="power-set structure on {1..K}")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--op", choices=["union", "intersection"], required=True)
    p.set_defaults(func=_cmd_builtin_powerset)
    p = bsub.add_parser("totient", help="multiplicativity of the totient on coprime pairs")
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=_cmd_builtin_totient)

    p = sub.add_parser("examples", help="print a bundled fixture by name")
    p.add_argument("name")
    p.set_defaults(func=_cmd_examples)

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (MagmaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
