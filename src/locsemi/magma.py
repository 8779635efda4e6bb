"""Finite carriers with a partial binary operation.

A structure is a finite set of labels plus a product table.  The table's key
set *is* the relation that marks which ordered pairs may be multiplied: a
pair either has a product or the product is undefined, there is no third
state.  Everything is immutable after construction and all iteration runs in
label-sorted order, so results (and violation witnesses downstream) are
reproducible.

Text format (UTF-8, line oriented, ``#`` starts a comment; a line ends at
\\n, \\r\\n or \\r only):

    elements: a b c
    op: a b -> c

One ``elements:`` line, one ``op:`` line per defined product.  Labels are
non-whitespace tokens of UTF-8 text not containing ``#``, whether they come
from a file or from argv.  Duplicate op keys are a parse error.  ``_parse``
reads this format, the quiver's and the zero-completion's alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from .errors import DomainError, ParseError

Pair = tuple[str, str]


def _check_label(label: str) -> str:
    # str.split() cuts at exactly the characters str.isspace() accepts
    if not label or "#" in label or label.split() != [label]:
        raise DomainError(
            f"bad label {label!r}: labels are non-empty tokens without '#' or whitespace"
        )
    try:
        label.encode()
    except UnicodeEncodeError:  # a lone surrogate, as argv bytes that are not UTF-8 decode to
        raise DomainError(f"bad label {label!r}: labels are UTF-8 text") from None
    return label


def _sorted_labels(labels: Iterable[str], kind: str = "element") -> tuple[str, ...]:
    """The labels sorted, after checking each one and rejecting duplicates."""
    labels = tuple(_check_label(x) for x in labels)
    if len(set(labels)) != len(labels):
        raise DomainError(f"duplicate {kind} labels")
    return tuple(sorted(labels))


@dataclass(frozen=True)
class Witness:
    """A concrete axiom violation: axiom name plus the elements breaking it.

    ``elements`` holds one to three labels; ``detail`` is a short reason code
    such as ``"U={b}"`` or ``"(6,4) undefined"``.
    """

    axiom: str
    elements: tuple[str, ...]
    detail: str = ""


@dataclass(frozen=True)
class Verdict:
    """Outcome of an axiom check; falsy exactly when a witness exists."""

    ok: bool
    witness: Witness | None = None

    def __bool__(self) -> bool:
        return self.ok


OK = Verdict(True)


def fail(axiom: str, elements: Iterable, detail: str = "") -> Verdict:
    return Verdict(False, Witness(axiom, tuple(str(e) for e in elements), detail))


@dataclass(frozen=True)
class LocalitySet:
    """A carrier with a bare relation and no products (e.g. a quiver's arrows)."""

    elements: tuple[str, ...]
    relation: frozenset[Pair]

    def __post_init__(self):
        object.__setattr__(self, "elements", _sorted_labels(self.elements))
        carrier = set(self.elements)
        for a, b in self.relation:
            if a not in carrier or b not in carrier:
                raise DomainError(f"relation pair ({a},{b}) uses labels outside the carrier")
        object.__setattr__(self, "relation", frozenset(self.relation))


@dataclass(frozen=True)
class FinitePartialMagma:
    """Finite carrier, relation and product table (the table's keys are the relation).

    ``escapes`` carries sub-structure closure violations: pairs that were
    related in an ambient structure but whose product left the chosen subset.
    It is metadata only and does not take part in equality.
    """

    elements: tuple[str, ...]
    table: dict[Pair, str]
    escapes: tuple[tuple[Pair, str], ...] = field(default=(), compare=False)

    def __post_init__(self):
        object.__setattr__(self, "elements", _sorted_labels(self.elements))
        if not self.elements:
            raise DomainError("empty carrier")
        carrier = set(self.elements)
        clean: dict[Pair, str] = {}
        for key in sorted(self.table):
            a, b = key
            c = self.table[key]
            if a not in carrier or b not in carrier:
                raise DomainError(f"table key ({a},{b}) uses labels outside the carrier")
            if c not in carrier:
                raise DomainError(f"product {a}*{b} = {c} lies outside the carrier")
            clean[key] = c
        object.__setattr__(self, "table", clean)
        object.__setattr__(self, "escapes", tuple(self.escapes))

    @property
    def relation(self) -> frozenset[Pair]:
        return frozenset(self.table)

    def pairs(self) -> list[Pair]:
        return list(self.table)  # __post_init__ stored the keys sorted

    def is_total(self) -> bool:
        return len(self.table) == len(self.elements) ** 2

    def _check_subset(self, U: Iterable[str]) -> frozenset[str]:
        U = frozenset(U)
        stray = U - set(self.elements)
        if stray:
            raise DomainError(f"elements outside the carrier: {sorted(stray)}")
        return U

    def product(self, a: str, b: str) -> str | None:
        """Product of a defined pair, or None when (a, b) is unrelated."""
        self._check_subset((a, b))
        return self.table.get((a, b))

    def left_polar(self, U: Iterable[str]) -> frozenset[str]:
        """Elements related on the left to everything in U (all of them when U is empty)."""
        U = self._check_subset(U)
        return frozenset(x for x in self.elements if all((x, u) in self.table for u in U))

    def right_polar(self, U: Iterable[str]) -> frozenset[str]:
        """Elements related on the right to everything in U (all of them when U is empty)."""
        U = self._check_subset(U)
        return frozenset(x for x in self.elements if all((u, x) in self.table for u in U))

    def sub_structure(self, A: Iterable[str]) -> "FinitePartialMagma":
        """Restriction to A: related pairs of A whose product stays in A.

        Pairs whose product leaves A are dropped from the relation and kept
        in ``escapes`` so closure checks can report them.
        """
        A = self._check_subset(A)
        if not A:
            raise DomainError("restriction subset must be nonempty")
        kept: dict[Pair, str] = {}
        escaped: list[tuple[Pair, str]] = []
        for (a, b), c in self.table.items():
            if a in A and b in A:
                if c in A:
                    kept[(a, b)] = c
                else:
                    escaped.append(((a, b), c))
        return FinitePartialMagma(tuple(sorted(A)), kept, escapes=tuple(escaped))


def full_relation_magma(elements: Iterable[str], product: Callable[[str, str], str]) -> FinitePartialMagma:
    """Total structure: every ordered pair related, products from ``product``."""
    labels = tuple(sorted(elements))
    table = {(a, b): product(a, b) for a in labels for b in labels}
    return FinitePartialMagma(labels, table)


def _text_lines(text: str) -> list[str]:
    """The lines of a text file, broken at \\n, \\r\\n and \\r only: str.splitlines
    also breaks at \\v, \\f, \\x1c-\\x1e, \\x85, U+2028 and U+2029, which would
    end a ``#`` comment early and shift the line numbers an editor shows."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _format(kinds: dict[str, str]) -> dict[str, tuple[str, int, bool, bool]]:
    """The rules of a text format, built once from its line kinds.

    A format maps each line kind to the shape of the tokens after its colon.
    A shape in angle brackets is a header, read once: "<labels>" gives a tuple
    of one label or more, "<label>" one label.  Other shapes are item lines of
    that many tokens: one with a literal "->" gives a dict from the tokens
    before it to the one after, a key per line, and the rest a list of token
    tuples.  A rule is (shape, token count or 0 for "<labels>", keyed by
    "->", header).
    """
    return {kind: (shape, 0 if shape == "<labels>" else len(shape.split()),
                   "->" in shape.split(), shape[0] == "<")
            for kind, shape in kinds.items()}


_MAGMA = _format({"elements": "<labels>", "op": "a b -> c"})


def _parse(text: str, rules: dict[str, tuple[str, int, bool, bool]], build: Callable):
    """Read ``text`` by the ``_format`` rules and return ``build`` called with one value per kind.

    The first bad line raises, then the first missing header in ``rules``
    order, then a DomainError of ``build``, each as a ParseError.
    """
    # kind -> its items, and each header read so far
    values: dict[str, object] = {kind: {} if keyed else []
                                 for kind, (_, _, keyed, header) in rules.items() if not header}
    for lineno, raw in enumerate(_text_lines(text), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        kind, colon, rest = line.partition(":")
        rule = rules.get(kind) if colon else None
        if rule is None:
            raise ParseError(f"line {lineno}: unrecognized line {line!r}")
        shape, size, keyed, header = rule
        toks = rest.split()
        if header:
            if kind in values:
                raise ParseError(f"line {lineno}: repeated {kind} line")
            if not (size or toks):
                raise ParseError(f"line {lineno}: {kind} line lists no labels")
        if size and len(toks) != size or keyed and toks[-2] != "->":
            raise ParseError(f"line {lineno}: expected '{kind}: {shape}'")
        if header:
            values[kind] = toks[0] if size else tuple(toks)
        elif keyed:
            items = values[kind]
            key = tuple(toks[:-2])
            if key in items:
                raise ParseError(f"line {lineno}: duplicate {kind} key ({','.join(key)})")
            items[key] = toks[-1]
        else:
            values[kind].append(tuple(toks))
    for kind in rules:
        if kind not in values:
            raise ParseError(f"missing {kind} line")
    try:
        return build(*(values[kind] for kind in rules))
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def parse_magma(text: str) -> FinitePartialMagma:
    """Parse the magma text format."""
    return _parse(text, _MAGMA, FinitePartialMagma)


def serialize_magma(m: FinitePartialMagma) -> str:
    lines = ["elements: " + " ".join(m.elements)]
    for (a, b) in m.pairs():
        lines.append(f"op: {a} {b} -> {m.table[(a, b)]}")
    return "\n".join(lines) + "\n"
