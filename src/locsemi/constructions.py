"""Building new structures from old ones.

Identity and zero adjunction, generated closures, zero-completion of a
partial product to a total one, and restriction of a total semigroup to a
partial one.  A zero-completion's text is a ``zero:`` line and a magma's,
read in one pass with ``zero`` as one more header kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError, NotAssociative, PreconditionError
from .magma import (_MAGMA, OK, FinitePartialMagma, Verdict, _format, _parse, fail,
                    serialize_magma)


def _adjoin(m: FinitePartialMagma, label: str, identity: bool) -> FinitePartialMagma:
    """Adjoin a fresh identity, or a fresh zero when not ``identity``, related to everything."""
    if label in m.elements:
        raise DomainError(f"label {label!r} already in carrier")
    table = dict(m.table)
    table[(label, label)] = label
    for a in m.elements:
        table[(label, a)] = table[(a, label)] = a if identity else label
    return FinitePartialMagma(m.elements + (label,), table)


def adjoin_identity(m: FinitePartialMagma, label: str) -> FinitePartialMagma:
    """Adjoin a fresh two-sided identity, related to everything and to itself."""
    return _adjoin(m, label, identity=True)


def adjoin_zero(m: FinitePartialMagma, label: str) -> FinitePartialMagma:
    """Adjoin a fresh two-sided zero, related to everything and to itself."""
    return _adjoin(m, label, identity=False)


def generated_sub_locality_semigroup(m: FinitePartialMagma, A: Iterable[str]) -> frozenset[str]:
    """Least superset of A closed under products of its related pairs.

    Fixpoint of one-step closure; terminates because the carrier is finite.
    The relation used at each step is the ambient one restricted to the
    current subset.
    """
    B = set(m._check_subset(A))
    if not B:
        raise DomainError("generating subset must be nonempty")
    while True:
        new = {c for (a, b), c in m.table.items() if a in B and b in B and c not in B}
        if not new:
            return frozenset(B)
        B |= new


@dataclass(frozen=True)
class SemigroupWithZero:
    """A total operation table with a designated absorbing zero label."""

    magma: FinitePartialMagma
    zero: str

    def __post_init__(self):
        if self.zero not in self.magma.elements:
            raise DomainError(f"zero label {self.zero!r} not in carrier")

    def product(self, a: str, b: str) -> str:
        return self.magma.table[(a, b)]


def _regroupings(m: FinitePartialMagma, zero: str | None = None):
    """Each triple of the total table m in lex order, as ((x, y, z), xy, yz, (xy)z, x(yz)).

    With an absorbing ``zero``, a triple whose xy and yz are both zero is
    zero on both sides, so after a zero xy only the z with yz nonzero come.
    """
    rows = {x: {y: m.table[(x, y)] for y in m.elements} for x in m.elements}
    nonzero = {y: [z for z, yz in row.items() if yz != zero] for y, row in rows.items()}
    for x, rx in rows.items():
        for y, xy in rx.items():
            ry, rxy = rows[y], rows[xy]
            for z in nonzero[y] if xy == zero else ry:
                yield (x, y, z), xy, (yz := ry[z]), rxy[z], rx[yz]


def _associativity_violation(m: FinitePartialMagma, zero: str | None = None):
    """First triple (lex order) where the total table fails to associate, or None."""
    return next(((triple, lhs, rhs) for triple, _, _, lhs, rhs in _regroupings(m, zero)
                 if lhs != rhs), None)


def _not_associative(triple, lhs, rhs) -> PreconditionError:
    return PreconditionError(f"not associative at ({','.join(triple)}): {lhs} != {rhs}")


def _require_semigroup(m: FinitePartialMagma) -> None:
    """PreconditionError unless the table is total and associative."""
    if not m.is_total():
        raise PreconditionError("operation table is not total")
    broken = _associativity_violation(m)
    if broken is not None:
        raise _not_associative(*broken)


def complete_to_semigroup_with_zero(m: FinitePartialMagma, zero: str = "0") -> SemigroupWithZero:
    """Totalize the product by sending every unrelated pair to a fresh zero.

    The result is verified associative over every triple that can fail: one
    whose two inner products are both the zero is zero on both sides.  For
    refined inputs this cannot fail; for anything else the first breaking
    triple in lex order is raised as NotAssociative.
    """
    if zero in m.elements:
        raise DomainError(f"zero label {zero!r} already in carrier")
    elements = m.elements + (zero,)
    total = FinitePartialMagma(elements, {(a, b): m.table.get((a, b), zero)
                                          for a in elements for b in elements})
    broken = _associativity_violation(total, zero)
    if broken is not None:
        raise NotAssociative(*broken)
    return SemigroupWithZero(total, zero)


def is_strong_semigroup_with_zero(t: SemigroupWithZero) -> Verdict:
    """A triple product is nonzero exactly when both adjacent products are nonzero.

    Only one side needs a test: with zero absorbing, ab = 0 gives abc = 0c = 0,
    and bc = 0 gives abc = a(bc) = 0, so abc != 0 forces ab, bc != 0.

    PreconditionError unless the table is total, associative and absorbed
    by the zero, the first fault in that order named.  Once the table is
    total and the zero absorbs, one walk over the triples that can fail
    (``_regroupings``) checks associativity and finds the first witness.
    """
    m, zero, tab = t.magma, t.zero, t.magma.table
    strays = [a for a in m.elements if tab.get((zero, a)) != zero or tab.get((a, zero)) != zero]
    if strays or not m.is_total():
        _require_semigroup(m)  # a table that is not total, or not associative, says so first
        raise PreconditionError(f"designated zero {zero!r} does not absorb {strays[0]!r}")
    verdict = OK
    for triple, ab, bc, abc, rhs in _regroupings(m, zero):
        if abc != rhs:
            raise _not_associative(triple, abc, rhs)
        if abc == zero and ab != zero and bc != zero and verdict:
            verdict = fail("strong-zero", triple, f"product zero but factors {ab},{bc}")
    return verdict


def partial_from_semigroup(t: FinitePartialMagma, A: Iterable[str]) -> FinitePartialMagma:
    """Restrict a total semigroup to A, relating pairs whose product stays in A.

    The output always satisfies the partial associative law: with a, b, c in
    A and ab, bc in A, both (ab)c and a(bc) equal the same ambient product,
    so the two memberships agree.

    It is ``t.sub_structure(A)`` once t is checked, so the pairs whose product
    leaves A come back in ``escapes`` (metadata, outside equality) and an
    empty A raises sub_structure's DomainError.
    """
    _require_semigroup(t)
    return t.sub_structure(A)


def serialize_semigroup_with_zero(t: SemigroupWithZero) -> str:
    return f"zero: {t.zero}\n" + serialize_magma(t.magma)


_WITH_ZERO = _format({"zero": "<label>"}) | _MAGMA


def parse_semigroup_with_zero(text: str) -> SemigroupWithZero:
    """Parse the format ``complete`` writes: a ``zero:`` line and a magma."""
    return _parse(text, _WITH_ZERO, lambda zero, elements, table:
                  SemigroupWithZero(FinitePartialMagma(elements, table), zero))
