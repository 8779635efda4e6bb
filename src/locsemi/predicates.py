"""Predicate-defined (possibly infinite) structures and their bounded checks.

The built-ins are the coprimality structures on the positive naturals (with
and without an adjoined zero), plain natural multiplication, and the finite
power-set structures under inclusion.  Bounded scans quantify over a finite
slice but evaluate the relation and the product exactly, so products falling
outside the slice are still tested honestly.  A positive bounded verdict
means "no counterexample within the bound", never a theorem; negative
verdicts carry exact witnesses that persist at every larger bound.

``sampled_classify`` compiles the slice into an open table (the slice, the
products of its related pairs that leave it, and their rows and columns;
see ``checks._open_table``) and runs the walk of ``checks`` over it once:
it decides the five classes and names each failing one's first witness.
``sampled_verdict`` walks one named class over rows and columns that it
computes as the walk first reaches them, so it gives the same verdict and
witness at a fraction of the cost when that class fails early, and
computes no element's row or column twice.  Slices hold at most ``MAX_SLICE``
elements; a larger bound raises CapacityError before the slicer runs, and
``totient_hom_check`` takes bounds up to the same limit.  The
coprimality relations test with ``math.gcd``; ``gcd`` here is a remainder
loop kept as an independent oracle, and ``totient`` counts with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from .errors import CapacityError, DomainError
from .magma import OK, FinitePartialMagma, Verdict, fail
from .checks import (_CLASS_NAMES, ClassReport, _flat, _lazy_dicts, _open_table, _report,
                     _table_sided, _verdict, _walk)


# The most elements a bounded check or slice takes, and the largest bound of
# ``totient_hom_check``.  At the limit, the full ``builtin coprime`` report
# peaks at 128 MB RSS in about 6 s (2-core Intel Xeon, Python 3.11.7); its
# open table grows about as the cube of the slice.
MAX_SLICE = 300


def gcd(a: int, b: int) -> int:
    """Greatest common divisor by the remainder loop."""
    while b:
        a, b = b, a % b
    return abs(a)


def totient(n: int) -> int:
    """Count of 1 <= k <= n coprime to n, by direct counting.

    Deliberately not computed through factorization, so it can serve as an
    oracle independent of multiplicativity.
    """
    if n < 1:
        raise DomainError("totient needs a positive integer")
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@dataclass(frozen=True)
class PredicateMagma:
    """An intensional structure: membership, relation and product as functions.

    ``slice_elements`` maps a bound to the finite element list used by
    bounded scans, which holds no element twice.  The relation may answer
    with any truthy or falsy value.  Bounded checks take the product of
    every related pair with one factor in the slice, so there it must be
    defined and hashable, and equal products must hash alike.
    """

    description: str
    contains: Callable[[Any], bool]
    related: Callable[[Any, Any], bool]
    product: Callable[[Any, Any], Any]
    slice_elements: Callable[[int], list] | None = None


def coprime_magma() -> PredicateMagma:
    """Positive naturals under multiplication, related when coprime."""
    return PredicateMagma(
        description="positive naturals, coprime pairs, multiplication",
        contains=lambda a: isinstance(a, int) and a >= 1,
        related=lambda a, b: math.gcd(a, b) == 1,
        product=lambda a, b: a * b,
        slice_elements=lambda bound: list(range(1, bound + 1)),
    )


def coprime_with_zero() -> PredicateMagma:
    """Naturals with zero adjoined: zero pairs are related and absorb."""
    return PredicateMagma(
        description="naturals, coprime or zero pairs, multiplication",
        contains=lambda a: isinstance(a, int) and a >= 0,
        related=lambda a, b: a == 0 or b == 0 or math.gcd(a, b) == 1,
        product=lambda a, b: a * b,
        slice_elements=lambda bound: list(range(0, bound + 1)),
    )


def natural_multiplication() -> PredicateMagma:
    """Positive naturals under multiplication with the full relation."""
    return PredicateMagma(
        description="positive naturals, full relation, multiplication",
        contains=lambda a: isinstance(a, int) and a >= 1,
        related=lambda a, b: True,
        product=lambda a, b: a * b,
        slice_elements=lambda bound: list(range(1, bound + 1)),
    )


def bounded_magma(p: PredicateMagma, bound: int) -> FinitePartialMagma:
    """Finite restriction of a predicate structure to its slice at ``bound``.

    Related pairs whose product leaves the slice are dropped from the
    relation and recorded as escapes, mirroring sub_structure.
    """
    elems = _checked_slice(p, bound)
    labels = {e: str(e) for e in elems}
    inside = set(elems)
    table: dict[tuple[str, str], str] = {}
    escapes: list[tuple[tuple[str, str], str]] = []
    for a in elems:
        for b in elems:
            if p.related(a, b):
                c = p.product(a, b)
                if c in inside:
                    table[(labels[a], labels[b])] = labels[c]
                else:
                    escapes.append(((labels[a], labels[b]), str(c)))
    return FinitePartialMagma(tuple(labels.values()), table, escapes=tuple(escapes))


def powerset_magma(base: set, op: str) -> FinitePartialMagma:
    """All subsets of ``base``, related by inclusion, under union or intersection.

    Subset labels look like ``{1,3}`` with the empty set spelled ``{}``.
    """
    if op not in ("union", "intersection"):
        raise DomainError(f"op must be union or intersection, not {op!r}")
    items = sorted(base, key=str)
    if len(items) > 4:
        raise CapacityError("power set supported for base sets of size <= 4")
    subsets = []
    for mask in range(1 << len(items)):
        subsets.append(frozenset(x for i, x in enumerate(items) if mask >> i & 1))
    label = lambda s: "{" + ",".join(str(x) for x in sorted(s, key=str)) + "}"
    combine = frozenset.union if op == "union" else frozenset.intersection
    table = {}
    for a in subsets:
        for b in subsets:
            if a <= b:
                table[(label(a), label(b))] = label(combine(a, b))
    return FinitePartialMagma(tuple(label(s) for s in subsets), table)


def _checked_slice(p: PredicateMagma, bound: int) -> list:
    """The slice at ``bound``, refused (CapacityError) past MAX_SLICE elements.

    The bound is checked before the slicer runs: below 1 it raises
    DomainError, and past MAX_SLICE CapacityError, since the built-in slicers
    build one element per unit of bound; the slice's length is checked
    after.  A slice that repeats an element, or leaves the structure, raises
    DomainError.
    """
    if bound < 1:
        raise DomainError("bound must be at least 1")
    if p.slice_elements is None:
        raise DomainError("structure has no bounded slicer")
    if bound > MAX_SLICE:
        raise CapacityError(f"bound {bound} exceeds the slice limit of {MAX_SLICE} elements")
    elems = p.slice_elements(bound)
    if len(elems) > MAX_SLICE:
        raise CapacityError(f"slice of {len(elems)} elements at bound {bound} "
                            f"exceeds the limit of {MAX_SLICE}")
    if len(set(elems)) != len(elems):
        raise DomainError(f"slice at bound {bound} holds an element twice")
    for x in elems:
        if not p.contains(x):
            raise DomainError(f"slice at bound {bound} holds {x}, outside the structure")
    return elems


def sampled_classify(p: PredicateMagma, bound: int) -> ClassReport:
    """Class verdicts quantified over the slice at ``bound``.

    The relation and products are evaluated exactly even when a product
    exceeds the bound.  One walk over the compiled open table decides the
    five classes and names their witnesses, and the table's rows and
    columns on the slice give its identities and zeros.
    """
    elems = sorted(_checked_slice(p, bound))
    t, open_table = _open_table(elems, p.related, p.product)
    backend = _flat(len(elems), t, open_table)
    sided = _table_sided(elems, t, open_table[0], *backend[:2])
    return _report(elems, backend, p.related, p.product, sided, bound)


def sampled_verdict(p: PredicateMagma, bound: int, name: str) -> Verdict:
    """The verdict of one class (``locality``, ``strong``, ``refined``,
    ``partial`` or ``transitive``) over the slice at ``bound``.

    Walks only that class, over rows and columns computed on first use, so
    it equals the same-named field of ``sampled_classify(p, bound)``,
    witness included.
    """
    elems = sorted(_checked_slice(p, bound))
    if name not in _CLASS_NAMES:
        raise DomainError(f"unknown class {name!r}, expected one of {', '.join(_CLASS_NAMES)}")
    backend = _lazy_dicts(elems, p.related, p.product)
    found, = _walk(len(elems), backend, (_CLASS_NAMES.index(name),))
    return _verdict(found, elems, p.related, p.product)


def totient_hom_check(bound: int) -> Verdict:
    """totient(ab) == totient(a) * totient(b) for every coprime a, b with ab <= bound.

    Each totient(k), k <= bound, is counted once, directly, so the check
    stays independent of multiplicativity.  A bound past MAX_SLICE raises
    CapacityError before any counting, since the counts cost about bound**2.
    """
    if bound < 2:
        raise DomainError("bound must be at least 2")
    if bound > MAX_SLICE:
        raise CapacityError(f"bound {bound} exceeds the limit of {MAX_SLICE}")
    phi = [0] + [totient(k) for k in range(1, bound + 1)]
    for a in range(1, bound + 1):
        for b in range(1, bound // a + 1):
            if gcd(a, b) == 1 and phi[a * b] != phi[a] * phi[b]:
                return fail("totient-multiplicative", (a, b),
                            f"phi({a * b})={phi[a * b]} != {phi[a]}*{phi[b]}")
    return OK
