"""The oracles independent of the bit-sliced block kernel.

``_iter_tables`` walks every flat table in code order, one at a time.
``_flags_by_code`` runs the per-table kernel ``_table_flags`` on each of them
once per size and keeps the flags, so every test that needs the flags of
every code with n <= 3 shares one sweep.  The census counts isomorphism
classes by Burnside's lemma over bit-sliced blocks; ``_representatives``
counts them the other way, walking every table and keeping those whose code
is the minimum over every relabeling.  ``_polar_violators`` decides the
literal polar closure over every subset on the digit sets of ``_blocks``,
with no clause of the kernel.  ``_checker_flags`` reads one structure's five
verdicts from the public checkers, which run the ordered scans only, so the
kernel is never compared with itself.
"""

import functools
import itertools
import math
import operator
from array import array

from locsemi import (is_locality_semigroup, is_partial_semigroup,
                     is_refined_locality_semigroup, is_strong_locality_semigroup,
                     is_transitive)
from locsemi.checks import _table_flags
from locsemi.enumeration import _blocks, search_space_size

_CHECKERS = (is_locality_semigroup, is_strong_locality_semigroup,
             is_refined_locality_semigroup, is_partial_semigroup, is_transitive)


def _checker_flags(m) -> tuple[bool, bool, bool, bool, bool]:
    """m's five verdicts in ``ClassReport.flags`` order, from the scan-only checkers."""
    return tuple(check(m).ok for check in _CHECKERS)


def _iter_tables(n: int):
    """Yield (code, table) for every code in order; the table array('i') is reused."""
    cells = n * n
    t = array("i", [-1]) * cells
    for code in range(search_space_size(n)):
        yield code, t
        i = 0
        while i < cells:
            t[i] += 1
            if t[i] < n:
                break
            t[i] = -1
            i += 1


@functools.cache
def _flags_by_code(n: int) -> tuple[tuple[bool, bool, bool, bool, bool], ...]:
    """_table_flags of every code in order; equal flag tuples are one object."""
    shared = {}
    return tuple(shared.setdefault(f, f) for f in (_table_flags(n, t) for _, t in _iter_tables(n)))


def _relabelings(n: int) -> list[tuple[list[int], list[tuple[int, int]]]]:
    """Each non-identity carrier permutation p as (values, cells).

    Relabeling by p moves cell (i,j) holding v to (p[i],p[j]) holding p[v].
    ``values`` is p with -1 appended, so values[-1] keeps undefined cells
    undefined; ``cells`` pairs each target cell, most significant digit
    first, with the source cell it is read from.
    """
    out = []
    for p in itertools.permutations(range(n)):
        if p == tuple(range(n)):
            continue
        inv = [p.index(v) for v in range(n)]
        cells = [(k, inv[k // n] * n + inv[k % n]) for k in reversed(range(n * n))]
        out.append((list(p) + [-1], cells))
    return out


def _orbit_size(t: list[int], relabelings, n_fact: int) -> int:
    """0 if some relabeling of t has a smaller code, else n!/|Aut(t)|.

    Codes compare digit by digit from the most significant cell, so each
    relabeling is settled at the first cell where it differs from t; one
    that matches t on every cell is an automorphism.
    """
    automorphisms = 1
    for values, cells in relabelings:
        for k, src in cells:
            y = values[t[src]]
            if y != t[k]:
                if y < t[k]:
                    return 0
                break
        else:
            automorphisms += 1
    return n_fact // automorphisms


def _representatives(n: int):
    """Yield (code, table, class size) for each isomorphism-class minimum, in order.

    A class's first table in enumeration order is its minimum, so the first
    representative with given flags is also the first table with them.
    """
    relabelings = _relabelings(n)
    n_fact = math.factorial(n)
    for code, t in _iter_tables(n):
        size = _orbit_size(t, relabelings, n_fact)
        if size:
            yield code, t, size


def _polar_violators(n: int) -> str:
    """Per code in order, "1" where the literal polar closure fails, else "0".

    Each block of ``_blocks(n)`` is decided at once, bit i standing for its
    i-th table.  Per nonempty U and side, x's polar set holds the tables
    where every cell (x,u) (resp. (u,x)) with u in U is defined; a pair (a,b)
    violates on the tables in both polar sets where its cell holds a c
    outside c's polar set.
    """
    rng = range(n)
    violators = 0
    for first, digits, full in _blocks(n):
        defined = [full ^ d[0] for d in digits]
        bad = 0
        for size in range(1, n + 1):
            for U in itertools.combinations(rng, size):
                for cell in (lambda x, u: x * n + u, lambda x, u: u * n + x):
                    polar = [functools.reduce(operator.and_, (defined[cell(x, u)] for u in U))
                             for x in rng]
                    outside = [full ^ p for p in polar]
                    for a in rng:
                        for b in rng:
                            holds = digits[a * n + b]
                            escapes = 0
                            for c in rng:
                                escapes |= holds[c + 1] & outside[c]
                            bad |= polar[a] & polar[b] & escapes
        violators |= bad << first
    # read once as a string: a shift per code on the 262,144-bit int costs seconds
    return format(violators, f"0{search_space_size(n)}b")[::-1]
