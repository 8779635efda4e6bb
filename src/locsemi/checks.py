"""Axiom-class checkers returning verdicts with violation witnesses.

Every scan visits tuples in a fixed deterministic order: strictly
increasing tuples first (lexicographically), then all remaining tuples
(lexicographically), and yields every violation in that order.  A checker
takes the first one as its witness, so reported counterexamples prefer
distinct generic elements over degenerate repeats, and reports are stable
across runs.

The scans are written against bare accessors (triple source, relation test,
product function), so each axiom clause is stated once and drives the full
scans of finite tables, the bounded scans of predicate-defined structures,
and witness replay, which re-runs a scan on the witness's own elements.

Every axiom is stated in this module.  The fused flat-table kernel
``_table_flags`` and its bit-sliced twin ``_block_flags``, which decides a
block of closed tables at once for ``scan_flags`` and the census, sit beside
the scan clauses.  ``_table_flags`` gives the verdicts of two reports, so
that only their failing classes run their scans, for the witness:
``classify`` on a dense finite table, which ``_closed_table`` compiles in
one walk over the magma's own table, and the bounded report, for which
``_open_table`` compiles a slice of a predicate structure together with the
products that leave it.  A closed table is decided as the open form with no
products outside it.  ``classify`` on a sparse table, with more than
``_DENSE_CELLS_PER_PAIR`` cells per defined pair, runs every scan: there the
n^2 cells would cost more than the scans, which a path magma keeps linear in
|R|, and the public ``is_*`` checkers always run the scans.  The kernel
reads every row and column mask of defined cells from the table's sign
bytes, and compares each defined pair's two regroupings, (ab)c and a(bc)
over b's defined columns, as two C-speed row gathers built on the row's
first use, so its Python work per pair does not grow with the slice.

A scan reads its triples from a triple source, ``_Triples``, which offers
the scan order as streams, each filtered by one guard, such as "(a,b) and
(b,c) related".  Each clause reads the stream whose guard it needs and
tests only what the guard leaves open; a triple outside that stream fails
the guard and would yield nothing, so each violation stream, and each first
witness, is exactly what a walk over all n^3 triples gives.  One run
builder, ``_Triples._stream``, cuts every stream from the relation's rows,
with nothing of size n^3.  The two refined-membership streams also skip the
related pairs whose two rows (or columns) are equal, which cannot fail, so
on a refined structure they cost about |R|.  The two refined-membership
clauses share one transfer body, and the two regrouping clauses another.
A replay runs the same scan over the witness's own elements.

The literal polar closure, ``check_polar_closure_subsets``, compiles no
table: it reads each subset's polars from the magma (``left_polar``,
``right_polar``) and their escaping products through ``_first_escape``, the
rule the sub-structure and ideal checkers share.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .errors import CapacityError, DomainError, InvariantError
from .magma import OK, FinitePartialMagma, Verdict, Witness, fail

Rel = Callable[[object, object], bool]
Mul = Callable[[object, object], object]


class _Triples:
    """The triple streams of one structure over the distinct ``elems``.

    ``rows[i]`` lists, in increasing order, the positions j with
    (elems[i], elems[j]) related.  The scan order compares positions, not
    values.  Each stream is the scan order filtered by one guard, and each
    call starts a fresh pass:

    - ``ab(pair)``, (a,b) related and ``pair(a, b)``: refined-left;
    - ``bc(pair)``, (b,c) related and ``pair(b, c)``: refined-right;
    - ``chained()``, (a,b) and (b,c) related: strong, refined-assoc,
      partial and transitivity;
    - ``left()``, (a,b), (b,c) and (a,c) related: left polar closure and
      locality-assoc;
    - ``right()``, (a,b), (c,a) and (c,b) related: right polar closure.

    ``_stream`` cuts every stream into C-speed runs of c, one per pair (a,b)
    it keeps: every element, b's row or column, or those filtered by a's
    row or column, each cut to the pair's range in the scan order.  A pass
    costs about the pairs plus the triples it yields, and the source holds
    O(n + |R|), built on a stream's first call.  ``ab`` tests each pair
    once, when the walk first reaches it; ``bc`` tests its pairs (b,c) all
    on its first step, and pairs every a with each b that kept one.
    """

    def __init__(self, elems: Sequence, rows: Sequence[Sequence[int]]):
        self.elems = tuple(elems)
        self.rows = rows

    def _lines(self, lines):
        """(whole, cuts, sets): per line j of positions (b's row or column),
        its values, how many of its positions are up to j, and its values as
        a set."""
        elems = self.elems
        whole = [tuple(map(elems.__getitem__, line)) for line in lines]
        cuts = [bisect_right(line, j) for j, line in enumerate(lines)]
        return whole, cuts, [frozenset(v) for v in whole]

    @cached_property
    def _row_lines(self):
        return self._lines(self.rows)

    @cached_property
    def _column_lines(self):
        columns = [[] for _ in self.elems]
        for i, row in enumerate(self.rows):
            for j in row:
                columns[j].append(i)
        return self._lines(columns)

    @cached_property
    def _index(self):
        return {x: i for i, x in enumerate(self.elems)}

    def row(self, x, rel: Rel) -> frozenset:
        """The elements c with (x,c) related; rel tells them when x is not an element."""
        i = self._index.get(x)
        if i is None:
            return frozenset(c for c in self.elems if rel(x, c))
        return self._row_lines[2][i]

    def column(self, x, rel: Rel) -> frozenset:
        """The elements a with (a,x) related; rel tells them when x is not an element."""
        i = self._index.get(x)
        if i is None:
            return frozenset(a for a in self.elems if rel(a, x))
        return self._column_lines[2][i]

    def _stream(self, whole, cuts, sets=None, pair=None, rows=None):
        """The runs of c, one per pair (a,b) of ``rows`` (the relation's, by
        default) in scan order that pair keeps, cut from b's line: past b's
        position in the increasing part, then up to it when a comes before
        b, else all of it.  With sets, a run keeps only the c in a's set."""
        elems, rows = self.elems, self.rows if rows is None else rows

        def runs():
            kept = set()  # the (i, j), i < j, that pair passed, so it tests each pair once
            for i, a in enumerate(elems):
                row = rows[i]
                for j in row[bisect_right(row, i):]:
                    if pair is not None:
                        if not pair(a, elems[j]):
                            continue
                        kept.add((i, j))
                    cs = whole[j][cuts[j]:]
                    if cs:
                        yield zip(repeat(a), repeat(elems[j]),
                                  filter(sets[i].__contains__, cs) if sets else cs)
            for i, a in enumerate(elems):
                for j in rows[i]:
                    if pair is None or ((i, j) in kept if i < j else pair(a, elems[j])):
                        cs = whole[j][:cuts[j]] if i < j else whole[j]
                        if cs:
                            yield zip(repeat(a), repeat(elems[j]),
                                      filter(sets[i].__contains__, cs) if sets else cs)
        return chain.from_iterable(runs())

    def ab(self, pair):
        n = len(self.elems)
        return self._stream([self.elems] * n, range(1, n + 1), pair=pair)

    def bc(self, pair):
        elems = self.elems
        lines = [[k for k in row if pair(elems[j], elems[k])] for j, row in enumerate(self.rows)]
        bs = [j for j, line in enumerate(lines) if line]
        yield from self._stream(*self._lines(lines)[:2], rows=[bs] * len(elems))

    def chained(self):
        return self._stream(*self._row_lines[:2])

    def left(self):
        return self._stream(*self._row_lines)

    def right(self):
        return self._stream(*self._column_lines)


def _related_rows(elems: Sequence, rel: Rel) -> list[list[int]]:
    """The rows of _Triples, read by calling rel on every pair."""
    return [[j for j, b in enumerate(elems) if rel(a, b)] for a in elems]


def _table_rows(m: FinitePartialMagma) -> list[list[int]]:
    """The rows of _Triples over m.elements, read from the table's keys,
    which the magma stores in label order, so each row comes out ascending."""
    index = {x: i for i, x in enumerate(m.elements)}
    rows = [[] for _ in index]
    for a, b in m.table:
        rows[index[a]].append(index[b])
    return rows


def _ordered_pairs(elems: Sequence):
    yield from itertools.combinations(elems, 2)
    for p in itertools.product(elems, repeat=2):
        if not p[0] < p[1]:
            yield p


# ---------------------------------------------------------------------------
# scan bodies, generic over (triple source, related, product)
#
# Each scan yields every violation in scan order.  A clause reads the stream
# of its source whose guard it needs, and tests only what that guard leaves
# open.  A full scan is read only up to its first violation, so a later pass
# runs only once the earlier ones hold and its products are defined; a replay
# reads past the violations of other axioms and passes a product that is None
# where undefined, so every clause must be exact there too.  A relation may
# answer with any truthy or falsy value, so clauses branch on the answers and
# never compare two of them.

def _polar_closure_violation(src, rel: Rel, mul: Mul):
    # left closure: a, b both related into c and (a,b) related force (ab, c) related
    for a, b, c in src.left():
        if not rel(mul(a, b), c):
            yield fail("left-polar-closure", (a, b, c), f"U={{{c}}}")
    # right closure: c related into a, b and (a,b) related force (c, ab) related
    for a, b, c in src.right():
        if not rel(c, mul(a, b)):
            yield fail("right-polar-closure", (a, b, c), f"U={{{c}}}")


def _regrouping_violation(triples, rel: Rel, mul: Mul, axiom: str):
    # products before the relation tests, as the note above allows
    for a, b, c in triples:
        ab, bc = mul(a, b), mul(b, c)
        lhs, rhs = mul(ab, c), mul(a, bc)
        if lhs != rhs and rel(ab, c) and rel(a, bc):
            yield fail(axiom, (a, b, c), f"{lhs}!={rhs}")


def _locality_violation(src, rel: Rel, mul: Mul):
    yield from _polar_closure_violation(src, rel, mul)
    yield from _regrouping_violation(src.left(), rel, mul, "locality-assoc")


def _strong_violation(src, rel: Rel, mul: Mul):
    for a, b, c in src.chained():
        ab, bc = mul(a, b), mul(b, c)
        left_in, right_in = rel(ab, c), rel(a, bc)
        if not left_in:
            yield fail("strong-left", (a, b, c), f"({ab},{c}) undefined")
        if not right_in:
            yield fail("strong-right", (a, b, c), f"({a},{bc}) undefined")
        if left_in and right_in:
            lhs, rhs = mul(ab, c), mul(a, bc)
            if lhs != rhs:
                yield fail("strong-assoc", (a, b, c), f"{lhs}!={rhs}")


def _transfer_violation(triples, rel: Rel, axiom: str, pairs):
    # pairs(a, b, c) builds two pairs, products first; one related forces the other
    detail = "({},{}) defined but ({},{}) undefined".format
    for a, b, c in triples:
        (x, y), (u, v) = pairs(a, b, c)
        if rel(x, y):
            if not rel(u, v):
                yield fail(axiom, (a, b, c), detail(x, y, u, v))
        elif rel(u, v):
            yield fail(axiom, (a, b, c), detail(u, v, x, y))


def _refined_violation(src, rel: Rel, mul: Mul):
    # a violation is a c in just one of row(b) and row(ab), or an a in just one
    # of column(b) and column(bc), so only pairs whose two lines differ yield one
    yield from _transfer_violation(src.ab(lambda a, b: src.row(b, rel) != src.row(mul(a, b), rel)),
                                   rel, "refined-left", lambda a, b, c: ((b, c), (mul(a, b), c)))
    yield from _transfer_violation(src.bc(lambda b, c: src.column(b, rel) != src.column(mul(b, c), rel)),
                                   rel, "refined-right", lambda a, b, c: ((a, b), (a, mul(b, c))))
    yield from _regrouping_violation(src.chained(), rel, mul, "refined-assoc")


def _partial_violation(src, rel: Rel, mul: Mul):
    for a, b, c in src.chained():
        ab, bc = mul(a, b), mul(b, c)
        left_in, right_in = rel(ab, c), rel(a, bc)
        if left_in and right_in:
            lhs, rhs = mul(ab, c), mul(a, bc)
            if lhs != rhs:
                yield fail("partial-assoc", (a, b, c), f"{lhs}!={rhs}")
        elif right_in:
            yield fail("partial-membership", (a, b, c),
                       f"({ab},{c}) undefined, ({a},{bc}) defined")
        elif left_in:
            yield fail("partial-membership", (a, b, c),
                       f"({a},{bc}) undefined, ({ab},{c}) defined")


def _transitive_violation(src, rel: Rel, mul: Mul):
    for a, b, c in src.chained():
        if not rel(a, c):
            yield fail("transitivity", (a, b, c), f"({a},{c}) undefined")


# the five class verdicts of a report, each named by its ClassReport field
_CLASS_SCANS = {
    "locality": _locality_violation,
    "strong": _strong_violation,
    "refined": _refined_violation,
    "partial": _partial_violation,
    "transitive": _transitive_violation,
}


def _check_inclusions(flags, message: str) -> None:
    """Raise InvariantError, message naming the sides, where five verdicts or table
    sets in _CLASS_SCANS order break the class chain; sub & ~sup is 0 iff sub is within sup."""
    loc, strong, refined, partial, trans = flags
    for sub, sup, names in ((refined, strong, ("refined", "strong")),
                            (strong, loc & partial, ("strong", "both locality and partial")),
                            (trans & loc, partial, ("transitive locality", "partial"))):
        if sub & ~sup:
            raise InvariantError(message.format(*names))


def _first(scan, m: FinitePartialMagma) -> Verdict:
    """The first violation of a full scan over m, or OK."""
    elems, rel, mul = _accessors(m)
    return next(scan(_Triples(elems, _table_rows(m)), rel, mul), OK)


def _sided_elements(elems, rel: Rel, mul: Mul, want) -> tuple[tuple, tuple, tuple]:
    left = tuple(
        e for e in elems if all(rel(e, a) and mul(e, a) == want(e, a) for a in elems)
    )
    right = tuple(
        e for e in elems if all(rel(a, e) and mul(a, e) == want(e, a) for a in elems)
    )
    both = tuple(e for e in left if e in right)
    return left, right, both


# ---------------------------------------------------------------------------
# flat tables: array('i') whose cell i*n+j holds the index of the product of
# elements i and j, or -1 where the pair is unrelated.  A closed table's
# products stay in its carrier; an open table also indexes the products that
# leave it.

def _closed_table(m: FinitePartialMagma) -> tuple[array, list[list[int]]]:
    """(t, rows): m's closed flat table and the rows of _Triples, in one walk
    over the table, whose stored key order makes each row ascend."""
    index = {x: i for i, x in enumerate(m.elements)}
    n = len(index)
    t = array("i", [-1]) * (n * n)
    rows = [[] for _ in index]
    for (a, b), c in m.table.items():
        i, j = index[a], index[b]
        t[i * n + j] = index[c]
        rows[i].append(j)
    return t, rows


def _open_table(elems: Sequence, rel: Rel, mul: Mul):
    """Compile the slice ``elems`` into an open table: (t, (m, left), rows).

    The slice S holds indices 0..n-1.  P, the products of related slice pairs
    that fall outside S, holds n..m-1 in the order first met.  t has the rows
    a*y for a in S and y in S or P (stride m); left has the rows x*c for x in
    S or P and c in S (stride n).  Further products get ids from m on, only
    so that they compare equal exactly when the values do: product by
    product of P, its column before its row.  rows is the in-slice relation
    as the position rows of _Triples.  The compile reads each pair once and
    takes a product only on a related pair with a factor in S.  A product of
    P gets its column and its row from one comprehension each, stored with
    one slice store each (t[y::m] and left[y*n:y*n+n]).
    """
    n = len(elems)
    first = {x: i for i, x in enumerate(elems)}
    # a value met for the first time takes the next id: P from n, then the rest
    ids = defaultdict(itertools.count(n).__next__, first)
    cells = [[ids[mul(a, b)] if rel(a, b) else -1 for b in elems] for a in elems]
    P = list(ids)[len(first):]
    m = n + len(P)
    t = array("i", [-1]) * (n * m)
    left = array("i", [-1]) * (m * n)
    for a, row in enumerate(cells):
        t[a * m:a * m + n] = left[a * n:a * n + n] = array("i", row)
    for y, v in enumerate(P, n):
        # the column a*v and the row v*c of a product v outside the slice
        t[y::m] = array("i", [ids[mul(e, v)] if rel(e, v) else -1 for e in elems])
        left[y * n:y * n + n] = array("i", [ids[mul(v, e)] if rel(v, e) else -1 for e in elems])
    rows = [list(itertools.compress(range(n), map((-1).__ne__, row))) for row in cells]
    return t, (m, left), rows


# A cell of an array('i') is -1, undefined, exactly when its sign bit is set.
# _SIGNS picks each cell's most significant byte, last cell first, from the
# array's bytes; _DEFINED translates a byte below 0x80 to "1", others to "0".
_WIDTH = array("i").itemsize
_SIGNS = slice(None, None, -_WIDTH) if sys.byteorder == "little" else slice(-_WIDTH, None, -_WIDTH)
_DEFINED = b"1" * 128 + b"0" * 128


def _defined_mask(cells: array) -> int:
    """The mask with bit k set when cells[k] is defined, read at C speed."""
    return int(cells.tobytes()[_SIGNS].translate(_DEFINED), 2)


def _table_flags(n: int, t, open_table=None) -> tuple[bool, bool, bool, bool, bool]:
    """(locality, strong, refined, partial, transitive) in one pass over defined pairs.

    R[a] and C[b] are the row and column bitmasks of defined cells.  Each
    defined pair (a,b) with ab = t[a*n+b] is tested against every axiom at
    once: transitivity is R[b] <= R[a], singleton polar closure is
    R[a]&R[b] <= R[ab] with its column dual, refined membership is
    R[b] == R[ab] and C[a] == C[ab], and the regroupings (ab)c, a(bc) over
    the defined (b,c) settle the associativity clauses.  Returns as soon as
    every flag is false.

    The regroupings of a pair are two tuples over b's defined columns c:
    (ab)c, row ab of left at those columns, and a(bc), row a of t at b's
    products bc, each taken at C speed by an operator.itemgetter built on
    row b's first use.  Equal tuples fail strong exactly when they hold -1
    (an undefined regrouping); unequal ones fail strong, refined and
    partial, and only then is the row walked in Python for a c related from
    a where they differ, which fails locality.

    An open table from _open_table passes ``open_table`` = (m, left): t has
    stride m, the rows of (ab)c come from left, and a, b, c run over the n
    slice elements only, so every clause is decided on the slice even where
    products leave it.  A closed table is the open form with no products
    outside: t alone gives the rows of (ab)c as well.  Every mask, of the
    slice and of the products outside it alike, is read from sign bytes
    (_defined_mask): R[x] from row x of left, C[y] from column y of t.
    """
    rng = range(n)
    m, left = open_table or (n, t)
    R = [_defined_mask(left[x * n:x * n + n]) for x in range(m)]
    C = [_defined_mask(t[y::m]) for y in range(m)]
    # gathers[b]: None before row b's first use, then (cs, at_c, at_bc), b's
    # defined columns and the getters of (ab)c and a(bc).  A row with one
    # defined cell names its index twice, so that both getters give tuples;
    # one with none (Rb == 0) is skipped.
    gathers = [None] * n
    loc = strong = refined = partial = trans = True
    for a in rng:
        am = a * m
        Ra = R[a]
        Ca = C[a]
        row_a = t[am:am + m]
        for b in rng:
            ab = t[am + b]
            if ab < 0:
                continue
            Rb = R[b]
            Rab = R[ab]
            Cab = C[ab]
            if Rb & ~Ra:
                trans = False
            # either half of the closure follows from the other plus the
            # associativity clause below; both are kept to match the definition
            if Ra & Rb & ~Rab or Ca & C[b] & ~Cab:
                loc = False
            if Rb != Rab or Ca != Cab:
                refined = False
            # a pair that fails strong fails refined membership, so refined
            # implies strong after every pair and neither test names it
            if Rb and (loc or strong or partial):
                g = gathers[b]
                if g is None:
                    bm = b * m
                    cs = [c for c in rng if t[bm + c] >= 0]
                    bcs = [t[bm + c] for c in cs]
                    if len(cs) == 1:
                        cs *= 2
                        bcs *= 2
                    g = gathers[b] = (cs, itemgetter(*cs), itemgetter(*bcs))
                cs, at_c, at_bc = g
                lhs = at_c(left[ab * n:ab * n + n])
                rhs = at_bc(row_a)
                if lhs != rhs:
                    strong = refined = partial = False
                    if loc:
                        for c, x, y in zip(cs, lhs, rhs):
                            if x != y and Ra >> c & 1:
                                loc = False
                                break
                elif -1 in lhs:
                    strong = False
            if not (loc or strong or partial or trans):
                return (False, False, False, False, False)
    return (loc, strong, refined, partial, trans)


def _block_flags(n: int, digits, full: int) -> tuple[int, int, int, int, int]:
    """_table_flags bit-sliced: the five flag sets of a block of closed tables.

    Bit i of an int stands for the block's i-th table, and ``full`` has one bit
    per table.  digits[a*n+b][v] is the set of tables whose cell (a,b) holds
    digit v: 0 where the pair is undefined, v where the product is v-1.  Each
    clause of _table_flags becomes a few AND/OR/XOR over whole sets, in the
    same order, for every triple (a,b,c): transitivity (ab and bc defined
    force ac), both halves of singleton polar closure, refined membership on
    both sides, and the regroupings (ab)c and a(bc), whose digits are read
    bit plane by bit plane, value by value of ab (resp. bc).  A set of
    tables failing a clause is gathered per flag; no complement is taken
    until the end, since ``~`` on a big int costs ten times an AND.
    """
    rng = range(n)
    values = range(1, n + 1)
    planes = range(n.bit_length())
    # defined[k]: cell k defined; bits[k][j]: bit j of cell k's digit (a
    # cell's digit sets are disjoint, so their sum is their union)
    defined = [full ^ d[0] for d in digits]
    bits = [[sum(d[v] for v in values if v >> j & 1) for j in planes] for d in digits]
    # products[k]: (value, tables where cell k holds it) for each value held
    products = [[(v - 1, d[v]) for v in values if d[v]] for d in digits]
    loc_bad = strong_bad = refined_bad = partial_bad = trans_bad = 0
    for a in rng:
        for b in rng:
            ab_k = a * n + b
            dab = defined[ab_k]
            for c in rng:
                bc_k = b * n + c
                dbc = defined[bc_k]
                if not (dab or dbc):
                    continue
                # x[j], y[j]: bit j of the digits of (ab)c and a(bc), kept
                # only where ab (resp. bc) is defined
                x = [0] * len(planes)
                for p, s in products[ab_k]:
                    row = bits[p * n + c]
                    for j in planes:
                        x[j] |= s & row[j]
                y = [0] * len(planes)
                for q, s in products[bc_k]:
                    row = bits[a * n + q]
                    for j in planes:
                        y[j] |= s & row[j]
                left_in = right_in = diff = 0
                for j in planes:
                    left_in |= x[j]
                    right_in |= y[j]
                    diff |= x[j] ^ y[j]
                both = dab & dbc
                linked = both & defined[a * n + c]
                trans_bad |= both ^ linked
                # left closure: ab, ac, bc defined force (ab)c; right closure:
                # ab, ac, bc defined force a(bc) (the pair (a,b) of the dual
                # clause read at the triple (c,a,b))
                loc_bad |= linked ^ (linked & left_in & right_in)
                # R[b] == R[ab] at column c, C[b] == C[bc] at row a
                refined_bad |= (both ^ left_in) | (both ^ right_in)
                mismatch = both & diff
                loc_bad |= linked & mismatch
                partial_bad |= mismatch
                strong_bad |= mismatch | (both ^ (both & left_in))
    return (full ^ loc_bad, full ^ strong_bad, full ^ (refined_bad | strong_bad),
            full ^ partial_bad, full ^ trans_bad)


# ---------------------------------------------------------------------------
# public checkers on finite structures

def _accessors(m: FinitePartialMagma):
    table = m.table
    return m.elements, (lambda a, b: (a, b) in table), (lambda a, b: table[(a, b)])


def check_polar_closure_subsets(m: FinitePartialMagma) -> Verdict:
    """Literal polar closure over every subset of the carrier (2^n scan).

    U runs over the nonempty subsets by size in combinations order, its left
    polar before its right; the witness is a polar's first related pair, in
    _ordered_pairs order, whose product leaves it.
    """
    n = len(m.elements)
    if n > 16:
        raise CapacityError(f"subset scan needs carrier <= 16, got {n}")
    for size in range(1, n + 1):
        for U in itertools.combinations(m.elements, size):
            for side, polar_of in (("left", m.left_polar), ("right", m.right_polar)):
                polar = polar_of(U)
                v = _first_escape(m, polar, f"{side}-polar-closure", _ordered_pairs(sorted(polar)))
                if not v:
                    return fail(v.witness.axiom, v.witness.elements, "U={" + ",".join(U) + "}")
    return OK


def is_locality_semigroup(m: FinitePartialMagma) -> Verdict:
    """Polar closures (singleton reduction) plus associativity on pairwise-related triples."""
    return _first(_locality_violation, m)


def is_strong_locality_semigroup(m: FinitePartialMagma) -> Verdict:
    """Two chained related pairs force both regrouped products, defined and equal."""
    return _first(_strong_violation, m)


def is_refined_locality_semigroup(m: FinitePartialMagma) -> Verdict:
    """Strong, with biconditional membership transfer on both sides."""
    return _first(_refined_violation, m)


def is_partial_semigroup(m: FinitePartialMagma) -> Verdict:
    """(ab,c) related iff (a,bc) related, products equal when both are defined."""
    return _first(_partial_violation, m)


def is_transitive(m: FinitePartialMagma) -> Verdict:
    return _first(_transitive_violation, m)


def find_identities(m: FinitePartialMagma) -> tuple[tuple, tuple, tuple]:
    """(left, right, two-sided) identity elements, each list label-sorted.

    Uniqueness is not assumed; the lists may hold several elements.
    """
    elems, rel, mul = _accessors(m)
    return _sided_elements(elems, rel, mul, lambda e, a: a)


def find_zeros(m: FinitePartialMagma) -> tuple[tuple, tuple, tuple]:
    """(left, right, two-sided) zero elements, each list label-sorted."""
    elems, rel, mul = _accessors(m)
    return _sided_elements(elems, rel, mul, lambda e, a: e)


def is_locality_map(src, dst, phi: Mapping[str, str]) -> Verdict:
    """True when phi carries every related pair of src to a related pair of dst.

    src and dst only need ``elements`` and ``relation`` attributes, so bare
    locality sets (e.g. a quiver's arrows) work as well as full structures.
    """
    missing = [e for e in src.elements if e not in phi]
    if missing:
        raise DomainError(f"map not total, missing {missing}")
    stray = sorted({phi[e] for e in src.elements} - set(dst.elements))
    if stray:
        raise DomainError(f"map values outside target carrier: {stray}")
    dst_rel = dst.relation
    for a, b in sorted(src.relation):
        if (phi[a], phi[b]) not in dst_rel:
            return fail("locality-map", (a, b), f"({phi[a]},{phi[b]}) undefined")
    return OK


def is_locality_homomorphism(m1: FinitePartialMagma, m2: FinitePartialMagma,
                             phi: Mapping[str, str]) -> Verdict:
    """Locality map that also carries every defined product to the product of images."""
    v = is_locality_map(m1, m2, phi)
    if not v:
        return v
    for a, b in m1.pairs():
        lhs = phi[m1.table[(a, b)]]
        rhs = m2.table[(phi[a], phi[b])]
        if lhs != rhs:
            return fail("hom-product", (a, b), f"{lhs}!={rhs}")
    return OK


def _check_nonempty_subset(m: FinitePartialMagma, A) -> frozenset[str]:
    A = m._check_subset(A)
    if not A:
        raise DomainError("subset must be nonempty")
    return A


def _first_escape(m: FinitePartialMagma, A: frozenset, axiom: str, pairs) -> Verdict:
    """The first related pair of ``pairs`` whose product leaves A, else OK."""
    for p in pairs:
        c = m.table.get(p)
        if c is not None and c not in A:
            return fail(axiom, p, f"product {c} escapes")
    return OK


def is_sub_locality_semigroup(m: FinitePartialMagma, A: Iterable[str]) -> Verdict:
    """Products of related pairs inside A stay inside A."""
    A = _check_nonempty_subset(m, A)
    return _first_escape(m, A, "sub-closure", _ordered_pairs(sorted(A)))


def is_left_locality_ideal(m: FinitePartialMagma, A: Iterable[str]) -> Verdict:
    """Products s*a with a in A land in A, for every related (s, a)."""
    A = _check_nonempty_subset(m, A)
    pairs = (p for p in _ordered_pairs(m.elements) if p[1] in A)
    return _first_escape(m, A, "left-ideal", pairs)


def is_right_locality_ideal(m: FinitePartialMagma, A: Iterable[str]) -> Verdict:
    """Products a*s with a in A land in A, for every related (a, s)."""
    A = _check_nonempty_subset(m, A)
    pairs = (p for p in _ordered_pairs(m.elements) if p[0] in A)
    return _first_escape(m, A, "right-ideal", pairs)


def is_locality_ideal(m: FinitePartialMagma, A: Iterable[str]) -> Verdict:
    """Left and right ideal: the left verdict when it fails, else the right one."""
    return is_left_locality_ideal(m, A) and is_right_locality_ideal(m, A)


# ---------------------------------------------------------------------------
# aggregate classification

@dataclass(frozen=True)
class ClassReport:
    """All five class verdicts plus identity and zero element lists.

    ``bound`` is set on bounded scans of predicate-defined structures, in
    which case every verdict is quantified over the sliced elements only.
    """

    locality: Verdict
    strong: Verdict
    refined: Verdict
    partial: Verdict
    transitive: Verdict
    left_identities: tuple[str, ...]
    right_identities: tuple[str, ...]
    identities: tuple[str, ...]
    left_zeros: tuple[str, ...]
    right_zeros: tuple[str, ...]
    zeros: tuple[str, ...]
    bound: int | None = None

    def flags(self) -> tuple[bool, bool, bool, bool, bool]:
        return tuple([getattr(self, name).ok for name in _CLASS_SCANS])

    def render(self) -> str:
        parts = ["CLASS"]
        if self.bound is not None:
            parts.append(f"bound={self.bound}")
        for name in _CLASS_SCANS:
            parts.append(render_verdict(name, getattr(self, name)))
        parts.append("identities=" + ",".join(self.identities))
        parts.append("zeros=" + ",".join(self.zeros))
        return " ".join(parts)


def format_witness(w: Witness) -> str:
    e = w.elements
    if w.axiom in ("left-polar-closure", "right-polar-closure"):
        return f"{w.detail} via ({','.join(e)})"
    if w.axiom in _PAIR_SHAPED and len(e) == 3:
        return f"({e[0]},{e[1]}),({e[1]},{e[2]})"
    body = f"({','.join(e)})"
    return f"{body} {w.detail}" if w.detail else body


def render_verdict(name: str, v: Verdict) -> str:
    if v.ok:
        return f"{name}=yes"
    return f"{name}=no[witness: {v.witness.axiom} {format_witness(v.witness)}]"


def _assemble_report(elems, rows, rel, mul, bound=None, flags=None) -> ClassReport:
    """The report over ``elems``; each class's verdict is the first violation of its scan.

    ``rows`` is the relation over ``elems`` as the position rows of
    _Triples.  ``flags``, the kernel's five verdicts in _CLASS_SCANS order,
    skip the scans of the classes that hold; a failing class still runs its
    scan for the witness, which must then find one.
    """
    src = _Triples(elems, rows)  # shared by the scans; it builds its streams on first use
    verdicts = {}
    for i, (name, scan) in enumerate(_CLASS_SCANS.items()):
        if flags is not None and flags[i]:
            verdicts[name] = OK
            continue
        verdicts[name] = next(scan(src, rel, mul), OK)
        if flags is not None and verdicts[name].ok:
            raise InvariantError(f"the kernel fails {name} but its scan finds no violation")
    li, ri, ident = _sided_elements(elems, rel, mul, lambda e, a: a)
    lz, rz, zero = _sided_elements(elems, rel, mul, lambda e, a: e)
    s = lambda xs: tuple(str(x) for x in xs)
    r = ClassReport(**verdicts, left_identities=s(li), right_identities=s(ri),
                    identities=s(ident), left_zeros=s(lz), right_zeros=s(rz),
                    zeros=s(zero), bound=bound)
    _check_inclusions(r.flags(), "{} structure is not {}")
    return r


# classify compiles a flat table when it has at most this many cells, of 4
# bytes each, per defined pair: on sparser structures the n^2 cells cost
# more than the scans, which are linear in |R| on a path magma, and at
# 10,000 elements they would take 400 MB.
_DENSE_CELLS_PER_PAIR = 64


def classify(m: FinitePartialMagma) -> ClassReport:
    """Run every class predicate and the identity/zero searches.

    On a dense table, with at most _DENSE_CELLS_PER_PAIR cells of its flat
    table per defined pair, the kernel decides the five classes and only the
    failing ones run their scans, for the witness; a sparser table runs every
    scan.  Both give the report of five scans, witnesses included.
    """
    elems, rel, mul = _accessors(m)
    n = len(elems)
    if n * n > _DENSE_CELLS_PER_PAIR * len(m.table):
        return _assemble_report(elems, _table_rows(m), rel, mul)
    t, rows = _closed_table(m)
    return _assemble_report(elems, rows, rel, mul, flags=_table_flags(n, t))


# ---------------------------------------------------------------------------
# witness replay

_TRIPLE_SCANS = {axiom: scan for scan, axioms in (
    (_polar_closure_violation, ("left-polar-closure", "right-polar-closure")),
    (_locality_violation, ("locality-assoc",)),
    (_strong_violation, ("strong-left", "strong-right", "strong-assoc")),
    (_refined_violation, ("refined-left", "refined-right", "refined-assoc")),
    (_partial_violation, ("partial-membership", "partial-assoc")),
    (_transitive_violation, ("transitivity",)),
) for axiom in axioms}
# the triple axioms whose witness (a,b,c) renders as the pairs (a,b),(b,c)
_PAIR_SHAPED = set(_TRIPLE_SCANS) - {"left-polar-closure", "right-polar-closure",
                                     "locality-assoc"}


def replay_witness(m: FinitePartialMagma, w: Witness) -> bool:
    """True exactly when the named axiom is violated on the witness elements.

    Runs the axiom's scan over the witness's distinct elements and looks
    for a violation of that axiom at exactly the witness's elements.
    """
    if len(w.elements) != 3:
        return False
    scan = _TRIPLE_SCANS.get(w.axiom)
    if scan is None:
        raise DomainError(f"cannot replay axiom {w.axiom!r}")
    table = m.table
    rel = lambda a, b: (a, b) in table
    elems = tuple(dict.fromkeys(w.elements))
    found = scan(_Triples(elems, _related_rows(elems, rel)), rel, lambda a, b: table.get((a, b)))
    return (w.axiom, tuple(w.elements)) in ((v.witness.axiom, v.witness.elements) for v in found)

