"""Axiom-class checkers returning verdicts with violation witnesses.

Every class verdict comes from one walk, ``_walk``, over the related pairs
(a,b) of a structure in lexicographic order of their positions.  At each
pair ``_masks`` states each of the twelve triple axioms once, as the mask of
the c for which (a,b,c) violates it; refined-right reads the pair as (b,c)
and runs over a.  A class's witness is the first violation, in the scan
order, of its first pass that has one.  The scan order puts the strictly
increasing triples (i < j < k) first, then the rest, each lexicographically,
so reported counterexamples prefer distinct generic elements over degenerate
repeats.  A mask's first witness at (a,b) is therefore its lowest element
above b when a < b, and otherwise its lowest element.  The first increasing
witness the walk meets is final, so the walk skips the axioms whose witness
is final and stops once the first pass of every class it decides has one.
Only then is the detail of each witness read back, through the structure's
relation and product at the witness triple.

The walk reads its masks through one of three backends, which differ only
in how they store the relation and the products:

- ``_flat``: a flat table, closed (``_closed_table``, a dense finite
  structure) or open (``_open_table``, the slice of a predicate structure
  together with the products that leave it).  Masks are ints read at C speed
  from the table's sign bytes, and a pair's regroupings (ab)c and a(bc) are
  two C-speed row gathers built on the row's first use.
- ``_table_dicts``: row dicts read from the table of a sparse finite
  structure, with more than ``_DENSE_CELLS_PER_PAIR`` cells of a flat table
  per defined pair.  Masks are sets, and nothing of size n^2 is built.
- ``_lazy_dicts``: the rows and columns of a slice, each computed by calling
  the relation when the walk first needs it (``sampled_verdict``,
  ``replay_witness``).  Masks are ints; a pair's regroupings call the
  product per c, so the walk takes the increasing triples of every pair
  before the others, as the scan order does, and a class that fails early
  costs no more than those triples.

``classify``, the public ``is_*`` checkers, the bounded reports of
``predicates`` and the free extension's target check all read the walk, and
``replay_witness`` evaluates the named axiom's mask at the witness's pair.
``_block_flags`` is the census's bit-sliced twin, which decides a block of
closed tables at once.

The literal polar closure, ``check_polar_closure_subsets``, compiles no
table: it reads each subset's polars from the magma (``left_polar``,
``right_polar``) and their escaping products through ``_first_escape``, the
rule the sub-structure and ideal checkers share.
"""

from __future__ import annotations

import functools
import itertools
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .errors import CapacityError, DomainError, InvariantError
from .magma import OK, FinitePartialMagma, Verdict, Witness, fail

Rel = Callable[[object, object], bool]
Mul = Callable[[object, object], object]


def _ordered_pairs(elems: Sequence):
    yield from itertools.combinations(elems, 2)
    for p in itertools.product(elems, repeat=2):
        if not p[0] < p[1]:
            yield p


# ---------------------------------------------------------------------------
# the triple axioms, stated once as masks of one related pair

# the twelve triple axioms, in the order _masks gives their masks
_AXIOMS = ("left-polar-closure", "right-polar-closure", "locality-assoc",
           "strong-left", "strong-right", "strong-assoc",
           "refined-left", "refined-right", "refined-assoc",
           "partial-assoc", "partial-membership", "transitivity")
_REFINED_RIGHT = _AXIOMS.index("refined-right")
# the axioms whose masks read columns, and those whose masks read the
# pair's regroupings (SR or DIFF below)
_COLUMNED = frozenset(map(_AXIOMS.index, ("right-polar-closure", "refined-right")))
_REGROUPED = frozenset(map(_AXIOMS.index, (
    "locality-assoc", "strong-right", "strong-assoc", "refined-assoc",
    "partial-assoc", "partial-membership")))

# Each class's passes in scan order, as indices into _AXIOMS.  A pass's first
# witness is the first triple in scan order at which one of its axioms
# fails, the earlier axiom first on a tie; a class's witness is that of its
# first pass that has one.  The classes are named by their ClassReport fields.
_CLASS_PASSES = (
    ("locality", ((0,), (1,), (2,))),
    ("strong", ((3, 4, 5),)),
    ("refined", ((6,), (7,), (8,))),
    ("partial", ((9, 10),)),
    ("transitive", ((11,),)),
)
_CLASS_NAMES = tuple(name for name, _ in _CLASS_PASSES)


def _masks(Ra, Rb, Rab, Ca, Cb, Cab, SR, DIFF) -> tuple:
    """The masks of the twelve axioms at one related pair (a,b), in _AXIOMS order.

    R[x] holds the c with (x,c) related and C[x] the c with (c,x) related, for
    x = a, b and the product ab.  SR holds the c of Rb with (a,bc) unrelated,
    and DIFF the c of Rb where (ab,c) and (a,bc) are both related and
    (ab)c != a(bc).  Refined-right reads the pair as (b,c): its mask holds the
    a in just one of C[b] and C[bc].  Masks are ints or sets, so only &, | and
    ^ appear.
    """
    SL = Rb ^ (Rb & Rab)
    left = Ra & Rb
    right = Ca & Cb
    return (left ^ (left & Rab), right ^ (right & Cab), Ra & DIFF,
            SL, SR, DIFF,
            Rb ^ Rab, Ca ^ Cab, DIFF,
            DIFF, SL ^ SR,
            Rb ^ (Rb & Ra))


def _getter(indices: Sequence[int]):
    """The function taking a tuple to its items at ``indices``, as a tuple."""
    if len(indices) == 1:
        i, = indices
        return lambda items: (items[i],)
    return itemgetter(*indices) if indices else lambda items: ()


@functools.lru_cache(maxsize=4096)
def _open_axes(classes: tuple, seen: tuple, floor: int):
    """What the walk reads while its axioms stand at ``seen``, for
    ``classes``: (whether every class's first pass is final, the open
    axioms, the getter of their masks, whether one reads the regroupings,
    whether one reads columns).

    seen[i] is 0 while axiom i has no witness, 1 while it has one that is
    not increasing, and 2 once it has an increasing one; refined-right's
    stays at 1 until the walk has met every increasing triple.  A witness
    is final from ``floor`` on: 2 while the walk may still meet an
    increasing triple, 1 once it has met them all.  Refined-right's is
    final only at 2.
    """
    opened, done = [], True
    for k in classes:
        for p, axes in enumerate(_CLASS_PASSES[k][1]):
            best = max([seen[i] for i in axes])
            if best < (2 if _REFINED_RIGHT in axes else floor):
                opened += axes
                done = done and p > 0
            # a later pass counts only while every earlier one has no witness
            if best:
                break
    return (done, opened, _getter(opened), not _REGROUPED.isdisjoint(opened),
            not _COLUMNED.isdisjoint(opened))


def _walk(n: int, backend, classes: Sequence[int]) -> list:
    """The first witness of each class in ``classes`` (indices into
    _CLASS_PASSES): (axiom index, (i, j, k) positions), or None where the
    class holds over the n positions.

    ``backend`` is (R, C, rows, regroup, first, empty, split): R[x] and C[x]
    the row and column masks of x, a position or the id of a product;
    rows(a) the (b, ab) with (a,b) related, b ascending, ab the product's
    id; regroup(a, b, ab, Rb, Rab, lo, hi) the pair's (SR, DIFF) after
    rows(a), right at least at the c with lo < c <= hi; first(M, above) the
    least element of M above ``above``, or None; ``empty`` the empty mask,
    which stands for SR and DIFF, and for the columns, while no open axiom
    reads them; and ``split`` whether the walk takes the increasing triples
    of every pair before the others, as the scan order does, for a backend
    whose regroupings cost callbacks per c.  Otherwise it takes every triple
    of a pair at once.
    """
    R, C, rows, regroup, first, empty, split = backend
    # inc[i]: axiom i's first increasing witness, final once found; non[i]:
    # its first other one.  Refined-right's candidates come pair by pair
    # (b,c), out of scan order, so it keeps the least of each kind, and its
    # increasing one is final once the walk has met every increasing triple.
    inc = [None] * len(_AXIOMS)
    non = [None] * len(_AXIOMS)
    seen = [0] * len(_AXIOMS)
    classes = tuple(classes)
    # the parts of the scan order taken in turn: "above", the c above b of
    # the pairs a < b, which hold every increasing triple, then "below", the
    # rest; or "all" at once
    for part in ("above", "below") if split else ("all",):
        if part == "below" and inc[_REFINED_RIGHT]:
            seen[_REFINED_RIGHT] = 2
        floor = 1 if part == "below" else 2
        done, axes, pick, regrouping, columns = _open_axes(classes, tuple(seen), floor)
        for a in range(n):
            if done:
                break
            Ra, Ca = R[a], C[a]
            for b, ab in rows(a):
                lo, hi = -1, n
                if part != "all" and a < b:
                    lo, hi = (b, n) if part == "above" else (-1, b)
                elif part == "above":
                    continue
                Rb, Rab = R[b], R[ab]
                if regrouping:
                    SR, DIFF = regroup(a, b, ab, Rb, Rab, lo, hi)
                else:
                    SR = DIFF = empty
                if columns:
                    masks = pick(_masks(Ra, Rb, Rab, Ca, C[b], C[ab], SR, DIFF))
                else:
                    masks = pick(_masks(Ra, Rb, Rab, empty, empty, empty, SR, DIFF))
                if not any(masks):
                    continue
                changed = False
                for i, M in itertools.compress(zip(axes, masks), masks):
                    if i == _REFINED_RIGHT:
                        w = (first(M, -1), a, b)
                        changed = changed or not seen[i]
                        seen[i] = seen[i] or 1
                        if w[0] < a < b:
                            if inc[i] is None or w < inc[i]:
                                inc[i] = w
                        elif non[i] is None or w < non[i]:
                            non[i] = w
                    elif part != "below" and a < b and (c := first(M, b)) is not None:
                        inc[i] = (a, b, c)
                        seen[i] = 2
                        changed = True
                    elif part != "above" and non[i] is None:
                        c = first(M, -1)
                        if not a < b < c:
                            non[i] = (a, b, c)
                            seen[i] = 1
                            changed = True
                if changed:
                    done, axes, pick, regrouping, columns = _open_axes(classes, tuple(seen), floor)
                    if done:
                        break
    found = [None] * len(classes)
    if not any(seen):
        return found
    for at, k in enumerate(classes):
        for axes in _CLASS_PASSES[k][1]:
            # a pass's increasing witnesses come before its others, the earlier axiom first on a tie
            kept = [(inc[i] is None, inc[i] or non[i], i) for i in axes if seen[i]]
            if kept:
                _, triple, i = min(kept)
                found[at] = (i, triple)
                break
    return found


def _verdict(found, elems: Sequence, rel: Rel, mul: Mul) -> Verdict:
    """The verdict of a class from its walk result, the witness's detail read
    back through rel and mul at the witness triple."""
    if found is None:
        return OK
    i, (x, y, z) = found
    axiom = _AXIOMS[i]
    a, b, c = elems[x], elems[y], elems[z]
    transfer = "({},{}) defined but ({},{}) undefined".format
    if axiom.endswith("polar-closure"):
        detail = f"U={{{c}}}"
    elif axiom == "transitivity":
        detail = f"({a},{c}) undefined"
    elif axiom == "strong-left":
        detail = f"({mul(a, b)},{c}) undefined"
    elif axiom == "strong-right":
        detail = f"({a},{mul(b, c)}) undefined"
    elif axiom == "refined-left":
        ab = mul(a, b)
        detail = transfer(b, c, ab, c) if rel(b, c) else transfer(ab, c, b, c)
    elif axiom == "refined-right":
        bc = mul(b, c)
        detail = transfer(a, b, a, bc) if rel(a, b) else transfer(a, bc, a, b)
    elif axiom == "partial-membership":
        ab, bc = mul(a, b), mul(b, c)
        detail = (f"({ab},{c}) undefined, ({a},{bc}) defined" if rel(a, bc)
                  else f"({a},{bc}) undefined, ({ab},{c}) defined")
    else:  # the regroupings differ
        detail = f"{mul(mul(a, b), c)}!={mul(a, mul(b, c))}"
    return fail(axiom, (a, b, c), detail)


def _check_inclusions(flags, message: str) -> None:
    """Raise InvariantError, message naming the sides, where five verdicts or table
    sets in _CLASS_NAMES order break the class chain; sub & ~sup is 0 iff sub is within sup."""
    loc, strong, refined, partial, trans = flags
    for sub, sup, names in ((refined, strong, ("refined", "strong")),
                            (strong, loc & partial, ("strong", "both locality and partial")),
                            (trans & loc, partial, ("transitive locality", "partial"))):
        if sub & ~sup:
            raise InvariantError(message.format(*names))


def _sided_elements(elems, rel: Rel, mul: Mul, want) -> tuple[tuple, tuple, tuple]:
    left = tuple(
        e for e in elems if all(rel(e, a) and mul(e, a) == want(e, a) for a in elems)
    )
    right = tuple(
        e for e in elems if all(rel(a, e) and mul(a, e) == want(e, a) for a in elems)
    )
    both = tuple(e for e in left if e in right)
    return left, right, both


def _table_sided(elems: Sequence, t: array, R, C) -> tuple[tuple, ...]:
    """The identities and zeros of a closed table, as _sided_elements gives
    them.  Only a row (column) e with every cell defined, R[e] (C[e]) full, is
    compared with range(n) and counted for e, at C speed."""
    n = len(elems)
    full = (1 << n) - 1
    identity = array("i", range(n))
    li, ri, lz, rz = [], [], [], []
    for e in range(n):
        if R[e] == full:
            row = t[e * n:e * n + n]
            if row == identity:
                li.append(e)
            if row.count(e) == n:
                lz.append(e)
        if C[e] == full:
            column = t[e::n]
            if column == identity:
                ri.append(e)
            if column.count(e) == n:
                rz.append(e)
    lists = (li, ri, [e for e in li if e in ri], lz, rz, [e for e in lz if e in rz])
    return tuple(tuple(elems[e] for e in es) for es in lists)


# ---------------------------------------------------------------------------
# the flat backend: array('i') tables whose cell i*n+j holds the index of the
# product of elements i and j, or -1 where the pair is unrelated.  A closed
# table's products stay in its carrier; an open table also indexes the
# products that leave it.

def _closed_table(m: FinitePartialMagma) -> array:
    """m's closed flat table, in one walk over the magma's table."""
    index = {x: i for i, x in enumerate(m.elements)}
    n = len(index)
    t = array("i", [-1]) * (n * n)
    for (a, b), c in m.table.items():
        t[index[a] * n + index[b]] = index[c]
    return t


def _open_table(elems: Sequence, rel: Rel, mul: Mul):
    """Compile the slice ``elems`` into an open table: (t, (m, left)).

    The slice S holds indices 0..n-1.  P, the products of related slice pairs
    that fall outside S, holds n..m-1 in the order first met.  t has the rows
    a*y for a in S and y in S or P (stride m); left has the rows x*c for x in
    S or P and c in S (stride n).  Further products get ids from m on, only
    so that they compare equal exactly when the values do: product by
    product of P, its column before its row.  The compile reads each pair
    once and takes a product only on a related pair with a factor in S.  A
    product of P gets its column and its row from one comprehension each,
    stored with one slice store each (t[y::m] and left[y*n:y*n+n]).
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
    return t, (m, left)


# A cell of an array('i') is -1, undefined, exactly when its sign bit is set.
# _SIGNS picks each cell's most significant byte, last cell first, from the
# array's bytes; _DEFINED translates a byte below 0x80 to "1", others to "0".
_WIDTH = array("i").itemsize
_SIGNS = slice(None, None, -_WIDTH) if sys.byteorder == "little" else slice(-_WIDTH, None, -_WIDTH)
_DEFINED = b"1" * 128 + b"0" * 128


def _signs(cells: array) -> bytes:
    """b"1" for each defined cell and b"0" for each undefined one, last cell
    first, read at C speed: read as a binary number, bit k is cell k's."""
    return cells.tobytes()[_SIGNS].translate(_DEFINED)


def _int_first(M: int, above: int):
    """The least element of the int mask M above ``above``, or None."""
    M >>= above + 1
    return (M & -M).bit_length() + above if M else None


def _flat(n: int, t: array, open_table=None):
    """The walk's backend over a flat table of n slice elements.

    An open table from _open_table passes ``open_table`` = (m, left): t has
    stride m, the rows of (ab)c come from left, and the walk runs over the n
    slice elements only, so every axiom is decided on the slice even where
    products leave it.  A closed table is the open form with no products
    outside: t alone gives the rows of (ab)c as well.  Every mask, of the
    slice and of the products outside it alike, is read from sign bytes:
    R[x] from row x of left, C[y] from column y of t.

    A pair's regroupings are two tuples over b's defined columns c: (ab)c,
    row ab of left at those columns, and a(bc), row a of t at b's products
    bc, each taken by an operator.itemgetter built on row b's first use.
    Only where they differ is the row walked in Python for SR and DIFF.
    """
    rng = range(n)
    m, left = open_table or (n, t)
    # rows of left, last first, and columns of t, each read as a binary number
    signs = _signs(left)
    R = [int(signs[(m - 1 - x) * n:(m - x) * n], 2) for x in range(m)]
    signs = _signs(t)
    C = [int(signs[m - 1 - y::m], 2) for y in range(m)]
    # gathers[b]: None before row b's first use, then (cs, at_c, at_bc), b's
    # defined columns and the getters of (ab)c and a(bc).  A row with one
    # defined cell names its index twice, so that both getters give tuples.
    gathers = [None] * n
    # lefts[x]: None before row x of left is first read, then that row as a
    # tuple, which the getters read faster than an array
    lefts = [None] * m
    row_a = None  # row a of t, for the pairs of the a that rows last gave

    def rows(a):
        nonlocal row_a
        row_a = tuple(t[a * m:a * m + m])
        return [(b, ab) for b, ab in zip(rng, row_a) if ab >= 0]

    def regroup(a, b, ab, Rb, Rab, lo, hi):
        if not Rb:
            return 0, 0
        lhs = lefts[ab]
        if lhs is None:
            lhs = lefts[ab] = tuple(left[ab * n:ab * n + n])
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
        lhs = at_c(lhs)
        rhs = at_bc(row_a)
        if lhs == rhs:
            # undefined at the same c on both sides: SR is then SL, and nothing differs
            return Rb ^ (Rb & Rab), 0
        SR = DIFF = 0
        for c, x, y in zip(cs, lhs, rhs):
            if y < 0:
                SR |= 1 << c
            elif x != y and x >= 0:
                DIFF |= 1 << c
        return SR, DIFF

    return R, C, rows, regroup, _int_first, 0, False


# ---------------------------------------------------------------------------
# the dict backend: rows {c: id of xc}, and columns as the positions related into y

class _Lazy(dict):
    """A dict that builds a missing entry by calling ``make`` on its key."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _set_first(M, above: int):
    """The least element of the set mask M above ``above``, or None."""
    return min((c for c in M if c > above), default=None)


def _table_dicts(m: FinitePartialMagma):
    """The walk's backend over row dicts read from m's table, whose stored
    key order makes each row ascend: row i maps each position j with (i,j)
    related to the position of the product, and its keys are row i's mask;
    column j's mask is the set of the i with (i,j) related."""
    index = {x: i for i, x in enumerate(m.elements)}
    rows_of = [{} for _ in index]
    columns = [set() for _ in index]
    for (a, b), c in m.table.items():
        i, j = index[a], index[b]
        rows_of[i][j] = index[c]
        columns[j].add(i)

    def regroup(a, b, ab, Rb, Rab, lo, hi):
        # (ab)c and a(bc) over b's row, None where undefined, each by a C-speed map
        row = rows_of[b]
        lhs = tuple(map(rows_of[ab].get, row))
        rhs = tuple(map(rows_of[a].get, row.values()))
        if lhs == rhs:
            # undefined at the same c on both sides: SR is then SL, and nothing differs
            return Rb ^ (Rb & Rab), frozenset()
        SR, DIFF = set(), set()
        for c, x, y in zip(row, lhs, rhs):
            if y is None:
                SR.add(c)
            elif x is not None and x != y:
                DIFF.add(c)
        return SR, DIFF

    return ([row.keys() for row in rows_of], columns, lambda a: rows_of[a].items(), regroup,
            _set_first, frozenset(), False)


def _lazy_dicts(elems: Sequence, rel: Rel, mul: Mul):
    """The walk's backend over the slice ``elems`` of (rel, mul), each row
    and column mask computed on its first use and kept.  A slice holds at
    most a few hundred elements, so its masks are ints.  Products are read
    where the walk needs them: a pair's regroupings call mul and rel per c,
    as a scan over the triples would, and the walk takes the increasing
    triples of every pair first.

    Positions 0..n-1 are the slice; a product outside it takes the next id
    when first met, as in _open_table."""
    n = len(elems)
    slice_ = tuple(enumerate(elems))
    # a value met for the first time takes the next id, as in _open_table
    ids = defaultdict(itertools.count(n).__next__, {x: i for i, x in enumerate(elems)})
    values = list(elems)
    bit = (1).__lshift__

    def value(x):
        if x >= len(values):  # the ids given since, which are the last ones
            values.extend(reversed(list(itertools.islice(reversed(ids), len(ids) - len(values)))))
        return values[x]

    def related(x):
        v = value(x)
        return [c for c, e in slice_ if rel(v, e)]

    def column(y):
        v = value(y)
        return sum(bit(a) for a, e in slice_ if rel(e, v))

    def rows(a):
        v = elems[a]
        return [(b, ids[mul(v, elems[b])]) for b in keys[a]]

    def regroup(a, b, ab, Rb, Rab, lo, hi):
        va, vb, vab = elems[a], elems[b], value(ab)
        SR = DIFF = 0
        for c in keys[b]:
            if c <= lo:
                continue
            if c > hi:
                break
            e = elems[c]
            bc = mul(vb, e)
            if not rel(va, bc):
                SR |= bit(c)
            elif Rab >> c & 1 and mul(vab, e) != mul(va, bc):
                DIFF |= bit(c)
        return SR, DIFF

    keys = _Lazy(related)
    return (_Lazy(lambda x: sum(map(bit, keys[x]))), _Lazy(column), rows, regroup,
            _int_first, 0, True)


# _finite_backend compiles a flat table when it has at most this many cells,
# of 4 bytes each, per defined pair, and otherwise reads row dicts from the
# table: at 10,000 elements the cells would take 400 MB.  It picks only the
# backend; both give the same verdicts and witnesses.
_DENSE_CELLS_PER_PAIR = 64


def _finite_backend(m: FinitePartialMagma):
    """(t, backend): m's closed flat table and its flat backend when m is dense,
    else (None, the dict backend read from m's table)."""
    n = len(m.elements)
    if n * n > _DENSE_CELLS_PER_PAIR * len(m.table):
        return None, _table_dicts(m)
    t = _closed_table(m)
    return t, _flat(n, t)


def _finite_verdict(m: FinitePartialMagma, name: str) -> Verdict:
    """The verdict of the class ``name`` on m, from the walk over m's backend."""
    found, = _walk(len(m.elements), _finite_backend(m)[1], (_CLASS_NAMES.index(name),))
    return _verdict(found, *_accessors(m))


def _block_flags(n: int, digits, full: int) -> tuple[int, int, int, int, int]:
    """The five flag sets of a block of closed tables, bit-sliced.

    Bit i of an int stands for the block's i-th table, and ``full`` has one bit
    per table.  digits[a*n+b][v] is the set of tables whose cell (a,b) holds
    digit v: 0 where the pair is undefined, v where the product is v-1.  Each
    axiom of _masks becomes a few AND/OR/XOR over whole sets, for every
    triple (a,b,c): transitivity (ab and bc defined force ac), both halves
    of singleton polar closure, refined membership on both sides, and the
    regroupings (ab)c and a(bc), whose digits are read
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
    return _finite_verdict(m, "locality")


def is_strong_locality_semigroup(m: FinitePartialMagma) -> Verdict:
    """Two chained related pairs force both regrouped products, defined and equal."""
    return _finite_verdict(m, "strong")


def is_refined_locality_semigroup(m: FinitePartialMagma) -> Verdict:
    """Strong, with biconditional membership transfer on both sides."""
    return _finite_verdict(m, "refined")


def is_partial_semigroup(m: FinitePartialMagma) -> Verdict:
    """(ab,c) related iff (a,bc) related, products equal when both are defined."""
    return _finite_verdict(m, "partial")


def is_transitive(m: FinitePartialMagma) -> Verdict:
    return _finite_verdict(m, "transitive")


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
        return tuple([getattr(self, name).ok for name in _CLASS_NAMES])

    def render(self) -> str:
        parts = ["CLASS"]
        if self.bound is not None:
            parts.append(f"bound={self.bound}")
        for name in _CLASS_NAMES:
            parts.append(render_verdict(name, getattr(self, name)))
        parts.append("identities=" + ",".join(self.identities))
        parts.append("zeros=" + ",".join(self.zeros))
        return " ".join(parts)


# the triple axioms whose witness (a,b,c) renders as the pairs (a,b),(b,c)
_PAIR_SHAPED = set(_AXIOMS) - {"left-polar-closure", "right-polar-closure", "locality-assoc"}


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


def _report(elems, backend, rel: Rel, mul: Mul, sided, bound=None) -> ClassReport:
    """The report over ``elems`` from one walk over ``backend`` and the six
    identity and zero lists ``sided``, the class chain checked."""
    found = _walk(len(elems), backend, range(len(_CLASS_PASSES)))
    s = lambda xs: tuple(str(x) for x in xs)
    r = ClassReport(*(_verdict(f, elems, rel, mul) for f in found), *map(s, sided), bound=bound)
    _check_inclusions(r.flags(), "{} structure is not {}")
    return r


def _callback_sided(elems, rel: Rel, mul: Mul) -> tuple[tuple, ...]:
    """The identities and zeros of _sided_elements, by calling rel and mul."""
    return (_sided_elements(elems, rel, mul, lambda e, a: a)
            + _sided_elements(elems, rel, mul, lambda e, a: e))


def classify(m: FinitePartialMagma) -> ClassReport:
    """Run every class predicate and the identity/zero searches.

    One walk decides the five classes and names their witnesses, over a flat
    table when m is dense and over dicts read from its table when it is
    sparse (``_finite_backend``); a dense table also gives the identities
    and zeros by C-speed compares.
    """
    elems, rel, mul = _accessors(m)
    t, backend = _finite_backend(m)
    sided = (_callback_sided(elems, rel, mul) if t is None
             else _table_sided(elems, t, backend[0], backend[1]))
    return _report(elems, backend, rel, mul, sided)


# ---------------------------------------------------------------------------
# witness replay

def replay_witness(m: FinitePartialMagma, w: Witness) -> bool:
    """True exactly when the named axiom is violated on the witness elements.

    Evaluates the axiom's mask at the witness's pair (a,b), or (b,c) for
    refined-right, over the witness's distinct elements with m's relation
    and products, and tests c's element (a's for refined-right).
    """
    if len(w.elements) != 3:
        return False
    if w.axiom not in _AXIOMS:
        raise DomainError(f"cannot replay axiom {w.axiom!r}")
    i = _AXIOMS.index(w.axiom)
    elems = tuple(dict.fromkeys(w.elements))
    a, b, c = map(elems.index, w.elements)
    if i == _REFINED_RIGHT:
        a, b, c = b, c, a
    R, C, rows, regroup, *_ = _lazy_dicts(elems, *_accessors(m)[1:])
    ab = dict(rows(a)).get(b)
    if ab is None:
        return False
    masks = _masks(R[a], R[b], R[ab], C[a], C[b], C[ab], *regroup(a, b, ab, R[b], R[ab], -1, len(elems)))
    return bool(masks[i] >> c & 1)
