"""The oracles independent of the library's walk and of its bit-sliced twin.

``violates`` states each of the twelve triple clauses on one triple, and
``oracle_verdict`` decides a class by one plain walk over all n^3 triples in
the scan order per pass of its clauses, so it shares no clause with
``locsemi.checks``; ``oracle_report`` puts the five verdicts and a plain
identity and zero search together as ``classify`` reports them.
``_checker_flags`` reads one structure's five flags from that oracle.

``_oracle_witnesses`` decides the same clauses, pass by pass in the scan
order, for every table with n <= 3 at once, on the digit sets of
``_blocks``: it gives each class's first witness on each table, and
``_flags_by_code`` reads the flags of every code from it, so every test
that needs them shares one sweep.  ``_walks_by_code`` runs the library's
walk (``checks._walk``) on every flat table that ``_iter_tables`` gives, in
code order, and codes its witnesses the same way.  The census counts
isomorphism classes by Burnside's lemma over bit-sliced blocks; ``_representatives``
counts them the other way, walking every table and keeping those whose code
is the minimum over every relabeling.  ``_polar_violators`` decides the
literal polar closure over every subset on the digit sets of ``_blocks``,
with no clause of the walk.
"""

import functools
import itertools
import math
import operator
from array import array

from locsemi.checks import _AXIOMS as _AXIOM_NAMES
from locsemi.checks import ClassReport, _flat, _walk
from locsemi.enumeration import _blocks, search_space_size
from locsemi.magma import OK, fail


def _products(rel, mul, a, b, c):
    """(ab, bc, (ab)c, a(bc)), each None where its pair is unrelated."""
    ab = mul(a, b) if rel(a, b) else None
    bc = mul(b, c) if rel(b, c) else None
    lhs = mul(ab, c) if ab is not None and rel(ab, c) else None
    rhs = mul(a, bc) if bc is not None and rel(a, bc) else None
    return ab, bc, lhs, rhs


def violates(rel, mul, axiom, a, b, c) -> bool:
    """Whether the triple (a,b,c) violates ``axiom``, one of the twelve clauses."""
    ab, bc, lhs, rhs = _products(rel, mul, a, b, c)
    chained = ab is not None and bc is not None
    both_in = lhs is not None and rhs is not None and chained
    if axiom == "left-polar-closure":
        return rel(a, c) and rel(b, c) and ab is not None and not rel(ab, c)
    if axiom == "right-polar-closure":
        return rel(c, a) and rel(c, b) and ab is not None and not rel(c, ab)
    if axiom == "locality-assoc":
        return both_in and rel(a, c) and lhs != rhs
    if axiom in ("strong-assoc", "refined-assoc", "partial-assoc"):
        return both_in and lhs != rhs
    if axiom == "strong-left":
        return chained and lhs is None
    if axiom == "strong-right":
        return chained and rhs is None
    if axiom == "refined-left":
        return ab is not None and bool(rel(b, c)) != bool(rel(ab, c))
    if axiom == "refined-right":
        return bc is not None and bool(rel(a, b)) != bool(rel(a, bc))
    if axiom == "partial-membership":
        return chained and (lhs is None) != (rhs is None)
    if axiom == "transitivity":
        return chained and not rel(a, c)
    raise ValueError(axiom)


def _detail(rel, mul, axiom, a, b, c) -> str:
    ab, bc, lhs, rhs = _products(rel, mul, a, b, c)
    if axiom.endswith("polar-closure"):
        return f"U={{{c}}}"
    if axiom.endswith("assoc"):
        return f"{lhs}!={rhs}"
    if axiom == "strong-left":
        return f"({ab},{c}) undefined"
    if axiom == "strong-right":
        return f"({a},{bc}) undefined"
    if axiom == "refined-left":
        pairs = ((b, c), (ab, c)) if rel(b, c) else ((ab, c), (b, c))
    elif axiom == "refined-right":
        pairs = ((a, b), (a, bc)) if rel(a, b) else ((a, bc), (a, b))
    elif axiom == "partial-membership":
        if rhs is None:
            return f"({a},{bc}) undefined, ({ab},{c}) defined"
        return f"({ab},{c}) undefined, ({a},{bc}) defined"
    else:
        return f"({a},{c}) undefined"
    (x, y), (u, v) = pairs
    return f"({x},{y}) defined but ({u},{v}) undefined"


# each class's passes: a class's witness is the first violating triple, in
# the scan order, of its first pass that has one, the earlier clause first
CLASS_PASSES = {
    "locality": (("left-polar-closure",), ("right-polar-closure",), ("locality-assoc",)),
    "strong": (("strong-left", "strong-right", "strong-assoc"),),
    "refined": (("refined-left",), ("refined-right",), ("refined-assoc",)),
    "partial": (("partial-assoc", "partial-membership"),),
    "transitive": (("transitivity",),),
}


@functools.cache
def scan_order(n: int) -> tuple[tuple[int, int, int], ...]:
    """Every position triple: the strictly increasing ones first, then the
    rest, each lexicographically."""
    triples = list(itertools.product(range(n), repeat=3))
    return tuple([t for t in triples if t[0] < t[1] < t[2]]
                 + [t for t in triples if not t[0] < t[1] < t[2]])


def oracle_verdict(elems, rel, mul, name):
    """The verdict of the class ``name`` over ``elems``, by a plain walk over
    all triples per pass."""
    for axes in CLASS_PASSES[name]:
        for i, j, k in scan_order(len(elems)):
            a, b, c = elems[i], elems[j], elems[k]
            for axiom in axes:
                if violates(rel, mul, axiom, a, b, c):
                    return fail(axiom, (a, b, c), _detail(rel, mul, axiom, a, b, c))
    return OK


def oracle_sided(elems, rel, mul):
    """(left, right, two-sided identities, left, right, two-sided zeros), as label tuples."""
    out = []
    for want in (lambda e, x: x, lambda e, x: e):
        left = [e for e in elems if all(rel(e, x) and mul(e, x) == want(e, x) for x in elems)]
        right = [e for e in elems if all(rel(x, e) and mul(x, e) == want(e, x) for x in elems)]
        out += [left, right, [e for e in left if e in right]]
    return [tuple(str(e) for e in es) for es in out]


def oracle_report(elems, rel, mul, bound=None) -> ClassReport:
    """The ClassReport over ``elems`` from the oracle alone."""
    return ClassReport(*(oracle_verdict(elems, rel, mul, name) for name in CLASS_PASSES),
                       *oracle_sided(elems, rel, mul), bound=bound)


def table_accessors(m):
    """(elements, rel, mul) of a finite structure, mul None where undefined."""
    t = m.table
    return m.elements, (lambda a, b: (a, b) in t), (lambda a, b: t.get((a, b)))


def _checker_flags(m) -> tuple[bool, bool, bool, bool, bool]:
    """m's five verdicts in ``ClassReport.flags`` order, from the oracle."""
    return oracle_report(*table_accessors(m)).flags()


def _walk_flags(n: int, t) -> tuple[bool, bool, bool, bool, bool]:
    """The five flags of the closed flat table t from the library's walk."""
    return tuple(found is None for found in _walk(n, _flat(n, t), range(5)))


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


# every triple axiom, in the order the witness codes below number them
AXIOMS = tuple(axiom for passes in CLASS_PASSES.values() for axes in passes for axiom in axes)


@functools.cache
def _walks_by_code(n: int) -> bytes:
    """The library walk's witnesses of every code in order, as _oracle_witnesses codes them."""
    order = {t: k for k, t in enumerate(scan_order(n))}
    out = bytearray()
    for _, t in _iter_tables(n):
        for found in _walk(n, _flat(n, t), range(5)):
            out += bytes((0, 0) if found is None else (AXIOMS.index(_AXIOM_NAMES[found[0]]) + 1,
                                                        order[found[1]]))
    return bytes(out)


@functools.cache
def _flags_by_code(n: int) -> tuple[tuple[bool, bool, bool, bool, bool], ...]:
    """The oracle's flags of every code in order; equal flag tuples are one object."""
    walks = _oracle_witnesses(n)
    shared = {}
    return tuple(shared.setdefault(f, f) for f in (
        tuple(walks[k] == 0 for k in range(code, code + 10, 2)) for code in range(0, len(walks), 10)))


@functools.cache
def _oracle_witnesses(n: int) -> bytes:
    """Per code in order, per class, two bytes: 1 + the AXIOMS index of the
    first witness and its index in scan_order(n), or two zeros where the class holds.

    Each block of ``_blocks(n)`` is decided at once, bit i standing for its
    i-th table: the clauses of ``violates`` become sets of tables, triple
    by triple in the scan order, pass by pass of each class.
    """
    rng = range(n)
    out = bytearray(10 * search_space_size(n))
    for first, digits, full in _blocks(n):
        D = [full ^ d[0] for d in digits]  # the cell is defined

        def holds(k, v):
            return digits[k][v + 1]  # the cell holds the product v

        def any_of(sets):
            return functools.reduce(operator.or_, sets)

        violated = {}
        for t in scan_order(n):
            a, b, c = t
            chained = D[a * n + b] & D[b * n + c]
            # (ab, c), (a, bc) and (c, ab) related: the product defined, and related
            left_in = any_of(holds(a * n + b, p) & D[p * n + c] for p in rng)
            right_in = any_of(holds(b * n + c, q) & D[a * n + q] for q in rng)
            c_ab = any_of(holds(a * n + b, p) & D[c * n + p] for p in rng)
            # the tables where (ab)c, resp. a(bc), is v, one set per v
            lhs = [any_of(holds(a * n + b, p) & holds(p * n + c, v) for p in rng) for v in rng]
            rhs = [any_of(holds(b * n + c, q) & holds(a * n + q, v) for q in rng) for v in rng]
            equal = any_of(x & y for x, y in zip(lhs, rhs))
            diff = chained & left_in & right_in & (full ^ equal)
            violated[t] = {
                "left-polar-closure": D[a * n + c] & D[b * n + c] & D[a * n + b] & (full ^ left_in),
                "right-polar-closure": D[c * n + a] & D[c * n + b] & D[a * n + b] & (full ^ c_ab),
                "locality-assoc": diff & D[a * n + c],
                "strong-left": chained & (full ^ left_in),
                "strong-right": chained & (full ^ right_in),
                "strong-assoc": diff, "refined-assoc": diff, "partial-assoc": diff,
                "refined-left": D[a * n + b] & (D[b * n + c] ^ left_in),
                "refined-right": D[b * n + c] & (D[a * n + b] ^ right_in),
                "partial-membership": chained & (left_in ^ right_in),
                "transitivity": chained & (full ^ D[a * n + c]),
            }
        for k, passes in enumerate(CLASS_PASSES.values()):
            pending = full  # the tables with no witness of this class yet
            for axes in passes:
                left = pending
                for index, t in enumerate(scan_order(n)):
                    for axiom in axes:
                        hit = violated[t][axiom] & left
                        if hit:
                            left ^= hit
                            code = (AXIOMS.index(axiom) + 1, index)
                            # read once as a string: a shift per table on a big int costs seconds
                            bits = format(hit, "b")[::-1]
                            i = bits.find("1")
                            while i >= 0:
                                at = 10 * (first + i) + 2 * k
                                out[at:at + 2] = code
                                i = bits.find("1", i + 1)
                pending = left
    return bytes(out)


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
