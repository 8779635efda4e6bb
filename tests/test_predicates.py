import math
import operator
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from locsemi import (CapacityError, DomainError, InvariantError, PredicateMagma,
                     adjoin_zero, bounded_magma, checks, classify,
                     coprime_magma, coprime_with_zero,
                     find_identities, find_zeros, gcd, is_locality_semigroup,
                     is_transitive, natural_multiplication, powerset_magma,
                     sampled_classify, sampled_verdict, totient,
                     totient_hom_check)
from locsemi import predicates
from locsemi.magma import OK, fail
from locsemi.predicates import MAX_SLICE

from orderly import oracle_report


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_gcd_matches_stdlib(a, b):
    assert gcd(a, b) == math.gcd(a, b)


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_coprime_relations_match_remainder_gcd(a, b):
    # the library gcd is the remainder loop, independent of the relations' test
    assert coprime_magma().related(a, b) == (gcd(a, b) == 1)
    assert coprime_with_zero().related(a, b) == (a == 0 or b == 0 or gcd(a, b) == 1)


def test_totient_by_direct_count():
    assert totient(1) == 1
    assert totient(12) == 4
    assert totient(30) == 8
    # cross-check against an independent brute count
    for n in range(1, 60):
        assert totient(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    with pytest.raises(DomainError):
        totient(0)


def test_coprime_relation_examples():
    cop = coprime_magma()
    assert cop.related(2, 3)
    assert not cop.related(6, 4)
    assert all(cop.related(1, n) for n in range(1, 100))
    assert cop.product(3, 4) == 12


def test_coprime_with_zero_examples():
    cz = coprime_with_zero()
    assert cz.related(0, 5) and cz.product(0, 5) == 0
    assert cz.related(0, 0) and cz.related(7, 0)
    assert not cz.related(6, 4)
    # zero is related to the whole slice on both sides
    m = bounded_magma(cz, 8)
    assert m.left_polar({"0"}) == frozenset(m.elements)
    assert m.right_polar({"0"}) == frozenset(m.elements)
    assert find_zeros(m)[2] == ("0",)


def test_powerset_examples():
    pu = powerset_magma({1, 2}, "union")
    assert find_identities(pu)[0] == ("{}",)
    pi = powerset_magma({1, 2}, "intersection")
    assert find_zeros(pi)[0] == ("{}",)
    empty_base = powerset_magma(set(), "union")
    assert empty_base.elements == ("{}",)
    assert empty_base.table == {("{}", "{}"): "{}"}
    with pytest.raises(CapacityError):
        powerset_magma({1, 2, 3, 4, 5}, "union")
    with pytest.raises(DomainError):
        powerset_magma({1}, "xor")


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("op", ["union", "intersection"])
def test_powerset_locality_and_transitivity(size, op):
    m = powerset_magma(set(range(1, size + 1)), op)
    assert is_locality_semigroup(m)
    assert is_transitive(m)


def test_sampled_classify_coprime_bound12():
    rep = sampled_classify(coprime_magma(), 12)
    assert rep.bound == 12
    assert rep.locality.ok
    assert rep.partial.ok
    assert not rep.strong.ok
    w = rep.strong.witness
    assert w.axiom == "strong-left"
    assert w.elements == ("2", "3", "4")
    assert w.detail == "(6,4) undefined"
    assert rep.identities == ("1",)
    assert "bound=12" in rep.render()


@pytest.mark.parametrize("bound", [5, 8, 12, 20])
def test_coprime_partial_and_locality_at_every_bound(bound):
    rep = sampled_classify(coprime_magma(), bound)
    assert rep.partial.ok and rep.locality.ok


def test_sampled_failure_is_monotone_in_bound():
    w12 = sampled_classify(coprime_magma(), 12).strong.witness
    for bound in (12, 15, 20):
        rep = sampled_classify(coprime_magma(), bound)
        assert not rep.strong.ok
        assert rep.strong.witness == w12


@pytest.mark.parametrize("true_value", [2, 256])
@pytest.mark.parametrize("make", [coprime_magma, coprime_with_zero, natural_multiplication])
def test_sampled_classify_truthy_relation_matches_bool(make, true_value):
    # a user relation may answer with any truthy value; 256 does not fit in a byte
    p = make()
    truthy = PredicateMagma(p.description, p.contains,
                            lambda a, b: true_value if p.related(a, b) else 0,
                            p.product, p.slice_elements)
    for bound in (1, 6, 12):
        assert sampled_classify(truthy, bound) == sampled_classify(p, bound)


def test_sampled_classify_needs_slicer():
    sliceless = PredicateMagma("no slicer", lambda a: True,
                               lambda a, b: True, lambda a, b: a)
    with pytest.raises(DomainError):
        sampled_classify(sliceless, 5)
    with pytest.raises(DomainError):
        bounded_magma(sliceless, 5)


def test_slices_that_repeat_an_element_raise_domain_error():
    # a repeated 2 would list the escape ((2,3),6) twice
    p = coprime_magma()
    repeats = PredicateMagma("repeats 2", p.contains, p.related, p.product,
                             lambda bound: [1, 2, 2, 3, 4])
    for check in (sampled_classify, bounded_magma, lambda p, b: sampled_verdict(p, b, "refined")):
        with pytest.raises(DomainError, match="twice"):
            check(repeats, 4)


def test_slices_outside_the_structure_raise_domain_error():
    # 0 is not a positive natural: a slice holding it would give a witness
    # about 0, strong-left (0,1),(1,2) at bound 5
    p = coprime_magma()
    with_zero = PredicateMagma("slices 0", p.contains, p.related, p.product,
                               lambda bound: list(range(0, bound + 1)))
    for check in (sampled_classify, bounded_magma, lambda p, b: sampled_verdict(p, b, "strong")):
        with pytest.raises(DomainError, match="holds 0, outside the structure"):
            check(with_zero, 5)


@pytest.mark.parametrize("bound", [1, 2, 12, 30, 45])
@pytest.mark.parametrize("make", [coprime_magma, coprime_with_zero, natural_multiplication])
def test_sampled_verdict_matches_sampled_classify(make, bound):
    # sampled_verdict walks one class over lazily built rows; sampled_classify
    # walks all five over the compiled open table
    p = make()
    report = sampled_classify(p, bound)
    for name in ("locality", "strong", "refined", "partial", "transitive"):
        assert sampled_verdict(p, bound, name) == getattr(report, name)


def test_slices_past_the_limit_raise_capacity_error():
    asked = []
    spy = PredicateMagma("spy", lambda a: True, lambda a, b: False, lambda a, b: a,
                         lambda bound: asked.append(bound) or list(range(1, bound + 1)))
    entry_points = (sampled_classify, bounded_magma, lambda p, b: sampled_verdict(p, b, "strong"))
    for check in entry_points:
        with pytest.raises(CapacityError):
            check(spy, 10 ** 11)
        with pytest.raises(CapacityError):
            check(spy, MAX_SLICE + 1)
        # below 1, every entry point refuses the bound with one message
        for bound in (0, -2):
            for p in (spy, coprime_with_zero()):
                with pytest.raises(DomainError, match="^bound must be at least 1$"):
                    check(p, bound)
    # the bound is refused before the slicer runs
    assert asked == []
    # the slice with zero has one element more than its bound
    for check in entry_points:
        with pytest.raises(CapacityError):
            check(coprime_with_zero(), MAX_SLICE)
    assert len(bounded_magma(spy, MAX_SLICE).elements) == MAX_SLICE


def test_sampled_verdict_argument_errors():
    sliceless = PredicateMagma("no slicer", lambda a: True,
                               lambda a, b: True, lambda a, b: a)
    with pytest.raises(DomainError):
        sampled_verdict(coprime_magma(), 0, "strong")
    with pytest.raises(DomainError):
        sampled_verdict(coprime_magma(), 5, "associative")
    with pytest.raises(DomainError):
        sampled_verdict(sliceless, 5, "strong")


def test_bounded_magma_records_escapes():
    m = bounded_magma(coprime_magma(), 6)
    assert (("5", "6"), "30") in m.escapes
    assert ("5", "6") not in m.relation
    assert m.table[("2", "3")] == "6"


def test_bounded_magma_mirrors_zero_extension():
    assert adjoin_zero(bounded_magma(coprime_magma(), 9), "0") == \
        bounded_magma(coprime_with_zero(), 9)


def test_natural_multiplication_bounded_is_classified():
    m = bounded_magma(natural_multiplication(), 6)
    report = classify(m)
    assert report.partial.ok


def test_totient_hom_check():
    assert totient_hom_check(12)
    assert totient_hom_check(30)
    # pairs (1, k) are covered by the scan and never fail
    assert totient_hom_check(2)
    with pytest.raises(DomainError):
        totient_hom_check(1)


def _totient_hom_per_pair(bound, phi):
    """The check as first written: three direct counts for every coprime pair."""
    for a in range(1, bound + 1):
        for b in range(1, bound // a + 1):
            if gcd(a, b) == 1 and phi(a * b) != phi(a) * phi(b):
                return fail("totient-multiplicative", (a, b),
                            f"phi({a * b})={phi(a * b)} != {phi(a)}*{phi(b)}")
    return OK


def test_totient_hom_check_matches_per_pair_form(monkeypatch):
    # the tabulated counts give the per-pair verdicts, and with a count made
    # wrong at 35, 56 or 99 the same first witness: none below it, a factor
    # pair of it from there, and for odd wrong (2, wrong) once 2 * wrong is
    # in bound
    for bound in range(2, 121):
        assert totient_hom_check(bound) == _totient_hom_per_pair(bound, totient), bound
    for wrong in (35, 56, 99):
        bent = lambda k, wrong=wrong: totient(k) + (k == wrong)
        monkeypatch.setattr(predicates, "totient", bent)
        for bound in (wrong - 1, wrong, 2 * wrong - 1, 2 * wrong, 120):
            got = totient_hom_check(bound)
            assert got == _totient_hom_per_pair(bound, bent), (wrong, bound)
            assert got.ok == (bound < wrong)


def test_totient_hom_check_is_bounded_before_counting(monkeypatch):
    counted = []
    monkeypatch.setattr(predicates, "totient", lambda k: counted.append(k) or totient(k))
    with pytest.raises(CapacityError, match=f"exceeds the limit of {MAX_SLICE}"):
        totient_hom_check(MAX_SLICE + 1)
    assert counted == []
    assert totient_hom_check(MAX_SLICE)
    assert counted == list(range(1, MAX_SLICE + 1))


_COPRIME_REPORT = ("CLASS bound={} locality=yes strong=no[witness: strong-left (2,3),(3,4)] "
                   "refined=no[witness: refined-left {}] partial=yes "
                   "transitive=no[witness: transitivity (2,3),(3,4)] identities=1 zeros={}")


@pytest.mark.parametrize("bound", [60, 70])
def test_builtin_renders_at_large_bounds(bound):
    assert sampled_classify(coprime_magma(), bound).render() == \
        _COPRIME_REPORT.format(bound, "(2,3),(3,4)", "")
    assert sampled_classify(coprime_with_zero(), bound).render() == \
        _COPRIME_REPORT.format(bound, "(0,2),(2,4)", "0")
    assert sampled_classify(natural_multiplication(), bound).render() == (
        f"CLASS bound={bound} locality=yes strong=yes refined=yes partial=yes "
        "transitive=yes identities=1 zeros=")


# truthy and falsy answers a user relation may give
_YES = (True, 1, 2, 256, "yes", (0,), [1])
_NO = (False, 0, None, "", (), [])


_DENSITIES = (0.15, 0.4, 0.7, 0.9, 1.0)
_KINDS = ("modular", "sum", "max", "mixed")


def open_predicate(lo, salt, density, kind, modulus):
    """A seeded predicate on an integer slice whose products may leave it."""
    h = lambda *key: hash((salt,) + key) & 0xFFFF

    def related(a, b):
        answers = _YES if h(0, a, b) % 100 < 100 * density else _NO
        return answers[h(1, a, b) % len(answers)]

    def product(a, b):
        k = kind if kind != "mixed" else ("modular", "sum", "max", "times")[h(2, a, b) % 4]
        if k == "modular":
            return a * b % modulus + lo
        if k == "sum":
            return a + b
        if k == "max":
            return max(a, b) + h(3, a, b) % 2
        return a * b

    return PredicateMagma(f"open-{kind}", lambda a: isinstance(a, int), related, product,
                          lambda bound: list(range(lo, lo + bound)))


@st.composite
def open_predicates(draw):
    return open_predicate(draw(st.integers(-3, 3)), draw(st.integers(0, 2 ** 30)),
                          draw(st.sampled_from(_DENSITIES)), draw(st.sampled_from(_KINDS)),
                          draw(st.integers(1, 12)))


@given(open_predicates(), st.integers(1, 7))
def test_sampled_classify_matches_all_scans(p, bound):
    # the plain walk over every triple of tests/orderly.py, one pass per clause
    elems = sorted(p.slice_elements(bound))
    report = sampled_classify(p, bound)
    assert report == oracle_report(elems, p.related, p.product, bound)


def _scanned_flags(p, bound):
    elems = sorted(p.slice_elements(bound))
    return oracle_report(elems, p.related, p.product).flags()


def _kernel_flags(p, bound):
    elems = sorted(p.slice_elements(bound))
    t, open_table = checks._open_table(elems, p.related, p.product)
    backend = checks._flat(len(elems), t, open_table)
    return tuple(found is None for found in checks._walk(len(elems), backend, range(5)))


_OPS = {"times": operator.mul, "sum": operator.add, "max": max, "min": min}
_RELATIONS = {"coprime": lambda a, b: math.gcd(a, b) == 1, "full": lambda a, b: True,
              "ordered": lambda a, b: a <= b, "even-sum": lambda a, b: (a + b) % 2 == 0}


def lawful_predicate(lo, salt, op, relation, noise):
    """An associative product and a structured relation on an integer slice,
    each changed on a seeded ``noise`` share of pairs, so that classes hold
    or fail late."""
    h = lambda *key: hash((salt,) + key) & 0xFFFF
    mul, rel = _OPS[op], _RELATIONS[relation]
    flip = lambda k, a, b: h(k, a, b) < noise * 0x10000
    return PredicateMagma(f"lawful-{op}-{relation}-{noise}", lambda a: isinstance(a, int),
                          lambda a, b: rel(a, b) != flip(0, a, b),
                          lambda a, b: mul(a, b) + flip(1, a, b),
                          lambda bound: list(range(lo, lo + bound)))


def test_open_kernel_matches_scans_on_larger_slices():
    # slices of 8-40 elements, past the hypothesis test's 7: longer rows for
    # the kernel's per-row gathers, and many products leaving the slice; the
    # random predicates fail every class early, the lawful ones hold or fail late
    rng = random.Random(1301)
    cases = [open_predicate(rng.randint(-3, 3), rng.randrange(2 ** 30), rng.choice(_DENSITIES),
                            rng.choice(_KINDS), rng.randint(1, 12)) for _ in range(6)]
    cases += [lawful_predicate(rng.randint(-3, 3), rng.randrange(2 ** 30), rng.choice(list(_OPS)),
                               rng.choice(list(_RELATIONS)), rng.choice((0, 0.0005, 0.002, 0.01)))
              for _ in range(10)]
    for p in cases:
        bound = rng.randint(8, 40)
        assert _kernel_flags(p, bound) == _scanned_flags(p, bound), (p.description, bound)


def _listed(products):
    """The slice 0, 1, 2 with the relation and products of ``products``."""
    return PredicateMagma("listed", lambda a: isinstance(a, int), lambda a, b: (a, b) in products,
                          lambda a, b: products[a, b], lambda bound: list(range(bound)))


# In each case row 1 is used by the pairs (0,1) and then (2,1): the kernel
# builds a row's getters on its first use and reuses them on the second.
@pytest.mark.parametrize("products, flags", [
    # row 1 has no defined cell: no c to regroup over
    ({(0, 1): 2, (2, 1): 2}, (True, True, False, True, True)),
    # row 1 has one defined cell, (1,2): (2*1)*2 = 2*(1*2) = 2
    ({(0, 1): 2, (2, 1): 2, (1, 2): 2, (2, 2): 2, (0, 2): 2}, (True, True, False, True, False)),
    # (2*1)*0 = 12*0 = 20 and 2*(1*0) = 2*11 = 21 differ only at c = 0, with
    # (2,0) unrelated, so partial fails and locality holds; (2,1) is related
    # and (1,1) is not, so a gather over every column would meet (12,1)
    ({(0, 1): 10, (1, 0): 11, (2, 1): 12, (10, 0): 30, (0, 11): 30, (12, 0): 20,
      (2, 11): 21, (12, 1): 40}, (True, False, False, False, False)),
])
def test_open_kernel_gathers_edge_rows(products, flags):
    p = _listed(products)
    assert _scanned_flags(p, 3) == flags
    assert _kernel_flags(p, 3) == flags


def test_kernel_and_scan_disagreement_raises(monkeypatch):
    # a bounded report whose verdicts break the class chain raises, with an
    # explicit raise that `python -O` keeps: here the walk is made to find no
    # refined witness, so the strong structure's failing verdict disagrees
    walk = checks._walk
    monkeypatch.setattr(checks, "_walk", lambda *args: walk(*args)[:2] + [None] + walk(*args)[3:])
    with pytest.raises(InvariantError, match="strong"):
        sampled_classify(coprime_magma(), 12)
