import itertools

import pytest
from hypothesis import given

from locsemi import (DomainError, FinitePartialMagma, LocalitySet, ParseError,
                     adjoin_identity, adjoin_zero, bounded_magma, coprime_magma,
                     complete_to_semigroup_with_zero, full_relation_magma,
                     parse_magma, powerset_magma, serialize_magma)
from locsemi.enumeration import decode_magma, search_space_size
from locsemi.fixtures import fixture_magma, fixture_quiver

from strategies import magma_with_subset, magmas

EX3_6 = fixture_magma("ex3_6")
EX3_8 = fixture_magma("ex3_8")


def test_elements_are_sorted_and_distinct():
    m = FinitePartialMagma(("b", "a"), {("a", "b"): "a"})
    assert m.elements == ("a", "b")
    with pytest.raises(DomainError):
        FinitePartialMagma(("a", "a"), {})
    with pytest.raises(DomainError):
        FinitePartialMagma((), {})


def test_label_validation():
    with pytest.raises(DomainError):
        FinitePartialMagma(("a b",), {})
    with pytest.raises(DomainError):
        FinitePartialMagma(("a#",), {})
    with pytest.raises(DomainError):
        FinitePartialMagma(("",), {})


@pytest.mark.parametrize("call", [
    lambda: FinitePartialMagma(("a", "\udcff"), {}),
    lambda: adjoin_identity(EX3_6, "\udcff"),
    lambda: adjoin_zero(EX3_6, "\udcff"),
    lambda: complete_to_semigroup_with_zero(EX3_6, "\udcff"),
])
def test_labels_must_be_utf8_text(call):
    # "\udcff" is how Python decodes the argv byte 0xff, which is not UTF-8
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == "bad label '\\udcff': labels are UTF-8 text"


def test_table_must_stay_inside_carrier():
    with pytest.raises(DomainError):
        FinitePartialMagma(("a",), {("a", "b"): "a"})
    with pytest.raises(DomainError):
        FinitePartialMagma(("a",), {("a", "a"): "b"})


def test_product_examples():
    assert EX3_6.product("0", "1") == "1"
    assert EX3_6.product("1", "1") is None
    group = full_relation_magma(("e", "x"), lambda a, b: "e" if a == b else "x")
    assert group.product("x", "x") == "e"
    with pytest.raises(DomainError):
        EX3_6.product("0", "2")


def test_polar_examples():
    assert EX3_8.left_polar({"1"}) == {"0"}
    assert EX3_8.left_polar({"0"}) == {"0", "1"}
    assert EX3_8.left_polar(set()) == {"0", "1"}
    assert EX3_8.right_polar({"1"}) == {"0"}
    assert EX3_8.right_polar(set()) == {"0", "1"}
    assert EX3_8.right_polar({"0", "1"}) == {"0"}
    with pytest.raises(DomainError):
        EX3_8.left_polar({"7"})


@given(magma_with_subset(max_n=4))
def test_polar_is_intersection_of_singleton_polars(mu):
    m, _ = mu
    for size in range(len(m.elements) + 1):
        for U in itertools.combinations(m.elements, size):
            expect = frozenset(m.elements)
            for u in U:
                expect &= m.left_polar({u})
            assert m.left_polar(U) == expect
            expect = frozenset(m.elements)
            for u in U:
                expect &= m.right_polar({u})
            assert m.right_polar(U) == expect


@given(magmas())
def test_product_defined_exactly_on_relation(m):
    for a in m.elements:
        for b in m.elements:
            got = m.product(a, b)
            if (a, b) in m.relation:
                assert got == m.table[(a, b)]
            else:
                assert got is None


def test_sub_structure_powerset_contains_one_is_closed():
    ps = powerset_magma({1, 2}, "union")
    A = {lbl for lbl in ps.elements if "1" in lbl}
    sub = ps.sub_structure(A)
    assert sub.escapes == ()
    assert set(sub.elements) == A


def test_sub_structure_coprime_odds_closed():
    slice6 = bounded_magma(coprime_magma(), 6)
    sub = slice6.sub_structure({"1", "3", "5"})
    assert sub.escapes == ()
    assert all(c in {"1", "3", "5"} for c in sub.table.values())


def test_sub_structure_full_carrier_is_identity():
    sub = EX3_8.sub_structure(EX3_8.elements)
    assert sub == EX3_8


def test_sub_structure_records_escapes():
    slice6 = bounded_magma(coprime_magma(), 6)
    sub = slice6.sub_structure({"2", "3"})
    assert (("2", "3"), "6") in sub.escapes
    assert ("2", "3") not in sub.table


def test_sub_structure_rejects_empty_or_stray():
    with pytest.raises(DomainError):
        EX3_8.sub_structure(set())
    with pytest.raises(DomainError):
        EX3_8.sub_structure({"7"})


def test_parse_round_trip_exhaustive_small():
    for n in (1, 2):
        for code in range(search_space_size(n)):
            m = decode_magma(n, code)
            assert parse_magma(serialize_magma(m)) == m


def test_parse_round_trip_stride_n3():
    for code in range(0, search_space_size(3), 997):
        m = decode_magma(3, code)
        assert parse_magma(serialize_magma(m)) == m


@given(magmas())
def test_parse_round_trip_random(m):
    assert parse_magma(serialize_magma(m)) == m


def test_parse_comments_and_blank_lines():
    m = parse_magma("# heading\n\nelements: a b  # trailing\nop: a a -> b\n")
    assert m.elements == ("a", "b")
    assert m.table == {("a", "a"): "b"}


# the characters str.splitlines breaks at besides \n, \r\n and \r
@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_parse_reads_no_record_after_a_separator_in_a_comment(sep):
    m = parse_magma(f"elements: a b\nop: a a -> a  # dropped:{sep}op: b b -> b\n")
    assert m.table == {("a", "a"): "a"}


@pytest.mark.parametrize("nl", ["\n", "\r\n", "\r"])
def test_parse_error_names_the_line_an_editor_shows(nl):
    assert parse_magma(f"elements: a{nl}op: a a -> a{nl}") == parse_magma("elements: a\nop: a a -> a")
    with pytest.raises(ParseError) as exc:
        parse_magma(f"elements: a\f{nl}op: a a{nl}")
    assert str(exc.value) == "line 2: expected 'op: a b -> c'"


@pytest.mark.parametrize("text", [
    "op: a a -> a\n",                                # missing elements
    "elements: a\nelements: a\n",                    # repeated elements
    "elements:\n",                                   # no labels
    "elements: a\nop: a a -> a\nop: a a -> a\n",     # duplicate key
    "elements: a\nop: a a a\n",                      # bad arrow
    "elements: a\nop: a b -> a\n",                   # label outside carrier
    "elements: a\nwhat: ever\n",                     # unknown line
])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_magma(text)


@pytest.mark.parametrize("call, message", [
    (lambda: LocalitySet(("a", "b"), frozenset({("a", "c")})),
     "relation pair (a,c) uses labels outside the carrier"),
    (lambda: fixture_magma("ex2_17_quiver"), "fixture 'ex2_17_quiver' is not a magma"),
    (lambda: fixture_quiver("ex3_8"), "fixture 'ex3_8' is not a quiver"),
])
def test_carrier_and_fixture_errors(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert type(exc.value) is DomainError and str(exc.value) == message


def test_serialization_is_label_sorted():
    m = FinitePartialMagma(("b", "a"), {("b", "a"): "a", ("a", "a"): "b"})
    assert serialize_magma(m) == "elements: a b\nop: a a -> b\nop: b a -> a\n"
