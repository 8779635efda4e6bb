import itertools

import pytest
from hypothesis import given

from locsemi import (DomainError, FinitePartialMagma, LocalitySet, ParseError,
                     adjoin_identity, adjoin_zero, bounded_magma, coprime_magma,
                     complete_to_semigroup_with_zero, full_relation_magma,
                     parse_magma, parse_quiver, parse_semigroup_with_zero, powerset_magma,
                     serialize_magma)
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


# Every error branch of the three text formats, with its exact text.  A text
# with several errors reports the first bad line in line order, then each
# missing header in the order the format lists them (zero before elements),
# then the carrier's error, then the zero label's.
@pytest.mark.parametrize("parse, text, message", [
    # unrecognized lines: no colon, a space before it, another format's kind
    (parse_magma, "elements: a\nfoo\n", "line 2: unrecognized line 'foo'"),
    (parse_magma, "elements: a\nop\n", "line 2: unrecognized line 'op'"),
    (parse_magma, "elements : a\n", "line 1: unrecognized line 'elements : a'"),
    (parse_magma, "elements: a\nvertices: x\n", "line 2: unrecognized line 'vertices: x'"),
    (parse_magma, "elements: a\nzero: a\n", "line 2: unrecognized line 'zero: a'"),
    (parse_quiver, "vertices: x\n\nop: a a -> a\n", "line 3: unrecognized line 'op: a a -> a'"),
    (parse_quiver, "vertices: x  # v\narrow p x x\n", "line 2: unrecognized line 'arrow p x x'"),
    (parse_semigroup_with_zero, "zero: 0\nelements: 0\narrow: p x x\n",
     "line 3: unrecognized line 'arrow: p x x'"),
    # header lines: repeated, empty, missing
    (parse_magma, "elements: a\nelements: a\n", "line 2: repeated elements line"),
    (parse_magma, "# none\nelements:  # a\n", "line 2: elements line lists no labels"),
    (parse_magma, "op: a a -> a\n", "missing elements line"),
    (parse_magma, "", "missing elements line"),
    (parse_quiver, "vertices: x\r\nvertices: x\r\n", "line 2: repeated vertices line"),
    (parse_quiver, "vertices:\n", "line 1: vertices line lists no labels"),
    (parse_quiver, "arrow: p x x\n", "missing vertices line"),
    (parse_semigroup_with_zero, "zero: 0\relements: 0\rzero: 0\r", "line 3: repeated zero line"),
    (parse_semigroup_with_zero, "zero: 0\nelements:\n", "line 2: elements line lists no labels"),
    (parse_semigroup_with_zero, "elements: 0\nop: 0 0 -> 0\n", "missing zero line"),
    (parse_semigroup_with_zero, "zero: 0\nop: 0 0 -> 0\n", "missing elements line"),
    # shapes
    (parse_magma, "elements: a\nop: a a\n", "line 2: expected 'op: a b -> c'"),
    (parse_magma, "elements: a\nop: a a => a\n", "line 2: expected 'op: a b -> c'"),
    (parse_quiver, "vertices: x\narrow: p x\n", "line 2: expected 'arrow: name source target'"),
    (parse_semigroup_with_zero, "zero:\nelements: 0\n", "line 1: expected 'zero: <label>'"),
    (parse_semigroup_with_zero, "elements: 0 1\nzero: 0 1\n", "line 2: expected 'zero: <label>'"),
    # keys
    (parse_magma, "elements: a\nop: a a -> a\nop: a a -> a\n", "line 3: duplicate op key (a,a)"),
    (parse_semigroup_with_zero, "zero: 0\nelements: 0\nop: 0 0 -> 0\nop: 0 0 -> 0\n",
     "line 4: duplicate op key (0,0)"),
    # the carrier
    (parse_magma, "elements: a\nop: a b -> a\n", "table key (a,b) uses labels outside the carrier"),
    (parse_magma, "elements: a\nop: a a -> b\n", "product a*a = b lies outside the carrier"),
    (parse_quiver, "vertices: x\narrow: p x y\n", "arrow p: endpoint not a declared vertex"),
    (parse_quiver, "vertices: x\narrow: p x x\narrow: p x x\n", "duplicate arrow label 'p'"),
    (parse_semigroup_with_zero, "zero: z\nelements: 0\nop: 0 0 -> 0\n",
     "zero label 'z' not in carrier"),
    # two errors: the first bad line in line order wins
    (parse_magma, "elements: a\nop: a a\nfoo\n", "line 2: expected 'op: a b -> c'"),
    (parse_magma, "foo\nelements:\n", "line 1: unrecognized line 'foo'"),
    (parse_magma, "op: a a\n", "line 1: expected 'op: a b -> c'"),
    (parse_magma, "elements: a\nop: a b -> a\nop: a a\n", "line 3: expected 'op: a b -> c'"),
    (parse_quiver, "vertices: x\narrow: p x\nvertices: y\n",
     "line 2: expected 'arrow: name source target'"),
    (parse_quiver, "vertices: x\narrow: p x y\narrow: q x\n",
     "line 3: expected 'arrow: name source target'"),
    (parse_semigroup_with_zero, "zero: 0\nfoo\nzero: 0\n", "line 2: unrecognized line 'foo'"),
    (parse_semigroup_with_zero, "elements: 0\nfoo\nzero:\n", "line 2: unrecognized line 'foo'"),
    (parse_semigroup_with_zero, "elements: 0\nop: 0 0\n", "line 2: expected 'op: a b -> c'"),
    (parse_semigroup_with_zero, "elements: 0\nelements: 0\nzero: 0 1\n",
     "line 2: repeated elements line"),
    (parse_semigroup_with_zero, "op: 0 0 -> 0\n", "missing zero line"),
    (parse_semigroup_with_zero, "zero: z\nop: 0 0 -> 0\n", "missing elements line"),
    (parse_semigroup_with_zero, "zero: z\nelements: 0\nop: 0 0 -> 1\n",
     "product 0*0 = 1 lies outside the carrier"),
])
def test_parse_error_messages_and_lines(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert type(exc.value) is ParseError and str(exc.value) == message


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
