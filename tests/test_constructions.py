import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from locsemi import (DomainError, FinitePartialMagma, NotAssociative,
                     ParseError, PreconditionError, SemigroupWithZero, adjoin_identity,
                     adjoin_zero, bounded_magma, classify,
                     complete_to_semigroup_with_zero, coprime_magma,
                     coprime_with_zero, find_identities, find_zeros,
                     full_relation_magma, generated_sub_locality_semigroup,
                     is_locality_semigroup, is_partial_semigroup,
                     is_strong_semigroup_with_zero, materialize_path_magma,
                     parse_semigroup_with_zero, partial_from_semigroup,
                     powerset_magma, serialize_semigroup_with_zero, Witness)
from locsemi.enumeration import (_FLAG_NAMES, _decode_table, decode_magma,
                                 search_space_size)
from locsemi.fixtures import fixture_magma, fixture_quiver

from orderly import _flags_by_code, _representatives, _walk_flags
from strategies import magma_with_subset

EX3_8 = fixture_magma("ex3_8")
EX4_3 = fixture_magma("ex4_3")


def zmod(n, op):
    labels = tuple(str(i) for i in range(n))
    return full_relation_magma(labels, lambda a, b: str(op(int(a), int(b)) % n))


def test_adjoin_identity_examples():
    out = adjoin_identity(EX3_8, "e")
    assert len(out.elements) == 3
    assert find_identities(out)[2] == ("e",)
    assert is_locality_semigroup(out)

    single = FinitePartialMagma(("a",), {})
    out = adjoin_identity(single, "e")
    assert out.relation == {("e", "e"), ("e", "a"), ("a", "e")}

    with_id = adjoin_identity(EX3_8, "i")
    again = adjoin_identity(with_id, "e")
    assert "e" in find_identities(again)[2]

    with pytest.raises(DomainError):
        adjoin_identity(EX3_8, "0")


def test_adjoin_zero_examples():
    single = FinitePartialMagma(("a",), {})
    out = adjoin_zero(single, "0")
    assert find_zeros(out)[2] == ("0",)

    out = adjoin_zero(EX4_3, "0")
    assert find_zeros(out)[2] == ("0",)
    assert is_locality_semigroup(out)

    # zero-adjoined coprime slice coincides with the zero-extended structure
    assert adjoin_zero(bounded_magma(coprime_magma(), 6), "0") == \
        bounded_magma(coprime_with_zero(), 6)

    with pytest.raises(DomainError):
        adjoin_zero(EX4_3, "a")


# (preserved, broken) per class, over the locality structures of each size:
# only locality preservation is guaranteed
ADJUNCTION_TALLIES = {
    1: {"identity": {"locality": (2, 0), "strong": (1, 1), "refined": (1, 1),
                     "partial": (2, 0), "transitive": (1, 1)},
        "zero": {"locality": (2, 0), "strong": (2, 0), "refined": (1, 1),
                 "partial": (2, 0), "transitive": (1, 1)}},
    2: {"identity": {"locality": (40, 0), "strong": (8, 22), "refined": (8, 8),
                     "partial": (34, 0), "transitive": (8, 20)},
        "zero": {"locality": (40, 0), "strong": (30, 0), "refined": (8, 8),
                 "partial": (34, 0), "transitive": (8, 20)}},
    3: {"identity": {"locality": (7006, 0), "strong": (113, 1712), "refined": (113, 164),
                     "partial": (2880, 0), "transitive": (113, 1160)},
        "zero": {"locality": (7006, 0), "strong": (1825, 0), "refined": (113, 164),
                 "partial": (2880, 0), "transitive": (113, 1160)}},
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_adjunction_tallies_exhaustive(n):
    # every class is invariant under relabeling, so each isomorphism class
    # counts as its size
    tally = {kind: {name: [0, 0] for name in _FLAG_NAMES} for kind in ("identity", "zero")}
    for code, _, size in _representatives(n):
        before = _flags_by_code(n)[code]
        if not before[0]:  # locality
            continue
        m = decode_magma(n, code)
        with_id = adjoin_identity(m, "e")
        with_zero = adjoin_zero(m, "z")
        assert "e" in find_identities(with_id)[2], code
        assert "z" in find_zeros(with_zero)[2], code
        for kind, out in (("identity", with_id), ("zero", with_zero)):
            for name, held, kept in zip(_FLAG_NAMES, before, classify(out).flags()):
                if held:
                    tally[kind][name][0 if kept else 1] += size
    got = {kind: {name: tuple(v) for name, v in d.items()} for kind, d in tally.items()}
    assert got == ADJUNCTION_TALLIES[n]


def test_adjunction_preserves_locality_sampled_n3():
    checked = 0
    for code in range(0, search_space_size(3), 401):
        if not _walk_flags(3, _decode_table(3, code))[0]:  # locality
            continue
        m = decode_magma(3, code)
        assert is_locality_semigroup(adjoin_identity(m, "e"))
        assert is_locality_semigroup(adjoin_zero(m, "z"))
        checked += 1
    assert checked > 0


def test_generated_closure_examples():
    path_magma, _ = materialize_path_magma(fixture_quiver("ex2_17_quiver"), 2)
    got = generated_sub_locality_semigroup(path_magma, {"alpha", "beta"})
    assert got == {"alpha", "beta", "alpha*beta"}

    closed = generated_sub_locality_semigroup(EX3_8, {"0"})
    assert closed == {"0"}

    pu = powerset_magma({1, 2}, "union")
    got = generated_sub_locality_semigroup(pu, {"{1}", "{1,2}"})
    assert got == {"{1}", "{1,2}"}

    with pytest.raises(DomainError):
        generated_sub_locality_semigroup(EX3_8, set())


@given(magma_with_subset(max_n=4))
def test_generated_closure_properties(mu):
    m, A = mu
    closed = generated_sub_locality_semigroup(m, A)
    assert A <= closed
    assert generated_sub_locality_semigroup(m, closed) == closed
    for a, b in itertools.product(sorted(closed), repeat=2):
        c = m.table.get((a, b))
        if c is not None:
            assert c in closed
    # monotone in the generating set
    if len(A) > 1:
        smaller = frozenset(sorted(A)[:-1])
        assert generated_sub_locality_semigroup(m, smaller) <= closed


def test_completion_failure_witness():
    with pytest.raises(NotAssociative) as err:
        complete_to_semigroup_with_zero(EX4_3)
    assert err.value.triple == ("a", "b", "a")
    assert err.value.lhs == "a" and err.value.rhs == "0"


def test_completion_of_path_magma():
    path_magma, _ = materialize_path_magma(fixture_quiver("ex2_17_quiver"), 2)
    total = complete_to_semigroup_with_zero(path_magma)
    assert len(total.magma.elements) == 7
    assert total.product("alpha", "beta") == "alpha*beta"
    assert total.product("beta", "alpha") == "0"
    assert is_strong_semigroup_with_zero(total)


def test_completion_of_empty_relation():
    single = FinitePartialMagma(("a",), {})
    total = complete_to_semigroup_with_zero(single)
    assert set(total.magma.elements) == {"a", "0"}
    assert all(v == "0" for v in total.magma.table.values())
    assert is_strong_semigroup_with_zero(total)


def test_completion_zero_label_collision():
    with pytest.raises(DomainError):
        complete_to_semigroup_with_zero(fixture_magma("ex3_8"))  # "0" is taken


def test_strong_zero_checks():
    null = SemigroupWithZero(
        full_relation_magma(("0", "a", "b"), lambda a, b: "0"), "0")
    assert is_strong_semigroup_with_zero(null)

    z4 = SemigroupWithZero(zmod(4, lambda a, b: a * b), "0")
    v = is_strong_semigroup_with_zero(z4)
    assert v.witness == Witness("strong-zero", ("2", "1", "2"), "product zero but factors 2,2")

    with pytest.raises(PreconditionError):
        is_strong_semigroup_with_zero(SemigroupWithZero(EX3_8, "0"))

    bad = full_relation_magma(("0", "x"), lambda a, b: "x")
    with pytest.raises(PreconditionError):
        is_strong_semigroup_with_zero(SemigroupWithZero(bad, "0"))

    with pytest.raises(DomainError):
        SemigroupWithZero(zmod(4, lambda a, b: a * b), "9")


def _with_zero(labels, products, zero="0"):
    """SemigroupWithZero on ``zero`` and ``labels``; unlisted products are the zero."""
    el = (zero,) + labels
    return SemigroupWithZero(FinitePartialMagma(
        el, {(a, b): products.get(a + b, zero) for a in el for b in el}), zero)


def test_strong_zero_names_a_regrouping_that_does_not_associate():
    # 0 absorbs, so the failure comes from the one walk, not from the absorb check:
    # (bb)a = 0a = 0 but b(ba) = ba = a
    t = _with_zero(("a", "b"), {"ba": "a"})
    with pytest.raises(PreconditionError) as exc:
        is_strong_semigroup_with_zero(t)
    assert str(exc.value) == "not associative at (b,b,a): 0 != a"


def test_strong_zero_names_associativity_before_absorption():
    # a0 = a, so 0 does not absorb; and (a0)a = aa = 0 but a(0a) = a0 = a
    t = _with_zero(("a",), {"a0": "a"})
    with pytest.raises(PreconditionError) as exc:
        is_strong_semigroup_with_zero(t)
    assert str(exc.value) == "not associative at (a,0,a): 0 != a"


def _first_regrouping(m, keep):
    """Plain walk over every triple of the total table m: the first one that ``keep`` takes."""
    t = m.table
    for x, y, z in itertools.product(m.elements, repeat=3):
        xy, yz = t[(x, y)], t[(y, z)]
        if keep(xy, yz, t[(xy, z)], t[(x, yz)]):
            return (x, y, z), xy, yz, t[(xy, z)], t[(x, yz)]
    return None


def _agrees_with_the_full_walk(m, zero):
    el = m.elements + (zero,)
    total = FinitePartialMagma(el, {(a, b): m.table.get((a, b), zero) for a in el for b in el})
    broken = _first_regrouping(total, lambda xy, yz, lhs, rhs: lhs != rhs)
    if broken is not None:
        triple, _, _, lhs, rhs = broken
        with pytest.raises(NotAssociative) as exc:
            complete_to_semigroup_with_zero(m, zero)
        assert (exc.value.triple, exc.value.lhs, exc.value.rhs) == (triple, lhs, rhs)
        with pytest.raises(PreconditionError) as exc:
            is_strong_semigroup_with_zero(SemigroupWithZero(total, zero))
        assert str(exc.value) == f"not associative at ({','.join(triple)}): {lhs} != {rhs}"
        return
    completed = complete_to_semigroup_with_zero(m, zero)
    assert completed == SemigroupWithZero(total, zero)
    witness = _first_regrouping(
        total, lambda xy, yz, lhs, rhs: lhs == zero and xy != zero and yz != zero)
    verdict = is_strong_semigroup_with_zero(completed)
    if witness is None:
        assert verdict.ok and verdict.witness is None
    else:
        triple, xy, yz, _, _ = witness
        assert verdict.witness == Witness("strong-zero", triple, f"product zero but factors {xy},{yz}")


def test_completion_and_strong_zero_equal_the_full_walk():
    """The walk that skips triples with both inner products zero finds what a full walk finds."""
    for n in (1, 2):
        for code in range(search_space_size(n)):
            _agrees_with_the_full_walk(decode_magma(n, code), "0")
    for code in range(0, search_space_size(3), 5):
        _agrees_with_the_full_walk(decode_magma(3, code), "0")
    # the zero labels sort before, among and after carriers drawn from these
    rng = random.Random(30)
    pool = ("+", ".", "5", "9", "A", "P", "R", "a", "z", "|")
    for _ in range(150):
        labels = rng.sample(pool, rng.randint(1, 10))
        density = rng.choice((0.05, 0.15, 0.4, 0.9))
        m = FinitePartialMagma(labels, {(a, b): rng.choice(labels) for a in labels
                                        for b in labels if rng.random() < density})
        for zero in ("-", "0", "Q", "~"):
            _agrees_with_the_full_walk(m, zero)


def test_strong_zero_walks_an_absorbing_table_once(monkeypatch):
    from locsemi import constructions
    calls = []
    walk = constructions._regroupings
    monkeypatch.setattr(constructions, "_regroupings",
                        lambda *args: calls.append(args) or walk(*args))
    z4 = SemigroupWithZero(zmod(4, lambda a, b: a * b), "0")
    assert not is_strong_semigroup_with_zero(z4)
    assert len(calls) == 1


def test_partial_from_semigroup_z6():
    z6 = zmod(6, lambda a, b: a + b)
    got = partial_from_semigroup(z6, {"0", "1", "2"})
    assert got.relation == {("0", "0"), ("0", "1"), ("0", "2"),
                            ("1", "0"), ("1", "1"), ("2", "0")}
    # the restriction keeps the pairs whose product left A, as sub_structure does
    assert got.escapes == ((("1", "2"), "3"), (("2", "1"), "3"), (("2", "2"), "4"))
    assert is_partial_semigroup(got)
    # independent scan of all 27 triples of the restriction
    t = got.table
    for a, b, c in itertools.product(got.elements, repeat=3):
        if (a, b) in t and (b, c) in t:
            left = (t[(a, b)], c) in t
            right = (a, t[(b, c)]) in t
            assert left == right
            if left:
                assert t[(t[(a, b)], c)] == t[(a, t[(b, c)])]


def test_partial_from_semigroup_edges():
    z6 = zmod(6, lambda a, b: a + b)
    assert partial_from_semigroup(z6, z6.elements) == z6

    z4m = zmod(4, lambda a, b: a * b)
    got = partial_from_semigroup(z4m, {"0", "2"})
    assert got.is_total()

    with pytest.raises(PreconditionError):
        partial_from_semigroup(EX3_8, {"0"})  # not total
    # (aa)a = a but a(aa) = b, so this total table does not associate
    nonassoc = full_relation_magma(("a", "b"), lambda a, b: "b" if a == "a" else "a")
    with pytest.raises(PreconditionError):
        partial_from_semigroup(nonassoc, {"a"})
    with pytest.raises(DomainError, match="^restriction subset must be nonempty$"):
        partial_from_semigroup(z6, set())


@given(st.integers(2, 6), st.sets(st.integers(0, 5), min_size=1))
def test_partial_from_semigroup_always_partial(n, raw):
    A = {str(k % n) for k in raw}
    zn = zmod(n, lambda a, b: a + b)
    assert is_partial_semigroup(partial_from_semigroup(zn, A))


@pytest.mark.parametrize("text, message", [
    ("elements: 0\nop: 0 0 -> 0\n", "missing zero line"),
    ("zero: z\nelements: 0\nop: 0 0 -> 0\n", "zero label 'z' not in carrier"),
])
def test_semigroup_with_zero_parse_errors_name_the_zero(text, message):
    with pytest.raises(ParseError) as exc:
        parse_semigroup_with_zero(text)
    assert type(exc.value) is ParseError and str(exc.value) == message


@pytest.mark.parametrize("sep", ["\f", "\x85", "\u2028"])
def test_semigroup_with_zero_reads_lines_as_an_editor_shows_them(sep):
    one = parse_semigroup_with_zero("zero: 0\nelements: 0\nop: 0 0 -> 0\n")
    assert parse_semigroup_with_zero(f"zero: 0\nelements: 0\nop: 0 0 -> 0  # {sep}zero: 0\n") == one
    assert parse_semigroup_with_zero("zero: 0\relements: 0\rop: 0 0 -> 0\r") == one
    with pytest.raises(ParseError) as exc:
        parse_semigroup_with_zero(f"zero: 0{sep}\nelements: 0\nop: 0 0\n")
    assert str(exc.value) == "line 3: expected 'op: a b -> c'"


def test_semigroup_with_zero_round_trip():
    path_magma, _ = materialize_path_magma(fixture_quiver("ex2_17_quiver"), 2)
    total = complete_to_semigroup_with_zero(path_magma)
    text = serialize_semigroup_with_zero(total)
    assert text.startswith("zero: 0\n")
    assert parse_semigroup_with_zero(text) == total


@pytest.mark.parametrize("text, message", [
    ("# header\nzero: 0\n\nelements: a 0\nop: a a\n", "line 5: expected 'op: a b -> c'"),
    ("zero: 0\nelements: 0\nzero: 0\n", "line 3: repeated zero line"),
    ("elements: 0\nzero: 0 1\n", "line 2: expected 'zero: <label>'"),
])
def test_semigroup_with_zero_parse_errors_count_zero_lines(text, message):
    with pytest.raises(ParseError) as exc:
        parse_semigroup_with_zero(text)
    assert str(exc.value) == message
