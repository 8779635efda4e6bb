import ast
import itertools
import pathlib
import random
import tracemalloc
from array import array

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from locsemi import (CapacityError, DomainError, FinitePartialMagma,
                     InvariantError, Quiver, bounded_magma, checks,
                     check_polar_closure_subsets, classify,
                     complete_to_semigroup_with_zero,
                     coprime_magma, coprime_with_zero, find_identities,
                     find_zeros,
                     full_relation_magma, is_left_locality_ideal,
                     is_locality_homomorphism, is_locality_ideal,
                     is_locality_map, is_locality_semigroup,
                     is_partial_semigroup, is_refined_locality_semigroup,
                     is_right_locality_ideal, is_strong_locality_semigroup,
                     is_sub_locality_semigroup, is_transitive,
                     materialize_path_magma, natural_multiplication,
                     parse_magma, powerset_magma, replay_witness,
                     totient)
from locsemi.enumeration import decode_magma, search_space_size
from locsemi.magma import OK, Witness, fail
from locsemi.fixtures import fixture_kind, fixture_magma, fixture_names, fixture_quiver

from orderly import (_checker_flags, _polar_violators, oracle_report, oracle_verdict,
                     table_accessors, violates)
from strategies import magmas, random_magma

EX3_6 = fixture_magma("ex3_6")
EX3_8 = fixture_magma("ex3_8")
PSG = fixture_magma("ex3_psg_not_lsg")
EX4_3 = fixture_magma("ex4_3")
EMPTY = FinitePartialMagma(("a", "b"), {})


def test_locality_fixtures():
    assert is_locality_semigroup(EX3_8)
    v = is_locality_semigroup(PSG)
    assert not v
    assert v.witness.axiom == "left-polar-closure"
    assert v.witness.elements == ("b", "b", "b")
    assert v.witness.detail == "U={b}"
    assert is_locality_semigroup(EMPTY)


def test_subset_closure_fixtures():
    assert check_polar_closure_subsets(EX3_8)
    v = check_polar_closure_subsets(PSG)
    assert not v and v.witness.detail == "U={b}"
    assert check_polar_closure_subsets(EMPTY)
    big = FinitePartialMagma(tuple(f"x{i:02d}" for i in range(17)), {})
    with pytest.raises(CapacityError):
        check_polar_closure_subsets(big)


def _singleton_vs_subsets(m):
    # the library's singleton clauses: the two polar masks of _masks at every related pair
    R, C, rows, _, _ = checks._finite_backend(m)[1]
    singletons = not any(left or right for a in range(len(m.elements)) for b, ab in rows(a)
                         for left, right in [checks._masks(R[a], R[b], R[ab], C[a], C[b], C[ab],
                                                           0, 0)[:2]])
    assert singletons == bool(check_polar_closure_subsets(m))


def test_singleton_reduction_exhaustive_n2():
    for n in (1, 2):
        for code in range(search_space_size(n)):
            _singleton_vs_subsets(decode_magma(n, code))


def test_singleton_reduction_random_corpus():
    rng = random.Random(20240817)
    for labels in (("a", "b", "c"), ("a", "b", "c", "d"), ("a", "b", "c", "d", "e")):
        for _ in range(120):
            _singleton_vs_subsets(random_magma(rng, labels))


def test_subset_witnesses_replay_against_public_polars():
    # labels that sort as strings, not as numbers ("10" < "5" < "a"), so the
    # subsets and the pairs of each polar must be walked in label order
    rng = random.Random(8)
    pool = [str(k) for k in range(3, 14)] + ["a"]
    failing = 0
    for _ in range(300):
        labels = rng.sample(pool, rng.randint(1, 12))
        density = rng.random()
        table = {(a, b): rng.choice(labels)
                 for a in labels for b in labels if rng.random() < density}
        m = FinitePartialMagma(labels, table)
        v = check_polar_closure_subsets(m)
        if v:
            continue
        failing += 1
        side = v.witness.axiom.removesuffix("-polar-closure")
        U = v.witness.detail.removeprefix("U={").removesuffix("}").split(",")
        polar = m.left_polar(U) if side == "left" else m.right_polar(U)
        a, b = v.witness.elements
        assert a in polar and b in polar, (m, v)
        assert m.product(a, b) not in polar, (m, v)
    assert failing > 100


def test_block_polar_oracle_matches_the_subset_checker():
    # every table with n <= 2 and a seeded sample at n = 3
    rng = random.Random(22)
    counts = {}
    for n in (1, 2, 3):
        literal = _polar_violators(n)
        counts[n] = literal.count("1")
        codes = range(search_space_size(n))
        for code in codes if n < 3 else rng.sample(codes, 3000):
            assert (literal[code] == "0") == bool(check_polar_closure_subsets(decode_magma(n, code))), (n, code)
    assert counts == {1: 0, 2: 33, 3: 224_295}


def test_strong_fixtures():
    v = is_strong_locality_semigroup(EX3_6)
    assert not v
    assert v.witness.axiom == "strong-left"
    assert v.witness.elements == ("1", "0", "1")
    assert is_strong_locality_semigroup(EX4_3)
    assert is_strong_locality_semigroup(EMPTY)


def test_refined_fixtures():
    v = is_refined_locality_semigroup(EX4_3)
    assert not v
    assert v.witness.axiom == "refined-left"
    assert v.witness.elements == ("a", "b", "a")
    path_magma, _ = materialize_path_magma(fixture_quiver("ex2_17_quiver"), 2)
    assert is_refined_locality_semigroup(path_magma)
    total = full_relation_magma(("0", "1"), lambda a, b: str((int(a) + int(b)) % 2))
    assert is_refined_locality_semigroup(total)


def test_partial_fixtures():
    assert is_partial_semigroup(EX3_6)
    v = is_partial_semigroup(EX3_8)
    assert not v
    assert v.witness.axiom == "partial-membership"
    assert v.witness.elements == ("1", "0", "1")
    assert is_partial_semigroup(PSG)


def test_transitive_fixtures():
    assert is_transitive(powerset_magma({1, 2}, "union"))
    v = is_transitive(EX3_8)
    assert not v and v.witness.elements == ("1", "0", "1")
    assert is_transitive(full_relation_magma(("a",), lambda a, b: "a"))


def test_identities_and_zeros():
    pu = powerset_magma({1, 2}, "union")
    left, right, both = find_identities(pu)
    assert left == ("{}",) and both == ()
    pi = powerset_magma({1, 2}, "intersection")
    lz, rz, z = find_zeros(pi)
    assert lz == ("{}",) and z == ()
    assert find_identities(EMPTY) == ((), (), ())
    assert find_zeros(EMPTY) == ((), (), ())
    assert find_identities(EX3_6)[2] == ("0",)


def test_locality_map_and_homomorphism():
    ident = {x: x for x in EX3_8.elements}
    assert is_locality_homomorphism(EX3_8, EX3_8, ident)

    from locsemi import natural_multiplication
    m1 = bounded_magma(coprime_magma(), 30)
    m2 = bounded_magma(natural_multiplication(), 30)
    phi = {str(k): str(totient(k)) for k in range(1, 31)}
    assert is_locality_homomorphism(m1, m2, phi)
    # spot value from the totient oracle
    assert phi["12"] == "4" and totient(3) * totient(4) == 4

    with pytest.raises(DomainError):
        is_locality_map(EX3_8, EX3_8, {"0": "0"})
    with pytest.raises(DomainError):
        is_locality_map(EX3_8, EX3_8, {"0": "0", "1": "7"})


def test_locality_map_failure_has_witness():
    dst = FinitePartialMagma(("a", "b"), {("a", "a"): "a"})
    phi = {"0": "a", "1": "b"}
    v = is_locality_map(EX3_8, dst, phi)
    assert not v and v.witness.axiom == "locality-map"


def test_homomorphism_check_stops_at_a_map_that_is_not_local():
    # (0,1) is related in EX3_8, (b,a) is not in dst: the map's verdict, before any product
    dst = FinitePartialMagma(("a", "b"), {("a", "a"): "a", ("b", "b"): "a"})
    v = is_locality_homomorphism(EX3_8, dst, {"0": "b", "1": "a"})
    assert v == is_locality_map(EX3_8, dst, {"0": "b", "1": "a"})
    assert not v and v.witness.axiom == "locality-map"


def test_hom_product_failure():
    swap = {"0": "1", "1": "0"}
    # swap is a locality map on the symmetric part but breaks products
    m = FinitePartialMagma(("0", "1"),
                           {("0", "0"): "0", ("0", "1"): "0",
                            ("1", "0"): "0", ("1", "1"): "0"})
    v = is_locality_homomorphism(m, m, swap)
    assert not v and v.witness.axiom == "hom-product"


def test_sub_and_ideal_fixtures():
    slice12 = bounded_magma(coprime_magma(), 12)
    odds = frozenset(str(k) for k in range(1, 13, 2))
    assert is_sub_locality_semigroup(slice12, odds)
    v = is_left_locality_ideal(slice12, odds)
    assert not v
    assert v.witness.elements == ("2", "3")
    assert "6" in v.witness.detail
    assert not is_right_locality_ideal(slice12, odds)
    assert not is_locality_ideal(slice12, odds)

    pu = powerset_magma({1, 2}, "union")
    contains1 = frozenset(l for l in pu.elements if "1" in l)
    assert is_sub_locality_semigroup(pu, contains1)
    assert is_locality_ideal(pu, contains1)

    assert is_sub_locality_semigroup(EX3_8, EX3_8.elements)
    assert is_locality_ideal(EX3_8, EX3_8.elements)
    with pytest.raises(DomainError):
        is_sub_locality_semigroup(EX3_8, set())


def test_right_polar_closure_witness():
    # left closures hold; (c,a),(c,b),(a,b) related but (c, a*b)=(c,c) is not
    m = FinitePartialMagma(("a", "b", "c"),
                           {("c", "a"): "a", ("c", "b"): "a", ("a", "b"): "c"})
    v = is_locality_semigroup(m)
    assert not v
    assert v.witness.axiom == "right-polar-closure"
    assert v.witness.elements == ("a", "b", "c")
    assert v.witness.detail == "U={c}"
    assert replay_witness(m, v.witness)
    sub = check_polar_closure_subsets(m)
    assert not sub and sub.witness.axiom == "right-polar-closure"


def test_strong_right_witness():
    m = FinitePartialMagma(("a", "b", "c"),
                           {("a", "b"): "a", ("b", "c"): "a", ("a", "c"): "a"})
    v = is_strong_locality_semigroup(m)
    assert not v
    assert v.witness.axiom == "strong-right"
    assert v.witness.elements == ("a", "b", "c")
    assert replay_witness(m, v.witness)


def test_associativity_failure_witnesses():
    # full relation, so every membership clause passes and only products differ
    m = full_relation_magma(("a", "b"), lambda a, b: "b" if a == "a" else "a")
    cases = (
        (is_locality_semigroup, "locality-assoc"),
        (is_strong_locality_semigroup, "strong-assoc"),
        (is_refined_locality_semigroup, "refined-assoc"),
        (is_partial_semigroup, "partial-assoc"),
    )
    for check, axiom in cases:
        v = check(m)
        assert not v and v.witness.axiom == axiom, (axiom, v.witness)
        assert replay_witness(m, v.witness)


def test_classify_fixture_patterns():
    r = classify(EX3_6)
    assert r.flags() == (True, False, False, True, False)
    r = classify(EX4_3)
    assert (r.strong.ok, r.refined.ok) == (True, False)
    r = classify(EMPTY)
    assert r.flags() == (True, True, True, True, True)


def test_classify_line_format():
    line = classify(EX3_6).render()
    assert line.startswith("CLASS ")
    assert "locality=yes" in line
    assert "strong=no[witness: strong-left (1,0),(0,1)]" in line


def test_ex3_6_locality_flag_matches_independent_scan():
    # independent oracle: direct evaluation of the three locality conditions
    t = EX3_6.table
    elems = EX3_6.elements
    rel = lambda a, b: (a, b) in t
    ok = True
    for a in elems:
        for b in elems:
            for c in elems:
                if rel(a, c) and rel(b, c) and rel(a, b) and not rel(t[(a, b)], c):
                    ok = False
                if rel(c, a) and rel(c, b) and rel(a, b) and not rel(c, t[(a, b)]):
                    ok = False
                if rel(a, b) and rel(b, c) and rel(a, c):
                    if t[(t[(a, b)], c)] != t[(a, t[(b, c)])]:
                        ok = False
    assert ok is True
    assert bool(is_locality_semigroup(EX3_6)) == ok


@given(magmas(max_n=3))
def test_classify_inclusion_chain(m):
    r = classify(m)
    if r.refined.ok:
        assert r.strong.ok
    if r.strong.ok:
        assert r.locality.ok and r.partial.ok
    if r.transitive.ok and r.locality.ok:
        assert r.partial.ok


@pytest.mark.parametrize("failing, message", [
    ({"strong"}, "refined structure is not strong"),
    ({"refined", "locality"}, "strong structure is not both locality and partial"),
    ({"refined", "strong", "partial"}, "transitive locality structure is not partial"),
])
def test_classify_inclusion_chain_checks_survive_optimize(monkeypatch, failing, message):
    # the checks are explicit raises, so `python -O` cannot strip them; the
    # walk is made to name a transitivity witness for each failing class
    found = [(11, (0, 0, 0)) if name in failing else None
             for name in ("locality", "strong", "refined", "partial", "transitive")]
    monkeypatch.setattr(checks, "_walk", lambda *args: found)
    with pytest.raises(InvariantError, match=message):
        classify(EMPTY)


def test_library_has_no_assert():
    # python -O strips assert statements, so every invariant must be an explicit raise
    package = pathlib.Path(checks.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"


def test_witness_replay_exhaustive_n2():
    for code in range(search_space_size(2)):
        m = decode_magma(2, code)
        r = classify(m)
        for v in (r.locality, r.strong, r.refined, r.partial, r.transitive):
            if not v.ok:
                assert replay_witness(m, v.witness), (code, v.witness)


@given(magmas(max_n=4))
def test_witness_replay_random(m):
    r = classify(m)
    for v in (r.locality, r.strong, r.refined, r.partial, r.transitive):
        if not v.ok:
            assert replay_witness(m, v.witness)


# Each subset checker's rule on one related pair (x,y) with product c,
# written out independently of locsemi.checks.
_SUBSET_RULES = {
    is_sub_locality_semigroup: ("sub-closure", lambda A, x, y, c: x in A and y in A and c not in A),
    is_left_locality_ideal: ("left-ideal", lambda A, x, y, c: y in A and c not in A),
    is_right_locality_ideal: ("right-ideal", lambda A, x, y, c: x in A and c not in A),
}


def test_subset_checkers_return_the_first_pair_their_rule_fails():
    slice12 = bounded_magma(coprime_magma(), 12)
    cases = [(slice12, A) for A in ({"1"}, {"2", "3"}, {str(k) for k in range(1, 13, 2)},
                                    {"4", "6", "8", "9"})]
    rng = random.Random(1812)
    for _ in range(300):
        m = random_magma(rng, "abcdef"[:rng.randint(1, 6)])
        cases.append((m, set(rng.sample(m.elements, rng.randint(1, len(m.elements))))))
    failed = 0
    for m, A in cases:
        # strictly increasing pairs first, then the rest, each lexicographically
        order = sorted(itertools.product(m.elements, repeat=2),
                       key=lambda p: (not p[0] < p[1], p))
        for check, (axiom, breaks) in _SUBSET_RULES.items():
            want = next((fail(axiom, (x, y), f"product {m.table[(x, y)]} escapes")
                         for x, y in order
                         if (x, y) in m.table and breaks(A, x, y, m.table[(x, y)])), OK)
            assert check(m, A) == want, (m.table, A, axiom)
            failed += not want
        left, right = is_left_locality_ideal(m, A), is_right_locality_ideal(m, A)
        assert is_locality_ideal(m, A) == (right if left else left)
    assert failed > 100


_TRIPLE_AXIOMS = (
    "left-polar-closure", "right-polar-closure", "locality-assoc",
    "strong-left", "strong-right", "strong-assoc",
    "refined-left", "refined-right", "refined-assoc",
    "partial-membership", "partial-assoc", "transitivity",
)


def test_replay_witness_matches_clause_oracle():
    rng = random.Random(2024)
    structures = [decode_magma(2, code) for code in range(search_space_size(2))]
    structures += [decode_magma(3, rng.randrange(search_space_size(3))) for _ in range(300)]
    for m in structures:
        for t in itertools.product(m.elements, repeat=3):
            for axiom in _TRIPLE_AXIOMS:
                want = violates(*table_accessors(m)[1:], axiom, *t)
                assert replay_witness(m, Witness(axiom, t)) == want, (m.table, axiom, t)


def test_refined_right_witness_is_the_least_over_every_pair():
    # refined-left holds, and refined-right fails at the increasing triples
    # (1,2,3), met at the pair (2,3), and (0,3,4), met later at (3,4) but
    # first in the scan order
    m = FinitePartialMagma(tuple("01234"), {("0", "4"): "4", ("1", "3"): "3",
                                            ("2", "3"): "3", ("3", "4"): "4"})
    want = fail("refined-right", ("0", "3", "4"), "(0,4) defined but (0,3) undefined")
    assert classify(m).refined == want == oracle_verdict(*table_accessors(m), "refined")


def test_replay_edge_cases():
    assert replay_witness(EX3_8, Witness("strong-left", ("a", "b"))) is False
    with pytest.raises(DomainError):
        replay_witness(EX3_8, Witness("no-such-axiom", ("a", "b", "c")))


def _stream_cases():
    for n in (1, 2):
        for code in range(search_space_size(n)):
            yield f"n{n}-{code}", table_accessors(decode_magma(n, code))
    rng = random.Random(5)
    for n in range(3, 9):
        for density in (0.1, 0.3, 0.6, 0.95):
            labels = tuple(f"x{i}" for i in range(n))
            table = {(a, b): rng.choice(labels) for a in labels for b in labels
                     if rng.random() < density}
            yield f"random-{n}-{density}", table_accessors(FinitePartialMagma(labels, table))
    path_magma, _ = materialize_path_magma(fixture_quiver("ex2_17_quiver"), 2)
    yield "ex2_17-paths", table_accessors(path_magma)
    yield "coprime-slice-12", table_accessors(bounded_magma(coprime_magma(), 12))
    for p in (coprime_magma(), coprime_with_zero(), natural_multiplication()):
        # the accessors sampled_classify hands to the walk
        yield p.description, (sorted(p.slice_elements(12)), p.related, p.product)


def test_walk_names_the_first_violation_of_the_full_scan_on_both_backends():
    # the open flat table and the lazily built dicts, each against the plain
    # walk over every triple of tests/orderly.py
    for name, (elems, rel, mul) in _stream_cases():
        n = len(elems)
        want = [oracle_verdict(elems, rel, mul, k) for k in checks._CLASS_NAMES]
        for backend in (checks._flat(n, *checks._open_table(elems, rel, mul)),
                        checks._lazy_dicts(elems, rel, mul)):
            got = [checks._verdict(f, elems, rel, mul) for f in checks._walk(n, backend, range(5))]
            assert got == want, name


def _chains(count):
    """The path magma of ``count`` disjoint chains of 4 vertices: 10 paths
    and 20 related pairs per chain."""
    q = Quiver(tuple(f"v{k}_{i}" for k in range(count) for i in range(4)),
               tuple((f"x{k}_{i}", f"v{k}_{i}", f"v{k}_{i + 1}")
                     for k in range(count) for i in range(3)))
    m, boundary = materialize_path_magma(q, 3)
    assert (len(m.elements), len(m.table)) == (10 * count, 20 * count) and not boundary
    return m


def test_classify_of_a_sparse_path_magma_allocates_no_cube():
    # 40 and 250 disjoint chains: 400 and 2,500 paths.  Triple masks over
    # every triple would take 2*n**3 bytes, 128 MB at 400 paths, and a flat
    # table 4*n**2 bytes, 25 MB at 2,500; the lazy backend's int row and
    # column masks take up to n**2/4 bytes, beside row dicts of O(n + |R|).
    for m in (_chains(40), _chains(250)):
        n = len(m.elements)
        tracemalloc.start()
        try:
            report = classify(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20, (n, peak)
        if n == 400:
            t = checks._closed_table(m)
            backend = checks._flat(n, t)
            assert report == checks._report(m.elements, backend, *checks._accessors(m)[1:],
                                            checks._table_sided(m.elements, t, n, *backend[:2]))
        assert report.refined.ok and not report.transitive.ok
        for name in checks._CLASS_NAMES:
            v = getattr(report, name)
            if not v.ok:
                assert replay_witness(m, v.witness), v.witness


def test_refined_walk_of_a_refined_path_magma_reads_each_related_pair_once(monkeypatch):
    # 100 disjoint chains of 4 vertices: 1,000 paths and 2,000 related pairs.
    # A refined structure has no witness to stop at, so the walk reads the
    # masks of every related pair, each once, and no triple one by one.
    m = _chains(100)
    pairs = []
    masks = checks._masks
    monkeypatch.setattr(checks, "_masks", lambda *args: pairs.append(args) or masks(*args))
    assert is_refined_locality_semigroup(m)
    assert len(pairs) == len(m.table)


def test_open_compile_of_finite_structures_gives_classify_flags():
    cases = [decode_magma(n, code) for n in (1, 2) for code in range(search_space_size(n))]
    rng = random.Random(7)
    for n in range(3, 9):
        labels = tuple(f"x{i}" for i in range(n))
        for density in (0.1, 0.3, 0.6, 0.95, 1.0):
            for _ in range(5):
                cases.append(FinitePartialMagma(labels, {
                    (a, b): rng.choice(labels) for a in labels for b in labels
                    if rng.random() < density}))
    for m in cases:
        elems, rel, mul = checks._accessors(m)
        n = len(elems)
        backend = checks._flat(n, *checks._open_table(elems, rel, mul))
        # the plain walk over every triple of tests/orderly.py
        assert tuple(f is None for f in checks._walk(n, backend, range(5))) == _checker_flags(m), m
        rows = backend[2]
        assert [[b for b, _ in rows(a)] for a in range(n)] == \
            [[j for j, b in enumerate(elems) if rel(a, b)] for a in elems]


def _random_path_magmas(seed, count):
    """Path magmas of seeded random acyclic quivers, arrows from lower to
    higher vertex, with at most 60 paths each."""
    rng = random.Random(seed)
    while count:
        nv = rng.randrange(2, 9)
        vertices = tuple(f"v{i}" for i in range(nv))
        ends = [sorted(rng.sample(range(nv), 2)) for _ in range(rng.randrange(1, 2 * nv))]
        q = Quiver(vertices, tuple((f"a{k}", f"v{s}", f"v{t}") for k, (s, t) in enumerate(ends)))
        if len(q.paths_upto(q.longest_path_length())) <= 60:
            yield materialize_path_magma(q, q.longest_path_length())[0]
            count -= 1


def _report_cases():
    for n in (1, 2):
        yield from (decode_magma(n, code) for code in range(search_space_size(n)))
    yield from (decode_magma(3, code) for code in range(0, search_space_size(3), 997))
    rng = random.Random(11)
    for n in (3, 5, 8, 13, 21, 34, 60):
        labels = tuple(f"x{i:02d}" for i in range(n))
        for density in (0.005, 0.01, 0.02, 0.05, 0.1, 0.3, 0.6, 0.9, 1.0):
            for _ in range(2):
                yield FinitePartialMagma(labels, {(a, b): rng.choice(labels) for a in labels
                                                  for b in labels if rng.random() < density})
    for name in fixture_names():
        if fixture_kind(name) == "magma":
            yield fixture_magma(name)
    for m in _random_path_magmas(5, 12):
        yield m
        yield complete_to_semigroup_with_zero(m).magma


def test_classify_equals_the_scan_only_report(monkeypatch):
    # dense tables are walked over a flat table and sparse ones over row
    # dicts (n*n against _DENSE_CELLS_PER_PAIR per defined pair); every
    # report is the plain walk's over every triple of tests/orderly.py, here
    # up to 21 elements, and the report of the other backend
    branches = set()
    for m in _report_cases():
        n = len(m.elements)
        dense = n * n <= checks._DENSE_CELLS_PER_PAIR * len(m.table)
        branches.add(dense)
        got = classify(m)
        if n <= 21:
            assert got == oracle_report(*table_accessors(m)), m
        with monkeypatch.context() as patch:
            patch.setattr(checks, "_DENSE_CELLS_PER_PAIR", 0 if dense else n * n)
            assert classify(m) == got, m
    assert branches == {True, False}


def test_classify_of_a_dense_completion_builds_no_row_dicts(monkeypatch):
    # the zero-completion of 4 chains of 4 vertices: 41 elements, every pair
    # related, in all five classes: the walk reads its flat table, and no
    # row dict is built
    total = complete_to_semigroup_with_zero(_chains(4)).magma
    assert len(total.elements) == 41 and total.is_total()
    built = []
    lazy_dicts = checks._lazy_dicts
    monkeypatch.setattr(checks, "_lazy_dicts",
                        lambda *args: built.append(len(args[0])) or lazy_dicts(*args))
    report = classify(total)
    assert report.flags() == (True,) * 5 and report.zeros == ("0",)
    assert is_transitive(total) and built == []
    # 10 elements and one product: a sparse table, whose row dicts feed the lazy backend
    sparse = FinitePartialMagma(tuple(f"s{i}" for i in range(10)), {("s0", "s0"): "s0"})
    assert classify(sparse).refined.ok and built == [10]


def test_table_rows_ascend_in_the_stored_key_order(monkeypatch):
    # the row dicts sort nothing: they are read from the keys, which the magma stores sorted
    labels = ("10", "9", "b", "a", "0")
    ops = [f"op: {x} {y} -> {x}" for x in labels for y in labels if x != y]
    m = parse_magma(f"elements: {' '.join(labels)}\n" + "\n".join(reversed(ops)) + "\n")
    assert m.pairs() == sorted(m.pairs())
    monkeypatch.setattr(checks, "_DENSE_CELLS_PER_PAIR", 0)
    t, (_, _, rows, _, _) = checks._finite_backend(m)
    assert t is None
    got = [[b for b, _ in rows(a)] for a in range(len(labels))]
    assert got == [[j for j, y in enumerate(m.elements) if x != y] for x in m.elements]
    assert all(row == sorted(row) for row in got)


@given(st.lists(st.integers(-1, 2**31 - 1), min_size=1, max_size=80))
@example([-1])
@example([0])
@example([2**31 - 1, -1, 255, 128, 2**24])
def test_defined_mask_sets_a_bit_per_defined_cell(values):
    cells = array("i", values)
    want = sum(1 << k for k, v in enumerate(cells) if v >= 0)
    assert int(checks._signs(cells), 2) == want
