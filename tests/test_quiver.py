import functools
import itertools
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from locsemi import (CapacityError, CompositionUndefined, DomainError,
                     FinitePartialMagma, InvariantError, ParseError, Path,
                     PreconditionError, Quiver, Witness, compose, decode_magma,
                     free_extension, full_relation_magma, is_locality_map,
                     is_refined_locality_semigroup, materialize_path_magma,
                     parse_quiver, scan_flags, search_space_size,
                     serialize_magma, serialize_quiver, verify_free_property)
from locsemi import cli, quiver
from locsemi.fixtures import fixture_magma, fixture_quiver, fixture_text

XYZ = fixture_quiver("ex2_17_quiver")
TWO_LOOPS = Quiver(("x", "y"),
                   (("beta1", "x", "x"), ("alpha", "x", "y"), ("beta2", "y", "y")))
ONE_LOOP = Quiver(("v",), (("g", "v", "v"),))


def z3():
    return full_relation_magma(("0", "1", "2"),
                               lambda a, b: str((int(a) + int(b)) % 3))


def test_quiver_validation():
    with pytest.raises(DomainError):
        Quiver(("x", "x"), ())
    with pytest.raises(DomainError):
        Quiver(("x",), (("a", "x", "y"),))
    with pytest.raises(DomainError):
        Quiver(("x",), (("a", "x", "x"), ("a", "x", "x")))


def _extension_of_the_inclusion():
    paths, _ = materialize_path_magma(XYZ, 2)
    return free_extension(XYZ, paths, {"alpha": "alpha", "beta": "beta"})


# an arrow named like x's trivial path, and one named like the composite a*b
E_X_ARROW = "vertices: x y\narrow: e_x x y\n"
COMPOSITE_ARROW = "vertices: x y z\narrow: a x y\narrow: b y z\narrow: a*b x z\n"


@pytest.mark.parametrize("call, error, message", [
    (lambda: parse_quiver("vertices: x\nvertices: y\n"), ParseError,
     "line 2: repeated vertices line"),
    (lambda: parse_quiver("vertices:\n"), ParseError, "line 1: vertices line lists no labels"),
    (lambda: parse_quiver("vertices: x\narrow: a x x\narrow: a x x\n"), ParseError,
     "duplicate arrow label 'a'"),
    (lambda: parse_quiver("vertices: x\narrow: a x y\n"), ParseError,
     "arrow a: endpoint not a declared vertex"),
    (lambda: XYZ.path([]), DomainError, "use trivial_path for length-zero paths"),
    (lambda: XYZ.paths_of_length(-1), DomainError, "length must be nonnegative"),
    (lambda: materialize_path_magma(parse_quiver(E_X_ARROW), 1), DomainError,
     "path labels collide; rename arrows or vertices"),
    (lambda: materialize_path_magma(parse_quiver(COMPOSITE_ARROW), 2), DomainError,
     "path labels collide; rename arrows or vertices"),
    (lambda: _extension_of_the_inclusion()(Path("x", "y", ("gamma",))), DomainError,
     "path uses arrows outside the map: ['gamma']"),
])
def test_quiver_error_paths(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_parse_serialize_round_trip():
    assert parse_quiver(serialize_quiver(XYZ)) == XYZ
    assert parse_quiver(fixture_text("ex2_17_quiver")) == XYZ
    with pytest.raises(ParseError):
        parse_quiver("arrow: a x y\n")
    with pytest.raises(ParseError):
        parse_quiver("vertices: x\narrow: a x\n")


@pytest.mark.parametrize("sep", ["\f", "\x85", "\u2028"])
def test_parse_quiver_reads_lines_as_an_editor_shows_them(sep):
    q = parse_quiver(f"vertices: x\narrow: a x x  # dropped:{sep}arrow: b x x\n")
    assert q.arrows == (("a", "x", "x"),)
    with pytest.raises(ParseError) as exc:
        parse_quiver(f"vertices: x{sep}\r\narrow: a x\r\n")
    assert str(exc.value) == "line 2: expected 'arrow: name source target'"


def test_path_basics():
    a = XYZ.path(["alpha"])
    assert (a.source, a.target, a.length, a.label) == ("x", "y", 1, "alpha")
    e = XYZ.trivial_path("x")
    assert e.length == 0 and e.label == "e_x"
    with pytest.raises(DomainError):
        Path("x", "y")
    with pytest.raises(CompositionUndefined):
        XYZ.path(["beta", "alpha"])
    with pytest.raises(DomainError):
        XYZ.path(["gamma"])
    with pytest.raises(DomainError):
        XYZ.trivial_path("w")


def test_compose_examples():
    a, b = XYZ.path(["alpha"]), XYZ.path(["beta"])
    ab = compose(a, b)
    assert ab.label == "alpha*beta" and ab.length == 2
    assert compose(XYZ.trivial_path("x"), a) == a
    assert compose(a, XYZ.trivial_path("y")) == a
    with pytest.raises(CompositionUndefined):
        compose(b, a)


def test_paths_of_length_xyz():
    assert {p.label for p in XYZ.paths_of_length(0)} == {"e_x", "e_y", "e_z"}
    assert {p.label for p in XYZ.paths_of_length(1)} == {"alpha", "beta"}
    assert {p.label for p in XYZ.paths_of_length(2)} == {"alpha*beta"}
    assert XYZ.paths_of_length(3) == []


def test_paths_of_length_two_loops():
    labels = {p.label for p in TWO_LOOPS.paths_of_length(2)}
    assert labels == {"beta1*beta1", "beta1*alpha", "alpha*beta2", "beta2*beta2"}


def test_paths_of_length_no_arrows():
    lonely = Quiver(("v",), ())
    assert lonely.paths_of_length(1) == []
    assert lonely.paths_of_length(5) == []


def test_length_and_endpoint_bookkeeping():
    paths = XYZ.paths_upto(2) + TWO_LOOPS.paths_upto(3)
    for p, q in itertools.product(paths, repeat=2):
        if p.target == q.source:
            pq = compose(p, q)
            assert pq.length == p.length + q.length
            assert pq.source == p.source and pq.target == q.target


def test_path_composition_associative_where_defined():
    paths = TWO_LOOPS.paths_upto(2)
    for p, q, r in itertools.product(paths, repeat=3):
        if p.target == q.source and q.target == r.source:
            assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_materialize_xyz():
    magma, boundary = materialize_path_magma(XYZ, 2)
    assert magma.elements == ("alpha", "alpha*beta", "beta", "e_x", "e_y", "e_z")
    assert boundary == []
    assert is_refined_locality_semigroup(magma)
    assert magma.table[("alpha", "beta")] == "alpha*beta"
    assert magma.table[("e_x", "alpha")] == "alpha"


def test_materialize_truncation_boundary():
    magma, boundary = materialize_path_magma(TWO_LOOPS, 1)
    assert ("beta1", "beta1") in boundary
    assert ("beta1", "alpha") in boundary
    assert all(pair not in magma.relation for pair in boundary)


def test_materialize_trivial_only():
    magma, boundary = materialize_path_magma(XYZ, 0)
    assert magma.elements == ("e_x", "e_y", "e_z")
    assert magma.table[("e_x", "e_x")] == "e_x"
    assert ("e_x", "e_y") not in magma.relation
    assert boundary == []


def test_materialize_capacity(monkeypatch):
    monkeypatch.setattr(quiver, "PATH_CAPACITY", 10)
    with pytest.raises(CapacityError):
        materialize_path_magma(ONE_LOOP, 50)


def test_paths_upto_counts_before_it_builds():
    # a one-loop quiver has one path per length: 10,001 of them pass the
    # default capacity, which must raise before any path is built
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"^more than 10000 paths up to length 1000000$"):
            ONE_LOOP.paths_upto(10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_paths_upto_stops_counting_at_the_capacity():
    # one path per length: the count passes PATH_CAPACITY at length 10,000, and
    # reads the vertices once per length counted, however far max_len goes
    class Counted(tuple):
        passes = 0

        def __iter__(self):
            Counted.passes += 1
            if Counted.passes > quiver.PATH_CAPACITY + 3:
                raise RuntimeError("paths_upto counts past the capacity")
            return super().__iter__()

    q = Quiver(("v",), (("g", "v", "v"),))
    object.__setattr__(q, "vertices", Counted(q.vertices))
    with pytest.raises(CapacityError, match=r"^more than 10000 paths up to length 1000000000$"):
        q.paths_upto(10 ** 9)
    assert Counted.passes == quiver.PATH_CAPACITY + 1


def test_acyclic_boundary_empty_at_longest_path():
    assert XYZ.is_acyclic()
    assert XYZ.longest_path_length() == 2
    for extra in (0, 1, 3):
        _, boundary = materialize_path_magma(XYZ, 2 + extra)
        assert boundary == []
    assert not TWO_LOOPS.is_acyclic()
    assert TWO_LOOPS.longest_path_length() is None


@st.composite
def small_quivers(draw):
    vertices = draw(st.lists(st.sampled_from("wxyz"), min_size=1, max_size=4, unique=True))
    # names such as "a*b" make labels tie: ("a*b","c") and ("a","b*c") are both a*b*c
    names = draw(st.lists(st.sampled_from(["a", "b", "c", "a*b", "b*c", "d"]),
                          max_size=6, unique=True))
    ends = st.sampled_from(vertices)
    return Quiver(tuple(vertices), tuple((name, draw(ends), draw(ends)) for name in names))


def _chains_of_length(q, k):
    """Every sequence of k arrows whose targets meet the next sources, label-sorted."""
    if k == 0:
        return [q.trivial_path(v) for v in q.vertices]
    chains = [Path(seq[0][1], seq[-1][2], tuple(a[0] for a in seq))
              for seq in itertools.product(q.arrows, repeat=k)
              if all(x[2] == y[1] for x, y in zip(seq, seq[1:]))]
    return sorted(chains, key=lambda p: p.label)


@given(small_quivers(), st.integers(0, 4), st.integers(0, 40))
def test_path_walks_match_brute_force(q, max_len, capacity):
    nv = len(q.vertices)
    by_length = [_chains_of_length(q, k) for k in range(max(max_len, nv) + 1)]
    for k in range(max_len + 1):
        assert q.paths_of_length(k) == by_length[k]
    upto = [p for k in range(max_len + 1) for p in by_length[k]]
    with mock.patch.object(quiver, "PATH_CAPACITY", capacity):
        if any(c > capacity for c in itertools.accumulate(map(len, by_length[:max_len + 1]))):
            with pytest.raises(CapacityError):
                q.paths_upto(max_len)
        else:
            assert q.paths_upto(max_len) == upto
    # a path with as many arrows as vertices repeats a vertex, so it closes a cycle
    longest = None if by_length[nv] else max(k for k in range(nv) if by_length[k])
    assert q.longest_path_length() == longest
    assert q.is_acyclic() == (longest is not None)


@given(small_quivers())
def test_arrow_locality_set_relates_the_paths_of_length_two(q):
    arrows = q.arrow_locality_set()
    assert arrows.elements == tuple(sorted(a[0] for a in q.arrows))
    assert arrows.relation == {p.arrows for p in _chains_of_length(q, 2)}


def test_long_chain_needs_no_recursion():
    vs = tuple(f"v{i:04d}" for i in range(1500))
    chain = Quiver(vs, tuple((f"a{i:04d}", vs[i], vs[i + 1]) for i in range(1499)))
    assert chain.longest_path_length() == 1499
    assert chain.is_acyclic()


def test_arrow_locality_set():
    arrows = XYZ.arrow_locality_set()
    assert arrows.elements == ("alpha", "beta")
    assert arrows.relation == {("alpha", "beta")}
    path_magma, _ = materialize_path_magma(XYZ, 2)
    assert is_locality_map(arrows, path_magma, {"alpha": "alpha", "beta": "beta"})


def test_free_extension_inclusion_is_identity():
    path_magma, _ = materialize_path_magma(XYZ, 2)
    f = {"alpha": "alpha", "beta": "beta"}
    fbar = free_extension(XYZ, path_magma, f)
    for p in XYZ.paths_upto(2):
        if p.length > 0:
            assert fbar(p) == p.label
    for name, _, _ in XYZ.arrows:
        assert fbar(XYZ.path([name])) == f[name]
    assert verify_free_property(XYZ, path_magma, f, 2)


def test_free_extension_two_element_target():
    target = full_relation_magma(("u", "w"), lambda a, b: "w")
    fbar = free_extension(XYZ, target, {"alpha": "u", "beta": "u"})
    assert fbar(XYZ.path(["alpha", "beta"])) == "w"


def test_free_extension_rejects_trivial_paths():
    path_magma, _ = materialize_path_magma(XYZ, 2)
    fbar = free_extension(XYZ, path_magma, {"alpha": "alpha", "beta": "beta"})
    with pytest.raises(DomainError):
        fbar(XYZ.trivial_path("x"))


def test_free_extension_preconditions():
    path_magma, _ = materialize_path_magma(XYZ, 2)
    with pytest.raises(PreconditionError):
        free_extension(XYZ, fixture_magma("ex4_3"), {"alpha": "a", "beta": "a"})
    with pytest.raises(PreconditionError) as err:
        free_extension(XYZ, path_magma, {"alpha": "e_x", "beta": "e_z"})
    assert "(alpha,beta)" in str(err.value)
    with pytest.raises(DomainError):
        free_extension(XYZ, path_magma, {"alpha": "alpha"})
    with pytest.raises(DomainError):
        free_extension(XYZ, path_magma, {"alpha": "alpha", "beta": "nope"})


def test_free_extension_fold_check_survives_optimize(monkeypatch):
    # skip the precondition checks so the fold meets an unrelated pair;
    # the fold check is an explicit raise, so `python -O` cannot strip it
    import locsemi.quiver as quiver
    monkeypatch.setattr(quiver, "_check_arrow_map", lambda *args: None)
    target = FinitePartialMagma(("u",), {})
    fbar = free_extension(XYZ, target, {"alpha": "u", "beta": "u"})
    assert fbar(XYZ.path(["alpha"])) == "u"
    with pytest.raises(InvariantError, match=r"\(u,u\) unrelated"):
        fbar(XYZ.path(["alpha", "beta"]))


def test_free_extension_refuses_a_map_entry_that_names_no_arrow():
    # the rule runs ahead of the target check: ex4_3 is not refined
    path_magma, _ = materialize_path_magma(XYZ, 2)
    message = "map entry 'typo=alpha' names no arrow of the quiver"
    for target, value in ((path_magma, "alpha"), (fixture_magma("ex4_3"), "a")):
        f = {"alpha": value, "beta": value, "typo": value}
        with pytest.raises(DomainError) as exc:
            free_extension(XYZ, target, f)
        assert str(exc.value) == message.replace("alpha", value)


def test_free_property_refuses_colliding_path_labels():
    # the arrow a*b and the path a*b would print as two 'fbar a*b' lines; an
    # arrow e_x meets no nonempty path's label, and trivial paths are not walked
    f = {"a": "1", "b": "1", "a*b": "2"}
    fbar = free_extension(parse_quiver(COMPOSITE_ARROW), z3(), f)
    assert fbar(Path("x", "z", ("a*b",))) == "2" and fbar(Path("x", "z", ("a", "b"))) == "2"
    assert verify_free_property(parse_quiver(COMPOSITE_ARROW), z3(), f, 1)
    with pytest.raises(DomainError) as exc:
        verify_free_property(parse_quiver(COMPOSITE_ARROW), z3(), f, 2)
    assert str(exc.value) == "path labels collide; rename arrows or vertices"
    assert verify_free_property(parse_quiver(E_X_ARROW), z3(), {"e_x": "1"}, 2)


def test_free_extension_into_a_dense_refined_target_builds_no_row_dicts(monkeypatch):
    # the zero-completion of 4 chains, 41 elements with every pair related, is
    # dense: its refined verdict comes from the walk over its flat table, as
    # in classify, and no row dict is built
    from locsemi import checks, complete_to_semigroup_with_zero
    q = Quiver(tuple(f"v{k}_{i}" for k in range(4) for i in range(4)),
               tuple((f"x{k}_{i}", f"v{k}_{i}", f"v{k}_{i + 1}") for k in range(4) for i in range(3)))
    target = complete_to_semigroup_with_zero(materialize_path_magma(q, 3)[0]).magma
    built = []
    lazy_dicts = checks._lazy_dicts
    monkeypatch.setattr(checks, "_lazy_dicts",
                        lambda *args: built.append(len(args[0])) or lazy_dicts(*args))
    f = {name: name for name, _, _ in q.arrows}
    assert free_extension(q, target, f)(q.path(["x0_0", "x0_1"])) == "x0_0*x0_1"
    assert verify_free_property(q, target, f, 3)
    assert built == []
    # a loop into 10 elements with one product: a sparse target, whose row
    # dicts feed the lazy backend
    sparse = FinitePartialMagma(tuple(f"s{i}" for i in range(10)), {("s0", "s0"): "s0"})
    assert verify_free_property(ONE_LOOP, sparse, {"g": "s0"}, 2) and built == [10]


def test_free_extension_into_a_sparse_target_names_the_scan_witness():
    # 10 elements and one product: sparse, so the walk over the lazy backend decides and names
    from locsemi import checks
    elements = tuple(f"s{i}" for i in range(10))
    target = FinitePartialMagma(elements, {("s0", "s1"): "s0"})
    assert 10 * 10 > checks._DENSE_CELLS_PER_PAIR * len(target.table)
    lonely = Quiver(("x", "y"), (("a", "x", "y"),))
    with pytest.raises(PreconditionError) as exc:
        free_extension(lonely, target, {"a": "s0"})
    assert str(exc.value) == "target is not refined: refined-left at (s0,s1,s1)"


def test_free_property_loop_into_z3():
    f = {"g": "1"}
    target = z3()
    fbar = free_extension(ONE_LOOP, target, f)
    for k in range(1, 6):
        assert fbar(ONE_LOOP.path(["g"] * k)) == str(k % 3)
    assert verify_free_property(ONE_LOOP, target, f, 5)
    assert verify_free_property(ONE_LOOP, target, f, 0)
    with pytest.raises(DomainError, match="max_len must be nonnegative"):
        verify_free_property(ONE_LOOP, target, f, -1)
    with pytest.raises(DomainError, match="max_len must be nonnegative"):
        ONE_LOOP.paths_upto(-1)


def test_free_property_vacuous_quiver():
    lonely = Quiver(("x", "y"), (("a", "x", "y"),))
    assert verify_free_property(lonely, z3(), {"a": "2"}, 4)


@pytest.mark.parametrize("wrong, axiom, elements, detail", [
    # (a) runs before (b): beta2 also breaks the pair (alpha,beta2*beta2)
    ({"beta2": "beta2*beta2", "beta1": "beta1*beta1"},
     "free-arrow-restriction", ("beta1",), "beta1*beta1!=beta1"),
    # (beta1,beta1) and (beta2,beta2) break the product later
    ({"beta1*beta1": "alpha", "beta2*beta2": "alpha"},
     "free-hom-relation", ("alpha", "beta2*beta2"), "(alpha,alpha) undefined"),
    # (alpha,beta2) passes; (beta1,beta1) and (beta2,beta2) fail later
    ({"beta1*beta1": "beta1", "beta2*beta2": "beta2"},
     "free-hom-product", ("alpha", "beta2*beta2"), "alpha*beta2!=alpha*beta2*beta2"),
])
def test_free_property_first_witness(monkeypatch, wrong, axiom, elements, detail):
    # the inclusion into the path magma, made wrong on a few paths, breaks
    # several paths or pairs; the verdict names the first in paths_upto
    # order, p before r
    target, _ = materialize_path_magma(TWO_LOOPS, 3)
    f = {name: name for name, _, _ in TWO_LOOPS.arrows}
    monkeypatch.setattr(quiver, "free_extension",
                        lambda q, s, f: lambda p: wrong.get(p.label, p.label))
    verdict = verify_free_property(TWO_LOOPS, target, f, 3)
    assert not verdict.ok
    assert verdict.witness == Witness(axiom, elements, detail)


# two loops on one vertex: every arrow pair composes
LOOPS_AT_V = Quiver(("v",), (("g", "v", "v"), ("h", "v", "v")))


def test_paths_of_length_counts_before_it_builds():
    # 32,767 paths up to length 14 pass the capacity, so none of the 16,384
    # of length 14 may be built
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"^more than 10000 paths up to length 14$"):
            LOOPS_AT_V.paths_of_length(14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("q, target, f, max_len", [
    (XYZ, materialize_path_magma(XYZ, 2)[0], "alpha=alpha,beta=beta", 2),
    # the left-zero semigroup xy = x
    (LOOPS_AT_V, full_relation_magma(("0", "1"), lambda a, b: a), "g=0,h=1", 6),
], ids=["xyz", "loops_at_v"])
def test_quiver_commands_walk_and_fold_once(tmp_path, capsys, monkeypatch, q, target, f, max_len):
    walks, folds = [], []
    paths_upto, extension = Quiver.paths_upto, quiver.free_extension
    monkeypatch.setattr(Quiver, "paths_upto",
                        lambda self, *args: walks.append(args) or paths_upto(self, *args))

    def counted_extension(q, s, f):
        fbar = extension(q, s, f)
        return lambda p: folds.append(p.label) or fbar(p)

    monkeypatch.setattr(quiver, "free_extension", counted_extension)
    qfile, tfile = tmp_path / "q.quiver", tmp_path / "t.magma"
    qfile.write_text(serialize_quiver(q))
    tfile.write_text(serialize_magma(target))
    assert cli.run(["quiver", "paths", str(qfile), "--max-len", str(max_len)]) == 0
    assert walks == [(max_len,)]
    walks.clear()
    assert cli.run(["quiver", "free-ext", str(qfile), "--target", str(tfile),
                    "--map", f, "--max-len", str(max_len)]) == 0
    assert capsys.readouterr().out.endswith("free_property=yes\n")
    assert walks == [(max_len,)]
    assert folds == [p.label for p in paths_upto(q, max_len) if p.length > 0]


def test_quiver_free_ext_prints_the_values_then_the_failing_verdict(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(quiver, "free_extension", lambda q, s, f: lambda p: (
        "alpha" if p.label == "alpha*beta" else p.label))
    qfile, tfile = tmp_path / "q.quiver", tmp_path / "t.magma"
    qfile.write_text(fixture_text("ex2_17_quiver"))
    tfile.write_text(serialize_magma(materialize_path_magma(XYZ, 2)[0]))
    assert cli.run(["quiver", "free-ext", str(qfile), "--target", str(tfile),
                    "--map", "alpha=alpha,beta=beta", "--max-len", "2"]) == 1
    assert capsys.readouterr().out == (
        "fbar alpha = alpha\nfbar beta = beta\nfbar alpha*beta = alpha\n"
        "free_property=no[witness: free-hom-product (alpha,beta) alpha*beta!=alpha]\n")


def _homomorphisms(q, s, max_len):
    """Every map from the nonempty paths up to max_len into s that is a
    locality homomorphism on their composable pairs, by brute force."""
    paths = [p for p in q.paths_upto(max_len) if p.length > 0]
    index = {p: i for i, p in enumerate(paths)}
    pairs = [(index[p], index[r], index[compose(p, r)])
             for p, r in itertools.product(paths, repeat=2)
             if p.target == r.source and p.length + r.length <= max_len]
    for h in itertools.product(s.elements, repeat=len(paths)):
        if all(s.table.get((h[i], h[j])) == h[k] for i, j, k in pairs):
            yield dict(zip(paths, h))


def _refined_targets():
    small = [m for n in (1, 2) for m in map(functools.partial(decode_magma, n),
                                            range(search_space_size(n)))
             if is_refined_locality_semigroup(m)]
    refined3 = [code for code, flags in scan_flags(3) if flags[2]]
    return small + [decode_magma(3, c) for c in random.Random(16).sample(refined3, 20)]


@pytest.mark.parametrize("q", [XYZ, TWO_LOOPS, LOOPS_AT_V], ids=["xyz", "two_loops", "loops_at_v"])
def test_free_property_matches_brute_force_homomorphisms(q):
    # the theorem, checked without the extension's fold: each locality arrow
    # map into a refined target extends to exactly one homomorphism
    arrows = [name for name, _, _ in q.arrows]
    for s in _refined_targets():
        assert is_refined_locality_semigroup(s)
        by_arrows: dict[tuple[str, ...], list] = {}
        for h in _homomorphisms(q, s, 2):
            by_arrows.setdefault(tuple(h[q.path([a])] for a in arrows), []).append(h)
        maps = [dict(zip(arrows, vals))
                for vals in itertools.product(s.elements, repeat=len(arrows))]
        local = [f for f in maps if is_locality_map(q.arrow_locality_set(), s, f)]
        assert sorted(by_arrows) == sorted(tuple(f[a] for a in arrows) for f in local)
        for f in local:
            [h] = by_arrows[tuple(f[a] for a in arrows)]
            fbar = free_extension(q, s, f)
            assert {p: fbar(p) for p in h} == h
            assert verify_free_property(q, s, f, 2)


def _bracketings(table, vals):
    """Values of every full bracketing of vals under table, by brute force."""
    if len(vals) == 1:
        return set(vals)
    return {table[(u, v)] for i in range(1, len(vals))
            for u in _bracketings(table, vals[:i]) for v in _bracketings(table, vals[i:])}


def test_fold_order_independence():
    # verify_free_property checks no bracketing: its pair check implies this
    target = z3()
    fbar = free_extension(ONE_LOOP, target, {"g": "1"})
    for k in range(1, 7):
        vals = _bracketings(target.table, ("1",) * k)
        assert vals == {fbar(ONE_LOOP.path(["g"] * k))} == {str(k % 3)}
