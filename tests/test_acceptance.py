"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import math
import time

import pytest

from locsemi import (NotAssociative, adjoin_identity, adjoin_zero, census,
                     classify, complete_to_semigroup_with_zero, coprime_magma,
                     decode_magma, find_identities, find_zeros,
                     free_extension, full_relation_magma,
                     is_locality_semigroup, is_refined_locality_semigroup,
                     is_strong_semigroup_with_zero, materialize_path_magma,
                     powerset_magma, sampled_classify, search_space_size,
                     totient, totient_hom_check, verify_free_property)
from locsemi.checks import _flat, _masks
from locsemi.fixtures import fixture_magma, fixture_quiver
from locsemi.quiver import Quiver

from orderly import _flags_by_code, _iter_tables, _polar_violators


def test_criterion_1_fixture_exactness():
    fixtures = {name: fixture_magma(name)
                for name in ("ex3_6", "ex3_8", "ex3_psg_not_lsg", "ex4_3")}
    reports = {}
    for name, m in fixtures.items():
        classify(m)  # warm-up
        timings = []
        for _ in range(5):
            t0 = time.perf_counter()
            reports[name] = classify(m)
            timings.append(time.perf_counter() - t0)
        elapsed = min(timings)
        assert elapsed < 0.001, f"classify({name}) took {elapsed * 1000:.2f} ms"

    r = reports["ex3_6"]
    assert r.partial.ok and not r.strong.ok

    r = reports["ex3_8"]
    assert r.locality.ok and not r.partial.ok

    r = reports["ex3_psg_not_lsg"]
    assert r.partial.ok and not r.locality.ok
    assert r.locality.witness.axiom == "left-polar-closure"
    assert r.locality.witness.detail == "U={b}"
    assert r.locality.witness.elements == ("b", "b", "b")

    r = reports["ex4_3"]
    assert r.strong.ok and not r.refined.ok
    w = r.refined.witness
    assert w.elements == ("a", "b", "a")
    assert "(a,a) defined but (b,a) undefined" == w.detail

    print("ACCEPTANCE 1 PASS: fixture classifications exact, each under 1 ms")


def test_criterion_2_completion_theorem():
    with pytest.raises(NotAssociative) as err:
        complete_to_semigroup_with_zero(fixture_magma("ex4_3"))
    assert err.value.triple == ("a", "b", "a")
    assert err.value.lhs == "a" and err.value.rhs == "0"

    t0 = time.perf_counter()
    refined_total = 0
    for n in (1, 2, 3):
        for code, flags in enumerate(_flags_by_code(n)):
            if flags[2]:  # refined
                total = complete_to_semigroup_with_zero(decode_magma(n, code))
                assert is_strong_semigroup_with_zero(total), (n, code)
                refined_total += 1
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"n<=3 refined sweep took {elapsed:.1f}s"
    assert refined_total > 0
    print(f"ACCEPTANCE 2 PASS: ex4_3 completion fails at (a,b,a) a/0; "
          f"all {refined_total} refined structures at n<=3 complete to strong "
          f"semigroups with zero in {elapsed:.1f}s")


def test_criterion_3_census_totals():
    totals = {}
    for n in (1, 2, 3):
        rows = census(n)
        totals[n] = sum(r.count for r in rows)
        for r in rows:
            loc, strong, refined, partial, trans = (ch != "-" for ch in r.pattern)
            assert not refined or strong, r.pattern
            assert not strong or (loc and partial), r.pattern
    assert totals == {1: 2, 2: 81, 3: 262144}
    assert all(totals[n] == search_space_size(n) == (n + 1) ** (n * n)
               for n in (1, 2, 3))

    pats = [tuple(ch != "-" for ch in r.pattern) for r in census(2)]
    assert any(p[1] and not p[2] for p in pats)            # strong, not refined
    assert any(p[0] and p[3] and not p[1] for p in pats)   # locality+partial, not strong
    assert any(p[0] and not p[3] for p in pats)            # locality, not partial
    assert any(p[3] and not p[0] for p in pats)            # partial, not locality
    print(f"ACCEPTANCE 3 PASS: census totals {totals}, inclusion chain clean, "
          f"all four strict-inclusion regions nonempty at n=2")


def test_criterion_4_polar_reduction_oracle():
    # the library's singleton clauses, the two polar masks of _masks at every
    # related pair of each flat table, against the literal closure over
    # every subset, decided by blocks
    mismatches = 0
    scanned = 0
    for n in (1, 2, 3):
        literal = _polar_violators(n)
        for code, t in _iter_tables(n):
            scanned += 1
            R, C, rows, _, _, empty, _ = _flat(n, t)
            singleton = any(left or right
                            for a in range(n) for b, ab in rows(a)
                            for left, right in [_masks(R[a], R[b], R[ab], C[a], C[b], C[ab],
                                                       empty, empty)[:2]])
            if singleton != (literal[code] == "1"):
                mismatches += 1
    assert scanned == 2 + 81 + 262144
    assert mismatches == 0
    print(f"ACCEPTANCE 4 PASS: singleton vs subset polar closure agrees on all "
          f"{scanned} structures with n<=3 (zero mismatches)")


def test_criterion_5_path_semigroup():
    q = fixture_quiver("ex2_17_quiver")
    magma, boundary = materialize_path_magma(q, 2)
    assert magma.elements == ("alpha", "alpha*beta", "beta", "e_x", "e_y", "e_z")
    assert boundary == []
    assert is_refined_locality_semigroup(magma)
    total = complete_to_semigroup_with_zero(magma)
    assert is_strong_semigroup_with_zero(total)
    print("ACCEPTANCE 5 PASS: x->y->z quiver yields the 6 expected paths, "
          "refined, with a strong zero-completion")


def test_criterion_6_free_extension():
    q = fixture_quiver("ex2_17_quiver")
    path_magma, _ = materialize_path_magma(q, 2)
    inclusion = {"alpha": "alpha", "beta": "beta"}
    fbar = free_extension(q, path_magma, inclusion)
    for p in q.paths_upto(2):
        if p.length > 0:
            assert fbar(p) == p.label
    for name, _, _ in q.arrows:
        assert fbar(q.path([name])) == inclusion[name]
    assert verify_free_property(q, path_magma, inclusion, 2)

    loop = Quiver(("v",), (("g", "v", "v"),))
    z3 = full_relation_magma(("0", "1", "2"),
                             lambda a, b: str((int(a) + int(b)) % 3))
    fb = free_extension(loop, z3, {"g": "1"})
    for k in range(1, 6):
        assert fb(loop.path(["g"] * k)) == str(k % 3)  # modular oracle
    assert verify_free_property(loop, z3, {"g": "1"}, 5)
    print("ACCEPTANCE 6 PASS: inclusion extension is the path identity with "
          "fbar o j = f; loop-into-Z3 extension matches k mod 3 up to length 5 "
          "with fold-order independence")


def test_criterion_7_predicate_structures():
    rep = sampled_classify(coprime_magma(), 12)
    assert not rep.strong.ok
    w = rep.strong.witness
    assert w.axiom == "strong-left"
    assert w.elements == ("2", "3", "4")
    assert w.detail == "(6,4) undefined"
    assert rep.partial.ok and rep.locality.ok

    assert totient_hom_check(30)
    for n in range(1, 31):  # direct-count oracle, independent gcd
        assert totient(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    for size in (1, 2, 3):
        base = set(range(1, size + 1))
        union = powerset_magma(base, "union")
        inter = powerset_magma(base, "intersection")
        for m in (union, inter):
            r = classify(m)
            assert r.locality.ok and r.transitive.ok
        assert "{}" in find_identities(union)[0]
        assert "{}" in find_zeros(inter)[0]
    print("ACCEPTANCE 7 PASS: coprime bound-12 scan pins witness (2,3),(3,4) "
          "with partial and locality holding; totient multiplicative to 30; "
          "power sets locality+transitive with the expected one-sided elements")


def test_criterion_8_adjunction():
    checked = 0
    for n in (1, 2):
        for code, flags in enumerate(_flags_by_code(n)):
            if not flags[0]:  # locality
                continue
            m = decode_magma(n, code)
            with_id = adjoin_identity(m, "e")
            assert "e" in find_identities(with_id)[2], (n, code)
            assert is_locality_semigroup(with_id), (n, code)
            with_zero = adjoin_zero(m, "z")
            assert "z" in find_zeros(with_zero)[2], (n, code)
            assert is_locality_semigroup(with_zero), (n, code)
            checked += 1
    assert checked > 0
    print(f"ACCEPTANCE 8 PASS: identity/zero adjunction on all {checked} "
          f"locality structures at n<=2 keeps the class and installs the new element")
