import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locsemi import (CapacityError, DomainError, FinitePartialMagma, census,
                     classify, decode_magma, encode_magma, enumerate_magmas,
                     find_witness, format_census_table, parse_magma,
                     sample_census, sample_magmas, scan_flags,
                     search_space_size)
from locsemi.checks import _table_flags
from locsemi.enumeration import _decode_table, _iter_tables


def test_search_space_sizes():
    assert search_space_size(1) == 2
    assert search_space_size(2) == 81
    assert search_space_size(3) == 262144


def test_enumerate_n1():
    ms = list(enumerate_magmas(1))
    assert len(ms) == 2
    assert ms[0].table == {}
    assert ms[1].table == {("a", "a"): "a"}


def test_enumerate_n2_count():
    assert sum(1 for _ in enumerate_magmas(2)) == 81


def test_enumerate_capacity():
    with pytest.raises(CapacityError):
        next(iter(enumerate_magmas(4)))


def test_sampling_is_seeded():
    a = [encode_magma(m) for m in sample_magmas(4, 20, seed=7)]
    b = [encode_magma(m) for m in sample_magmas(4, 20, seed=7)]
    c = [encode_magma(m) for m in sample_magmas(4, 20, seed=8)]
    assert a == b and a != c


@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, search_space_size(n) - 1))))
def test_decode_encode_round_trip(nc):
    n, code = nc
    assert encode_magma(decode_magma(n, code)) == code


def test_decode_bounds():
    with pytest.raises(DomainError):
        decode_magma(2, 81)
    with pytest.raises(DomainError):
        decode_magma(5, 0)


def test_kernel_matches_checkers_exhaustive_small():
    for n in (1, 2):
        for code, t in _iter_tables(n):
            m = decode_magma(n, code)
            assert classify(m).flags() == _table_flags(n, t), (n, code)


def test_kernel_matches_checkers_stride_n3():
    for code in range(0, search_space_size(3), 1013):
        m = decode_magma(3, code)
        assert classify(m).flags() == _table_flags(3, _decode_table(3, code)), code


@settings(max_examples=60)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, search_space_size(n) - 1))))
def test_kernel_matches_checkers_random(nc):
    n, code = nc
    assert classify(decode_magma(n, code)).flags() == _table_flags(n, _decode_table(n, code))


def _rows_by_pattern(rows):
    return {r.pattern: r for r in rows}


def test_census_totals_small():
    rows1 = census(1)
    assert sum(r.count for r in rows1) == 2
    rows2 = census(2)
    assert sum(r.count for r in rows2) == 81


def test_census_witness_regions_n2():
    pats = [tuple(ch != "-" for ch in r.pattern) for r in census(2)]
    # locality, strong, refined, partial, transitive
    assert any(p[0] and not p[3] for p in pats)          # locality, not partial
    assert any(p[3] and not p[0] for p in pats)          # partial, not locality
    assert any(p[1] and not p[2] for p in pats)          # strong, not refined
    assert any(p[0] and p[3] and not p[1] for p in pats)  # locality+partial, not strong


def test_census_respects_inclusion_chain():
    for n in (1, 2):
        for r in census(n):
            loc, strong, refined, partial, trans = (ch != "-" for ch in r.pattern)
            assert not refined or strong
            assert not strong or (loc and partial)
            assert not (trans and loc) or partial


def test_census_witnesses_match_their_pattern():
    from locsemi import parse_magma
    for r in census(2):
        flags = classify(parse_magma(r.witness)).flags()
        assert r.pattern == "".join(
            l if f else "-" for l, f in zip("LSRPT", flags))
        assert encode_magma(parse_magma(r.witness)) == r.witness_code


def test_census_dedup_counts_bounded_by_raw():
    raw = _rows_by_pattern(census(2))
    dedup = _rows_by_pattern(census(2, dedup=True))
    assert set(raw) == set(dedup)
    for pattern, row in dedup.items():
        assert row.count <= raw[pattern].count
    # isomorphism classes of the diagonal-relation pair structures collapse
    assert sum(r.count for r in dedup.values()) < 81


# (pattern, count, witness code) of every row of the n=3 census, raw and
# up to isomorphism
CENSUS_N3 = [
    ("-----", 202898, 70), ("----T", 51484, 6), ("---P-", 322, 206),
    ("---PT", 434, 2), ("L----", 4126, 72), ("L--P-", 1055, 68),
    ("LS-P-", 546, 69), ("LS-PT", 1002, 4), ("LSRP-", 6, 15873),
    ("LSRPT", 271, 0),
]
CENSUS_N3_DEDUP = [
    ("-----", 33909, 70), ("----T", 8687, 6), ("---P-", 57, 206),
    ("---PT", 80, 2), ("L----", 715, 72), ("L--P-", 184, 68),
    ("LS-P-", 95, 69), ("LS-PT", 182, 4), ("LSRP-", 1, 15873),
    ("LSRPT", 58, 0),
]


def _row_triples(rows):
    return [(r.pattern, r.count, r.witness_code) for r in rows]


def test_census_n3_rows_pinned():
    rows = census(3)
    assert _row_triples(rows) == CENSUS_N3
    class_totals = {
        name: sum(r.count for r in rows if r.pattern[i] != "-")
        for i, name in enumerate(("locality", "strong", "refined", "partial",
                                  "transitive"))}
    assert class_totals == {"locality": 7006, "strong": 1825, "refined": 277,
                            "partial": 3636, "transitive": 53191}


def test_census_n3_dedup_rows_pinned():
    rows = census(3, dedup=True)
    assert _row_triples(rows) == CENSUS_N3_DEDUP
    assert sum(r.count for r in rows) == 43968
    for r in rows:
        assert encode_magma(parse_magma(r.witness)) == r.witness_code


def _relabel_code(m, perm):
    """Code of m after sending its i-th label to its perm[i]-th label."""
    to = dict(zip(m.elements, (m.elements[i] for i in perm)))
    table = {(to[a], to[b]): to[c] for (a, b), c in m.table.items()}
    return encode_magma(FinitePartialMagma(m.elements, table))


@pytest.mark.parametrize("n, dedup", [
    pytest.param(1, True, id="1"), pytest.param(2, True, id="2"),
    pytest.param(1, False, id="1-raw"), pytest.param(2, False, id="2-raw")])
def test_census_dedup_matches_relabeling_brute_force(n, dedup):
    if dedup:
        perms = list(itertools.permutations(range(n)))
        classes = {}
        for code in range(search_space_size(n)):
            m = decode_magma(n, code)
            classes.setdefault(min(_relabel_code(m, p) for p in perms), m)
        structures = sorted(classes.items())
    else:
        structures = [(code, decode_magma(n, code)) for code in range(search_space_size(n))]
    tally = {}
    for code, m in structures:
        pattern = "".join(l if f else "-" for l, f in zip("LSRPT", classify(m).flags()))
        count, first = tally.get(pattern, (0, code))
        tally[pattern] = (count + 1, first)
    want = sorted((p, c, w) for p, (c, w) in tally.items())
    assert _row_triples(census(n, dedup=dedup)) == want


def test_census_capacity():
    with pytest.raises(CapacityError):
        census(4)


@pytest.mark.parametrize("call", [
    lambda: census(0),
    lambda: census(-1),
    lambda: find_witness({"commutative": True}, 2),
    lambda: decode_magma(2, search_space_size(2)),
    lambda: sample_census(0, 10, seed=1),
    lambda: sample_census(-1, 10, seed=1),
    lambda: sample_census(4, -5, seed=1),
    lambda: next(scan_flags(0)),
    lambda: next(scan_flags(-2)),
    lambda: find_witness({}, 0),
    lambda: find_witness({"locality": True}, -1),
    lambda: next(enumerate_magmas(0)),
    lambda: next(enumerate_magmas(-1)),
    lambda: next(sample_magmas(-1, 5, seed=1)),
    lambda: next(sample_magmas(4, -3, seed=1)),
])
def test_census_and_scan_reject_bad_arguments(call):
    with pytest.raises(DomainError):
        call()


def test_sample_census_seeded():
    a = sample_census(4, 200, seed=3)
    assert a == sample_census(4, 200, seed=3)
    assert sum(r.count for r in a) == 200


def test_find_witness_patterns():
    found = find_witness({"locality": True, "partial": True, "strong": False}, 2)
    assert found is not None
    rep = classify(found)
    assert rep.locality.ok and rep.partial.ok and not rep.strong.ok

    assert find_witness({"refined": True, "locality": False}, 2) is None

    first = find_witness({}, 2)
    assert first == decode_magma(2, 0)
    assert first.table == {}

    with pytest.raises(DomainError):
        find_witness({"shiny": True}, 2)
    with pytest.raises(CapacityError):
        find_witness({}, 4)


_FLAG_NAMES = ("locality", "strong", "refined", "partial", "transitive")


@pytest.mark.parametrize("n", [1, 2])
def test_find_witness_is_first_match_small(n):
    flags = [classify(decode_magma(n, code)).flags() for code in range(search_space_size(n))]
    # all 243 partial patterns: each flag unspecified (None), required or forbidden
    for values in itertools.product((None, True, False), repeat=5):
        wanted = {name: v for name, v in zip(_FLAG_NAMES, values) if v is not None}
        first = next((code for code, f in enumerate(flags)
                      if all(v is None or f[i] == v for i, v in enumerate(values))), None)
        found = find_witness(wanted, n)
        assert (None if found is None else encode_magma(found)) == first, wanted


@pytest.mark.parametrize("flags", [
    "locality=yes,refined=yes,transitive=no",
    "partial=yes,locality=no,transitive=no",
    "strong=yes,transitive=no",
    "locality=yes,partial=no",
    "transitive=yes,partial=no",
    "refined=yes",
    "refined=yes,strong=no",
])
def test_find_witness_n3_matches_census_rows(flags):
    wanted = {k: v == "yes" for k, v in (kv.split("=") for kv in flags.split(","))}
    codes = [code for pattern, _, code in CENSUS_N3
             if all((pattern[_FLAG_NAMES.index(k)] != "-") == v for k, v in wanted.items())]
    found = find_witness(wanted, 3)
    assert (None if found is None else encode_magma(found)) == min(codes, default=None)


def test_format_census_table():
    text = format_census_table(census(2))
    assert "pattern=LSRPT count=16 code=0" in text
    assert text.splitlines()[0].startswith("pattern")
